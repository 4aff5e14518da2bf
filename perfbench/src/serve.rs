//! `serve-open`: a frozen tiny ResNet behind the in-process server, with
//! the user-default configuration, driven by an open-loop generator in
//! three fixed-rate phases.
//!
//! One generator thread sends each request at its scheduled time,
//! whatever the server is doing; one collector thread waits for the
//! answers in send order. Latency counts from the scheduled send time,
//! so a late generator or a stalled server shows up in it.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use mbs_cnn::networks::toy;
use mbs_core::HardwareConfig;
use mbs_serve::{Client, ModelHandle, Pending, ServeConfig, ServeError, Server, SubmitOptions};
use mbs_tensor::{arena, Tensor};
use mbs_train::data::generate;
use mbs_train::module::slice_batch;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{max, mean, median, percentile, poisson_schedule};
use crate::sys::Stopwatch;
use crate::trace::Tracer;
use crate::{Opts, Run, SetupClock, SETUP_REPEATS_FAST};

/// Seed of the served model's weights (fixed, like the training
/// workloads' initial weights).
const MODEL_SEED: u64 = 0x6d62_735f_7365_7276;
/// Offered rates in requests per second, fixed against what the default
/// server reaches on a 2-vCPU x86-64 KVM guest: one batch-1 request
/// every ~4 ms (2 ms `max_wait` plus ~2 ms compute, so ~250/s) and
/// ~750/s saturated. `light` is a third of the batch-1 rate, `busy`
/// about half the saturated rate, `overload` about 1.7 times it.
pub const LIGHT_RPS: f64 = 80.0;
pub const BUSY_RPS: f64 = 350.0;
pub const OVERLOAD_RPS: f64 = 1300.0;
/// Latency limit: the overload phase's per-request deadline, and the
/// bound a request must meet to count towards goodput.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(50);
/// Each phase lasts long enough for this many expected requests, so the
/// p99 always has at least ten samples beyond it, and for at least
/// `MIN_PHASE_S`, so that overload fills the queue (2048 deep, growing by
/// ~600/s) and runs full for a while.
const MIN_PHASE_REQUESTS: f64 = 1100.0;
const MIN_PHASE_S: f64 = 5.0;
/// Rounds the light and busy phases are split into; their `p50_ms` is
/// the median of the rounds' medians.
const ROUNDS: usize = 5;
/// Distinct input images the requests cycle through.
const POOL: usize = 256;
/// Every `PROBE_EVERY`-th request of the light and busy phases is a
/// probe whose answer is checked against `ModelRunner::infer_one`.
const PROBE_EVERY: u64 = 16;

/// One request on its way from the generator to the collector.
struct Sent {
    id: u64,
    sample: usize,
    due: Instant,
    pending: Result<Pending, ServeError>,
}

/// What the collector saw for one phase.
#[derive(Default)]
struct Collected {
    /// Latency from scheduled send to answer, in ms, for answered requests.
    latency_ms: Vec<f64>,
    /// `(sample, logits)` of answered probes.
    probes: Vec<(usize, Vec<f32>)>,
    refused: u64,
    shed: u64,
    expired: u64,
    failed: u64,
}

/// One phase's figures.
struct Phase {
    name: &'static str,
    sent: usize,
    duration_s: f64,
    submit_us: Vec<f64>,
    late_ms: Vec<f64>,
    got: Collected,
    /// Requests the server batched, batches it ran, and the largest one.
    batched: u64,
    batches: u64,
    batch_max: usize,
    /// Median latency of each round the phase ran in.
    round_p50_ms: Vec<f64>,
}

impl Phase {
    fn batch_mean(&self) -> f64 {
        self.batched as f64 / self.batches.max(1) as f64
    }

    /// Folds a later round of the same phase into this one.
    fn absorb(&mut self, r: Phase) {
        self.sent += r.sent;
        self.duration_s += r.duration_s;
        self.submit_us.extend(r.submit_us);
        self.late_ms.extend(r.late_ms);
        self.round_p50_ms.extend(r.round_p50_ms);
        self.batched += r.batched;
        self.batches += r.batches;
        self.batch_max = self.batch_max.max(r.batch_max);
        let g = &mut self.got;
        g.latency_ms.extend(r.got.latency_ms);
        g.probes.extend(r.got.probes);
        g.refused += r.got.refused;
        g.shed += r.got.shed;
        g.expired += r.got.expired;
        g.failed += r.got.failed;
    }
}

/// One stretch of one phase's send schedule.
struct Round {
    name: &'static str,
    /// Sent through `try_submit` with the latency limit as deadline.
    overload: bool,
    duration_s: f64,
    /// Send times in seconds from the round's start.
    schedule: Vec<f64>,
    /// Request id of the round's first request.
    first_id: u64,
}

/// Sends one round open-loop and collects every answer.
fn run_phase(
    server: &Server,
    round: &Round,
    samples: &[Tensor],
    tracers: (&mut Tracer, &mut Tracer),
) -> Phase {
    let Round {
        name,
        overload,
        duration_s,
        ref schedule,
        first_id,
    } = *round;
    let client: Client = server.client();
    let before = server.stats();
    let (gen_tr, col_tr) = tracers;
    let (tx, rx) = mpsc::channel::<Sent>();
    let probing = !overload;
    let mut submit_us = Vec::with_capacity(schedule.len());
    let mut late_ms = Vec::with_capacity(schedule.len());
    let got = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut got = Collected::default();
            for sent in rx {
                let pending = match sent.pending {
                    Ok(p) => p,
                    Err(ServeError::Overloaded { .. }) => {
                        got.refused += 1;
                        continue;
                    }
                    Err(_) => {
                        got.failed += 1;
                        continue;
                    }
                };
                let open = col_tr.begin("serve.wait", sent.id);
                let answer = pending.wait();
                col_tr.end(open);
                match answer {
                    Ok(p) => {
                        got.latency_ms.push(sent.due.elapsed().as_secs_f64() * 1e3);
                        if probing && sent.id % PROBE_EVERY == 0 {
                            got.probes.push((sent.sample, p.logits));
                        }
                    }
                    Err(ServeError::Overloaded { .. }) => got.shed += 1,
                    Err(ServeError::DeadlineExceeded) => got.expired += 1,
                    Err(_) => got.failed += 1,
                }
            }
            got
        });
        let opts = SubmitOptions::default().deadline(LATENCY_LIMIT);
        let start = Instant::now();
        for (i, &at) in schedule.iter().enumerate() {
            let due = start + Duration::from_secs_f64(at);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t0 = Instant::now();
            late_ms.push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
            let id = first_id + i as u64;
            let sample = i % samples.len();
            let open = gen_tr.begin("serve.submit", id);
            let pending = if overload {
                client.try_submit(&samples[sample], opts)
            } else {
                client.submit(&samples[sample])
            };
            gen_tr.end(open);
            submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let sent = Sent {
                id,
                sample,
                due,
                pending,
            };
            if tx.send(sent).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().expect("collector thread does not panic")
    });
    let after = server.stats();
    let grew = |k: usize| after.histogram[k] > before.histogram.get(k).copied().unwrap_or(0);
    Phase {
        name,
        sent: schedule.len(),
        duration_s,
        submit_us,
        late_ms,
        round_p50_ms: vec![median(&got.latency_ms)],
        got,
        batched: after.requests - before.requests,
        batches: after.batches - before.batches,
        batch_max: (0..after.histogram.len())
            .rev()
            .find(|&k| grew(k))
            .unwrap_or(0),
    }
}

/// Cross-entropy of one answer's logits against its label.
fn cross_entropy(logits: &[f32], label: usize) -> f64 {
    let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
    let z: f64 = logits.iter().map(|&l| (l as f64 - m).exp()).sum();
    -((logits[label] as f64 - m) - z.ln())
}

/// `serve-open`: see the module docs.
pub fn serve_open(o: &Opts, run: &mut Run) {
    let net = toy::tiny_resnet(2, 32);

    // Inputs: the image pool and the three phases' send schedules.
    let data = generate(POOL, 32, 0.3, o.seed);
    let samples: Vec<Tensor> = (0..POOL)
        .map(|i| slice_batch(&data.images, i, i + 1))
        .collect();
    let labels = data.labels.clone();
    drop(data);
    let mut rng = StdRng::seed_from_u64(o.seed);
    let mut rounds = |name, rate: f64, n: usize| -> Vec<Round> {
        let d = (o.seconds / 3.0)
            .max(MIN_PHASE_REQUESTS / rate)
            .max(MIN_PHASE_S)
            / n as f64;
        (0..n)
            .map(|_| Round {
                name,
                overload: name == "overload",
                duration_s: d,
                schedule: poisson_schedule(rate, d, &mut rng),
                first_id: 0,
            })
            .collect()
    };
    let light = rounds("light", LIGHT_RPS, ROUNDS);
    let busy = rounds("busy", BUSY_RPS, ROUNDS);
    let overload = rounds("overload", OVERLOAD_RPS, 1);
    // Light and busy alternate round by round, so a slow spell of the
    // machine lands on both rather than on one phase; overload runs last.
    let mut plan: Vec<Round> = light
        .into_iter()
        .zip(busy)
        .flat_map(|(l, b)| [l, b])
        .collect();
    plan.extend(overload);
    let mut next_id = 0;
    for r in &mut plan {
        r.first_id = next_id;
        next_id += r.schedule.len() as u64;
    }

    // Set-up, several times: freeze the model, start the server, warm up.
    let mut setup = SetupClock::default();
    let mut freeze_ms = vec![];
    let mut kept: Option<(ModelHandle, Server, ServeConfig)> = None;
    for _ in 0..SETUP_REPEATS_FAST {
        if let Some((_, server, _)) = kept.take() {
            server.shutdown();
        }
        arena::clear();
        let sw = Stopwatch::start();
        let t0 = Instant::now();
        let handle = match ModelHandle::from_network(&net, MODEL_SEED) {
            Ok(h) => h,
            Err(e) => {
                run.fail(format!("freezing the model failed: {e}"));
                return;
            }
        };
        freeze_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let config = ServeConfig::for_model(&handle, &HardwareConfig::cpu());
        let server = Server::start(&handle, config);
        let client = server.client();
        let warm: Vec<_> = (0..64).map(|i| client.submit(&samples[i % POOL])).collect();
        for p in warm {
            if !matches!(p.map(Pending::wait), Ok(Ok(_))) {
                run.fail("a warm-up request failed".to_string());
            }
        }
        setup.record(&sw);
        kept = Some((handle, server, config));
    }
    let (handle, server, config) = kept.expect("at least one set-up");
    run.notes.push(format!(
        "server: {} worker(s), max_batch {}, max_wait {} us, queue {}",
        config.workers, config.max_batch, config.max_wait_us, config.queue_depth
    ));
    setup.publish(run);
    run.values.set("model.freeze_ms", median(&freeze_ms));

    let origin = Instant::now();
    let mut gen_tr = Tracer::new(o.trace, origin);
    let mut col_tr = Tracer::new(o.trace, origin);
    let mut phases: Vec<Phase> = Vec::new();
    let mut overload_cpu_s = 0.0;
    for round in &plan {
        if round.overload {
            // Overload batches are as large as the queue lets them grow,
            // so the high-water RSS is recorded before and after it.
            run.values.set("peak_rss_mib", crate::sys::peak_rss_mib());
        }
        let sw = Stopwatch::start();
        let p = run_phase(&server, round, &samples, (&mut gen_tr, &mut col_tr));
        if round.overload {
            overload_cpu_s = sw.cpu_s();
        }
        match phases.iter_mut().find(|q| q.name == round.name) {
            Some(q) => q.absorb(p),
            None => phases.push(p),
        }
    }
    let final_stats = server.shutdown();
    run.values
        .set("serve.overload.peak_rss_mib", crate::sys::peak_rss_mib());
    if final_stats.panics > 0 {
        run.fail(format!("{} worker panic(s)", final_stats.panics));
    }

    // Probes: every checked answer must equal the single-sample path.
    let mut runner = handle.runner();
    let mut ce = Vec::new();
    let mut mismatched = 0;
    let mut probes = 0;
    for p in &phases {
        for (sample, logits) in &p.got.probes {
            probes += 1;
            let want = runner.infer_one(&samples[*sample]);
            let same = want.logits.len() == logits.len()
                && want
                    .logits
                    .iter()
                    .zip(logits)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                mismatched += 1;
            }
            ce.push(cross_entropy(logits, labels[*sample]));
        }
    }
    run.check(
        &format!("{probes} probe answers equal infer_one bit for bit"),
        probes > 0 && mismatched == 0,
    );

    // Standalone forward timings at batch 1 and at the busy batch size.
    let busy_batch = phases[1].batch_mean().round().max(1.0) as usize;
    let time_infer = |runner: &mut mbs_serve::ModelRunner, n: usize, reps: usize| {
        let c = runner.input();
        let batch = Tensor::zeros(&[n, c.channels, c.height, c.width]);
        let mut t = Vec::with_capacity(reps);
        for _ in 0..reps {
            let x = batch.clone();
            let t0 = Instant::now();
            std::hint::black_box(runner.infer(x));
            t.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        median(&t)
    };
    let b1 = time_infer(&mut runner, 1, 400);
    let bb = time_infer(&mut runner, busy_batch, 50);

    let key = if o.trace { "trace." } else { "" };
    let v = &mut run.values;
    v.set("serve.infer_ms.b1", b1);
    v.set("serve.infer_ms.busy_batch", bb);
    v.set("loss_final", mean(&ce));
    let mut bad = 0u64;
    let mut sent = 0u64;
    for p in &phases {
        let g = &p.got;
        let pre = format!("serve.{}.", p.name);
        v.set(&format!("{pre}submit_us.p50"), median(&p.submit_us));
        v.set(
            &format!("{pre}submit_us.p99"),
            percentile(&p.submit_us, 99.0).unwrap_or(0.0),
        );
        v.set(&format!("{pre}batch_mean"), p.batch_mean());
        v.set(&format!("{pre}batch_max"), p.batch_max as f64);
        v.set(&format!("{pre}refused"), g.refused as f64);
        v.set(&format!("{pre}shed"), g.shed as f64);
        v.set(&format!("{pre}expired"), g.expired as f64);
        v.set(&format!("{pre}failed"), g.failed as f64);
        v.set(&format!("{pre}generator_late_ms.max"), max(&p.late_ms));
        sent += p.sent as u64;
        let missing = g.refused + g.shed + g.expired + g.failed;
        bad += missing;
        if p.name == "overload" {
            let limit_ms = LATENCY_LIMIT.as_secs_f64() * 1e3;
            let good = g.latency_ms.iter().filter(|&&l| l <= limit_ms).count();
            let goodput = good as f64 / p.duration_s;
            let answered = g.latency_ms.len() as f64;
            v.set("serve.overload.goodput_rps", goodput);
            v.set("serve.overload.answered_rps", answered / p.duration_s);
            v.set("wall.samples_per_s", answered / p.duration_s);
            v.set(
                &format!("{key}samples_per_cpu_s"),
                answered / overload_cpu_s,
            );
            continue;
        }
        // Light and busy run below capacity: every request must be
        // answered, and each phase must support its p99.
        if missing > 0 {
            run.failed += missing;
            run.notes
                .push(format!("{}: {missing} request(s) not answered", p.name));
        }
        let p50 = median(&p.round_p50_ms);
        let p99 = percentile(&g.latency_ms, 99.0);
        v.set(&format!("{pre}p50_ms"), p50);
        if p.name == "light" {
            v.set("wall.p50_ms", p50);
        }
        v.set(&format!("{pre}p99_ms"), p99.unwrap_or(0.0));
        run.correct &= p99.is_some();
        if p99.is_none() {
            run.notes
                .push(format!("{}: too few answers for a p99", p.name));
        }
    }
    run.attempted += sent;
    v.set("failed_share", bad as f64 / sent.max(1) as f64);
    run.tracers.push((1, gen_tr));
    run.tracers.push((2, col_tr));
}
