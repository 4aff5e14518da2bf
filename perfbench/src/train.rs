//! The two training workloads: `train-resnet` (the paper's multi-group
//! MBS schedule at ResNet-50 layer shapes, with durable checkpoints) and
//! `train-stream` (a small net fed from disk through the prefetch
//! loader).
//!
//! The untraced run drives `GroupedExecutor::train_step`. The traced run
//! drives the same step split into its public calls — `forward`, the
//! loss, `backward_from_logits`, `Sgd::step` — each in a span.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mbs_cnn::networks::{resnet_custom, toy};
use mbs_cnn::Network;
use mbs_core::{analyze, ExecConfig, HardwareConfig, MbsScheduler, Schedule};
use mbs_tensor::ops::{cross_entropy, softmax, softmax_xent_backward};
use mbs_tensor::{arena, Tensor};
use mbs_train::checkpoint::{self, TrainCheckpoint};
use mbs_train::data::{generate_image_into, CLASSES};
use mbs_train::loader::{generate_to_chunked, DiskDataset, StreamLoader, DEFAULT_PREFETCH};
use mbs_train::module::{StateDict, StateEntry};
use mbs_train::{lower, GroupedExecutor, LoweredNet, Module, Sgd};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::stats::{max, mean, median, quartiles, sum, tail};
use crate::sys::Stopwatch;
use crate::trace::Tracer;
use crate::{Opts, Run, SetupClock, SETUP_REPEATS, SETUP_REPEATS_FAST};

/// Seed of the initial weights. Fixed, so runs with different `--seed`
/// differ in their data only and `loss_final` compares data draws rather
/// than initialisations.
const INIT_SEED: u64 = 0x6d62_735f_696e_6974;
/// Noise level of the synthetic texture images.
const NOISE: f32 = 0.3;
const MIB: f64 = 1024.0 * 1024.0;

/// `train-resnet`: batch, in-memory batches, steps per checkpoint save,
/// checkpoints kept, and the modeled buffer it schedules against.
const RESNET_BATCH: usize = 8;
const RESNET_BATCHES: usize = 4;
const STEPS_PER_SAVE: usize = 3;
const KEEP: usize = 2;
const RESNET_BUFFER_BYTES: usize = 1 << 20;
/// Timed checkpoint cycles every `train-resnet` run completes, whatever
/// `--seconds` says; `loss_final` averages their steps.
const MIN_CYCLES: usize = 2;

/// `train-stream`: batch, samples in the dataset file, samples per
/// on-disk chunk (the loader caches 8 chunks), and the global batches
/// `loss_final` averages (the first two epochs after the warm-up batch;
/// every run reaches them).
const STREAM_BATCH: usize = 32;
const STREAM_SAMPLES: usize = 4096;
const STREAM_CHUNK: usize = 64;
const STREAM_LOSS_WINDOW: std::ops::Range<usize> = 1..256;

/// One training stack: schedule, lowered model, executor, optimizer.
struct Trainer {
    schedule: Schedule,
    model: LoweredNet,
    exec: GroupedExecutor,
    opt: Sgd,
    /// Largest stash held between a forward and its backward.
    stash_peak: usize,
}

/// Model state and optimizer momentum, as checkpoints store them.
type State = (Vec<StateEntry>, Vec<StateEntry>);

/// Set-up costs of one build, in milliseconds.
#[derive(Default)]
struct SetupTimes {
    plan_ms: f64,
    lower_ms: f64,
}

impl Trainer {
    fn build(net: &Network, hw: &HardwareConfig, opt: Sgd, times: &mut SetupTimes) -> Self {
        let t = Instant::now();
        let schedule = MbsScheduler::new(net, hw, ExecConfig::Mbs2).schedule();
        times.plan_ms = ms(t);
        let t = Instant::now();
        let model =
            lower(net, &mut StdRng::seed_from_u64(INIT_SEED)).expect("benchmark networks lower");
        times.lower_ms = ms(t);
        let exec = GroupedExecutor::new(&schedule, model.len());
        Self {
            schedule,
            model,
            exec,
            opt,
            stash_peak: 0,
        }
    }

    /// One training step. With `split` (always in the traced run) the
    /// step runs as its four public calls, each in a span; otherwise as
    /// one `train_step` call.
    fn step(&mut self, x: &Tensor, labels: &[usize], split: bool, tr: &mut Tracer, id: u64) -> f32 {
        if !split {
            return self
                .exec
                .train_step(&mut self.model, x, labels, &mut self.opt);
        }
        let n = x.shape()[0];
        self.model.zero_grad();
        let open = tr.begin("grouped.forward", id);
        let logits = self.exec.forward(&mut self.model, x, true);
        tr.end(open);
        let open = tr.begin("loss", id);
        let probs = softmax(logits);
        let loss = cross_entropy(&probs, labels);
        let dlogits = softmax_xent_backward(&probs, labels, n);
        drop(probs);
        tr.end(open);
        self.stash_peak = self.stash_peak.max(self.exec.stash_tensor_bytes());
        let open = tr.begin("grouped.backward", id);
        let _ = self.exec.backward_from_logits(&mut self.model, x, dlogits);
        tr.end(open);
        let open = tr.begin("optim.step", id);
        self.opt.step(&mut self.model);
        tr.end(open);
        loss
    }

    fn state(&mut self) -> State {
        let mut model = StateDict::default();
        self.model.export_state(&mut model);
        let mut opt = StateDict::default();
        self.opt.export_state(&mut opt);
        (model.into_entries(), opt.into_entries())
    }
}

/// The split-step check: set-up 0 warms up with `train_step`, set-up 1
/// with the split step, from identical state on the same batch. Their
/// losses must agree bit for bit, and so must every parameter and
/// momentum buffer after the optimizer step.
#[derive(Default)]
struct SplitCheck {
    reference: Option<(u32, State)>,
    ok: Option<bool>,
}

impl SplitCheck {
    /// Whether set-up `k` warms up through the split step.
    fn split(k: usize) -> bool {
        k == 1
    }

    fn record(&mut self, k: usize, loss: f32, t: &mut Trainer) {
        match k {
            0 => self.reference = Some((loss.to_bits(), t.state())),
            1 => {
                let (bits, state) = self.reference.take().expect("set-up 0 ran first");
                self.ok = Some(bits == loss.to_bits() && state == t.state());
            }
            _ => {}
        }
    }
}

/// Losses and wall times of the timed steps.
#[derive(Default)]
struct Steps {
    losses: Vec<f32>,
    ms: Vec<f64>,
}

impl Steps {
    /// Records one step; a non-finite loss fails the run.
    fn record(&mut self, run: &mut Run, loss: f32, dt_ms: f64) {
        run.attempted += 1;
        if !loss.is_finite() {
            run.fail(format!(
                "step {} loss is not finite ({loss})",
                self.losses.len()
            ));
        }
        self.losses.push(loss);
        self.ms.push(dt_ms);
    }
}

/// Schedule and model figures shared by both training workloads.
fn schedule_metrics(run: &mut Run, net: &Network, hw: &HardwareConfig, s: &Schedule) {
    let v = &mut run.values;
    v.set("scheduler.groups", s.groups().len() as f64);
    v.set("scheduler.min_sub_batch", s.min_sub_batch() as f64);
    v.set(
        "scheduler.buffer_kib",
        hw.global_buffer_bytes as f64 / 1024.0,
    );
    v.set(
        "scheduler.modeled_dram_mib",
        analyze(net, s, hw.global_buffer_bytes).dram_bytes() as f64 / MIB,
    );
    v.set(
        "scheduler.modeled_stash_mib",
        s.stash_bytes(net) as f64 / MIB,
    );
    v.set("ops.gflop_per_step", gemm_flop(net, s.batch()) / 1e9);
    run.notes
        .push(format!("schedule: sub-batches {:?}", s.sub_batches()));
}

/// GEMM FLOPs of one training step from the IR: each convolution and
/// fully-connected layer runs a forward, a data-gradient and a
/// weight-gradient GEMM of the same multiply-accumulate count.
fn gemm_flop(net: &Network, batch: usize) -> f64 {
    let macs: usize = net
        .layers()
        .filter(|l| l.kind.is_systolic())
        .map(|l| l.forward_macs())
        .sum();
    3.0 * 2.0 * (macs * batch) as f64
}

/// Per-layer figures of the traced split step, per training step.
fn step_metrics(run: &mut Run, tr: &Tracer, t: &Trainer, flop_per_step: f64) {
    let v = &mut run.values;
    let fwd = tr.self_ms("grouped.forward");
    let bwd = tr.self_ms("grouped.backward");
    v.set("grouped.forward_ms", median(&fwd));
    v.set("grouped.backward_ms", median(&bwd));
    v.set("loss.ms", median(&tr.self_ms("loss")));
    v.set("optim.step_ms", median(&tr.self_ms("optim.step")));
    v.set("grouped.stash_peak_mib", t.stash_peak as f64 / MIB);
    v.set("grouped.boundary_mib", t.exec.boundary_bytes() as f64 / MIB);
    let busy_s = (sum(&fwd) + sum(&bwd)) / 1e3;
    if busy_s > 0.0 {
        v.set(
            "ops.gflops",
            flop_per_step * fwd.len() as f64 / busy_s / 1e9,
        );
    }
}

/// Throughput of the timed window: samples per process CPU-second (the
/// end-to-end figure) and per wall second.
struct Throughput {
    per_cpu_s: f64,
    per_wall_s: f64,
}

/// End-to-end and arena figures over the timed steps. `loss_window`
/// indexes the timed steps' losses.
fn finish_steps(
    run: &mut Run,
    steps: &Steps,
    loss_window: std::ops::Range<usize>,
    rate: Throughput,
    arena0: (u64, u64),
) {
    let (h1, m1) = arena::stats();
    let step_ms = &steps.ms;
    let n = step_ms.len().max(1) as f64;
    let key = if run.trace { "trace." } else { "" };
    let [q1, q2, q3] = quartiles(step_ms);
    run.notes.push(format!(
        "{} timed steps; step ms quartiles {q1:.2} / {q2:.2} / {q3:.2}",
        step_ms.len()
    ));
    let v = &mut run.values;
    v.set(&format!("{key}samples_per_cpu_s"), rate.per_cpu_s);
    v.set("wall.samples_per_s", rate.per_wall_s);
    v.set("wall.p50_ms", median(step_ms));
    let window: Vec<f64> = steps.losses[loss_window]
        .iter()
        .map(|&l| f64::from(l))
        .collect();
    v.set("loss_final", mean(&window));
    v.set("arena.hits_per_step", (h1 - arena0.0) as f64 / n);
    v.set("arena.misses_per_step", (m1 - arena0.1) as f64 / n);
}

/// `train-resnet`: ResNet-50's stem and bottleneck widths with one block
/// per stage, batch 8, scheduled by MBS2 against a 1 MiB modeled buffer
/// (two groups), trained on in-memory batches with a durable checkpoint
/// every [`STEPS_PER_SAVE`] steps.
pub fn train_resnet(o: &Opts, run: &mut Run) {
    let net = resnet_custom("ResNet50-1111", [1, 1, 1, 1], 10, RESNET_BATCH);
    let hw = HardwareConfig::cpu().with_global_buffer(RESNET_BUFFER_BYTES);
    let sgd = || Sgd::new(0.002, 0.9, 0.0);

    let batches = balanced_batches(o.seed);
    let ck_dir = crate::sys::out_dir().join(format!("ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ck_dir);

    // Set-up, three times from a cold arena; the last one is kept.
    let mut off = Tracer::new(false, Instant::now());
    let mut check = SplitCheck::default();
    let mut setup = SetupClock::default();
    let (mut plan_ms, mut lower_ms) = (vec![], vec![]);
    let mut kept = None;
    for k in 0..SETUP_REPEATS {
        drop(kept.take());
        arena::clear();
        let mut times = SetupTimes::default();
        let sw = Stopwatch::start();
        let mut t = Trainer::build(&net, &hw, sgd(), &mut times);
        let (x, y) = &batches[0];
        let loss = t.step(x, y, SplitCheck::split(k), &mut off, 0);
        setup.record(&sw);
        plan_ms.push(times.plan_ms);
        lower_ms.push(times.lower_ms);
        check.record(k, loss, &mut t);
        kept = Some(t);
    }
    let mut t = kept.expect("at least one set-up");
    run.check(
        "split step matches train_step bit for bit",
        check.ok == Some(true),
    );
    setup.publish(run);
    run.values.set("scheduler.plan_ms", median(&plan_ms));
    run.values.set("lower.ms", median(&lower_ms));
    schedule_metrics(run, &net, &hw, &t.schedule);
    let fingerprint = t.schedule.fingerprint(&net);

    // Timed cycles: STEPS_PER_SAVE steps, then one durable save. Each
    // save is loaded back and compared outside the timed window.
    let mut tr = Tracer::new(o.trace, Instant::now());
    let mut steps = Steps::default();
    let (mut save_ms, mut verify_ms, mut ck_bytes) = (vec![], vec![], 0u64);
    let (mut timed_s, mut timed_cpu_s) = (0.0, 0.0);
    let arena0 = arena::stats();
    let mut step = 0usize;
    let mut cycles = 0;
    while cycles < MIN_CYCLES || timed_s < o.seconds {
        let cycle = Stopwatch::start();
        for _ in 0..STEPS_PER_SAVE {
            let (x, y) = &batches[(step + 1) % RESNET_BATCHES];
            let t0 = Instant::now();
            let open = tr.begin("train.step", step as u64);
            let loss = t.step(x, y, o.trace, &mut tr, step as u64);
            tr.end(open);
            let dt = t0.elapsed().as_secs_f64();
            timed_s += dt;
            steps.record(run, loss, dt * 1e3);
            step += 1;
        }
        cycles += 1;
        let t0 = Instant::now();
        let open = tr.begin("checkpoint.save", cycles as u64);
        let ckpt = snapshot(&mut t, &net, fingerprint, step, &steps.losses);
        let saved = checkpoint::save(&ck_dir, cycles, &ckpt, KEEP);
        tr.end(open);
        let dt = t0.elapsed().as_secs_f64();
        timed_s += dt;
        timed_cpu_s += cycle.cpu_s();
        save_ms.push(dt * 1e3);
        run.attempted += 1;
        let t0 = Instant::now();
        let ok = match &saved {
            Ok(path) => {
                ck_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                verify(path, &ckpt, fingerprint)
            }
            Err(e) => Err(format!("save failed: {e}")),
        };
        verify_ms.push(ms(t0));
        if let Err(e) = ok {
            run.fail(format!("checkpoint {cycles}: {e}"));
        }
    }
    // Wall throughput of a median cycle: robust to one slow step or save.
    let cycle_s = (STEPS_PER_SAVE as f64 * median(&steps.ms) + median(&save_ms)) / 1e3;
    let rate = Throughput {
        per_cpu_s: (step * RESNET_BATCH) as f64 / timed_cpu_s,
        per_wall_s: (STEPS_PER_SAVE * RESNET_BATCH) as f64 / cycle_s,
    };
    run.notes.push(format!("losses: {:?}", steps.losses));
    let window = 0..MIN_CYCLES * STEPS_PER_SAVE;
    finish_steps(run, &steps, window, rate, arena0);
    let v = &mut run.values;
    v.set("checkpoint.save_ms.p50", median(&save_ms));
    v.set("checkpoint.save_ms.max", max(&save_ms));
    v.set("checkpoint.mib", ck_bytes as f64 / MIB);
    v.set("checkpoint.stall_share", sum(&save_ms) / 1e3 / timed_s);
    v.set("checkpoint.verify_ms", median(&verify_ms));
    if o.trace {
        let flop = gemm_flop(&net, RESNET_BATCH);
        step_metrics(run, &tr, &t, flop);
        run.check(
            "train-resnet stashes between forward and backward",
            t.stash_peak > 0,
        );
    }
    run.check(
        "train-resnet schedules at least two groups",
        t.schedule.groups().len() >= 2,
    );
    run.tracers.push((1, tr));
    let _ = std::fs::remove_dir_all(&ck_dir);
}

/// `train-resnet`'s inputs: [`RESNET_BATCHES`] in-memory batches of
/// synthetic 224² texture images drawn from `seed`, each holding every
/// class equally often, so a batch's loss reflects the model rather than
/// its class mix.
fn balanced_batches(seed: u64) -> Vec<(Tensor, Vec<usize>)> {
    let per_class = RESNET_BATCH / CLASSES;
    let need = per_class * RESNET_BATCHES;
    let row = 3 * 224 * 224;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pools: Vec<Vec<Vec<f32>>> = vec![Vec::new(); CLASSES];
    let mut image = vec![0.0f32; row];
    while pools.iter().any(|p| p.len() < need) {
        let class = generate_image_into(&mut rng, 224, NOISE, &mut image);
        if pools[class].len() < need {
            pools[class].push(image.clone());
        }
    }
    (0..RESNET_BATCHES)
        .map(|b| {
            let mut data = Vec::with_capacity(RESNET_BATCH * row);
            let mut labels = Vec::with_capacity(RESNET_BATCH);
            for k in 0..per_class {
                for (class, pool) in pools.iter().enumerate() {
                    data.extend_from_slice(&pool[b * per_class + k]);
                    labels.push(class);
                }
            }
            (Tensor::from_vec(&[RESNET_BATCH, 3, 224, 224], data), labels)
        })
        .collect()
}

/// The state a resume needs, as the training loop snapshots it.
fn snapshot(
    t: &mut Trainer,
    net: &Network,
    fingerprint: u64,
    steps: usize,
    losses: &[f32],
) -> TrainCheckpoint {
    let (model, velocities) = t.state();
    TrainCheckpoint {
        fingerprint,
        net: net.name().to_string(),
        epoch: 0,
        step_in_epoch: steps,
        loss_sum: losses.iter().sum(),
        steps,
        // No shuffle RNG to resume: the batches cycle in a fixed order.
        rng: vec![0; 4],
        model,
        velocities,
        curve: Vec::new(),
    }
}

/// Loads a saved checkpoint back and checks it is the one saved, for
/// this (network, schedule) fingerprint.
fn verify(path: &Path, saved: &TrainCheckpoint, fingerprint: u64) -> Result<(), String> {
    let back = checkpoint::load_file(path).map_err(|e| e.to_string())?;
    if back.fingerprint != fingerprint {
        return Err(format!(
            "fingerprint {:#x} != {fingerprint:#x}",
            back.fingerprint
        ));
    }
    if &back != saved {
        return Err("loaded state differs from the saved state".into());
    }
    Ok(())
}

/// Epoch `e`'s sample order: a seeded shuffle, drawn trainer-side as the
/// program's own training loop does.
fn epoch_order(rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..STREAM_SAMPLES).collect();
    order.shuffle(rng);
    order
}

/// `train-stream`: the runtime-mix toy net at batch 32 on the default CPU
/// schedule, fed from a chunked dataset file many times larger than the
/// loader's chunk cache, over shuffled epochs.
pub fn train_stream(o: &Opts, run: &mut Run) {
    let net = toy::runtime_mix(32, STREAM_BATCH);
    let hw = HardwareConfig::cpu();
    let sgd = || Sgd::new(0.05, 0.9, 1e-4);

    // Inputs: the dataset file, written from the seed (not timed).
    let dir = crate::sys::out_dir();
    let path: PathBuf = dir.join(format!("stream-{}.mbsds", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir)
        .map_err(|e| e.to_string())
        .and_then(|_| {
            generate_to_chunked(&path, STREAM_SAMPLES, 32, NOISE, o.seed, STREAM_CHUNK)
                .map_err(|e| e.to_string())
        })
    {
        run.fail(format!("writing the dataset failed: {e}"));
        return;
    }
    let record_bytes = 4 + 3 * 32 * 32 * 4;

    let mut off = Tracer::new(false, Instant::now());
    let mut check = SplitCheck::default();
    let mut setup = SetupClock::default();
    let (mut plan_ms, mut lower_ms, mut open_ms) = (vec![], vec![], vec![]);
    let mut kept = None;
    for k in 0..SETUP_REPEATS_FAST {
        drop(kept.take());
        arena::clear();
        let mut order_rng = StdRng::seed_from_u64(o.seed);
        let mut times = SetupTimes::default();
        let sw = Stopwatch::start();
        let t0 = Instant::now();
        let opened = DiskDataset::open(&path).and_then(|ds| {
            open_ms.push(ms(t0));
            StreamLoader::new(&ds, DEFAULT_PREFETCH)
        });
        let mut loader = match opened {
            Ok(l) => l,
            Err(e) => {
                run.fail(format!("opening the dataset failed: {e}"));
                return;
            }
        };
        let mut t = Trainer::build(&net, &hw, sgd(), &mut times);
        loader.begin_epoch(&epoch_order(&mut order_rng), STREAM_BATCH, 0);
        let batch = match loader.next_batch() {
            Ok(b) => b,
            Err(e) => {
                run.fail(format!("warm-up batch failed: {e}"));
                return;
            }
        };
        let loss = t.step(
            &batch.images,
            &batch.labels,
            SplitCheck::split(k),
            &mut off,
            0,
        );
        loader.recycle(batch);
        setup.record(&sw);
        plan_ms.push(times.plan_ms);
        lower_ms.push(times.lower_ms);
        check.record(k, loss, &mut t);
        kept = Some((t, loader, order_rng));
    }
    let (mut t, mut loader, mut order_rng) = kept.expect("at least one set-up");
    run.check(
        "split step matches train_step bit for bit",
        check.ok == Some(true),
    );
    setup.publish(run);
    run.values.set("scheduler.plan_ms", median(&plan_ms));
    run.values.set("lower.ms", median(&lower_ms));
    run.values.set("loader.open_ms", median(&open_ms));
    schedule_metrics(run, &net, &hw, &t.schedule);

    // Timed steps: wait for the next batch, train on it, hand it back.
    let epoch_batches = STREAM_SAMPLES / STREAM_BATCH;
    let mut tr = Tracer::new(o.trace, Instant::now());
    let mut steps = Steps::default();
    let mut wait_ms = vec![];
    let stats0 = loader.stats();
    let arena0 = arena::stats();
    let window_clock = Stopwatch::start();
    let mut g = 1usize;
    while g < STREAM_LOSS_WINDOW.end || window_clock.wall_s() < o.seconds {
        if g.is_multiple_of(epoch_batches) {
            loader.begin_epoch(&epoch_order(&mut order_rng), STREAM_BATCH, 0);
        }
        let t0 = Instant::now();
        let open = tr.begin("train.step", g as u64);
        let batch = tr.scope("loader.next_batch", g as u64, || loader.next_batch());
        wait_ms.push(ms(t0));
        let batch = match batch {
            Ok(b) => b,
            Err(e) => {
                tr.end(open);
                run.fail(format!("batch {g} failed: {e}"));
                break;
            }
        };
        let loss = t.step(&batch.images, &batch.labels, o.trace, &mut tr, g as u64);
        tr.scope("loader.recycle", g as u64, || loader.recycle(batch));
        tr.end(open);
        steps.record(run, loss, ms(t0));
        g += 1;
    }
    let (timed_s, timed_cpu_s) = (window_clock.wall_s(), window_clock.cpu_s());
    let stats1 = loader.stats();
    let samples = (steps.ms.len() * STREAM_BATCH) as f64;
    let rate = Throughput {
        per_cpu_s: samples / timed_cpu_s,
        per_wall_s: samples / timed_s,
    };
    // Timed step i trains global batch i + 1 (batch 0 was the warm-up).
    let window = STREAM_LOSS_WINDOW.start - 1..STREAM_LOSS_WINDOW.end - 1;
    if steps.losses.len() >= window.end {
        finish_steps(run, &steps, window, rate, arena0);
    }
    let bytes = stats1.bytes_read - stats0.bytes_read;
    let filled = stats1.batches_filled - stats0.batches_filled;
    let v = &mut run.values;
    v.set("loader.wait_ms.p50", median(&wait_ms));
    let (p, tail_ms) = tail(&wait_ms).unwrap_or((0.0, 0.0));
    v.set("loader.wait_ms.tail", tail_ms);
    v.set("loader.stall_share", sum(&wait_ms) / 1e3 / timed_s);
    v.set(
        "loader.chunk_loads",
        (stats1.chunk_loads - stats0.chunk_loads) as f64,
    );
    v.set("loader.read_mib_per_s", bytes as f64 / MIB / timed_s);
    v.set(
        "loader.read_amplification",
        bytes as f64 / (filled as f64 * (STREAM_BATCH * record_bytes) as f64).max(1.0),
    );
    run.notes.push(format!(
        "loader: {} stalls; loader.wait_ms.tail is p{p}; reads are page-cache reads \
         of a file written just before the run",
        stats1.stalls - stats0.stalls
    ));
    run.check("the loader read chunks off the file", bytes > 0);
    if o.trace {
        let flop = gemm_flop(&net, STREAM_BATCH);
        step_metrics(run, &tr, &t, flop);
    }
    run.tracers.push((1, tr));
    drop(loader);
    let _ = std::fs::remove_file(&path);
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
