//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-resnet|train-stream|serve-open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from `--seed`, sets the program up
//! several times (reporting the median set-up time), measures for at
//! least `--seconds`, checks the program's outputs, and prints one JSON result
//! as the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! The traced run also writes its spans to
//! `.bench_out/trace-<workload>-<seed>.json` (Chrome trace-event format).
//! See `perfbench/README.md` for the workloads and every metric.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and the process CPU clock of 64-bit Linux");

mod metrics;
mod serve;
mod stats;
mod sys;
mod trace;
mod train;

use std::process::ExitCode;
use std::time::Instant;

use metrics::Values;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median. Workloads whose set-up
/// takes well under a second repeat it more often.
pub const SETUP_REPEATS: usize = 3;
pub const SETUP_REPEATS_FAST: usize = 11;

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run produced.
#[derive(Default)]
pub struct Run {
    pub trace: bool,
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub notes: Vec<String>,
    pub tracers: Vec<(u32, Tracer)>,
}

impl Run {
    /// Records a failed operation or check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.correct = false;
        self.notes.push(format!("FAILED: {why}"));
    }

    /// Records an output check; a failed check is a failed operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if ok {
            self.notes.push(format!("check passed: {what}"));
        } else {
            self.fail(format!("check: {what}"));
        }
    }
}

/// Set-up times of one run's repeated set-ups.
#[derive(Default)]
pub struct SetupClock {
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
}

impl SetupClock {
    pub fn record(&mut self, since: &sys::Stopwatch) {
        self.cpu_s.push(since.cpu_s());
        self.wall_s.push(since.wall_s());
    }

    /// `setup_s` is the median process CPU time of a set-up;
    /// `wall.setup_s` the median wall time.
    pub fn publish(&self, run: &mut Run) {
        run.values.set("setup_s", stats::median(&self.cpu_s));
        run.values.set("wall.setup_s", stats::median(&self.wall_s));
    }
}

const USAGE: &str = "usage: perfbench --workload <train-resnet|train-stream|serve-open> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["train-resnet", "train-stream", "serve-open"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = sys::mbs_env_vars();
    if !env.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: each MBS_* variable changes what is \
             measured; unset them",
            env.join(", ")
        );
        return ExitCode::from(2);
    }
    let pinned = sys::Pinned::resolve();
    println!("{}", pinned.line());
    println!(
        "workload={} seed={} seconds={} trace={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );

    let mut run = Run {
        trace: opts.trace,
        correct: true,
        ..Run::default()
    };
    let started = Instant::now();
    let ticks0 = sys::cpu_ticks();
    match opts.workload.as_str() {
        "train-resnet" => train::train_resnet(&opts, &mut run),
        "train-stream" => train::train_stream(&opts, &mut run),
        _ => serve::serve_open(&opts, &mut run),
    }
    let wall_s = started.elapsed().as_secs_f64();

    let steal = sys::steal_share(ticks0, sys::cpu_ticks());
    run.notes
        .push(format!("cpu steal during the run: {:.1} %", steal * 100.0));
    let v = &mut run.values;
    v.set("host.steal_share", steal);
    if v.get("failed_share").is_none() {
        v.set(
            "failed_share",
            run.failed as f64 / run.attempted.max(1) as f64,
        );
    }
    if v.get("peak_rss_mib").is_none() {
        v.set("peak_rss_mib", sys::peak_rss_mib());
    }
    v.set("pin.gemm_threads", pinned.threads as f64);
    v.set(
        "pin.cache_budget_kib",
        pinned.cache_budget_bytes as f64 / 1024.0,
    );
    v.set("pin.nproc", pinned.nproc as f64);
    if opts.trace {
        let spans: usize = run.tracers.iter().map(|(_, t)| t.spans().len()).sum();
        let cost_ns = Tracer::span_cost_ns();
        v.set("trace.spans", spans as f64);
        v.set(
            "trace.overhead_share",
            spans as f64 * cost_ns / 1e9 / wall_s,
        );
        let threads: Vec<(u32, &Tracer)> = run.tracers.iter().map(|(id, t)| (*id, t)).collect();
        let path = sys::out_dir().join(format!("trace-{}-{}.json", opts.workload, opts.seed));
        let written = std::fs::create_dir_all(sys::out_dir())
            .and_then(|_| std::fs::write(&path, trace::chrome_json(&threads)));
        match written {
            Ok(()) => run
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => run
                .notes
                .push(format!("could not write {}: {e}", path.display())),
        }
    }
    for note in &run.notes {
        println!("{note}");
    }
    print!("{}", metrics::table(&run.values));
    match metrics::result_line(
        &run.values,
        opts.trace,
        run.correct,
        run.attempted.max(1),
        run.failed,
    ) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
