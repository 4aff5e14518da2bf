//! The benchmark's metric names, units and kinds, and the result line.
//!
//! Every workload reports every metric listed here, so runs of different
//! workloads can be compared field by field: a per-layer metric of a
//! layer a workload bypasses reads 0. The end-to-end metrics are defined
//! on every workload and are never 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a figure was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Timed or observed while the program ran.
    Measured,
    /// Computed by the program's own cost model, not observed.
    Modeled,
    /// An exact count of work items or events.
    Count,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Modeled => "modeled",
            Kind::Count => "count",
        }
    }
}

use Kind::{Count, Measured, Modeled};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// One published metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: Better,
}

fn metric(name: impl Into<String>, unit: &'static str, kind: Kind, better: Better) -> Metric {
    Metric {
        name: name.into(),
        unit,
        kind,
        better,
    }
}

/// End-to-end metrics printed by the untraced run (`--trace 0`), with
/// the share of the parent's median each may worsen by (`bound`).
///
/// Times are process CPU time, not wall time: on a shared 2-vCPU guest
/// the hypervisor's steal moves wall-clock figures by up to 2x between
/// quarter hours, far beyond any bound, while CPU time stays within a
/// few percent. The wall-clock figures are per-layer metrics (`wall.*`).
///
/// - `setup_s`: median CPU time of several cold set-ups (arena emptied
///   first), from the first program call to the end of warm-up.
/// - `samples_per_cpu_s`: trained samples per CPU-second over the timed
///   steps, checkpoint saves included (train-*); requests answered per
///   CPU-second in the overload phase, where the server is saturated
///   (serve-open).
/// - `loss_final`: mean training loss over a fixed step window every run
///   reaches (train-*); mean cross-entropy of the probe requests' served
///   logits (serve-open). Deterministic for a fixed seed.
/// - `peak_rss_mib`: the process's high-water resident set (serve-open:
///   before the overload phase, whose batch sizes, and so memory, follow
///   the queue; the peak after it is `serve.overload.peak_rss_mib`).
pub const END_TO_END: &[(&str, &str, Kind, Better, f64)] = &[
    ("setup_s", "s", Measured, Lower, 0.25),
    ("samples_per_cpu_s", "1/s", Measured, Higher, 0.25),
    ("loss_final", "nat", Measured, Lower, 0.15),
    ("peak_rss_mib", "MiB", Measured, Lower, 0.25),
];

/// Serve phases, in the order they first run.
pub const PHASES: [&str; 3] = ["light", "busy", "overload"];

/// Per-layer metrics printed by the traced run (`--trace 1`).
pub fn per_layer() -> Vec<Metric> {
    let mut v: Vec<Metric> = [
        ("scheduler.groups", "count", Count, Lower),
        ("scheduler.min_sub_batch", "count", Count, Higher),
        ("scheduler.buffer_kib", "KiB", Count, Higher),
        ("scheduler.plan_ms", "ms", Measured, Lower),
        ("scheduler.modeled_dram_mib", "MiB", Modeled, Lower),
        ("scheduler.modeled_stash_mib", "MiB", Modeled, Lower),
        ("lower.ms", "ms", Measured, Lower),
        ("model.freeze_ms", "ms", Measured, Lower),
        ("grouped.forward_ms", "ms", Measured, Lower),
        ("grouped.backward_ms", "ms", Measured, Lower),
        ("loss.ms", "ms", Measured, Lower),
        ("optim.step_ms", "ms", Measured, Lower),
        ("grouped.stash_peak_mib", "MiB", Measured, Lower),
        ("grouped.boundary_mib", "MiB", Measured, Lower),
        ("ops.gflop_per_step", "GFLOP", Count, Lower),
        ("ops.gflops", "GFLOP/s", Measured, Higher),
        ("serve.infer_ms.b1", "ms", Measured, Lower),
        ("serve.infer_ms.busy_batch", "ms", Measured, Lower),
        ("arena.hits_per_step", "count", Count, Higher),
        ("arena.misses_per_step", "count", Count, Lower),
        ("loader.open_ms", "ms", Measured, Lower),
        ("loader.wait_ms.p50", "ms", Measured, Lower),
        ("loader.wait_ms.tail", "ms", Measured, Lower),
        ("loader.stall_share", "share", Measured, Lower),
        ("loader.chunk_loads", "count", Count, Lower),
        ("loader.read_mib_per_s", "MiB/s", Measured, Higher),
        ("loader.read_amplification", "ratio", Count, Lower),
        ("checkpoint.save_ms.p50", "ms", Measured, Lower),
        ("checkpoint.save_ms.max", "ms", Measured, Lower),
        ("checkpoint.mib", "MiB", Count, Lower),
        ("checkpoint.stall_share", "share", Measured, Lower),
        ("checkpoint.verify_ms", "ms", Measured, Lower),
    ]
    .into_iter()
    .map(|(n, u, k, b)| metric(n, u, k, b))
    .collect();
    for phase in PHASES {
        for (m, u, k, b) in [
            ("submit_us.p50", "us", Measured, Lower),
            ("submit_us.p99", "us", Measured, Lower),
            ("batch_mean", "count", Count, Higher),
            ("batch_max", "count", Count, Higher),
            ("refused", "count", Count, Lower),
            ("shed", "count", Count, Lower),
            ("expired", "count", Count, Lower),
            ("failed", "count", Count, Lower),
            ("generator_late_ms.max", "ms", Measured, Lower),
        ] {
            v.push(metric(format!("serve.{phase}.{m}"), u, k, b));
        }
    }
    for (n, u, k, b) in [
        ("serve.light.p50_ms", "ms", Measured, Lower),
        ("serve.light.p99_ms", "ms", Measured, Lower),
        ("serve.busy.p50_ms", "ms", Measured, Lower),
        ("serve.busy.p99_ms", "ms", Measured, Lower),
        ("serve.overload.goodput_rps", "1/s", Measured, Higher),
        ("serve.overload.answered_rps", "1/s", Measured, Higher),
        ("serve.overload.peak_rss_mib", "MiB", Measured, Lower),
        ("failed_share", "share", Count, Lower),
        ("wall.setup_s", "s", Measured, Lower),
        ("wall.samples_per_s", "1/s", Measured, Higher),
        ("wall.p50_ms", "ms", Measured, Lower),
        ("trace.samples_per_cpu_s", "1/s", Measured, Higher),
        ("trace.spans", "count", Count, Lower),
        ("trace.overhead_share", "share", Measured, Lower),
        ("pin.gemm_threads", "count", Count, Higher),
        ("pin.cache_budget_kib", "KiB", Count, Higher),
        ("pin.nproc", "count", Count, Higher),
        ("host.steal_share", "share", Measured, Lower),
    ] {
        v.push(metric(n, u, k, b));
    }
    v
}

/// Named values a run produced.
#[derive(Debug, Default)]
pub struct Values {
    map: BTreeMap<String, f64>,
}

impl Values {
    /// Records `name = value` (last write wins).
    pub fn set(&mut self, name: &str, value: f64) {
        self.map.insert(name.to_string(), value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.map.get(name).copied()
    }
}

/// Unit and kind of a published metric, or of the extra serve figures the
/// table prints.
fn describe(name: &str) -> Option<(&'static str, Kind, Better)> {
    END_TO_END
        .iter()
        .find(|m| m.0 == name)
        .map(|m| (m.1, m.2, m.3))
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|m| m.name == name)
                .map(|m| (m.unit, m.kind, m.better))
        })
}

/// Human-readable lines (name, value, unit, kind, direction) for every
/// value the run recorded.
pub fn table(values: &Values) -> String {
    let mut out = String::new();
    for (name, v) in &values.map {
        let (unit, kind, better) = describe(name).unwrap_or(("", Measured, Higher));
        let _ = writeln!(
            out,
            "  {name:<36} {v:>14.4} {unit:<8} {:<9} {} is better",
            kind.label(),
            better.label()
        );
    }
    out
}

/// The result line: `correct`, `attempted`, `failed`, and the metric
/// list chosen by `trace` — every end-to-end metric, or every per-layer
/// metric (0 where the workload bypasses the layer).
///
/// # Errors
///
/// Names an end-to-end metric the workload did not record, or any
/// non-finite value: both are benchmark bugs, not program results.
pub fn result_line(
    values: &Values,
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let list: Vec<(String, &str)> = if trace {
        per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0.to_string(), m.1)).collect()
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = match values.get(name) {
            Some(v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not recorded")),
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}"
    ))
}

/// The `end_to_end` and `per_layer` entries of `BENCHMARK.json`, one
/// metric per line, as this file defines them.
#[cfg(test)]
fn benchmark_json_entries() -> Vec<String> {
    let mut out: Vec<String> = END_TO_END
        .iter()
        .map(|&(n, u, _, b, bound)| {
            format!(
                "{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\", \"bound\": {bound}}}",
                b.label()
            )
        })
        .collect();
    out.extend(per_layer().into_iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.label()
        )
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        let count = names.len();
        assert!(per_layer().len() <= 128);
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn result_line_lists_exactly_the_chosen_metrics() {
        let mut v = Values::default();
        for m in END_TO_END {
            v.set(m.0, 1.5);
        }
        let line = result_line(&v, false, true, 3, 0).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(!line.contains("scheduler.groups"));
        let traced = result_line(&v, true, true, 3, 0).unwrap();
        assert!(traced.contains("\"scheduler.groups\":{\"value\":0.0,\"unit\":\"count\"}"));
        v.map.remove("loss_final");
        assert!(result_line(&v, false, true, 3, 0).is_err());
    }

    #[test]
    fn benchmark_json_lists_every_metric_as_defined_here() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let lines: Vec<&str> = json
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .collect();
        let entries = benchmark_json_entries();
        for e in &entries {
            assert!(lines.contains(&e.as_str()), "BENCHMARK.json lacks {e}");
        }
        let listed = lines
            .iter()
            .filter(|l| l.starts_with("{\"name\": "))
            .count();
        let workloads = 3;
        assert_eq!(
            listed,
            entries.len() + workloads,
            "BENCHMARK.json lists other metrics"
        );
    }
}
