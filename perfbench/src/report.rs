//! Metric names, the run context every workload fills in, and the
//! printed result.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// End-to-end metrics: printed with `--trace 0`, reported by every
/// workload, never zero. `(name, unit)`; README.md gives each one's
/// meaning per workload.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_ms_p50_serial", "ms"),
    ("sim_ms_total", "ms"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: printed with `--trace 1`. A layer a workload
/// does not exercise reports 0. The `e2e.` metrics are end-to-end
/// metrics kept here without a bound: they need every CPU at once
/// (parallel runtime, serving threads), and hypervisor steal swings
/// them by more than any bound run to run (README.md).
pub const LAYERS: &[(&str, &str)] = &[
    ("e2e.latency_ms_p50", "ms"),
    ("e2e.throughput_qps", "1/s"),
    ("e2e.latency_ms_tail", "ms"),
    ("graph.csr_build_ms", "ms"),
    ("session.runtime_new_ms", "ms"),
    ("session.bind_ms", "ms"),
    ("engine.first_iter_ms_p50", "ms"),
    ("engine.finish_ms_p50", "ms"),
    ("engine.iter_us_p50", "us"),
    ("engine.small_iter_us_p50", "us"),
    ("engine.ns_per_edge", "ns"),
    ("engine.iterations", "count"),
    ("engine.edges_examined", "count"),
    ("engine.work_ratio", "ratio"),
    ("engine.push_iters", "count"),
    ("engine.pull_iters", "count"),
    ("jit.ballot_iters", "count"),
    ("jit.online_iters", "count"),
    ("jit.filter_switches", "count"),
    ("jit.overflow_iters", "count"),
    ("fusion.kernel_launches", "count"),
    ("fusion.barrier_passes", "count"),
    ("gpu_sim.cycles", "cycles"),
    ("par.small_iter_overhead_us", "us"),
    ("par.large_iter_speedup", "x"),
    ("supervise.checks", "count/query"),
    ("checkpoint.captured", "count"),
    ("checkpoint.resume_iter_mean", "iter"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.exec_ms_p50", "ms"),
    ("service.exec_ms_p99", "ms"),
    ("service.batch_factor", "ratio"),
    ("service.busy_share", "ratio"),
    ("service.attempts_mean", "count"),
    ("service.generator_lag_ms_p99", "ms"),
    ("service.serve_self_ms", "ms"),
    ("persist.spilled", "count"),
    ("persist.spill_failures", "count"),
    ("persist.bytes_per_blob", "B"),
    ("persist.recover_ms_per_query", "ms"),
    ("persist.recover_self_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Operations attempted and failed. An operation is one query run, one
/// served request, one planned abort or one recovery; it fails when it
/// errors unexpectedly, returns a wrong answer, or (planned aborts)
/// does not abort, spill or recover as planned.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ledger {
    /// Counts one operation; `what` describes a failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
        ok
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Sizes of one run: the real benchmark, or the tiny smoke inputs the
/// tests drive the whole pipeline with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One workload run: its arguments, tracer, ledger and results.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    pub out_dir: PathBuf,
    pub tracer: Tracer,
    pub ledger: Ledger,
    values: BTreeMap<&'static str, (f64, String)>,
    pub info: Vec<(String, String)>,
}

impl Run {
    pub fn new(
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
        size: Size,
        out_dir: PathBuf,
    ) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            size,
            out_dir,
            tracer: Tracer::new(trace),
            ledger: Ledger::default(),
            values: BTreeMap::new(),
            info: Vec::new(),
        }
    }

    /// Records a metric value with a note on how it was measured.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(
            E2E.iter().chain(LAYERS).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, (value, note.into()));
    }

    /// Records one line of run information (inputs, host, rates).
    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// The metrics of one mode in declaration order; layer metrics a
    /// workload left unset read 0.
    fn table(
        &self,
        names: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str, String)> {
        names
            .iter()
            .map(|&(name, unit)| {
                let (v, note) = self
                    .values
                    .get(name)
                    .cloned()
                    .unwrap_or((0.0, "layer not exercised".to_string()));
                (name, v, unit, note)
            })
            .collect()
    }

    /// End-to-end metrics the workload forgot, or that read zero or a
    /// non-number: a bug in the benchmark, not in the program.
    pub fn missing_e2e(&self) -> Vec<&'static str> {
        E2E.iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.value(n).is_some_and(|v| v.is_finite() && v > 0.0))
            .collect()
    }

    /// Human-readable report: every end-to-end and per-layer metric with
    /// unit and note, then the run information.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for (title, names) in [("end-to-end", E2E), ("per-layer", LAYERS)] {
            let _ = writeln!(s, "# {title} metrics");
            for (name, v, unit, note) in self.table(names) {
                let _ = writeln!(s, "  {name:<30} {v:>14.4} {unit:<11} {note}");
            }
        }
        let _ = writeln!(
            s,
            "  {:<30} {:>14.4} {:<11} {} of {} operations failed (carried as `failed`/`attempted`)",
            "error_rate",
            self.ledger.error_rate(),
            "ratio",
            self.ledger.failed,
            self.ledger.attempted
        );
        let _ = writeln!(s, "# run information");
        for (k, v) in &self.info {
            let _ = writeln!(s, "  {k:<30} {v}");
        }
        s
    }

    /// The result line: one JSON object with the end-to-end metrics
    /// (`trace` off) or the per-layer metrics (`trace` on).
    pub fn json(&self, trace: bool) -> String {
        let names = if trace { LAYERS } else { E2E };
        let metrics: Vec<String> = self
            .table(names)
            .into_iter()
            .map(|(name, v, unit, _)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ledger.failed == 0,
            self.ledger.attempted,
            self.ledger.failed,
            metrics.join(", ")
        )
    }

    /// Everything, as one JSON document for the output directory.
    pub fn json_full(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let metrics: Vec<String> = self
            .table(E2E)
            .into_iter()
            .chain(self.table(LAYERS))
            .map(|(name, v, unit, note)| {
                format!(
                    "    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"note\": \"{}\"}}",
                    json_num(v),
                    esc(&note)
                )
            })
            .collect();
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("    \"{}\": \"{}\"", esc(k), esc(v)))
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"error_rate\": {},\n  \"metrics\": {{\n{}\n  }},\n  \"info\": {{\n{}\n  }}\n}}\n",
            esc(&self.workload),
            self.seed,
            self.ledger.attempted,
            self.ledger.failed,
            json_num(self.ledger.error_rate()),
            metrics.join(",\n"),
            info.join(",\n")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (never produced on purpose) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
