//! `simdx_perfbench`: the repository's benchmark. See README.md for the
//! workloads, every metric and what each should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rmat-mix --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`); the lines before it are the
//! human-readable report. The full result (and, traced, every span) is
//! written under `.bench_out/` in the working directory. The exit code
//! is 0 only when every answer was correct.

mod host;
mod inputs;
mod report;
mod serve;
mod stats;
mod trace;
mod traversal;

use report::{Run, Size};
use simdx_core::frontier::ClassifyThresholds;
use simdx_core::{
    DegradePolicy, DirectionPolicy, EngineConfig, ExecMode, FilterPolicy, FrontierRepr,
    FusionStrategy, MetadataLayout, PushStrategy,
};
use simdx_gpu::DeviceSpec;
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["rmat-mix", "road-deep", "serve-durable"];

/// Every engine configuration the benchmark uses, spelled out field by
/// field: `EngineConfig::default()` reads `SIMDX_*` variables, and the
/// benchmark must not depend on the environment.
pub fn engine_config(exec: ExecMode) -> EngineConfig {
    EngineConfig {
        device: DeviceSpec::k40(),
        fusion: FusionStrategy::PushPull,
        filter: FilterPolicy::Jit,
        overflow_threshold: 64,
        thresholds: ClassifyThresholds {
            small_max: 32,
            med_max: 128,
        },
        threads_per_cta: 128,
        parallelism_scale: 64,
        direction: DirectionPolicy::Adaptive { alpha: 20 },
        max_iterations: 100_000,
        exec,
        frontier: FrontierRepr::List,
        layout: MetadataLayout::Flat,
        push: PushStrategy::Grid,
        degrade: DegradePolicy::Fail,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value("--workload")?,
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

/// Runs one workload to completion (no printing).
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    out_dir: PathBuf,
) -> Run {
    let mut run = Run::new(workload, seed, seconds, trace, size, out_dir);
    run.info("nproc", host::nproc());
    run.info("cpu", host::cpu_model());
    run.info("L2 per instance", host::fmt_bytes(host::cache_bytes(2)));
    run.info("L3 per instance", host::fmt_bytes(host::cache_bytes(3)));
    match workload {
        "rmat-mix" => traversal::rmat_mix(&mut run),
        "road-deep" => traversal::road_deep(&mut run),
        "serve-durable" => serve::serve_durable(&mut run),
        other => unreachable!("workload {other} passed argument checks"),
    }
    run
}

fn main() -> ExitCode {
    let simdx_vars: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SIMDX_"))
        .collect();
    if !simdx_vars.is_empty() {
        eprintln!(
            "refusing to run with {simdx_vars:?} set: EngineConfig::default() reads them; unset them"
        );
        return ExitCode::from(2);
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simdx_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let run = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
        out_dir.clone(),
    );
    let missing = run.missing_e2e();
    assert!(
        missing.is_empty(),
        "end-to-end metrics not measured: {missing:?}"
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut human = format!(
        "# simdx_perfbench workload {} seed {} seconds {} trace {}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    human.push_str(&run.human());
    if run.tracer.is_on() {
        human.push_str("# traced time per span name: total ms, self ms\n");
        for (name, (total, own)) in run.tracer.totals() {
            human.push_str(&format!(
                "  {name:<30} {:>12.3} {:>12.3}\n",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        let path = out_dir.join(format!("{stem}.spans.tsv"));
        if let Err(e) = run.tracer.write_tsv(&path) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    for note in &run.ledger.notes {
        eprintln!("FAILED: {note}");
    }
    let _ = std::fs::write(out_dir.join(format!("{stem}.json")), run.json_full());
    print!("{human}");
    println!("{}", run.json(args.trace));
    if run.ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Run {
        let dir = std::env::temp_dir().join(format!(
            "simdx-perfbench-{workload}-{}-{}",
            u8::from(trace),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create a scratch directory");
        let run = run_workload(workload, 3, 0.05, trace, Size::Smoke, dir.clone());
        let _ = std::fs::remove_dir_all(&dir);
        run
    }

    /// Every workload runs end to end on tiny inputs with every answer
    /// correct, every end-to-end metric measured, and (traced) spans
    /// recorded; the result line has exactly the four keys.
    #[test]
    fn smoke_every_workload() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let run = smoke(workload, trace);
                assert_eq!(run.ledger.failed, 0, "{workload}: {:?}", run.ledger.notes);
                assert!(run.ledger.attempted > 0);
                assert!(
                    run.missing_e2e().is_empty(),
                    "{workload}: {:?}",
                    run.missing_e2e()
                );
                assert_eq!(run.tracer.is_on(), !run.tracer.spans.is_empty());
                let line = run.json(trace);
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
                let names = if trace { report::LAYERS } else { report::E2E };
                for (name, unit) in names {
                    assert!(
                        line.contains(&format!("\"{name}\": {{\"value\": ")),
                        "{name}"
                    );
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
                }
            }
        }
    }

    /// BENCHMARK.json at the repository root lists exactly the metrics
    /// (name and unit, in order) and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let field = |from: &str, key: &str| -> Option<String> {
            let at = from.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(from[at..].split('"').next()?.to_string())
        };
        let mut names = Vec::new();
        let mut rest = text.as_str();
        while let Some(at) = rest.find("\"name\": \"") {
            rest = &rest[at..];
            let name = field(rest, "name").expect("name value");
            let object_end = rest.find('}').expect("object end");
            let unit = field(&rest[..object_end], "unit");
            names.push((name, unit));
            rest = &rest[1..];
        }
        let workloads: Vec<(String, Option<String>)> =
            WORKLOADS.iter().map(|w| (w.to_string(), None)).collect();
        let metrics = report::E2E.iter().chain(report::LAYERS);
        let expected: Vec<(String, Option<String>)> = workloads
            .into_iter()
            .chain(metrics.map(|(n, u)| (n.to_string(), Some(u.to_string()))))
            .collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn refuses_bad_arguments() {
        let args = |v: &[&str]| parse(v.iter().map(|s| s.to_string()));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "rmat-mix", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "rmat-mix", "--seconds", "0"]).is_err());
        let a = args(&["--workload", "road-deep", "--seed", "9", "--trace", "1"]).expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("road-deep", 9, true)
        );
    }
}
