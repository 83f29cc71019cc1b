//! The two query-list workloads, `rmat-mix` and `road-deep`: one
//! seeded list of queries, each run solo on a `Serial` and a
//! `Parallel { threads: nproc }` runtime bound to the same graphs.
//!
//! A run goes: set-up (timed several times), one verification pass
//! (warm-up; every answer checked against `simdx_algos::reference` and
//! serial against parallel), timed passes until `--seconds` is used and
//! the tail percentile has enough samples (every answer checked against
//! the verified one, outside the timed region), then a restart phase:
//! a few queries are aborted by a cycle budget, spilled through the
//! persist layer and brought back with `QueryPool::recover`.

use crate::inputs::{self, tag, Rng};
use crate::report::{Run, Size};
use crate::stats::{self, IterSample, Summary};
use crate::trace::{SpanId, NO_SPAN};
use crate::{engine_config, host};
use simdx_algos::{kcore, reference, Bfs, KCore, PageRank, Sssp};
use simdx_core::persist::{self, DurableCheckpoint};
use simdx_core::{
    AccProgram, BoundGraph, CheckpointStore, DirStore, ExecMode, IterationRecord, QueryPool,
    RunReport, Runtime, SimdxError,
};
use simdx_graph::csr::Direction;
use simdx_graph::gen::{Rmat, Road};
use simdx_graph::{weights, EdgeList, Graph, VertexId};
use std::time::Instant;

/// Iterations whose frontier degree sum is below this are "small": the
/// fixed per-iteration cost dominates them.
pub const SMALL_ITER_EDGES: u64 = 8192;

/// Tail percentile reported as `e2e.latency_ms_tail` on these workloads;
/// the timed passes run until at least 10 samples lie beyond it.
const TAIL_P: f64 = 90.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Bfs,
    Sssp,
    PageRank,
    KCore,
}

/// One query of the list: algorithm, its argument (source vertex, or k
/// for k-Core), the graph view it runs on, and whether the restart
/// phase aborts, spills and recovers it (BFS only).
#[derive(Clone, Copy, Debug)]
pub struct Query {
    pub algo: Algo,
    pub arg: u32,
    pub view: usize,
    pub restart: bool,
}

impl Query {
    fn new(algo: Algo, arg: u32, view: usize) -> Self {
        Self {
            algo,
            arg,
            view,
            restart: false,
        }
    }
}

/// One graph the workload builds during set-up.
pub struct View {
    pub label: &'static str,
    pub edges: EdgeList,
    pub directed: bool,
}

pub struct Workload {
    pub views: Vec<View>,
    pub queries: Vec<Query>,
}

/// RMAT (GTgraph, edge factor 8) in directed, weighted and undirected
/// views; mostly BFS plus some SSSP, PageRank and k-Core.
pub fn rmat_mix(run: &mut Run) {
    let (scale, bfs, sssp) = match run.size {
        Size::Full => (18, 28, 4),
        Size::Smoke => (10, 4, 2),
    };
    let el = Rmat::gtgraph(scale, 8).generate(Rng::new(run.seed, tag::GRAPH).next_u64());
    let elw = weights::assign_default_weights(&el, Rng::new(run.seed, tag::WEIGHTS).next_u64());
    let mut rng = Rng::new(run.seed, tag::SOURCES);
    let sources = inputs::hub_sources(&el, 8, bfs + sssp, &mut rng);
    let mut queries: Vec<Query> = sources
        .iter()
        .enumerate()
        .map(|(i, &s)| match i < bfs {
            true => Query {
                restart: i < bfs / 2,
                ..Query::new(Algo::Bfs, s, 0)
            },
            false => Query::new(Algo::Sssp, s, 1),
        })
        .collect();
    queries.push(Query::new(Algo::PageRank, 0, 0));
    queries.push(Query::new(Algo::KCore, kcore::DEFAULT_K, 2));
    shuffle(&mut queries, &mut rng);
    let wl = Workload {
        views: vec![
            View {
                label: "directed",
                edges: el.clone(),
                directed: true,
            },
            View {
                label: "weighted",
                edges: elw,
                directed: true,
            },
            View {
                label: "undirected",
                edges: el,
                directed: false,
            },
        ],
        queries,
    };
    run.info(
        "graph",
        format!("RMAT GTgraph scale {scale}, edge factor 8"),
    );
    traverse(run, &wl);
}

/// A `Road::strip` grid: BFS and SSSP from sources stratified along
/// the strip, so every query runs hundreds of tiny-frontier iterations.
pub fn road_deep(run: &mut Run) {
    let (width, height, bfs) = match run.size {
        Size::Full => (1024, 64, 20),
        Size::Smoke => (64, 8, 4),
    };
    let road = Road::strip(width, height);
    let el = road.generate(Rng::new(run.seed, tag::GRAPH).next_u64());
    let elw = weights::assign_default_weights(&el, Rng::new(run.seed, tag::WEIGHTS).next_u64());
    let mut rng = Rng::new(run.seed, tag::SOURCES);
    // Every fifth stratum also goes through the restart phase, so the
    // recovered set spans the strip on every seed.
    let mut queries: Vec<Query> = inputs::strip_sources(width, height, bfs, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, s)| Query {
            restart: i % 5 == 0,
            ..Query::new(Algo::Bfs, s, 0)
        })
        .collect();
    // One SSSP from the middle eighth of the strip: ~700 iterations,
    // and less seed-to-seed spread in its simulated time than from an
    // end. A single SSSP keeps the p90 tail inside the BFS group.
    let x = width * 7 / 16 + rng.below(u64::from(width / 8)) as u32;
    let y = rng.below(u64::from(height)) as u32;
    queries.push(Query::new(Algo::Sssp, y * width + x, 1));
    shuffle(&mut queries, &mut rng);
    let wl = Workload {
        views: vec![
            View {
                label: "undirected",
                edges: el,
                directed: false,
            },
            View {
                label: "weighted",
                edges: elw,
                directed: false,
            },
        ],
        queries,
    };
    run.info("graph", format!("Road::strip({width}, {height})"));
    traverse(run, &wl);
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Per-vertex metadata as raw bits, so u32 and f32 answers compare
/// bit-exactly through one type.
pub trait Bits: Copy {
    fn bits(self) -> u32;
}

impl Bits for u32 {
    fn bits(self) -> u32 {
        self
    }
}

impl Bits for f32 {
    fn bits(self) -> u32 {
        self.to_bits()
    }
}

pub type Stamps = Vec<(Instant, IterationRecord)>;

/// One timed `execute()`: its start and end, and the answer.
pub struct Exec {
    pub start: Instant,
    pub end: Instant,
    pub out: Result<(Vec<u32>, RunReport), SimdxError>,
}

impl Exec {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Runs one query; with `stamps`, an `observe` hook timestamps every
/// iteration record on the calling thread.
pub fn exec<'b, P>(
    bound: &'b BoundGraph<'_, '_>,
    program: P,
    stamps: Option<&'b mut Stamps>,
) -> Exec
where
    P: AccProgram,
    P::Meta: Bits,
{
    let mut builder = bound.run(program);
    if let Some(stamps) = stamps {
        builder = builder.observe(move |rec| stamps.push((Instant::now(), *rec)));
    }
    let start = Instant::now();
    let result = std::hint::black_box(builder.execute());
    let end = Instant::now();
    Exec {
        start,
        end,
        out: result.map(|r| (r.meta.into_iter().map(Bits::bits).collect(), r.report)),
    }
}

fn run_query(
    q: &Query,
    bound: &BoundGraph<'_, '_>,
    pr: Option<&PageRank>,
    stamps: Option<&mut Stamps>,
) -> Exec {
    match q.algo {
        Algo::Bfs => exec(bound, Bfs::new(q.arg), stamps),
        Algo::Sssp => exec(bound, Sssp::new(q.arg), stamps),
        Algo::PageRank => exec(
            bound,
            pr.expect("PageRank program built for its view").clone(),
            stamps,
        ),
        Algo::KCore => exec(bound, KCore::new(q.arg), stamps),
    }
}

/// Checks one answer against the sequential reference.
fn check_reference(q: &Query, g: &Graph, bits: &[u32]) -> Result<(), String> {
    let exact = |want: Vec<u32>| match want == bits {
        true => Ok(()),
        false => Err("differs from the reference".to_string()),
    };
    match q.algo {
        Algo::Bfs => exact(reference::bfs(g.out(), q.arg)),
        Algo::Sssp => exact(reference::sssp(g.out(), q.arg)),
        Algo::KCore => {
            let survivors = kcore::survivors(bits);
            match reference::kcore(g, q.arg) == survivors {
                true => Ok(()),
                false => Err("k-Core survivors differ from the reference".to_string()),
            }
        }
        Algo::PageRank => {
            let want = reference::pagerank(g, PR_DAMPING, pagerank_eps(g), 500);
            check_pagerank(&want, bits)
        }
    }
}

/// PageRank's damping, and its convergence threshold as a share of the
/// base rank `(1 - d) / n`.
const PR_DAMPING: f32 = 0.85;
const PR_EPS_PER_BASE: f64 = 1e-2;

/// Allowance for f32 rounding in the rank sums, relative to the rank.
const PR_ROUNDING: f64 = 1e-4;

/// The convergence threshold for `g`: a fixed share of its base rank,
/// so the per-vertex bound of [`check_pagerank`] does not loosen as the
/// graph grows.
fn pagerank_eps(g: &Graph) -> f32 {
    let base = (1.0 - f64::from(PR_DAMPING)) / f64::from(g.num_vertices().max(1));
    (PR_EPS_PER_BASE * base) as f32
}

/// Largest relative per-vertex gap allowed between two PageRank answers.
/// Each stops once every vertex is within `eps` of its own update, so its
/// error is `(I - dP)^-1 e` with `|e| <= eps`. That operator is
/// non-negative and maps the all-`base` vector to the exact ranks `r*`,
/// so `|error| <= (eps / base) r*` at every vertex. Two such answers
/// differ by at most `2 (eps / base) r*`, and `r* <= b / (1 - eps / base)`
/// for either answer `b`.
fn pagerank_rel_tolerance() -> f64 {
    2.0 * PR_EPS_PER_BASE / (1.0 - PR_EPS_PER_BASE) + PR_ROUNDING
}

/// Compares the engine's ranks (`bits`) with the reference (`want`)
/// vertex by vertex, relative to the reference rank.
fn check_pagerank(want: &[f32], bits: &[u32]) -> Result<(), String> {
    if want.len() != bits.len() {
        return Err(format!(
            "PageRank has {} ranks, not {}",
            bits.len(),
            want.len()
        ));
    }
    let worst = want
        .iter()
        .zip(bits)
        .map(|(&w, &b)| {
            let (w, got) = (f64::from(w), f64::from(f32::from_bits(b)));
            let e = (w - got).abs() / w.abs().max(f64::MIN_POSITIVE);
            // `f64::max` drops a NaN; a NaN rank must fail.
            if e.is_nan() {
                f64::INFINITY
            } else {
                e
            }
        })
        .fold(0.0f64, f64::max);
    match worst <= pagerank_rel_tolerance() {
        true => Ok(()),
        false => Err(format!(
            "PageRank relative error {worst:.3e} over {:.3e}",
            pagerank_rel_tolerance()
        )),
    }
}

/// Bit-equality of two runs: metadata, activation log and simulated
/// stats.
pub fn same_run(a: &(Vec<u32>, RunReport), b: &(Vec<u32>, RunReport)) -> bool {
    a.0 == b.0 && a.1.log == b.1.log && a.1.stats == b.1.stats
}

/// The two runtimes every query runs on; index into per-runtime arrays.
pub const SERIAL: usize = 0;
const PARALLEL: usize = 1;
const RUNTIMES: [&str; 2] = ["serial", "parallel"];

/// Set-up timings of one repetition, in ms.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    total: f64,
    build: f64,
    runtime_new: f64,
    bind: f64,
}

/// Builds every view, one runtime per entry of `execs` and every
/// (view, runtime) bind, timing each call, then hands them to `body`
/// as `bound[view][runtime]`. Cloning the edge lists is input
/// preparation and stays outside the timings.
fn with_setup<R>(
    run: &mut Run,
    views: &[View],
    execs: &[ExecMode],
    body: impl FnOnce(&mut Run, &[Graph], &[Vec<BoundGraph<'_, '_>>]) -> R,
) -> (SetupTimes, R) {
    let lists: Vec<EdgeList> = views.iter().map(|v| v.edges.clone()).collect();
    let mut t = SetupTimes::default();
    let t0 = Instant::now();
    let root = run.tracer.begin("setup", t0, None);
    let mut graphs = Vec::with_capacity(views.len());
    for (view, el) in views.iter().zip(lists) {
        let s = Instant::now();
        let g = match view.directed {
            true => Graph::directed_from_edges(el),
            false => Graph::undirected_from_edges(el),
        };
        t.build += span(run, "graph.build", s, root);
        graphs.push(g);
    }
    let mut runtimes = Vec::with_capacity(execs.len());
    for &exec in execs {
        let s = Instant::now();
        runtimes.push(Runtime::new(engine_config(exec)).expect("explicit engine config is valid"));
        t.runtime_new += span(run, "session.runtime_new", s, root);
    }
    let mut bound = Vec::with_capacity(graphs.len());
    for g in &graphs {
        let mut per_runtime = Vec::with_capacity(runtimes.len());
        for rt in &runtimes {
            let s = Instant::now();
            per_runtime.push(rt.try_bind(g).expect("bind a generated graph"));
            t.bind += span(run, "session.bind", s, root);
        }
        bound.push(per_runtime);
    }
    let end = Instant::now();
    run.tracer.end(root, end);
    t.total = (end - t0).as_secs_f64() * 1e3;
    (t, body(run, &graphs, &bound))
}

/// Set-up repetitions. The first builds the artifacts the run uses;
/// the others are built and dropped between the timed phases
/// ([`Self::probe`]), so `setup_s` samples the whole run like every
/// other timing instead of one stretch at its start.
pub struct Setups<'v> {
    views: &'v [View],
    execs: &'v [ExecMode],
    times: Vec<SetupTimes>,
    /// Peak resident set before the first probe: a probe holds a second
    /// set of graphs and runtimes, a state the program never reaches.
    peak_rss_mib: Option<f64>,
}

impl<'v> Setups<'v> {
    /// Sets up once, runs `body` over the result, then records
    /// `setup_s` and the set-up layer metrics as medians over every
    /// repetition.
    pub fn run<R>(
        run: &mut Run,
        views: &'v [View],
        execs: &'v [ExecMode],
        body: impl FnOnce(&mut Run, &[Graph], &[Vec<BoundGraph<'_, '_>>], &mut Setups<'v>) -> R,
    ) -> R {
        let mut setups = Setups {
            views,
            execs,
            times: Vec::new(),
            peak_rss_mib: None,
        };
        let (first, result) = with_setup(run, views, execs, |run, graphs, bound| {
            body(run, graphs, bound, &mut setups)
        });
        setups.times.push(first);
        let med = |f: fn(&SetupTimes) -> f64| {
            stats::median(&setups.times.iter().map(f).collect::<Vec<_>>())
        };
        let note = format!(
            "median of {} set-ups spread through the run",
            setups.times.len()
        );
        run.set(
            "setup_s",
            med(|t| t.total) / 1e3,
            format!("{note}: CSR build + Runtime::new + bind of every graph and runtime"),
        );
        if run.tracer.is_on() {
            run.set("graph.csr_build_ms", med(|t| t.build), note.clone());
            run.set(
                "session.runtime_new_ms",
                med(|t| t.runtime_new),
                note.clone(),
            );
            run.set("session.bind_ms", med(|t| t.bind), note);
        }
        run.set(
            "peak_rss_mb",
            setups.peak_rss_mib.unwrap_or_else(host::peak_rss_mib),
            "peak resident set (getrusage) after verification and the first timed phase, before any extra set-up",
        );
        result
    }

    /// One more set-up, timed and dropped.
    pub fn probe(&mut self, run: &mut Run) {
        self.peak_rss_mib.get_or_insert_with(host::peak_rss_mib);
        self.times
            .push(with_setup(run, self.views, self.execs, |_, _, _| ()).0);
    }
}

/// Records a span from `start` to now and returns its length in ms.
fn span(run: &mut Run, name: &'static str, start: Instant, parent: SpanId) -> f64 {
    let end = Instant::now();
    run.tracer.add(name, start, end, Some(parent), None);
    (end - start).as_secs_f64() * 1e3
}

/// Per-iteration data of traced executions, per runtime.
#[derive(Default)]
pub struct TraceSamples {
    iters: [Vec<IterSample>; 2],
    first_ms: [Vec<f64>; 2],
    finish_ms: [Vec<f64>; 2],
}

impl TraceSamples {
    /// Turns one traced execution's `observe` stamps into spans (the
    /// execute call; init plus iteration 0; each later iteration; the
    /// tail after the last hook) and iteration samples.
    pub fn record(
        &mut self,
        run: &mut Run,
        rt: usize,
        qid: usize,
        pass: SpanId,
        e: &Exec,
        stamps: &Stamps,
    ) {
        let q = Some(qid as u64);
        let tr = &mut run.tracer;
        let root = tr.add(EXECUTE_SPANS[rt], e.start, e.end, Some(pass), q);
        let Some(&(first, _)) = stamps.first() else {
            return;
        };
        tr.add("engine.first_iter", e.start, first, Some(root), q);
        self.first_ms[rt].push((first - e.start).as_secs_f64() * 1e3);
        for w in stamps.windows(2) {
            let ((a, _), (b, rec)) = (w[0], w[1]);
            tr.add("engine.iter", a, b, Some(root), q);
            self.iters[rt].push(IterSample {
                query: qid,
                iteration: rec.iteration,
                ns: (b - a).as_nanos() as u64,
                degree_sum: rec.degree_sum,
            });
        }
        let last = stamps.last().map_or(e.start, |(t, _)| *t);
        tr.add("engine.finish", last, e.end, Some(root), q);
        self.finish_ms[rt].push((e.end - last).as_secs_f64() * 1e3);
    }

    /// The engine span metrics, from the executions on runtime `rt`.
    pub fn set_engine_layers(&self, run: &mut Run, rt: usize, note: &str) {
        let iters = &self.iters[rt];
        let us = |small_only: bool| -> Vec<f64> {
            let keep = |i: &&IterSample| !small_only || i.degree_sum < SMALL_ITER_EDGES;
            iters
                .iter()
                .filter(keep)
                .map(|i| i.ns as f64 / 1e3)
                .collect()
        };
        let (large_ns, large_edges) = iters
            .iter()
            .filter(|i| i.degree_sum >= SMALL_ITER_EDGES)
            .fold((0u64, 0u64), |(ns, e), i| (ns + i.ns, e + i.degree_sum));
        run.set(
            "engine.first_iter_ms_p50",
            stats::median(&self.first_ms[rt]),
            note,
        );
        run.set(
            "engine.finish_ms_p50",
            stats::median(&self.finish_ms[rt]),
            note,
        );
        run.set(
            "engine.iter_us_p50",
            stats::median(&us(false)),
            format!("{note}, iterations 1.."),
        );
        run.set(
            "engine.small_iter_us_p50",
            stats::median(&us(true)),
            format!("{note}, degree sum < {SMALL_ITER_EDGES}"),
        );
        run.set(
            "engine.ns_per_edge",
            large_ns as f64 / large_edges.max(1) as f64,
            format!("{note}, host ns per frontier edge, iterations with degree sum >= {SMALL_ITER_EDGES}"),
        );
    }

    /// The `par` metrics: iteration *i* of query *q* paired across the
    /// serial and parallel runs of the same traced pass.
    fn set_par_layers(&self, run: &mut Run) {
        let pairs = stats::pair_iterations(&self.iters[SERIAL], &self.iters[PARALLEL]);
        let small: Vec<f64> = pairs
            .iter()
            .filter(|p| p.2 < SMALL_ITER_EDGES)
            .map(|&(ser, par, _)| (par as f64 - ser as f64) / 1e3)
            .collect();
        let (ser, par) = pairs
            .iter()
            .filter(|p| p.2 >= SMALL_ITER_EDGES)
            .fold((0u64, 0u64), |(a, b), p| (a + p.0, b + p.1));
        run.set(
            "par.small_iter_overhead_us",
            stats::median(&small),
            format!(
                "median parallel - serial over {} paired small iterations",
                small.len()
            ),
        );
        run.set(
            "par.large_iter_speedup",
            if par > 0 {
                ser as f64 / par as f64
            } else {
                0.0
            },
            "serial / parallel host time over paired large iterations",
        );
    }
}

const EXECUTE_SPANS: [&str; 2] = ["engine.execute.serial", "engine.execute.parallel"];

fn traverse(run: &mut Run, wl: &Workload) {
    run.info(
        "views",
        wl.views
            .iter()
            .map(|v| v.label)
            .collect::<Vec<_>>()
            .join(", "),
    );
    run.info("queries", describe(&wl.queries));
    run.info("parallel threads (nproc)", host::nproc());
    let execs = [
        ExecMode::Serial,
        ExecMode::Parallel {
            threads: host::nproc(),
        },
    ];
    Setups::run(run, &wl.views, &execs, |run, graphs, bound, setups| {
        measure(run, wl, graphs, bound, setups)
    });
}

fn describe(queries: &[Query]) -> String {
    let count = |a| queries.iter().filter(|q| q.algo == a).count();
    format!(
        "{} per pass: {} BFS, {} SSSP, {} PageRank, {} k-Core",
        queries.len(),
        count(Algo::Bfs),
        count(Algo::Sssp),
        count(Algo::PageRank),
        count(Algo::KCore)
    )
}

/// Everything after set-up: verification, timed passes, restart phase.
fn measure(
    run: &mut Run,
    wl: &Workload,
    graphs: &[Graph],
    bound: &[Vec<BoundGraph<'_, '_>>],
    setups: &mut Setups<'_>,
) {
    for (view, g) in wl.views.iter().zip(graphs) {
        let csr_bytes = g.footprint_bytes();
        run.info(
            &format!("graph {}", view.label),
            format!(
                "V {} E {} CSR bytes (computed) {csr_bytes}",
                g.num_vertices(),
                g.num_edges()
            ),
        );
    }
    let pagerank: Vec<Option<PageRank>> = graphs
        .iter()
        .enumerate()
        .map(|(v, g)| {
            let used = wl
                .queries
                .iter()
                .any(|q| q.algo == Algo::PageRank && q.view == v);
            used.then(|| PageRank::with_params(g, PR_DAMPING, pagerank_eps(g)))
        })
        .collect();
    let pr = |q: &Query| pagerank[q.view].as_ref();

    // Verification pass (also the warm-up): reference check and
    // serial/parallel bit-equality, untimed.
    let mut verified: Vec<Option<(Vec<u32>, RunReport)>> = Vec::with_capacity(wl.queries.len());
    let mut par_reports = Vec::new();
    for q in &wl.queries {
        let (bs, bp) = (&bound[q.view][SERIAL], &bound[q.view][PARALLEL]);
        let s = run_query(q, bs, pr(q), None).out;
        let p = run_query(q, bp, pr(q), None).out;
        let ok = match (&s, &p) {
            (Ok(s), Ok(p)) => {
                let reference = check_reference(q, &graphs[q.view], &s.0);
                let equal = same_run(s, p);
                run.ledger.op(reference.is_ok() && equal, || {
                    format!("{q:?}: {:?}, serial == parallel: {equal}", reference.err())
                })
            }
            _ => run.ledger.op(false, || {
                format!(
                    "{q:?}: serial {:?} / parallel {:?}",
                    s.as_ref().err(),
                    p.as_ref().err()
                )
            }),
        };
        if let Ok(p) = &p {
            par_reports.push(p.1.clone());
        }
        verified.push(if ok { s.ok() } else { None });
    }
    set_counts(
        run,
        &par_reports,
        "one pass over the query list, parallel runtime",
    );
    let sim_ms: f64 = verified.iter().flatten().map(|v| v.1.elapsed_ms).sum();
    run.set(
        "sim_ms_total",
        sim_ms,
        format!(
            "simulated time summed over the {} queries of one pass",
            wl.queries.len()
        ),
    );

    let store_dir = run
        .out_dir
        .join(format!("store-{}-{}", run.workload, std::process::id()));
    let stores = [spill_restart_queries(run, wl, bound, &verified, &store_dir)];
    let mut recovery = Recovery::new(&stores);
    let restart_view = wl.queries.iter().find(|q| q.restart).map_or(0, |q| q.view);
    let solo = |seed: VertexId| {
        let i = wl.queries.iter().position(|q| q.restart && q.arg == seed)?;
        verified[i].as_ref()
    };

    // Timed passes: every query runs on both runtimes back to back,
    // which runtime goes first alternates per query and per pass, and
    // one recovery repetition and one set-up repetition follow every
    // pass. The host's speed
    // drifts over seconds, so fine interleaving is what keeps serial
    // and parallel samples from landing in different regimes. In a
    // traced run, passes alternate untraced and traced.
    let mut untraced: [Vec<f64>; 2] = Default::default();
    let mut traced_ms: [Vec<f64>; 2] = Default::default();
    let mut trace = TraceSamples::default();
    // Queries per second of each untraced pass on the parallel runtime.
    let mut pass_qps = Vec::new();
    let min_samples = match run.size {
        Size::Full => stats::min_samples(TAIL_P),
        Size::Smoke => 1,
    };
    let started = Instant::now();
    let mut stamps: Stamps = Vec::with_capacity(4096);
    for pass in 0usize.. {
        let traced = run.tracer.is_on() && pass % 2 == 1;
        let pass_span = match traced {
            true => run.tracer.begin("bench.pass", Instant::now(), None),
            false => NO_SPAN,
        };
        let mut parallel_ms = 0.0;
        for (i, q) in wl.queries.iter().enumerate() {
            let order = if (i + pass) % 2 == 0 {
                [SERIAL, PARALLEL]
            } else {
                [PARALLEL, SERIAL]
            };
            for rt in order {
                stamps.clear();
                let e = run_query(q, &bound[q.view][rt], pr(q), traced.then_some(&mut stamps));
                let ok = match (&e.out, &verified[i]) {
                    (Ok(got), Some(want)) => same_run(got, want),
                    _ => false,
                };
                run.ledger.op(ok, || {
                    format!(
                        "{q:?} on {}: answer differs from the verified run",
                        RUNTIMES[rt]
                    )
                });
                if rt == PARALLEL {
                    parallel_ms += e.ms();
                }
                if traced {
                    traced_ms[rt].push(e.ms());
                    trace.record(run, rt, pass * wl.queries.len() + i, pass_span, &e, &stamps);
                } else {
                    untraced[rt].push(e.ms());
                }
            }
        }
        if !traced {
            pass_qps.push(wl.queries.len() as f64 / (parallel_ms / 1e3));
        }
        if traced {
            run.tracer.end(pass_span, Instant::now());
        }
        recovery.rep(run, &bound[restart_view][SERIAL], &solo);
        setups.probe(run);
        let enough = untraced[PARALLEL].len() >= min_samples
            && recovery.reps() >= MIN_RECOVER_REPS
            && (!run.tracer.is_on() || !traced_ms[PARALLEL].is_empty());
        if enough && started.elapsed().as_secs_f64() >= run.seconds {
            break;
        }
    }

    let lat = Summary::of(&untraced[PARALLEL], TAIL_P);
    let ser = Summary::of(&untraced[SERIAL], TAIL_P);
    run.set(
        "e2e.latency_ms_p50",
        lat.p50,
        format!("per-query host wall time, parallel runtime, n={}", lat.n),
    );
    run.set("e2e.latency_ms_tail", lat.tail, lat.tail_note());
    run.set(
        "query_ms_p50_serial",
        ser.p50,
        format!("same query list on the serial runtime, n={}", ser.n),
    );
    run.set(
        "e2e.throughput_qps",
        stats::median(&pass_qps),
        format!(
            "one closed-loop client on the parallel runtime, median over {} passes",
            pass_qps.len()
        ),
    );
    if run.size == Size::Full && !lat.tail_ok() {
        run.ledger.op(false, || {
            format!("only {} samples for p{}", lat.n, lat.tail_p)
        });
    }
    if run.tracer.is_on() {
        trace.set_engine_layers(run, PARALLEL, "traced passes, parallel runtime");
        trace.set_par_layers(run);
        let overhead =
            stats::median(&traced_ms[PARALLEL]) / stats::median(&untraced[PARALLEL]) - 1.0;
        run.set(
            "trace.overhead_pct",
            overhead * 100.0,
            "traced vs untraced median parallel query time, same run",
        );
    }
    let reps = recovery.reps();
    let recover_s = recovery.finish(run);
    run.set(
        "recover_s",
        recover_s,
        format!("median of {reps} QueryPool::recover calls (one after each pass), serial runtime"),
    );
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// The cycle budget of a planned abort: the query's first iteration.
/// Aborting there keeps every spilled blob the same shape (full
/// metadata, a frontier of one hop) whatever the source, so the
/// restart cost is the decode plus a near-complete run.
pub fn starved_budget(solo: &RunReport) -> u64 {
    solo.log.records.first().map_or(1, |r| r.cycles.max(1))
}

/// Recovery repetitions a run makes at least.
pub const MIN_RECOVER_REPS: usize = 3;

/// Deterministic counts over one pass of verified runs.
pub fn set_counts(run: &mut Run, reports: &[RunReport], note: &str) {
    let records = || reports.iter().flat_map(|r| r.log.records.iter());
    let count = |f: &dyn Fn(&IterationRecord) -> bool| records().filter(|r| f(r)).count() as f64;
    let degree_sum: u64 = records().map(|r| r.degree_sum).sum();
    let edges: u64 = reports.iter().map(|r| r.edges_examined).sum();
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    run.set("engine.iterations", sum(|r| u64::from(r.iterations)), note);
    run.set("engine.edges_examined", edges as f64, note);
    run.set(
        "engine.work_ratio",
        edges as f64 / degree_sum.max(1) as f64,
        "edges_examined / sum of frontier degree sums",
    );
    run.set(
        "engine.push_iters",
        count(&|r| r.direction == Direction::Push),
        note,
    );
    run.set(
        "engine.pull_iters",
        count(&|r| r.direction == Direction::Pull),
        note,
    );
    run.set(
        "jit.ballot_iters",
        sum(|r| u64::from(r.log.ballot_iterations())),
        note,
    );
    run.set(
        "jit.online_iters",
        sum(|r| u64::from(r.log.online_iterations())),
        note,
    );
    run.set(
        "jit.filter_switches",
        sum(|r| u64::from(r.log.filter_switches())),
        note,
    );
    run.set("jit.overflow_iters", count(&|r| r.overflowed), note);
    run.set(
        "fusion.kernel_launches",
        sum(|r| r.stats.kernel_launches),
        note,
    );
    run.set(
        "fusion.barrier_passes",
        sum(|r| r.stats.barrier_passes),
        note,
    );
    run.set("gpu_sim.cycles", sum(|r| r.stats.total_cycles), note);
    let checks = sum(|r| r.supervision_checks) / reports.len().max(1) as f64;
    run.set("supervise.checks", checks, format!("per query, {note}"));
}

/// Restart phase, spill side: the BFS queries marked `restart` run on
/// the serial runtime with a cycle budget of their first iteration,
/// abort with a boundary checkpoint, and are spilled to a fresh
/// `DirStore` in `dir`. The timed passes then recover them, on the
/// serial runtime too: restart cost is decode plus resume, and a
/// parallel resume would fold the pool's sensitivity to a contended
/// host (already measured by `e2e.latency_ms_p50`) into `recover_s`.
fn spill_restart_queries(
    run: &mut Run,
    wl: &Workload,
    bound: &[Vec<BoundGraph<'_, '_>>],
    verified: &[Option<(Vec<u32>, RunReport)>],
    dir: &std::path::Path,
) -> DirStore {
    let _ = std::fs::remove_dir_all(dir);
    let store = DirStore::open(dir).expect("open the restart store");
    let picks: Vec<(usize, &Query)> = wl
        .queries
        .iter()
        .enumerate()
        .filter(|(i, q)| q.restart && verified[*i].is_some())
        .collect();
    let mut spilled = 0;
    for (ticket, &(i, q)) in picks.iter().enumerate() {
        let solo = verified[i].as_ref().expect("picked from verified queries");
        let budget = starved_budget(&solo.1);
        let bs = &bound[q.view][SERIAL];
        let aborted = bs
            .run(Bfs::new(q.arg))
            .cycle_budget(budget)
            .checkpoint_on_abort()
            .execute();
        let checkpoint = match aborted {
            Err(a) => match a.into_parts() {
                (SimdxError::BudgetExhausted { .. }, Some(cp)) => Some(cp),
                _ => None,
            },
            Ok(_) => None,
        };
        let spill = checkpoint.map(|checkpoint| {
            let frame = DurableCheckpoint {
                ticket: ticket as u64,
                seed: q.arg,
                checkpoint,
            };
            let s = Instant::now();
            let r = persist::spill(&store, &frame);
            run.tracer.add(
                "persist.spill",
                s,
                Instant::now(),
                None,
                Some(ticket as u64),
            );
            r
        });
        if run.ledger.op(matches!(spill, Some(Ok(()))), || {
            format!("{q:?}: planned abort did not abort and spill: {spill:?}")
        }) {
            spilled += 1;
        }
    }
    run.set(
        "checkpoint.captured",
        spilled as f64,
        "planned aborts that captured a boundary checkpoint",
    );
    run.set(
        "persist.spilled",
        spilled as f64,
        "checkpoints spilled to the DirStore",
    );
    run.set(
        "persist.spill_failures",
        (picks.len() - spilled) as f64,
        "planned aborts that failed to spill",
    );
    store
}

/// Repeated `QueryPool::recover` over a fixed spilled set. Before the
/// first repetition every store directory is copied aside; each later
/// repetition recovers a fresh plain copy of it. Copying files (rather
/// than putting the blobs back through the store, which fsyncs each
/// one) keeps a burst of synchronous writes out of the timed recovery
/// that follows. Every recovered answer is checked against its solo
/// run.
pub struct Recovery<'s> {
    stores: &'s [DirStore],
    /// Per store: its pristine copy, and its blobs' count and bytes.
    pristine: Vec<(std::path::PathBuf, usize, u64)>,
    walls: Vec<f64>,
    self_ms: Vec<f64>,
    resumed_from: Vec<f64>,
}

/// Copies every file of `from` into a new directory `to`.
fn copy_dir(from: &std::path::Path, to: &std::path::Path) -> (usize, u64) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create a store copy");
    let (mut files, mut bytes) = (0, 0);
    for entry in std::fs::read_dir(from).expect("list a store") {
        let path = entry.expect("list a store").path();
        let name = path.file_name().expect("a directory entry has a name");
        bytes += std::fs::copy(&path, to.join(name)).expect("copy a spilled blob");
        files += 1;
    }
    (files, bytes)
}

impl<'s> Recovery<'s> {
    pub fn new(stores: &'s [DirStore]) -> Self {
        let pristine = stores
            .iter()
            .map(|store| {
                let copy = store.dir().with_extension("pristine");
                let (files, bytes) = copy_dir(store.dir(), &copy);
                (copy, files, bytes)
            })
            .collect();
        Self {
            stores,
            pristine,
            walls: Vec::new(),
            self_ms: Vec::new(),
            resumed_from: Vec::new(),
        }
    }

    pub fn reps(&self) -> usize {
        self.walls.len()
    }

    /// One repetition: recovers every store, timing the
    /// `QueryPool::recover` calls only.
    pub fn rep<'a>(
        &mut self,
        run: &mut Run,
        bound: &BoundGraph<'_, '_>,
        solo: &dyn Fn(VertexId) -> Option<&'a (Vec<u32>, RunReport)>,
    ) {
        let first = self.walls.is_empty();
        let (mut wall, mut resumed) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
        for (original, (pristine, blobs, _)) in self.stores.iter().zip(&self.pristine) {
            let (blobs, copy) = (*blobs, original.dir().with_extension("rep"));
            let store = match first {
                true => original.clone(),
                false => {
                    copy_dir(pristine, &copy);
                    DirStore::open(&copy).expect("open a store copy")
                }
            };
            let t0 = Instant::now();
            let report = QueryPool::recover(bound, Bfs::new(0), &store);
            let t1 = Instant::now();
            wall += t1 - t0;
            let root = run.tracer.add("persist.recover", t0, t1, None, None);
            let Ok(report) = report else {
                run.ledger
                    .op(false, || format!("recover failed: {:?}", report.err()));
                continue;
            };
            run.ledger.op(
                report.skipped.is_empty() && report.recovered.len() == blobs,
                || {
                    format!(
                        "recover skipped {:?}, recovered {} of {}",
                        report.skipped,
                        report.recovered.len(),
                        blobs
                    )
                },
            );
            // Resume spans are synthesized end to end from each run's
            // own host time: their sum is exact, their placement not.
            let mut at = t0;
            for r in &report.recovered {
                let ok = match (&r.result, solo(r.seed)) {
                    (Ok(res), Some(want)) => {
                        let end = at + res.report.elapsed;
                        run.tracer
                            .add("engine.resume", at, end, Some(root), Some(r.ticket));
                        at = end;
                        resumed += res.report.elapsed;
                        res.meta == want.0
                            && res.report.log == want.1.log
                            && res.report.stats == want.1.stats
                    }
                    _ => false,
                };
                run.ledger.op(ok, || {
                    format!(
                        "recovered ticket {} (seed {}) differs from its solo run",
                        r.ticket, r.seed
                    )
                });
                if first {
                    self.resumed_from.push(f64::from(r.resumed_from));
                }
            }
            let left = store.tickets().map_or(usize::MAX, |t| t.len());
            run.ledger.op(left == 0, || {
                format!("{left} blobs left in the store after recovery")
            });
        }
        self.walls.push(wall.as_secs_f64());
        self.self_ms
            .push(wall.saturating_sub(resumed).as_secs_f64() * 1e3);
    }

    /// Sets the persist and checkpoint-resume metrics; returns the
    /// median recover wall time per repetition, in seconds.
    pub fn finish(self, run: &mut Run) -> f64 {
        let count: usize = self.pristine.iter().map(|p| p.1).sum();
        let bytes: u64 = self.pristine.iter().map(|p| p.2).sum();
        for (store, (pristine, _, _)) in self.stores.iter().zip(&self.pristine) {
            let _ = std::fs::remove_dir_all(pristine);
            let _ = std::fs::remove_dir_all(store.dir().with_extension("rep"));
        }
        let wall = stats::median(&self.walls);
        let (lo, hi) = self
            .walls
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
        run.info(
            "recover repetitions (s)",
            format!("{} from {lo:.4} to {hi:.4}", self.walls.len()),
        );
        let per = |v: f64| v / count.max(1) as f64;
        run.set(
            "persist.bytes_per_blob",
            per(bytes as f64),
            format!("mean size of the {count} spilled blobs"),
        );
        run.set(
            "persist.recover_ms_per_query",
            per(wall * 1e3),
            "median recover wall time / recovered queries",
        );
        run.set(
            "persist.recover_self_ms",
            stats::median(&self.self_ms),
            "recover wall time not spent resuming: read, decode, remove",
        );
        let resumed = &self.resumed_from;
        run.set(
            "checkpoint.resume_iter_mean",
            resumed.iter().sum::<f64>() / resumed.len().max(1) as f64,
            "mean iteration recovery resumed from",
        );
        wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine's PageRank passes the check, and a rank 3% off at a
    /// low-degree vertex fails it.
    #[test]
    fn pagerank_check_catches_a_wrong_low_degree_rank() {
        let g = Graph::directed_from_edges(Rmat::gtgraph(10, 8).generate(7));
        let rt = Runtime::new(engine_config(ExecMode::Serial)).expect("valid config");
        let bound = rt.try_bind(&g).expect("bind");
        let q = Query::new(Algo::PageRank, 0, 0);
        let program = PageRank::with_params(&g, PR_DAMPING, pagerank_eps(&g));
        let (mut bits, _) = run_query(&q, &bound, Some(&program), None)
            .out
            .expect("PageRank runs");
        assert_eq!(check_reference(&q, &g, &bits), Ok(()));
        let low = (0..g.num_vertices())
            .filter(|&v| g.in_().degree(v) > 0)
            .min_by_key(|&v| g.in_().degree(v) + g.out().degree(v))
            .expect("a vertex with in-edges");
        let rank = f32::from_bits(bits[low as usize]);
        bits[low as usize] = (rank * 1.03).to_bits();
        assert!(check_reference(&q, &g, &bits).is_err());
        bits[low as usize] = f32::NAN.to_bits();
        assert!(check_reference(&q, &g, &bits).is_err());
    }
}
