//! The frontier half of the determinism contract
//! (`crates/core/README.md`): the frontier an iteration processes is a
//! property of the algorithm and the graph, not of the filter that
//! built it or of the thread count that ran it.
//!
//! The harness is differential against two anchors. Every cell of the
//! {BFS, SSSP, PageRank, k-Core, WCC} × {Jit, BallotOnly} ×
//! {Serial, Parallel} matrix must
//!
//! - reach the sequential reference result (`simdx::algos::reference`),
//!   an oracle that shares no code with the engine;
//! - walk the same frontier trajectory as the Jit + Serial baseline:
//!   per iteration the same scan direction, frontier size and
//!   scan-direction degree sum, whether the online bins or the ballot
//!   scan produced the worklists — and end on bit-equal metadata;
//! - be bit-equal (metadata, full activation log, executor statistics)
//!   to the serial cell of its own filter policy (the log's filter
//!   kinds and cycles legitimately differ between policies).
//!
//! BFS additionally runs push-only, where each iteration's frontier is
//! exactly one reference BFS level, so the logged frontier sizes are
//! checked against the level populations. The graph classes stress
//! different engine paths: RMAT (skewed degrees → CTA worklists, ballot
//! switches, hub overflow), road strips (tiny frontiers over many
//! online-filter iterations) and Erdős–Rényi (push/pull direction
//! flips). The road and ER vertex counts are deliberately not multiples
//! of the warp width, so the ballot scan's partial tail warp is always
//! swept.

use simdx::algos::{bfs, kcore, pagerank, reference, sssp, wcc};
use simdx::core::jit::ActivationLog;
use simdx::core::prelude::*;
use simdx::graph::csr::Direction;
use simdx::graph::gen::{Erdos, Rmat, Road};
use simdx::graph::{weights, EdgeList, Graph};
use simdx_gpu::executor::ExecutorStats;

/// Everything that must match bit for bit across exec modes.
#[derive(Debug, PartialEq)]
struct Fingerprint<M: PartialEq + std::fmt::Debug> {
    meta: Vec<M>,
    iterations: u32,
    stats: ExecutorStats,
    log: ActivationLog,
}

fn fingerprint<M: PartialEq + std::fmt::Debug>(r: RunResult<M>) -> Fingerprint<M> {
    Fingerprint {
        meta: r.meta,
        iterations: r.report.iterations,
        stats: r.report.stats,
        log: r.report.log,
    }
}

/// One iteration's frontier as the log records it: what must not
/// depend on the filter that built the worklists.
type FrontierStep = (Direction, u64, u64);

fn trajectory(log: &ActivationLog) -> Vec<FrontierStep> {
    log.records
        .iter()
        .map(|r| (r.direction, r.frontier_len, r.degree_sum))
        .collect()
}

/// The exec-mode sweep each filter policy runs under.
fn exec_modes() -> [ExecMode; 3] {
    [
        ExecMode::Serial,
        ExecMode::Parallel { threads: 2 },
        ExecMode::Parallel { threads: 5 },
    ]
}

/// Runs one algorithm over the {filter policy} × {exec mode} matrix and
/// checks every cell against the reference oracle (`check`), the
/// baseline's frontier trajectory and metadata, and its policy's
/// serial cell.
fn assert_matrix<M, F, C>(what: &str, run: F, check: C)
where
    M: PartialEq + std::fmt::Debug,
    F: Fn(EngineConfig) -> RunResult<M>,
    C: Fn(&[M]) -> Result<(), String>,
{
    let baseline = fingerprint(run(EngineConfig::default().with_exec(ExecMode::Serial)));
    assert!(
        baseline.iterations > 0,
        "{what}: trivial run proves nothing"
    );
    let base_steps = trajectory(&baseline.log);
    for policy in [FilterPolicy::Jit, FilterPolicy::BallotOnly] {
        let serial = fingerprint(run(EngineConfig::default()
            .with_filter(policy)
            .with_exec(ExecMode::Serial)));
        for exec in exec_modes() {
            let cell = fingerprint(run(EngineConfig::default()
                .with_filter(policy)
                .with_exec(exec)));
            let at = format!("{what}: {policy:?}/{}", exec.label());
            if let Err(e) = check(&cell.meta) {
                panic!("{at} disagrees with the reference: {e}");
            }
            assert_eq!(
                trajectory(&cell.log),
                base_steps,
                "{at} walked a different frontier than jit/serial"
            );
            assert_eq!(
                cell.meta, baseline.meta,
                "{at} meta differs from jit/serial"
            );
            assert_eq!(cell, serial, "{at} diverged from {policy:?}/serial");
        }
    }
}

/// Exact equality with the reference, reporting the first mismatch.
fn equals<T: PartialEq + std::fmt::Debug>(expected: Vec<T>) -> impl Fn(&[T]) -> Result<(), String> {
    move |got| match got.iter().zip(&expected).position(|(a, b)| a != b) {
        _ if got.len() != expected.len() => Err(format!(
            "{} vertices, reference has {}",
            got.len(),
            expected.len()
        )),
        Some(v) => Err(format!("vertex {v}: {:?} vs {:?}", got[v], expected[v])),
        None => Ok(()),
    }
}

/// Checks the BFS frontier itself: push-only, iteration `i` processes
/// exactly the vertices at reference level `i`.
fn assert_bfs_levels(what: &str, g: &Graph) {
    let levels = reference::bfs(g.out(), 0);
    let depth = levels
        .iter()
        .filter(|&&l| l != u32::MAX)
        .max()
        .copied()
        .unwrap_or(0);
    let expected: Vec<u64> = (0..=depth)
        .map(|i| levels.iter().filter(|&&l| l == i).count() as u64)
        .collect();
    for policy in [FilterPolicy::Jit, FilterPolicy::BallotOnly] {
        for exec in exec_modes() {
            let cfg = EngineConfig::default()
                .with_direction(DirectionPolicy::FixedPush)
                .with_filter(policy)
                .with_exec(exec);
            let r = bfs::run(g, 0, cfg).expect("bfs");
            let sizes: Vec<u64> = r
                .report
                .log
                .records
                .iter()
                .map(|r| r.frontier_len)
                .collect();
            assert_eq!(
                sizes,
                expected,
                "{what}: {policy:?}/{} push frontiers are not the reference levels",
                exec.label()
            );
        }
    }
}

fn rmat_graph() -> Graph {
    Graph::directed_from_edges(Rmat::gtgraph(12, 8).generate(5))
}

fn road_graph() -> Graph {
    Graph::undirected_from_edges(Road::strip(250, 15).generate(5))
}

fn er_graph() -> Graph {
    Graph::directed_from_edges(Erdos::new(4001, 8).generate(5))
}

fn weighted(el: EdgeList) -> Graph {
    Graph::directed_from_edges(weights::assign_default_weights(&el, 9))
}

/// PageRank against the reference within the tolerance the
/// cross-system suite uses (the two sum in different orders).
fn pagerank_close(g: &Graph) -> impl Fn(&[f32]) -> Result<(), String> {
    let expected = reference::pagerank(g, 0.85, 1e-6, 500);
    move |got| {
        if got.len() != expected.len() {
            return Err(format!(
                "{} vertices, reference has {}",
                got.len(),
                expected.len()
            ));
        }
        match got
            .iter()
            .zip(&expected)
            .position(|(a, b)| (a - b).abs() >= 1e-3)
        {
            Some(v) => Err(format!("rank[{v}] {} vs {}", got[v], expected[v])),
            None => Ok(()),
        }
    }
}

/// k-Core survivors against sequential peeling.
fn kcore_survivors(g: &Graph, k: u32) -> impl Fn(&[u32]) -> Result<(), String> {
    let expected = equals(reference::kcore(g, k));
    move |got| expected(&kcore::survivors(got))
}

#[test]
fn bfs_matrix_on_rmat() {
    let g = rmat_graph();
    assert_matrix(
        "bfs/rmat",
        |cfg| bfs::run(&g, 0, cfg).expect("bfs"),
        equals(reference::bfs(g.out(), 0)),
    );
    assert_bfs_levels("bfs/rmat", &g);
}

#[test]
fn bfs_matrix_on_road() {
    let g = road_graph();
    assert_matrix(
        "bfs/road",
        |cfg| bfs::run(&g, 0, cfg).expect("bfs"),
        equals(reference::bfs(g.out(), 0)),
    );
    assert_bfs_levels("bfs/road", &g);
}

#[test]
fn bfs_matrix_on_er() {
    let g = er_graph();
    assert_matrix(
        "bfs/er",
        |cfg| bfs::run(&g, 0, cfg).expect("bfs"),
        equals(reference::bfs(g.out(), 0)),
    );
    assert_bfs_levels("bfs/er", &g);
}

#[test]
fn sssp_matrix_on_rmat() {
    let g = weighted(Rmat::gtgraph(12, 8).generate(5));
    assert_matrix(
        "sssp/rmat",
        |cfg| sssp::run(&g, 0, cfg).expect("sssp"),
        equals(reference::sssp(g.out(), 0)),
    );
}

#[test]
fn sssp_matrix_on_road() {
    let g = weighted(Road::strip(125, 15).generate(5));
    assert_matrix(
        "sssp/road",
        |cfg| sssp::run(&g, 0, cfg).expect("sssp"),
        equals(reference::sssp(g.out(), 0)),
    );
}

#[test]
fn pagerank_matrix_on_rmat() {
    // PageRank's frontier is its set of still-moving ranks. The pull
    // sums over in-edges in adjacency order, so its f32 ranks must be
    // bit-equal across filters however the frontier was ordered.
    let g = rmat_graph();
    assert_matrix(
        "pagerank/rmat",
        |cfg| pagerank::run(&g, cfg).expect("pr"),
        pagerank_close(&g),
    );
}

#[test]
fn pagerank_matrix_on_er() {
    let g = er_graph();
    assert_matrix(
        "pagerank/er",
        |cfg| pagerank::run(&g, cfg).expect("pr"),
        pagerank_close(&g),
    );
}

#[test]
fn kcore_matrix_on_rmat() {
    // k-Core's decrements are non-idempotent: a vertex entering the
    // frontier twice would over-decrement and peel a survivor.
    let g = Graph::undirected_from_edges(Rmat::gtgraph(12, 8).generate(5));
    assert_matrix(
        "kcore/rmat",
        |cfg| kcore::run(&g, 4, cfg).expect("kcore"),
        kcore_survivors(&g, 4),
    );
}

#[test]
fn kcore_matrix_on_road() {
    // k = 3 fully peels the strip over ~60 iterations — the long
    // low-frontier cascade regime.
    let g = road_graph();
    assert_matrix(
        "kcore/road",
        |cfg| kcore::run(&g, 3, cfg).expect("kcore"),
        kcore_survivors(&g, 3),
    );
}

#[test]
fn wcc_matrix_on_rmat() {
    let g = Graph::undirected_from_edges(Rmat::gtgraph(12, 8).generate(5));
    assert_matrix(
        "wcc/rmat",
        |cfg| wcc::run(&g, cfg).expect("wcc"),
        equals(reference::wcc(g.out())),
    );
}

#[test]
fn wcc_matrix_on_er() {
    let g = Graph::undirected_from_edges(Erdos::new(4001, 8).generate(5));
    assert_matrix(
        "wcc/er",
        |cfg| wcc::run(&g, cfg).expect("wcc"),
        equals(reference::wcc(g.out())),
    );
}
