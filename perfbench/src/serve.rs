//! The `serve-durable` workload: BFS requests through a `QueryPool`
//! over a `Serial` runtime (so the `par` layer is bypassed), with
//! durability armed to a `DirStore`. One request in every 16 gets a
//! cycle budget that stops it after its first iteration, so it aborts
//! and spills: writes beside reads.
//!
//! A run goes: set-up (timed several times); a solo pass over the seed
//! pool on the serial runtime (warm-up, reference check, per-seed
//! answers every served request is compared with); a timed solo pass;
//! an open loop at a fixed arrival rate; a closed-loop saturation run;
//! and `QueryPool::recover` over everything spilled.

use crate::host;
use crate::inputs::{self, tag, Rng};
use crate::report::{Run, Size};
use crate::stats::{self, Summary};
use crate::trace::NO_SPAN;
use crate::traversal::{self, Exec, Recovery, Setups, Stamps, View};
use simdx_algos::{reference, Bfs};
use simdx_core::{
    AdmissionPolicy, BoundGraph, CancelToken, DirStore, DurabilityPolicy, ExecMode, QueryPool,
    QueryRequest, RetryPolicy, RunReport, ServeReport, ServiceConfig, SimdxError,
};
use simdx_graph::gen::Rmat;
use simdx_graph::VertexId;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Open-loop arrival rate: about 40% of the closed-loop capacity
/// (450-590 q/s) measured for RMAT scale 15 on a 2-vCPU Xeon host. A
/// noisy host swings that capacity by a quarter; nearer saturation the
/// p99 follows the swings instead of the service.
pub const OPEN_RATE_QPS: f64 = 200.0;

/// Latency limit for the open loop's tail; a failed or refused request
/// counts as twice this.
pub const LATENCY_LIMIT_MS: f64 = 100.0;

/// Deadline every request carries, measured from submission.
const DEADLINE: Duration = Duration::from_secs(2);

/// Requests a serving thread takes per turn.
const BATCH_MAX: usize = 8;

/// Admission queue depth per serving thread: two turns' worth keeps
/// every thread busy. A deeper queue only adds queue wait, which counts
/// against each request's deadline, so a closed loop that keeps it full
/// would turn a slow stretch of the host into deadline failures.
const QUEUE_PER_WORKER: usize = 2 * BATCH_MAX;

/// One request in this many is starved by a cycle budget.
const STARVE_ONE_IN: usize = 16;

/// Requests per `QueryPool::serve` call: the report holds every answer
/// until the call returns, so the phases are cut into chunks. A chunk
/// is also the open loop's window: 1024 samples carry a p99 with 10
/// beyond it.
const CHUNK: usize = 1024;

/// Tail percentile reported as `e2e.latency_ms_tail` here.
const TAIL_P: f64 = 99.0;

type Answer = (Vec<u32>, RunReport);

/// One request of a phase: its seed and whether it is starved.
#[derive(Clone, Copy)]
struct Req {
    seed: VertexId,
    starved: bool,
}

/// What the phases gather for the service-layer metrics.
#[derive(Default)]
struct ServeStats {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    attempts: Vec<f64>,
    checks: Vec<f64>,
    captured: usize,
    spilled: usize,
    spill_failures: usize,
    served: usize,
    batches: u64,
    /// Requests per second of each serve call.
    chunk_qps: Vec<f64>,
    /// Open loop: the tail latency of each serve call.
    window_tail_ms: Vec<f64>,
    /// Seconds of execution summed over requests, and of serve calls.
    busy: f64,
    elapsed: f64,
    serve_self_ms: f64,
}

pub fn serve_durable(run: &mut Run) {
    let (scale, pool, open, closed) = match run.size {
        Size::Full => {
            let chunks = |share: f64, rate: f64| {
                ((share * run.seconds * rate) / CHUNK as f64).round() as usize
            };
            let (open_windows, closed_chunks) =
                (chunks(0.7, OPEN_RATE_QPS).max(4), chunks(0.2, 500.0).max(3));
            (15, 256, open_windows * CHUNK, closed_chunks * CHUNK)
        }
        Size::Smoke => (9, 16, 64, 64),
    };
    let workers = host::nproc();
    let el = Rmat::gtgraph(scale, 8).generate(Rng::new(run.seed, tag::GRAPH).next_u64());
    let seeds = inputs::hub_sources(&el, 4, pool, &mut Rng::new(run.seed, tag::SOURCES));
    let mut picks = Rng::new(run.seed, tag::REQUESTS);
    let mut starve = Rng::new(run.seed, tag::STARVED);
    let mut phase = |n: usize| -> Vec<Req> {
        let starved = inputs::one_per_block(n, STARVE_ONE_IN, &mut starve);
        (0..n)
            .map(|i| Req {
                seed: seeds[picks.below(seeds.len() as u64) as usize],
                starved: starved[i],
            })
            .collect()
    };
    let (open_reqs, closed_reqs) = (phase(open), phase(closed));
    let offsets =
        inputs::slotted_offsets(open, OPEN_RATE_QPS, &mut Rng::new(run.seed, tag::ARRIVALS));
    run.info(
        "graph",
        format!("RMAT GTgraph scale {scale}, edge factor 8, directed"),
    );
    run.info(
        "service",
        format!(
            "QueryPool, {workers} serving threads (nproc), serial runtime, batch_max {BATCH_MAX}, queue {}",
            workers * QUEUE_PER_WORKER
        ),
    );
    run.info("seed pool", format!("{pool} distinct BFS sources"));
    run.info(
        "open loop",
        format!("{open} requests at {OPEN_RATE_QPS} q/s, one seeded arrival per 1/rate slot"),
    );
    run.info(
        "closed loop",
        format!("{closed} requests, submitted back to back"),
    );
    run.info(
        "latency limit",
        format!(
            "{LATENCY_LIMIT_MS} ms (failed or refused requests count as {} ms)",
            2.0 * LATENCY_LIMIT_MS
        ),
    );
    run.info(
        "starved requests",
        format!("1 in {STARVE_ONE_IN}: cycle budget of the first iteration"),
    );
    let views = [View {
        label: "directed",
        edges: el,
        directed: true,
    }];
    Setups::run(
        run,
        &views,
        &[ExecMode::Serial],
        |run, graphs, bound, setups| {
            let g = &graphs[0];
            run.info(
                "graph directed",
                format!(
                    "V {} E {} CSR bytes (computed) {}",
                    g.num_vertices(),
                    g.num_edges(),
                    g.footprint_bytes()
                ),
            );
            let bound = &bound[0][0];
            let solo = verify_pool(run, bound, &seeds);
            let budgets: HashMap<VertexId, u64> = solo
                .iter()
                .map(|(&seed, (_, r))| (seed, traversal::starved_budget(r)))
                .collect();
            let ctx = Phase {
                bound,
                solo: &solo,
                budgets: &budgets,
                workers,
            };
            // Timed solo passes run between the phases, so the serial
            // baseline samples the whole run rather than one stretch of it.
            let mut solo_timing = SoloTiming::default();
            solo_timing.pass(run, bound, &seeds, &solo);
            let (mut op, mut cl) = (ServeStats::default(), ServeStats::default());
            let mut stores = Vec::new();
            for (k, chunk) in open_reqs.chunks(CHUNK).enumerate() {
                // Each chunk's schedule starts at its own first arrival.
                let offs = &offsets[k * CHUNK..][..chunk.len()];
                let due: Vec<f64> = offs.iter().map(|o| o - offs[0]).collect();
                stores.push(ctx.serve_chunk(run, &mut op, chunk, Some(&due), &format!("open-{k}")));
                setups.probe(run);
            }
            solo_timing.pass(run, bound, &seeds, &solo);
            for (k, chunk) in closed_reqs.chunks(CHUNK).enumerate() {
                stores.push(ctx.serve_chunk(run, &mut cl, chunk, None, &format!("closed-{k}")));
                setups.probe(run);
            }
            let lat = Summary::of(&op.latency_ms, TAIL_P);
            run.set(
                "e2e.latency_ms_p50",
                lat.p50,
                format!(
                    "open loop at {OPEN_RATE_QPS} q/s, from each request's due time, n={}",
                    lat.n
                ),
            );
            // A single host stall of ~100 ms moves a pooled p99 by itself,
            // so the tail is the median over windows of each window's p99.
            let window = Summary::of(&op.latency_ms[..CHUNK.min(lat.n)], TAIL_P);
            let tails: Vec<String> = op
                .window_tail_ms
                .iter()
                .map(|t| format!("{t:.2}"))
                .collect();
            run.info("open-loop window p99 (ms)", tails.join(" "));
            run.set(
                "e2e.latency_ms_tail",
                stats::median(&op.window_tail_ms),
                format!(
                    "median over {} windows of {CHUNK} requests of the window's {}",
                    op.window_tail_ms.len(),
                    window.tail_note()
                ),
            );
            run.set(
            "e2e.throughput_qps",
            stats::median(&cl.chunk_qps),
            format!("closed loop, median over {} serve calls of {CHUNK} requests, {workers} serving threads", cl.chunk_qps.len()),
        );
            if run.size == Size::Full && !window.tail_ok() {
                run.ledger.op(false, || {
                    format!(
                        "only {} samples per window for p{}",
                        window.n, window.tail_p
                    )
                });
            }
            let spilled = op.spilled + cl.spilled;
            let mut recovery = Recovery::new(&stores);
            while recovery.reps() < traversal::MIN_RECOVER_REPS {
                recovery.rep(run, bound, &|seed| solo.get(&seed));
                solo_timing.pass(run, bound, &seeds, &solo);
                setups.probe(run);
            }
            let reps = recovery.reps();
            let recover_s = recovery.finish(run);
            run.set("recover_s", recover_s, format!("median of {reps} QueryPool::recover sweeps over {spilled} spilled requests, serial runtime"));
            for store in &stores {
                let _ = std::fs::remove_dir_all(store.dir());
            }
            solo_timing.finish(run);
            let both = |f: fn(&ServeStats) -> &Vec<f64>| [f(&op).as_slice(), f(&cl)].concat();
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            let queue = Summary::of(&op.queue_ms, TAIL_P);
            let exec = Summary::of(&both(|s| &s.exec_ms), TAIL_P);
            run.set(
                "service.queue_wait_ms_p50",
                queue.p50,
                format!("open loop, latency - exec, n={}", queue.n),
            );
            run.set("service.queue_wait_ms_p99", queue.tail, "open loop");
            run.set(
                "service.exec_ms_p50",
                exec.p50,
                format!("both phases, report.elapsed, n={}", exec.n),
            );
            run.set("service.exec_ms_p99", exec.tail, "both phases");
            run.set(
                "service.batch_factor",
                cl.served as f64 / cl.batches.max(1) as f64,
                "closed loop, requests per serving turn",
            );
            run.set(
                "service.busy_share",
                cl.busy / (workers as f64 * cl.elapsed),
                "closed loop, sum of exec / (workers x elapsed)",
            );
            run.set(
                "service.attempts_mean",
                mean(&both(|s| &s.attempts)),
                "both phases",
            );
            run.set(
                "service.generator_lag_ms_p99",
                Summary::of(&op.lag_ms, TAIL_P).tail,
                "open loop, submit call start - due time",
            );
            run.set(
                "service.serve_self_ms",
                op.serve_self_ms + cl.serve_self_ms,
                "serve wall time with no request in flight, summed over calls",
            );
            run.set(
                "supervise.checks",
                mean(&both(|s| &s.checks)),
                "per served request (token + deadline)",
            );
            run.set(
                "checkpoint.captured",
                (op.captured + cl.captured) as f64,
                "outcomes handed back with a boundary checkpoint",
            );
            run.set(
                "persist.spilled",
                spilled as f64,
                "checkpoints spilled by the pool",
            );
            run.set(
                "persist.spill_failures",
                (op.spill_failures + cl.spill_failures) as f64,
                "spills that failed",
            );
        },
    );
}

/// Solo runs of every pool seed on the serial runtime, checked
/// against the reference: the warm-up, and the answers every served
/// request is compared with.
fn verify_pool(
    run: &mut Run,
    bound: &BoundGraph<'_, '_>,
    seeds: &[VertexId],
) -> HashMap<VertexId, Answer> {
    let mut solo = HashMap::with_capacity(seeds.len());
    for &seed in seeds {
        let e = traversal::exec(bound, Bfs::new(seed), None);
        let ok =
            matches!(&e.out, Ok((bits, _)) if *bits == reference::bfs(bound.graph().out(), seed));
        if run.ledger.op(ok, || {
            format!(
                "solo BFS from {seed} differs from the reference: {:?}",
                e.out.as_ref().err()
            )
        }) {
            solo.insert(seed, e.out.expect("checked above"));
        }
    }
    let reports: Vec<RunReport> = seeds
        .iter()
        .filter_map(|s| solo.get(s))
        .map(|a| a.1.clone())
        .collect();
    traversal::set_counts(run, &reports, "one pass over the seed pool, serial runtime");
    run.set(
        "sim_ms_total",
        reports.iter().map(|r| r.elapsed_ms).sum(),
        format!("simulated time summed over the {} pool seeds", seeds.len()),
    );
    solo
}

/// Timed solo passes over the seed pool on the serial runtime.
#[derive(Default)]
struct SoloTiming {
    /// Per-query ms of untraced and traced passes.
    samples: [Vec<f64>; 2],
    trace: traversal::TraceSamples,
    passes: usize,
}

impl SoloTiming {
    /// One untraced pass, followed (when tracing) by one traced pass.
    fn pass(
        &mut self,
        run: &mut Run,
        bound: &BoundGraph<'_, '_>,
        seeds: &[VertexId],
        solo: &HashMap<VertexId, Answer>,
    ) {
        let mut stamps: Stamps = Vec::with_capacity(256);
        for traced in [false, true]
            .into_iter()
            .take(1 + usize::from(run.tracer.is_on()))
        {
            let pass_span = match traced {
                true => run.tracer.begin("bench.pass", Instant::now(), None),
                false => NO_SPAN,
            };
            for (i, &seed) in seeds.iter().enumerate() {
                stamps.clear();
                let e: Exec = traversal::exec(bound, Bfs::new(seed), traced.then_some(&mut stamps));
                let ok = matches!((&e.out, solo.get(&seed)), (Ok(got), Some(want)) if traversal::same_run(got, want));
                run.ledger.op(ok, || {
                    format!("solo BFS from {seed} differs from its verified run")
                });
                self.samples[usize::from(traced)].push(e.ms());
                if traced {
                    self.trace.record(
                        run,
                        traversal::SERIAL,
                        self.passes * seeds.len() + i,
                        pass_span,
                        &e,
                        &stamps,
                    );
                }
            }
            if traced {
                run.tracer.end(pass_span, Instant::now());
            }
            self.passes += 1;
        }
    }

    fn finish(&self, run: &mut Run) {
        let ser = Summary::of(&self.samples[0], 90.0);
        run.set(
            "query_ms_p50_serial",
            ser.p50,
            format!("solo BFS over the seed pool, serial runtime, n={} over {} passes spread through the run", ser.n, self.passes),
        );
        if run.tracer.is_on() {
            self.trace.set_engine_layers(
                run,
                traversal::SERIAL,
                "traced solo passes, serial runtime",
            );
            let overhead = stats::median(&self.samples[1]) / stats::median(&self.samples[0]) - 1.0;
            run.set(
                "trace.overhead_pct",
                overhead * 100.0,
                "traced vs untraced median solo query time, same run",
            );
        }
    }
}

/// What every serving chunk shares.
struct Phase<'a, 'b, 'rt, 'g> {
    bound: &'a BoundGraph<'rt, 'g>,
    solo: &'b HashMap<VertexId, Answer>,
    budgets: &'b HashMap<VertexId, u64>,
    workers: usize,
}

impl Phase<'_, '_, '_, '_> {
    fn config(&self, store: DirStore) -> ServiceConfig {
        ServiceConfig {
            workers: self.workers,
            queue_depth: self.workers * QUEUE_PER_WORKER,
            batch_max: BATCH_MAX,
            admission: AdmissionPolicy::Block,
            retry: RetryPolicy {
                max_attempts: 1,
                backoff: Duration::ZERO,
            },
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(100),
            checkpoint_aborts: false,
            durability: Some(DurabilityPolicy::spill_to(store)),
        }
    }

    fn request(&self, r: &Req) -> QueryRequest {
        let q = QueryRequest::new(r.seed)
            .cancel_token(CancelToken::new())
            .deadline(DEADLINE);
        match r.starved {
            true => q.cycle_budget(self.budgets.get(&r.seed).copied().unwrap_or(1)),
            false => q,
        }
    }

    /// Serves one chunk into a fresh store directory (tickets restart
    /// at 0 per call), open loop when `due` gives arrival offsets in
    /// seconds, closed loop otherwise; checks every outcome and returns
    /// the store holding the chunk's spills.
    fn serve_chunk(
        &self,
        run: &mut Run,
        st: &mut ServeStats,
        reqs: &[Req],
        due: Option<&[f64]>,
        label: &str,
    ) -> DirStore {
        let dir = run
            .out_dir
            .join(format!("store-serve-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DirStore::open(&dir).expect("open a spill store");
        let requests: Vec<QueryRequest> = reqs.iter().map(|r| self.request(r)).collect();
        let mut sent: Vec<(Instant, Instant, Instant)> = Vec::with_capacity(reqs.len());
        let t0 = Instant::now();
        let report = QueryPool::serve(
            self.bound,
            Bfs::new(0),
            self.config(store.clone()),
            |client| {
                let start = Instant::now();
                for (i, request) in requests.into_iter().enumerate() {
                    let due_at =
                        due.map_or_else(Instant::now, |d| start + Duration::from_secs_f64(d[i]));
                    if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let before = Instant::now();
                    client.submit(request)?;
                    sent.push((due_at, before, Instant::now()));
                }
                Ok(())
            },
        );
        let t1 = Instant::now();
        let serve_span = run.tracer.add("service.serve", t0, t1, None, None);
        let before = st.latency_ms.len();
        match report {
            Ok(report) => self.check(run, st, reqs, &sent, &report, due.is_some(), serve_span),
            Err(e) => {
                for _ in reqs {
                    run.ledger.op(false, || format!("serve call failed: {e}"));
                    st.latency_ms.push(2.0 * LATENCY_LIMIT_MS);
                }
            }
        }
        if due.is_some() {
            st.window_tail_ms
                .push(Summary::of(&st.latency_ms[before..], TAIL_P).tail);
        }
        store
    }

    #[allow(clippy::too_many_arguments)]
    fn check(
        &self,
        run: &mut Run,
        st: &mut ServeStats,
        reqs: &[Req],
        sent: &[(Instant, Instant, Instant)],
        report: &ServeReport<u32>,
        open: bool,
        serve_span: usize,
    ) {
        st.batches += report.batches;
        st.chunk_qps
            .push(reqs.len() as f64 / report.elapsed.as_secs_f64());
        st.elapsed += report.elapsed.as_secs_f64();
        st.spilled += report.spilled.len();
        st.spill_failures += report.spill_failures.len();
        for (ticket, e) in &report.spill_failures {
            run.ledger
                .op(false, || format!("spill of ticket {ticket} failed: {e}"));
        }
        let mut spans = Vec::with_capacity(reqs.len());
        for (i, r) in reqs.iter().enumerate() {
            let (Some(o), Some(&(due, before, after))) = (report.outcomes.get(i), sent.get(i))
            else {
                run.ledger
                    .op(false, || format!("request {i} got no outcome"));
                st.latency_ms.push(2.0 * LATENCY_LIMIT_MS);
                continue;
            };
            st.attempts.push(f64::from(o.attempts));
            st.captured += usize::from(o.checkpoint.is_some());
            let ok = match (&o.result, r.starved) {
                (Ok(res), false) => {
                    let exec = res.report.elapsed;
                    st.exec_ms.push(exec.as_secs_f64() * 1e3);
                    st.busy += exec.as_secs_f64();
                    st.checks.push(res.report.supervision_checks as f64);
                    if open {
                        st.queue_ms
                            .push(o.latency.saturating_sub(exec).as_secs_f64() * 1e3);
                    }
                    spans.push((after, o.latency, exec, i));
                    let want = self.solo.get(&r.seed);
                    want.is_some_and(|w| {
                        res.meta == w.0
                            && res.report.log == w.1.log
                            && res.report.stats == w.1.stats
                    })
                }
                (Err(SimdxError::BudgetExhausted { .. }), true) => {
                    spans.push((after, o.latency, Duration::ZERO, i));
                    o.checkpoint.is_some() && report.spilled.contains(&(i as u64))
                }
                _ => false,
            };
            run.ledger.op(ok, || {
                format!(
                    "request {i} (seed {}, starved {}): {:?}",
                    r.seed,
                    r.starved,
                    o.result.as_ref().err()
                )
            });
            if open {
                let lat = stats::latency_from_due(due, after, o.latency).as_secs_f64() * 1e3;
                st.latency_ms
                    .push(if ok { lat } else { 2.0 * LATENCY_LIMIT_MS });
                st.lag_ms
                    .push(before.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
        }
        st.served += reqs.len();
        // Request spans are synthesized from each outcome: submitted
        // (when the submit call returned) to done, split into queue wait
        // and execution.
        let before = run.tracer.spans.len();
        for (at, latency, exec, i) in spans {
            let tr = &mut run.tracer;
            let req = tr.add(
                "service.request",
                at,
                at + latency,
                Some(serve_span),
                Some(i as u64),
            );
            tr.add(
                "service.queue_wait",
                at,
                at + latency.saturating_sub(exec),
                Some(req),
                Some(i as u64),
            );
            tr.add(
                "service.exec",
                at + latency.saturating_sub(exec),
                at + latency,
                Some(req),
                Some(i as u64),
            );
        }
        if run.tracer.is_on() && run.tracer.spans.len() > before {
            let own = run.tracer.self_time_ns(serve_span);
            st.serve_self_ms += own as f64 / 1e6;
        }
    }
}
