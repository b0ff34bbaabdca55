//! Integration tests for the `nd-trace` subsystem wired through both
//! executors: timestamp monotonicity across workers (shared pool epoch),
//! exactly-once claim/execute accounting on randomized DAGs over the
//! 1 / 2 / 8 worker matrix, scheduler columns (worker id, op kind, steal
//! distance, anchor level) on anchored-MM Chrome traces, and the
//! [`PoolStats`] snapshot API.

use nd_algorithms::common::Mode;
use nd_algorithms::driver;
use nd_algorithms::exec::ExecContext;
use nd_algorithms::mm::build_mm;
use nd_exec::{HierarchicalPool, StealPolicy};
use nd_linalg::Matrix;
use nd_pmh::config::{CacheLevelSpec, PmhConfig};
use nd_pmh::machine::MachineTree;
use nd_runtime::dataflow::{CompiledGraph, PersistentRun, TaskTable};
use nd_runtime::ThreadPool;
use nd_trace::{EventKind, Trace, TraceConfig, TraceSession, NO_TASK};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

mod common;
use common::pool_sizes;

struct NopTable;

impl TaskTable for NopTable {
    fn run_task(&self, _task: u32) {}
}

/// Runs MM once under a trace session on a fresh pool of `workers` threads.
fn traced_mm(workers: usize, n: usize) -> Trace {
    let pool = ThreadPool::new(workers);
    let built = build_mm(n, 8, Mode::Nd, 1.0);
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let mut c = Matrix::zeros(n, n);
    let mut am = a.clone();
    let mut bm = b.clone();
    let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
    let (stats, trace) = driver::run_once_traced(&pool, &built, &ctx);
    assert!(
        stats.expect("traced run").tasks > 0,
        "the traced run must execute tasks"
    );
    trace
}

/// Satellite 2: all workers stamp events against the single `Instant` epoch
/// taken at pool creation, so the merged event stream sorts globally and no
/// span is negative.
#[test]
fn merged_events_are_monotonic_with_no_negative_spans() {
    for workers in pool_sizes() {
        let trace = traced_mm(workers, 64);
        assert_eq!(trace.dropped, 0, "capacity must hold a 64×64 MM trace");
        assert!(!trace.events.is_empty());
        let mut prev = (0u64, 0u64);
        for ev in &trace.events {
            assert!(
                ev.t1_ns >= ev.t0_ns,
                "negative span: {:?} at t0={} t1={}",
                ev.kind,
                ev.t0_ns,
                ev.t1_ns
            );
            assert!(
                (ev.t0_ns, ev.t1_ns) >= prev,
                "merged events must sort by (t0, t1)"
            );
            prev = (ev.t0_ns, ev.t1_ns);
        }
        // Every span fits inside the observed wall window (timestamps are
        // epoch-relative; the window starts at the earliest t0).
        let t_min = trace.events.first().unwrap().t0_ns;
        assert!(trace
            .events
            .iter()
            .all(|e| e.t1_ns - t_min <= trace.wall_ns));
        // Exec spans cover every compiled task exactly once.
        assert_eq!(
            trace.metrics.exec_spans as usize,
            trace.meta.op_kinds.len(),
            "one execute span per compiled task ({} workers)",
            workers
        );
    }
}

/// Deterministic forward-edge random DAG (same splitmix construction the
/// dataflow property suite uses, independent of the rand shim).
fn random_edges(n: usize, density_percent: u64, seed: u64) -> Vec<(u32, u32)> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut edges = Vec::new();
    for j in 1..n {
        let window = 16.min(j);
        for i in (j - window)..j {
            if next() % 100 < density_percent {
                edges.push((i as u32, j as u32));
            }
        }
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite 3: on randomized DAGs and the 1 / 2 / 8 worker matrix
    /// (`ND_POOL_WORKERS` pins one count), the trace records **exactly one**
    /// claim and **exactly one** execute span per task — the tracing
    /// counterpart of the executor's exactly-once guarantee.
    #[test]
    fn traced_claims_and_execs_are_exactly_once(
        n in 64usize..400,
        density in 15u64..70,
        seed in 0u64..1_000_000,
    ) {
        for workers in pool_sizes() {
            let pool = ThreadPool::new(workers);
            let edges = random_edges(n, density, seed);
            let graph = Arc::new(CompiledGraph::from_edges(n, &edges, Vec::new()));
            let table = Arc::new(NopTable);
            let session = TraceSession::start(pool.tracer(), TraceConfig::default());
            let stats = graph.execute(&pool, &table).expect("run");
            let trace = session.finish();
            prop_assert_eq!(stats.tasks, n);
            prop_assert_eq!(trace.dropped, 0, "default capacity must hold {} tasks", n);

            let mut claims: HashMap<u32, u32> = HashMap::new();
            for ev in trace.events_of(EventKind::Claim) {
                *claims.entry(ev.task).or_insert(0) += 1;
            }
            let mut execs: HashMap<u32, u32> = HashMap::new();
            for ev in trace.events_of(EventKind::Exec) {
                prop_assert!(ev.task != NO_TASK, "graph execs carry their task id");
                *execs.entry(ev.task).or_insert(0) += 1;
            }
            for t in 0..n as u32 {
                prop_assert_eq!(claims.get(&t), Some(&1), "task {} claimed once", t);
                prop_assert_eq!(execs.get(&t), Some(&1), "task {} executed once", t);
            }
            // Steal accounting agrees between events and derived metrics.
            prop_assert_eq!(
                trace.metrics.steals,
                trace.events_of(EventKind::Steal).count() as u64
            );
            prop_assert_eq!(
                trace.metrics.steals,
                trace.metrics.steal_distance_histogram.iter().sum::<u64>()
            );
        }
    }
}

/// The acceptance scenario: a traced 2-worker anchored MM yields a Chrome
/// trace whose per-strand spans carry worker id, op kind, steal distance and
/// anchor level.
#[test]
fn anchored_mm_chrome_trace_carries_scheduler_columns() {
    let machine = MachineTree::build(&PmhConfig::new(
        vec![CacheLevelSpec::new(1 << 12, 2, 10)],
        1,
    ));
    let pool = HierarchicalPool::new(machine, StealPolicy::NearestFirst);
    assert_eq!(pool.pool().num_threads(), 2);
    let n = 64;
    let built = build_mm(n, 8, Mode::Nd, 1.0);
    let a = Matrix::random(n, n, 3);
    let b = Matrix::random(n, n, 4);
    let mut c = Matrix::zeros(n, n);
    let mut am = a.clone();
    let mut bm = b.clone();
    let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
    let (stats, trace) = driver::run_once_traced(&pool, &built, &ctx);
    let stats = stats.expect("traced anchored run");
    assert!(stats.tasks > 0);
    assert_eq!(trace.dropped, 0);
    assert_eq!(trace.num_workers, 2);

    // The result is still correct under tracing.
    let mut expected = Matrix::zeros(n, n);
    nd_linalg::gemm::gemm_naive(&mut expected, &a, &b, 1.0, 0.0);
    assert!(c.max_abs_diff(&expected) < 1e-9);

    // Side tables: every strand span resolves an op kind and its anchor
    // level (strands anchor at level 1 on this one-level machine).
    let mut gemm_spans = 0usize;
    for ev in trace.events_of(EventKind::Exec) {
        assert!((ev.worker as usize) < 2, "spans carry a real worker id");
        if ev.task != NO_TASK {
            let name = trace
                .meta
                .op_kind_name(ev.task)
                .expect("every strand resolves an op kind");
            if name == "gemm" {
                gemm_spans += 1;
            }
            if trace.meta.anchor_group(ev.task).is_some() {
                assert_eq!(trace.meta.anchor_level(ev.task), 1);
            }
        }
    }
    assert!(gemm_spans > 0, "an MM trace must contain gemm spans");
    assert!(
        trace.meta.anchor_groups.iter().any(|&g| g != u32::MAX),
        "anchoring must pin strands to queue groups"
    );

    // The Chrome export carries the scheduler columns in its span args.
    let json = nd_trace::chrome_trace_json(&trace);
    for needle in [
        "\"traceEvents\"",
        "\"ph\":\"X\"",
        "\"gemm\"",
        "\"worker\":",
        "\"steal_distance\":",
        "\"anchor_level\":",
        "\"anchor_group\":",
    ] {
        assert!(json.contains(needle), "chrome trace must contain {needle}");
    }
    // And the compact summary reports the same span count.
    let summary = nd_trace::metrics_summary_json(&trace);
    assert!(summary.contains(&format!("\"exec_spans\": {}", trace.metrics.exec_spans)));
}

/// Satellite 1: the [`nd_runtime::PoolStats`] snapshot API counts executed
/// jobs and steals monotonically, and `since` yields per-window deltas.
#[test]
fn pool_stats_snapshots_count_executed_jobs() {
    let pool = ThreadPool::new(2);
    let before = pool.stats();
    // An edge-free graph: every task is a root job, and with no successors
    // there is no inline tail-execution to collapse tasks into one job — so
    // the pool executes exactly `n` jobs.
    let n = 500usize;
    let graph = Arc::new(CompiledGraph::from_edges(n, &[], Vec::new()));
    let table = Arc::new(NopTable);
    graph.execute(&pool, &table).expect("run");
    let delta = pool.stats().since(&before);
    assert_eq!(delta.jobs_executed, n as u64, "one executed job per task");
    assert_eq!(
        delta.steals,
        delta.steals_by_distance.iter().sum::<u64>(),
        "the distance histogram partitions the steal count"
    );
}

/// Tracing off means nothing is recorded: a session opened over an untraced
/// run sees only the work executed inside the session window.
#[test]
fn events_outside_a_session_are_not_recorded() {
    let pool = ThreadPool::new(2);
    let n = 64usize;
    let edges = random_edges(n, 30, 11);
    let graph = Arc::new(CompiledGraph::from_edges(n, &edges, Vec::new()));
    let table = Arc::new(NopTable);
    graph.execute(&pool, &table).expect("run"); // untraced: tracer disabled
    let session = TraceSession::start(pool.tracer(), TraceConfig::default());
    let trace = session.finish();
    assert_eq!(trace.events.len(), 0, "no work ran inside the session");
    assert_eq!(trace.dropped, 0);
}

/// Every run records one `RunBegin`/`RunEnd` pair; only a persistent run,
/// whose latch is re-armed per call, records a `LatchReset`.
#[test]
fn only_persistent_runs_record_latch_resets() {
    let pool = ThreadPool::new(2);
    let edges = [(0, 1), (0, 2), (1, 3), (2, 3)];
    let graph = Arc::new(CompiledGraph::from_edges(4, &edges, Vec::new()));
    let table = Arc::new(NopTable);
    let count = |trace: &Trace, kind| trace.events_of(kind).count();

    let session = TraceSession::start(pool.tracer(), TraceConfig::default());
    graph.execute(&pool, &table).expect("one-shot run");
    let trace = session.finish();
    assert_eq!(count(&trace, EventKind::RunBegin), 1);
    assert_eq!(count(&trace, EventKind::RunEnd), 1);
    assert_eq!(count(&trace, EventKind::LatchReset), 0);

    let runner = PersistentRun::new(&graph, &table, pool.num_threads());
    let session = TraceSession::start(pool.tracer(), TraceConfig::default());
    for _ in 0..2 {
        runner.execute(&pool).expect("persistent run");
    }
    let trace = session.finish();
    assert_eq!(count(&trace, EventKind::RunBegin), 2);
    assert_eq!(count(&trace, EventKind::RunEnd), 2);
    assert_eq!(count(&trace, EventKind::LatchReset), 2);
}
