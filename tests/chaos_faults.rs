//! nd-chaos acceptance suite: seeded deterministic fault plans (worker
//! delays, failed steals) and `PanicAt` strand panics swept across the
//! worker matrix (1 / 2 / 8 via `ND_POOL_WORKERS`), proving the robustness
//! layer's claims under *injected* failure:
//!
//! * exactly-once execution — a faulted run never runs a completed strand
//!   twice, and the recovery run completes every strand;
//! * no lost wakeup — failed steal attempts and worker delays never hang a
//!   run (the parked-worker timeout re-polls);
//! * full pool usability after every fault — the same pool keeps executing
//!   jobs and graphs after each injected panic;
//! * reset-then-rerun bit-identity — after a chaos fault, `reset()` +
//!   re-execute produces output bit-identical to a never-faulted run.
//!
//! Compiled only with the `chaos` feature (which the delay and steal faults
//! need):
//! `cargo test --features chaos --test chaos_faults`.

#![cfg(feature = "chaos")]

use nd_runtime::dataflow::CompiledGraph;
use nd_runtime::{FaultPlan, PanicAt, RunError, ThreadPool, INJECTED_PANIC_MARKER};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{edges_of, pool_sizes, random_preds, SumTable};

/// Proves the pool still executes submitted jobs on the main path: spawn a
/// handful of jobs and wait for all of them (10 s deadline).
fn assert_pool_usable(pool: &ThreadPool, label: &str) {
    let done = Arc::new(AtomicUsize::new(0));
    let jobs = 8;
    for _ in 0..jobs {
        let done = Arc::clone(&done);
        pool.spawn(Box::new(move |_| {
            done.fetch_add(1, Ordering::SeqCst);
        }));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while done.load(Ordering::SeqCst) < jobs {
        assert!(
            Instant::now() < deadline,
            "pool unusable after fault: {label}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The sweep: seeds 0..18 cycle through three fault kinds on every pool size
/// of the matrix — every third seed panics a strand through the [`PanicAt`]
/// wrapper (the strand moves across the graph with the seed), the others
/// install [`FaultPlan::seeded`] (delay worker or fail steal).  After every
/// injected fault: typed error (or clean completion for non-fatal faults),
/// counters reset, pool usable, and the reset-then-rerun output is
/// bit-identical to an unfaulted oracle.
#[test]
fn seeded_fault_sweep_preserves_executor_invariants() {
    let n = 250usize;
    let preds = random_preds(n, 35, 7);
    let edges = edges_of(&preds);

    // The oracle: one clean run on one worker.
    let reference = {
        let table = Arc::new(SumTable::new(preds.clone()));
        let graph = Arc::new(CompiledGraph::from_edges(n, &edges, Vec::new()));
        graph
            .execute(&ThreadPool::new(1), &table)
            .expect("oracle run");
        table.snapshot()
    };

    for workers in pool_sizes() {
        for seed in 0..18u64 {
            let pool = ThreadPool::new(workers);
            let planned_panic = (seed % 3 == 0).then(|| (seed as usize * n / 18) as u32);
            if planned_panic.is_none() {
                pool.install_fault_plan(FaultPlan::seeded(seed, workers));
            }

            let table = Arc::new(SumTable::new(preds.clone()));
            let graph = Arc::new(CompiledGraph::from_edges(n, &edges, Vec::new()));
            let label = format!("workers={workers} seed={seed}");

            let result = match planned_panic {
                Some(task) => {
                    graph.execute(&pool, &Arc::new(PanicAt::new(Arc::clone(&table), task)))
                }
                None => graph.execute(&pool, &table),
            };
            if let Some(planned) = planned_panic {
                let err = result.expect_err("a planned strand panic must surface");
                match &err {
                    RunError::Panicked { task, payload, .. } => {
                        assert_eq!(*task, planned, "{label}");
                        assert_eq!(payload, INJECTED_PANIC_MARKER, "{label}");
                    }
                    other => panic!("{label}: expected Panicked, got {other:?}"),
                }
                assert_eq!(pool.jobs_panicked(), 1, "{label}");
                // The panicked strand never completed.
                assert_eq!(
                    table.runs[planned as usize].load(Ordering::SeqCst),
                    0,
                    "{label}"
                );
            } else {
                // Delays and failed steals perturb the schedule but never the
                // outcome: the run completes (no lost wakeup, no hang).
                let stats = result.expect("non-fatal faults must not fail the run");
                assert_eq!(stats.tasks, n, "{label}");
                assert_eq!(table.snapshot(), reference, "{label}");
            }
            // Exactly-once: no strand ever ran twice, faulted or not.
            assert!(
                table.runs.iter().all(|r| r.load(Ordering::SeqCst) <= 1),
                "{label}: a strand ran twice"
            );
            assert!(graph.counters_are_reset(), "{label}");
            assert_pool_usable(&pool, &label);

            // Recovery on the SAME pool without clearing the plan: every
            // pool fault is one-shot, and the rerun runs the unwrapped
            // table, so it is clean and bit-identical.
            graph.reset();
            for r in &table.runs {
                r.store(0, Ordering::SeqCst);
            }
            let stats = graph.execute(&pool, &table).expect("recovery run");
            assert_eq!(stats.tasks, n, "{label}");
            assert!(
                table.runs.iter().all(|r| r.load(Ordering::SeqCst) == 1),
                "{label}: recovery must run every strand exactly once"
            );
            assert_eq!(
                table.snapshot(),
                reference,
                "{label}: reset-then-rerun must be bit-identical"
            );
            assert!(graph.counters_are_reset(), "{label}");
            pool.clear_fault_plan();
        }
    }
}

/// A barrage of failed steal ordinals on a wide two-layer graph: every steal
/// attempt the plan names reports empty-handed, yet the run always completes
/// (parked workers re-poll on their timeout — no lost wakeup) and executes
/// exactly once.
#[test]
fn failed_steals_never_hang_a_run() {
    let n = 400usize;
    // Two layers: 200 roots, then 200 tasks each depending on two roots —
    // steal-heavy on multi-worker pools.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (j, p) in preds.iter_mut().enumerate().skip(200) {
        p.push(j - 200);
        p.push((j - 200 + 1) % 200);
    }
    let edges = edges_of(&preds);
    for workers in pool_sizes() {
        let pool = ThreadPool::new(workers);
        let mut plan = FaultPlan::new();
        for nth in 1..=32 {
            plan = plan.fail_steal(nth);
        }
        pool.install_fault_plan(plan);
        let table = Arc::new(SumTable::new(preds.clone()));
        let graph = Arc::new(CompiledGraph::from_edges(n, &edges, Vec::new()));
        let stats = graph
            .execute(&pool, &table)
            .expect("run under failed steals");
        assert_eq!(stats.tasks, n, "workers={workers}");
        assert!(
            table.runs.iter().all(|r| r.load(Ordering::SeqCst) == 1),
            "workers={workers}: exactly once"
        );
        let chaos = pool.chaos_stats();
        assert!(
            chaos.steals_failed <= 32,
            "workers={workers}: at most the planned failures fire"
        );
        assert_pool_usable(&pool, &format!("failed steals, workers={workers}"));
    }
}

/// Worker delays are pure schedule perturbation: a delayed worker shifts who
/// claims what, never what runs or the result.
#[test]
fn worker_delays_perturb_schedule_not_results() {
    let n = 300usize;
    let preds = random_preds(n, 25, 3);
    let edges = edges_of(&preds);
    let reference = {
        let table = Arc::new(SumTable::new(preds.clone()));
        let graph = Arc::new(CompiledGraph::from_edges(n, &edges, Vec::new()));
        graph
            .execute(&ThreadPool::new(1), &table)
            .expect("oracle run");
        table.snapshot()
    };
    for workers in pool_sizes() {
        let pool = ThreadPool::new(workers);
        let mut plan = FaultPlan::new();
        for w in 0..workers {
            plan = plan.delay_worker(w, 0, Duration::from_micros(500));
            plan = plan.delay_worker(w, 3, Duration::from_micros(300));
        }
        pool.install_fault_plan(plan);
        let table = Arc::new(SumTable::new(preds.clone()));
        let graph = Arc::new(CompiledGraph::from_edges(n, &edges, Vec::new()));
        let stats = graph.execute(&pool, &table).expect("delayed run");
        assert_eq!(stats.tasks, n, "workers={workers}");
        assert_eq!(table.snapshot(), reference, "workers={workers}");
        assert!(
            pool.chaos_stats().delays_injected > 0,
            "workers={workers}: step-0 delays must fire on an executing pool"
        );
    }
}

/// An injected strand panic inside a graph run must leave concurrently
/// submitted boxed jobs and the workers running them intact.
#[test]
fn injected_panic_spares_concurrent_boxed_jobs() {
    let n = 120usize;
    let preds = random_preds(n, 40, 11);
    let edges = edges_of(&preds);
    for workers in pool_sizes() {
        let pool = ThreadPool::new(workers);
        let boxed_done = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let boxed_done = Arc::clone(&boxed_done);
            pool.spawn(Box::new(move |_| {
                boxed_done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let table = Arc::new(SumTable::new(preds.clone()));
        let graph = Arc::new(CompiledGraph::from_edges(n, &edges, Vec::new()));
        let faulty = Arc::new(PanicAt::new(table, n as u32 / 2));
        let err = graph.execute(&pool, &faulty).expect_err("planned panic");
        assert!(matches!(err, RunError::Panicked { .. }));
        let deadline = Instant::now() + Duration::from_secs(10);
        while boxed_done.load(Ordering::SeqCst) < 16 {
            assert!(
                Instant::now() < deadline,
                "boxed jobs lost after injected panic (workers={workers})"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_pool_usable(&pool, &format!("boxed jobs, workers={workers}"));
    }
}
