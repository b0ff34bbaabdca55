//! Executor stress test: a boxed-closure task table and a direct
//! [`TaskTable`] run the same randomized DAGs and must both execute every
//! task exactly once, never before a predecessor, across pool sizes — and the
//! compiled graphs stay reusable under repeated execution.

use nd_runtime::dataflow::{CompiledGraph, TaskTable};
use nd_runtime::{PanicAt, RunError, ThreadPool, INJECTED_PANIC_MARKER};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

mod common;
use common::{edges_of, pool_sizes, random_preds, BoxedTasks, SumTable};

/// Shared instrumentation: records per-task run counts and precedence
/// violations (a task observing an unfinished predecessor at start time).
struct Probe {
    preds: Vec<Vec<usize>>,
    done: Vec<AtomicBool>,
    runs: Vec<AtomicU32>,
    violations: AtomicU32,
}

impl Probe {
    fn new(preds: Vec<Vec<usize>>) -> Self {
        let n = preds.len();
        Probe {
            preds,
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            runs: (0..n).map(|_| AtomicU32::new(0)).collect(),
            violations: AtomicU32::new(0),
        }
    }

    fn observe(&self, j: usize) {
        for &p in &self.preds[j] {
            if !self.done[p].load(Ordering::SeqCst) {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
        }
        self.runs[j].fetch_add(1, Ordering::SeqCst);
        self.done[j].store(true, Ordering::SeqCst);
    }

    fn reset_round(&self) {
        for d in &self.done {
            d.store(false, Ordering::SeqCst);
        }
    }

    fn assert_round(&self, round: u32, label: &str) {
        assert_eq!(self.violations.load(Ordering::SeqCst), 0, "{label}");
        assert!(
            self.runs.iter().all(|r| r.load(Ordering::SeqCst) == round),
            "{label}: every task must have run exactly {round} times"
        );
    }
}

impl TaskTable for Probe {
    fn run_task(&self, task: u32) {
        self.observe(task as usize);
    }
}

/// Both table kinds, three DAG shapes (sparse, medium, dense), three pool sizes.
#[test]
fn boxed_and_table_modes_agree_on_randomized_dags() {
    for (seed, density) in [(1u64, 10u64), (2, 45), (3, 85)] {
        let n = 400usize;
        let preds = random_preds(n, density, seed);
        for workers in pool_sizes() {
            let pool = ThreadPool::new(workers);

            // Boxed closures over a shared probe.
            let probe = Arc::new(Probe::new(preds.clone()));
            let boxed = Arc::new(BoxedTasks(
                (0..n)
                    .map(|j| {
                        let probe = Arc::clone(&probe);
                        Box::new(move || probe.observe(j)) as Box<dyn Fn() + Send + Sync>
                    })
                    .collect(),
            ));
            let graph = Arc::new(CompiledGraph::from_edges(n, &edges_of(&preds), Vec::new()));
            let stats = graph.execute(&pool, &boxed).expect("run");
            assert_eq!(stats.tasks, n);
            probe.assert_round(1, &format!("boxed seed={seed} workers={workers}"));

            // Direct table: the probe *is* the task table.
            let table = Arc::new(Probe::new(preds.clone()));
            let graph = Arc::new(CompiledGraph::from_edges(n, &edges_of(&preds), Vec::new()));
            let stats = graph.execute(&pool, &table).expect("run");
            assert_eq!(stats.tasks, n);
            table.assert_round(1, &format!("table seed={seed} workers={workers}"));
            assert!(graph.counters_are_reset());
        }
    }
}

/// The compiled graph stays correct under repeated execution: five rounds on
/// one compiled graph, each ordered and exactly-once, counters restored.
#[test]
fn table_mode_reuse_stays_ordered_over_many_rounds() {
    let n = 600usize;
    let preds = random_preds(n, 30, 42);
    let table = Arc::new(Probe::new(preds.clone()));
    let graph = Arc::new(CompiledGraph::from_edges(n, &edges_of(&preds), Vec::new()));
    let pool = ThreadPool::new(8);
    for round in 1..=5 {
        table.reset_round();
        let stats = graph.execute(&pool, &table).expect("run");
        assert_eq!(stats.tasks, n);
        assert!(graph.counters_are_reset(), "round {round}");
        table.assert_round(round, &format!("round {round}"));
    }
}

/// Serial chains exercise the inline tail-execution path: with one worker the
/// whole chain must run in order without ever leaving the worker.
#[test]
fn long_chain_runs_in_order_through_tail_execution() {
    let n = 5_000usize;
    let preds: Vec<Vec<usize>> = (0..n)
        .map(|j| if j == 0 { vec![] } else { vec![j - 1] })
        .collect();
    let table = Arc::new(Probe::new(preds.clone()));
    let graph = Arc::new(CompiledGraph::from_edges(n, &edges_of(&preds), Vec::new()));
    for workers in [1usize, 4] {
        let pool = ThreadPool::new(workers);
        table.reset_round();
        let stats = graph.execute(&pool, &table).expect("run");
        assert_eq!(stats.tasks, n);
        // The chain admits no parallelism: one worker must have run everything.
        assert_eq!(
            stats.tasks_per_worker.iter().filter(|&&c| c > 0).count(),
            1,
            "a serial chain must stay on a single worker (tail-execution)"
        );
    }
    table.assert_round(2, "chain");
    assert_eq!(table.violations.load(Ordering::SeqCst), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Panic-recovery property: a panic at a random strand of a random DAG
    /// surfaces as a typed [`RunError::Panicked`] naming that strand, the run
    /// drains (no hang, no strand after the fault runs), and after `reset()`
    /// the same graph re-executes to output bit-identical to a never-faulted
    /// run — on every pool size of the matrix.
    #[test]
    fn panic_at_random_strand_recovers_bit_identically(
        seed in 0u64..10_000,
        density in 10u64..80,
        boom in 0usize..300,
    ) {
        let n = 300usize;
        let preds = random_preds(n, density, seed);

        // The oracle: one clean run on one worker.
        let reference = {
            let table = Arc::new(SumTable::new(preds.clone()));
            let graph = Arc::new(CompiledGraph::from_edges(n, &edges_of(&preds), Vec::new()));
            graph.execute(&ThreadPool::new(1), &table).expect("oracle run");
            table.snapshot()
        };

        for workers in pool_sizes() {
            let pool = ThreadPool::new(workers);
            let table = Arc::new(SumTable::new(preds.clone()));
            let graph = Arc::new(CompiledGraph::from_edges(n, &edges_of(&preds), Vec::new()));

            let faulty = Arc::new(PanicAt::new(Arc::clone(&table), boom as u32));
            let err = graph.execute(&pool, &faulty).expect_err("the wrapped table must fault");
            match &err {
                RunError::Panicked { task, payload, .. } => {
                    prop_assert_eq!(*task, boom as u32);
                    prop_assert_eq!(payload.as_str(), INJECTED_PANIC_MARKER);
                }
                other => prop_assert!(false, "expected Panicked, got {:?}", other),
            }
            // The panicked task itself never completed.
            prop_assert_eq!(table.out[boom].load(Ordering::SeqCst), 0);

            // Documented recovery: reset, re-execute the unwrapped table.
            graph.reset();
            prop_assert!(graph.counters_are_reset(), "workers={}", workers);
            let stats = graph.execute(&pool, &table).expect("recovery run");
            prop_assert_eq!(stats.tasks, n);
            prop_assert!(graph.counters_are_reset(), "workers={}", workers);
            prop_assert_eq!(
                table.snapshot(),
                reference.clone(),
                "recovered output must be bit-identical (workers={})",
                workers
            );
        }
    }
}
