//! Property tests for the dataflow executor of `nd-runtime`: on randomized
//! DAGs and pool sizes 1 / 2 / 8, every task runs exactly once and never
//! before any of its predecessors.

use nd_runtime::dataflow::{CompiledGraph, Placement, TaskTable};
use nd_runtime::pool::{PoolTopology, ThreadPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

mod common;
use common::pool_sizes;

/// Deterministic random predecessor lists: task `j` depends on each task in a
/// window of earlier tasks with probability `density_percent`%.  (Edges always
/// point forward, so the graph is acyclic by construction.)
fn random_preds(n: usize, density_percent: u64, seed: u64) -> Vec<Vec<usize>> {
    // Tiny splitmix stream, independent of the rand shim so this test
    // documents its own reproducible stream.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (j, p) in preds.iter_mut().enumerate().skip(1) {
        let window = 24.min(j);
        for i in (j - window)..j {
            if next() % 100 < density_percent {
                p.push(i);
            }
        }
    }
    preds
}

/// A task table over `preds` whose tasks record how often they ran and
/// count, at start time, predecessors that have not finished yet.
struct Instrumented {
    preds: Vec<Vec<usize>>,
    done: Vec<AtomicBool>,
    runs: Vec<AtomicU32>,
    violations: AtomicU32,
}

impl TaskTable for Instrumented {
    fn run_task(&self, task: u32) {
        let j = task as usize;
        for &p in &self.preds[j] {
            if !self.done[p].load(Ordering::SeqCst) {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
        }
        self.runs[j].fetch_add(1, Ordering::SeqCst);
        // The flag write is the task's final action, so a successor
        // observing it may rely on everything before it.
        self.done[j].store(true, Ordering::SeqCst);
    }
}

/// Compiles `preds` (with `placement`) and pairs the graph with a fresh
/// instrumented table.
fn instrumented_graph(
    preds: &[Vec<usize>],
    placement: Vec<Placement>,
) -> (Arc<CompiledGraph>, Arc<Instrumented>) {
    let n = preds.len();
    let edges: Vec<(u32, u32)> = preds
        .iter()
        .enumerate()
        .flat_map(|(j, ps)| ps.iter().map(move |&i| (i as u32, j as u32)))
        .collect();
    let table = Instrumented {
        preds: preds.to_vec(),
        done: (0..n).map(|_| AtomicBool::new(false)).collect(),
        runs: (0..n).map(|_| AtomicU32::new(0)).collect(),
        violations: AtomicU32::new(0),
    };
    let graph = CompiledGraph::from_edges(n, &edges, placement);
    (Arc::new(graph), Arc::new(table))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every task of a randomized DAG runs exactly once, and no task observes
    /// an unfinished predecessor, across pool sizes 1, 2 and 8.
    #[test]
    fn randomized_dags_run_exactly_once_in_order(
        seed in 0u64..10_000,
        n in 50usize..220,
        density in 5u64..60,
    ) {
        let preds = random_preds(n, density, seed);
        for pool_size in pool_sizes() {
            let (graph, table) = instrumented_graph(&preds, Vec::new());
            prop_assert!(graph.is_acyclic());
            let pool = ThreadPool::new(pool_size);
            let stats = graph.execute(&pool, &table).expect("run");
            prop_assert_eq!(stats.tasks, n);
            prop_assert_eq!(table.violations.load(Ordering::SeqCst), 0,
                "a task started before a predecessor finished (pool = {})", pool_size);
            for j in 0..n {
                prop_assert_eq!(table.runs[j].load(Ordering::SeqCst), 1,
                    "task {} ran a wrong number of times (pool = {})", j, pool_size);
            }
            prop_assert_eq!(stats.tasks_per_worker.iter().sum::<u64>(), n as u64);
        }
    }

    /// The same holds for placed execution on a grouped topology: random group
    /// placements neither lose tasks nor break the dependency order.
    #[test]
    fn randomized_placed_dags_respect_dependencies(seed in 0u64..10_000, n in 50usize..150) {
        // Two groups of two workers plus a root group, strict within-group stealing.
        let topology = PoolTopology {
            num_threads: 4,
            num_groups: 3,
            groups_of_worker: vec![vec![0, 2], vec![0, 2], vec![1, 2], vec![1, 2]],
            steal_order: vec![vec![1], vec![0], vec![3], vec![2]],
            steal_distance: vec![vec![0; 4]; 4],
        };
        let preds = random_preds(n, 30, seed);
        let placement: Vec<Placement> = (0..n)
            .map(|j| match j % 3 {
                0 => Placement::Group(0),
                1 => Placement::Group(1),
                _ => Placement::Anywhere,
            })
            .collect();
        let (graph, table) = instrumented_graph(&preds, placement);
        let pool = ThreadPool::with_topology(topology);
        let stats = graph.execute(&pool, &table).expect("run");
        prop_assert_eq!(stats.tasks, n);
        prop_assert_eq!(table.violations.load(Ordering::SeqCst), 0);
        for j in 0..n {
            prop_assert_eq!(table.runs[j].load(Ordering::SeqCst), 1);
        }
    }
}
