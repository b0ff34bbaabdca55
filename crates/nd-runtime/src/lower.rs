//! Lowering the model layer's ground-truth object — the [`AlgorithmDag`]
//! produced by the DAG Rewriting System of `nd-core` — into this crate's
//! executable graph form.
//!
//! Before this module existed every executor-facing crate hand-copied the same
//! loop ("walk the DAG vertices, collect the edges, remember which vertex is a
//! strand"); now the runtime itself defines what it means to execute a DRS
//! output, and the algorithm layer only supplies the per-strand work:
//! [`lower_dag`] produces the reusable, allocation-free form — a
//! [`CompiledGraph`] (one task per DAG vertex; barriers become dependency-only
//! tasks) plus the strands' opaque operation tags, which the caller resolves
//! against its own kernel table (a [`TaskTable`](crate::dataflow::TaskTable)
//! implementation).
//!
//! The lowering preserves the DAG's vertex indexing: task `i` of the lowered graph is
//! vertex `i` of the DAG, so per-vertex side tables (placements from
//! `nd-exec`'s `σ·M_i` anchoring, operation tables, statistics) line up without
//! translation.

use crate::dataflow::{CompiledGraph, Placement};
use nd_core::dag::{AlgorithmDag, DagVertex};

/// The executable skeleton of one algorithm DAG: the dependency structure in
/// compiled form, plus the strands' operation tags in task order.
pub struct LoweredDag {
    /// The compiled dependency graph; task indices equal DAG vertex indices.
    pub graph: CompiledGraph,
    /// Per-task operation tag: `Some(op)` for a strand carrying an opaque
    /// kernel-table index, `None` for barriers and untagged strands (both run
    /// as dependency-only tasks).
    pub op_tags: Vec<Option<u64>>,
}

/// Lowers an algorithm DAG to the compiled, reusable graph form.
///
/// `placement` is either empty (every task may run anywhere) or one
/// [`Placement`] per DAG vertex (the anchored executor routes every strand to
/// its subcluster this way).
///
/// # Panics
/// Panics if the DAG has a dependency cycle or `placement` is non-empty with a
/// length different from the DAG's vertex count.
pub fn lower_dag(dag: &AlgorithmDag, placement: Vec<Placement>) -> LoweredDag {
    let n = dag.vertex_count();
    let mut op_tags = Vec::with_capacity(n);
    let mut edges = Vec::new();
    for v in dag.vertex_ids() {
        op_tags.push(match dag.vertex(v) {
            DagVertex::Strand { op, .. } => *op,
            DagVertex::Barrier { .. } => None,
        });
        for s in dag.successors(v) {
            edges.push((v.0, s.0));
        }
    }
    LoweredDag {
        graph: CompiledGraph::from_edges(n, &edges, placement),
        op_tags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::TaskTable;
    use crate::pool::ThreadPool;
    use nd_core::spawn_tree::NodeId;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// a → barrier → b, with op tags 7 and 9.
    fn tiny_dag() -> AlgorithmDag {
        let mut dag = AlgorithmDag::new();
        let a = dag.add_strand(NodeId(0), 1, 1, Some(7), "a".into());
        let bar = dag.add_barrier();
        let b = dag.add_strand(NodeId(1), 1, 1, Some(9), "b".into());
        dag.add_edge(a, bar);
        dag.add_edge(bar, b);
        dag
    }

    #[test]
    fn lowering_preserves_shape_and_tags() {
        let dag = tiny_dag();
        let lowered = lower_dag(&dag, Vec::new());
        assert_eq!(lowered.graph.task_count(), 3);
        assert_eq!(lowered.graph.edge_count(), 2);
        assert!(lowered.graph.is_acyclic());
        assert_eq!(lowered.op_tags, vec![Some(7), None, Some(9)]);
    }

    #[test]
    fn lowered_graph_executes_ops_in_dependency_order() {
        struct Log {
            order: Vec<AtomicU64>,
            clock: AtomicU64,
            tags: Vec<Option<u64>>,
        }
        impl TaskTable for Log {
            fn run_task(&self, task: u32) {
                if self.tags[task as usize].is_some() {
                    let t = self.clock.fetch_add(1, Ordering::SeqCst);
                    self.order[task as usize].store(t + 1, Ordering::SeqCst);
                }
            }
        }
        let dag = tiny_dag();
        let lowered = lower_dag(&dag, Vec::new());
        let table = Arc::new(Log {
            order: (0..3).map(|_| AtomicU64::new(0)).collect(),
            clock: AtomicU64::new(0),
            tags: lowered.op_tags.clone(),
        });
        let graph = Arc::new(lowered.graph);
        let pool = ThreadPool::new(2);
        let stats = graph.execute(&pool, &table).unwrap();
        assert_eq!(stats.tasks, 3);
        let a = table.order[0].load(Ordering::SeqCst);
        let b = table.order[2].load(Ordering::SeqCst);
        assert!(a > 0 && b > a, "strand a must run before strand b");
        // The lowered graph is reusable: counters restored after the run.
        assert!(graph.counters_are_reset());
    }

    #[test]
    fn lowering_runs_one_closure_per_tagged_strand() {
        /// A closure table: strand `t` with op tag `op` runs `f(op)`.
        struct Closures<F> {
            tags: Vec<Option<u64>>,
            f: F,
        }
        impl<F: Fn(u64) + Send + Sync + 'static> TaskTable for Closures<F> {
            fn run_task(&self, task: u32) {
                if let Some(op) = self.tags[task as usize] {
                    (self.f)(op);
                }
            }
        }
        let dag = tiny_dag();
        let hits = Arc::new(AtomicU64::new(0));
        let lowered = lower_dag(&dag, Vec::new());
        let h = Arc::clone(&hits);
        let table = Arc::new(Closures {
            tags: lowered.op_tags,
            f: move |op| {
                h.fetch_add(op, Ordering::SeqCst);
            },
        });
        let graph = Arc::new(lowered.graph);
        assert_eq!(graph.task_count(), 3);
        assert_eq!(graph.edge_count(), 2);
        let pool = ThreadPool::new(2);
        graph.execute(&pool, &table).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 7 + 9);
    }

    #[test]
    #[should_panic(expected = "placement length")]
    fn placement_length_mismatch_panics() {
        let dag = tiny_dag();
        let _ = lower_dag(&dag, vec![Placement::Anywhere]);
    }
}
