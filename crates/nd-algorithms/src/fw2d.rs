//! 2-D Floyd–Warshall (all-pairs shortest paths) — the "2-D analog" of Section 3.
//!
//! The paper notes that the 2-D Floyd–Warshall algorithm is a straightforward
//! extension of the 1-D design and lumps it with the dense linear-algebra
//! algorithms in Claim 1 (`Q* = O(N^{1.5}/M^{0.5})`).  This module reproduces it in
//! the *blocked* formulation: the distance matrix is tiled into `(n/b)²` blocks and
//! every elimination step `k` performs the classical diagonal / row-panel /
//! column-panel / trailing updates.
//!
//! * **NP variant** — the natural parallel-loop formulation: the phases of each step
//!   are parallel loops separated by barriers (`;` between phases), exactly what the
//!   nested-parallel model can express.
//! * **ND variant** — the *algorithm DAG*: a block update depends only on the blocks
//!   it actually reads, so step `k+1` can start on blocks whose inputs are ready
//!   while step `k` is still updating far-away blocks (the wavefront/lookahead
//!   pattern the ND model exposes to the scheduler).
//!
//! Both variants execute the same set of [`BlockOp::FwUpdate`] kernels, so their
//! work is identical; the ND DAG has the same or shorter span and a much larger
//! ready width.
//!
//! `build_fw2d` produces a full [`BuiltAlgorithm`] — the access-set DAG plus a
//! companion spawn tree whose task groups (elimination steps, panel phases,
//! trailing block rows) carry footprint annotations — so APSP runs on the
//! compiled flat executor and under `nd-exec`'s `σ·M_i` anchored placement
//! like every other algorithm in this crate.

use crate::access::AccessDagBuilder;
use crate::common::{check_power_of_two_ratio, BlockOp, BuiltAlgorithm, Mode, Rect};
use crate::driver::{run_once, Executor};
use crate::exec::ExecContext;
use nd_core::fire::FireTable;
use nd_linalg::Matrix;

/// Builds the blocked Floyd–Warshall program for an `n × n` distance matrix
/// (matrix id 0) with block size `base`: spawn tree, algorithm DAG and
/// block-operation table.
pub fn build_fw2d(n: usize, base: usize, mode: Mode) -> BuiltAlgorithm {
    check_power_of_two_ratio(n, base);
    let nb = n / base;
    let b2 = (base * base) as u64;
    let blk = |i: usize, j: usize| Rect::new(0, i * base, j * base, base, base);
    let cell = |i: usize, j: usize| (i * nb + j) as u64;
    let work = 2 * (base * base * base) as u64;
    let size = 3 * b2;

    let mut ops = Vec::new();
    let mut builder = AccessDagBuilder::with_root((n * n) as u64, format!("fw2d-n{n}-b{base}"));
    let add = |builder: &mut AccessDagBuilder,
               ops: &mut Vec<BlockOp>,
               x: (usize, usize),
               u: (usize, usize),
               v: (usize, usize)| {
        let idx = ops.len() as u64;
        ops.push(BlockOp::FwUpdate {
            x: blk(x.0, x.1),
            u: blk(u.0, u.1),
            v: blk(v.0, v.1),
        });
        let mut reads = vec![cell(x.0, x.1), cell(u.0, u.1), cell(v.0, v.1)];
        reads.dedup();
        builder.add_task(
            work,
            size,
            Some(idx),
            format!("fw[{},{}]+=[{},{}]*[{},{}]", x.0, x.1, u.0, u.1, v.0, v.1),
            &reads,
            &[cell(x.0, x.1)],
        );
    };

    for k in 0..nb {
        // Every elimination step touches the whole matrix.
        builder.open_task((n * n) as u64, format!("step{k}"));
        // Diagonal block plus the row and column panels that read it.
        builder.open_task((2 * (nb - 1) as u64 + 1) * b2, format!("panels{k}"));
        add(&mut builder, &mut ops, (k, k), (k, k), (k, k));
        if mode == Mode::Np {
            builder.barrier();
        }
        for j in 0..nb {
            if j != k {
                add(&mut builder, &mut ops, (k, j), (k, k), (k, j));
                add(&mut builder, &mut ops, (j, k), (j, k), (k, k));
            }
        }
        builder.close_task();
        if mode == Mode::Np {
            builder.barrier();
        }
        // Trailing updates, grouped per block row for the anchoring.
        for i in 0..nb {
            if i == k {
                continue;
            }
            builder.open_task((2 * (nb - 1) as u64 + 1) * b2, format!("trail{k},{i}"));
            for j in 0..nb {
                if j != k {
                    add(&mut builder, &mut ops, (i, j), (i, k), (k, j));
                }
            }
            builder.close_task();
        }
        if mode == Mode::Np {
            builder.barrier();
        }
        builder.close_task();
    }

    let (tree, dag) = builder.finish_parts();
    BuiltAlgorithm {
        tree,
        dag,
        fires: FireTable::new().resolved(),
        ops,
        mode,
        label: format!("fw2d-{}-n{}-b{}", mode.name(), n, base),
    }
}

/// Solves all-pairs shortest paths in place on the distance matrix `d` in parallel.
pub fn apsp_parallel(exec: &dyn Executor, d: &mut Matrix, mode: Mode, base: usize) {
    let n = d.rows();
    assert_eq!(d.cols(), n);
    let built = build_fw2d(n, base, mode);
    let ctx = ExecContext::from_matrices(&mut [d]);
    run_once(exec, &built, &ctx).expect("algorithm strand panicked");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::execute_reuse_rounds;
    use nd_core::work_span::WorkSpan;
    use nd_linalg::fw::{floyd_warshall_naive, random_digraph};
    use nd_runtime::ThreadPool;

    #[test]
    fn np_and_nd_have_identical_ops_and_work() {
        let np = build_fw2d(64, 16, Mode::Np);
        let nd = build_fw2d(64, 16, Mode::Nd);
        assert_eq!(np.ops, nd.ops);
        assert_eq!(np.dag.work(), nd.dag.work());
        assert!(np.dag.is_acyclic());
        assert!(nd.dag.is_acyclic());
    }

    #[test]
    fn nd_dag_has_no_larger_span_and_more_width() {
        let np = build_fw2d(128, 16, Mode::Np);
        let nd = build_fw2d(128, 16, Mode::Nd);
        let ws_np = WorkSpan::of_dag(&np.dag);
        let ws_nd = WorkSpan::of_dag(&nd.dag);
        assert!(ws_nd.span <= ws_np.span);
        assert!(nd.dag.max_ready_width() >= np.dag.max_ready_width());
        // The dataflow DAG overlaps elimination steps that the phase-barrier (NP)
        // formulation serialises, so a processor-limited greedy schedule finishes
        // strictly earlier.
        let p = 8;
        assert!(
            nd.dag.greedy_makespan(p) < np.dag.greedy_makespan(p),
            "nd makespan {} should beat np {}",
            nd.dag.greedy_makespan(p),
            np.dag.greedy_makespan(p)
        );
    }

    #[test]
    fn spawn_tree_leaves_match_dag_strands() {
        let built = build_fw2d(64, 16, Mode::Nd);
        assert_eq!(built.tree.strand_count(), built.dag.strand_count());
        assert_eq!(built.dag.strand_count(), built.ops.len());
        assert_eq!(built.tree.effective_size(built.tree.root()), 64 * 64);
    }

    #[test]
    fn parallel_apsp_matches_sequential() {
        let pool = ThreadPool::new(4);
        let n = 64;
        let d0 = random_digraph(n, 3, 5);
        let mut reference = d0.clone();
        floyd_warshall_naive(&mut reference);
        for mode in [Mode::Np, Mode::Nd] {
            let mut d = d0.clone();
            apsp_parallel(&pool, &mut d, mode, 16);
            assert!(d.max_abs_diff(&reference) < 1e-12, "{mode:?} APSP diverged");
        }
    }

    #[test]
    fn parallel_apsp_small_blocks() {
        let pool = ThreadPool::new(4);
        let n = 32;
        let d0 = random_digraph(n, 4, 9);
        let mut reference = d0.clone();
        floyd_warshall_naive(&mut reference);
        let mut d = d0.clone();
        apsp_parallel(&pool, &mut d, Mode::Nd, 4);
        assert!(d.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn op_count_matches_block_count() {
        let nb = 64 / 16;
        let built = build_fw2d(64, 16, Mode::Nd);
        // Per step: 1 diagonal + 2(nb−1) panels + (nb−1)² trailing.
        let per_step = 1 + 2 * (nb - 1) + (nb - 1) * (nb - 1);
        assert_eq!(built.ops.len(), nb * per_step);
    }

    /// One compiled APSP graph re-solves the instance (re-seeded in place
    /// between runs) three times bit-identically, counters restored.
    #[test]
    fn compiled_fw2d_reuse_is_bit_identical() {
        let pool = ThreadPool::new(4);
        let n = 32;
        let d0 = random_digraph(n, 3, 13);
        let built = build_fw2d(n, 8, Mode::Nd);
        let mut d = d0.clone();
        let ctx = ExecContext::from_matrices(&mut [&mut d]);
        let result = execute_reuse_rounds(
            &pool,
            &built,
            &ctx,
            &mut d,
            3,
            |d, _| d.as_mut_slice().copy_from_slice(d0.as_slice()),
            |d, _| d.clone(),
        );
        let mut reference = d0.clone();
        floyd_warshall_naive(&mut reference);
        assert!(result.max_abs_diff(&reference) < 1e-12);
    }
}
