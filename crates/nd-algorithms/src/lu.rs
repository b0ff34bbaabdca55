//! LU factorization with partial pivoting.
//!
//! The paper obtains its LU result by parallelising Toledo's recursive algorithm
//! and replacing the triangular solves with the ND TRS (span `O(m log n)`); it gives
//! no explicit fire-rule table.  This module reproduces LU in the *blocked
//! right-looking* formulation with panels of width `base`:
//!
//! * `P_k` — factor panel `k` (all rows below the diagonal) with partial pivoting,
//! * `S_{k,j}` — apply the panel's row interchanges to every other block column,
//! * `T_{k,j}` — triangular solve producing the `U` blocks of block row `k`,
//! * `G_{k,i,j}` — trailing update `A_{ij} −= L_{ik}·U_{kj}`.
//!
//! The **NP variant** serialises the four phases of every step with barriers (the
//! parallel-loop formulation the nested-parallel model expresses); the **ND
//! variant** is the algorithm DAG derived from the true read/write sets, which
//! exhibits the classical *lookahead* pattern: panel `k+1` can start as soon as its
//! own block column is updated, long before step `k`'s trailing updates finish.
//! Both run the same kernels and are checked against the sequential pivoted LU.
//!
//! ## Runtime pivots on the lock-free hot path
//!
//! The row interchanges chosen by `P_k` are runtime data.  They travel through
//! the pre-sized, index-disjoint [`PivotStore`] of the
//! execution context: panel `k` owns slots `k·base .. (k+1)·base`, the DAG
//! orders the panel's write before every `S_{k,j}` read, and distinct panels
//! own disjoint slots — so the executor hot path stays free of mutexes and
//! per-strand allocation, exactly like the matrix blocks themselves.  (An
//! earlier revision used a mutex-protected `Vec` per panel and boxed
//! closures through the one-shot executor.)
//!
//! `build_lu` produces a full [`BuiltAlgorithm`] — the access-set DAG *plus* a
//! companion spawn tree whose task groups (elimination steps, trailing block
//! rows) carry footprint annotations — so LU runs on the compiled flat
//! executor and under `nd-exec`'s `σ·M_i` anchored placement like every other
//! algorithm in this crate.

use crate::access::AccessDagBuilder;
use crate::common::{check_power_of_two_ratio, BlockOp, BuiltAlgorithm, Mode, Rect};
use crate::driver::{run_once, Executor};
use crate::exec::ExecContext;
use nd_core::fire::FireTable;
use nd_core::work_span::WorkSpan;
use nd_linalg::{Matrix, PivotStore};

/// Builds the blocked LU program for an `n × n` matrix (matrix id 0) with panel
/// width `base`: spawn tree, algorithm DAG and block-operation table.
pub fn build_lu(n: usize, base: usize, mode: Mode) -> BuiltAlgorithm {
    check_power_of_two_ratio(n, base);
    let nb = n / base;
    let b2 = (base * base) as u64;
    let b3 = (base * base * base) as u64;
    let cell = |i: usize, j: usize| (i * nb + j) as u64;
    // Pivot slots live past the matrix cells in the abstract access space.
    let pivot_cell = |k: usize| (nb * nb + k) as u64;
    let blk = |i: usize, j: usize| Rect::new(0, i * base, j * base, base, base);

    let mut ops: Vec<BlockOp> = Vec::new();
    let mut builder = AccessDagBuilder::with_root((n * n + n) as u64, format!("lu-n{n}-b{base}"));
    for k in 0..nb {
        let rows_below = n - k * base; // rows k·b .. n
                                       // Step k touches the row band below the pivot row across all columns,
                                       // plus the panel's pivot slots.
        builder.open_task((rows_below * n + base) as u64, format!("step{k}"));

        // Panel factorization: touches block cells (i, k) for i ≥ k, produces pivots.
        let col_cells: Vec<u64> = (k..nb).map(|i| cell(i, k)).collect();
        let idx = ops.len() as u64;
        ops.push(BlockOp::LuPanel {
            a: Rect::new(0, k * base, k * base, rows_below, base),
            piv: k * base,
        });
        builder.add_task(
            (nb - k) as u64 * b3,
            (nb - k) as u64 * b2 + base as u64,
            Some(idx),
            format!("P{k}"),
            &col_cells,
            &[col_cells.clone(), vec![pivot_cell(k)]].concat(),
        );
        if mode == Mode::Np {
            builder.barrier();
        }
        // Row interchanges on every other block column.
        for j in 0..nb {
            if j == k {
                continue;
            }
            let cells: Vec<u64> = (k..nb).map(|i| cell(i, j)).collect();
            let idx = ops.len() as u64;
            ops.push(BlockOp::LuRowSwap {
                a: Rect::new(0, k * base, j * base, rows_below, base),
                piv: k * base,
                len: base,
            });
            builder.add_task(
                (nb - k) as u64 * base as u64,
                (nb - k) as u64 * b2 + base as u64,
                Some(idx),
                format!("S{k},{j}"),
                &[cells.clone(), vec![pivot_cell(k)]].concat(),
                &cells,
            );
        }
        if mode == Mode::Np {
            builder.barrier();
        }
        // Triangular solves for the U blocks of block row k.
        for j in (k + 1)..nb {
            let idx = ops.len() as u64;
            ops.push(BlockOp::TrsmUnitLower {
                l: blk(k, k),
                b: blk(k, j),
            });
            builder.add_task(
                b3,
                2 * b2,
                Some(idx),
                format!("T{k},{j}"),
                &[cell(k, k), cell(k, j)],
                &[cell(k, j)],
            );
        }
        if mode == Mode::Np {
            builder.barrier();
        }
        // Trailing updates, grouped per block row so the anchoring has a task
        // level between "whole step" and "single block".  Row i's group
        // touches (nb−k−1) c-blocks, one a-block and (nb−k−1) b-blocks.
        for i in (k + 1)..nb {
            builder.open_task((2 * (nb - k) as u64 - 1) * b2, format!("G{k},{i}"));
            for j in (k + 1)..nb {
                let idx = ops.len() as u64;
                ops.push(BlockOp::Gemm {
                    c: blk(i, j),
                    a: blk(i, k),
                    b: blk(k, j),
                    alpha: -1.0,
                });
                builder.add_task(
                    2 * b3,
                    3 * b2,
                    Some(idx),
                    format!("G{k},{i},{j}"),
                    &[cell(i, k), cell(k, j), cell(i, j)],
                    &[cell(i, j)],
                );
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
        label: format!("lu-{}-n{}-b{}", mode.name(), n, base),
    }
}

/// Assembles the global pivot vector (LAPACK convention: at step `r`, row `r`
/// was swapped with `piv[r]`) from the per-panel local pivots left in a
/// context's store after an LU execution.
///
/// # Safety
/// The caller must uphold the [`PivotStore`] contract: no LU execution
/// writing this store may be in flight.  In practice, call this only after
/// the executor has returned (as `lu_parallel` does).
pub unsafe fn assemble_global_pivots(pivots: &PivotStore, n: usize, base: usize) -> Vec<usize> {
    assert_eq!(pivots.len(), n, "store must have one slot per column");
    let mut piv = Vec::with_capacity(n);
    for k in 0..n / base {
        let local = pivots.slice(k * base, base);
        for &p in local {
            piv.push(k * base + p);
        }
    }
    piv
}

/// Factors `a` in place in parallel with partial pivoting and returns the global
/// pivot vector (LAPACK convention: at step `r`, row `r` was swapped with `piv[r]`).
pub fn lu_parallel(exec: &dyn Executor, a: &mut Matrix, mode: Mode, base: usize) -> Vec<usize> {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    let built = build_lu(n, base, mode);
    let ctx = ExecContext::with_pivots(&mut [a], n);
    run_once(exec, &built, &ctx).expect("algorithm strand panicked");
    // SAFETY: the execution above has completed; no writer holds the store.
    unsafe { assemble_global_pivots(&ctx.pivots, n, base) }
}

/// Work/span summary of the NP and ND variants (used by the benchmark harness).
pub fn lu_span_comparison(n: usize, base: usize) -> (WorkSpan, WorkSpan) {
    let np = WorkSpan::of_dag(&build_lu(n, base, Mode::Np).dag);
    let nd = WorkSpan::of_dag(&build_lu(n, base, Mode::Nd).dag);
    (np, nd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::execute_reuse_rounds;
    use nd_linalg::getrf::{getrf_naive, lu_residual};
    use nd_runtime::ThreadPool;

    #[test]
    fn np_and_nd_have_identical_ops_and_work() {
        let np = build_lu(64, 16, Mode::Np);
        let nd = build_lu(64, 16, Mode::Nd);
        assert_eq!(np.ops, nd.ops);
        assert_eq!(np.dag.work(), nd.dag.work());
        assert!(np.dag.is_acyclic());
        assert!(nd.dag.is_acyclic());
    }

    #[test]
    fn nd_dag_exposes_lookahead() {
        let (np, nd) = lu_span_comparison(128, 16);
        assert!(nd.span <= np.span);
        // Lookahead: with a bounded number of processors the dataflow DAG finishes
        // strictly earlier than the phase-barrier formulation.
        let np_dag = build_lu(128, 16, Mode::Np).dag;
        let nd_dag = build_lu(128, 16, Mode::Nd).dag;
        let p = 8;
        assert!(
            nd_dag.greedy_makespan(p) < np_dag.greedy_makespan(p),
            "nd makespan {} should beat np {}",
            nd_dag.greedy_makespan(p),
            np_dag.greedy_makespan(p)
        );
    }

    #[test]
    fn spawn_tree_leaves_match_dag_strands() {
        let built = build_lu(64, 16, Mode::Nd);
        assert_eq!(built.tree.strand_count(), built.dag.strand_count());
        assert_eq!(built.dag.strand_count(), built.ops.len());
        for v in built.dag.vertex_ids() {
            if let Some(node) = built.dag.vertex(v).tree_node() {
                if built.dag.vertex(v).is_strand() {
                    assert!(built.tree.node(node).is_strand());
                }
            }
        }
        // The root footprint annotation is the whole matrix plus the pivots.
        assert_eq!(built.tree.effective_size(built.tree.root()), 64 * 64 + 64);
    }

    #[test]
    fn parallel_lu_matches_reference_residual() {
        let pool = ThreadPool::new(4);
        for mode in [Mode::Np, Mode::Nd] {
            let n = 64;
            let a = Matrix::random(n, n, 31);
            let mut lu = a.clone();
            let piv = lu_parallel(&pool, &mut lu, mode, 16);
            assert_eq!(piv.len(), n);
            let res = lu_residual(&lu, &piv, &a);
            assert!(res < 1e-10, "{mode:?} LU residual {res}");
        }
    }

    #[test]
    fn parallel_lu_matches_sequential_pivots() {
        let pool = ThreadPool::new(4);
        let n = 64;
        let a = Matrix::random(n, n, 41);
        let mut seq = a.clone();
        let seq_piv = getrf_naive(&mut seq);
        let mut par = a.clone();
        let par_piv = lu_parallel(&pool, &mut par, Mode::Nd, 8);
        assert_eq!(seq_piv, par_piv, "pivot choices should coincide");
        assert!(par.max_abs_diff(&seq) < 1e-9);
    }

    #[test]
    fn small_panel_width_still_correct() {
        let pool = ThreadPool::new(4);
        let n = 32;
        let a = Matrix::random(n, n, 51);
        let mut lu = a.clone();
        let piv = lu_parallel(&pool, &mut lu, Mode::Nd, 4);
        assert!(lu_residual(&lu, &piv, &a) < 1e-10);
    }

    /// One compiled LU graph re-factors the matrix (restored in place between
    /// runs) three times bit-identically, counters restored every round.
    #[test]
    fn compiled_lu_reuse_is_bit_identical() {
        let pool = ThreadPool::new(4);
        let n = 32;
        let a0 = Matrix::random(n, n, 61);
        let built = build_lu(n, 8, Mode::Nd);
        let mut a = a0.clone();
        let ctx = ExecContext::with_pivots(&mut [&mut a], n);
        let pivots = std::sync::Arc::clone(&ctx.pivots);
        let result = execute_reuse_rounds(
            &pool,
            &built,
            &ctx,
            &mut a,
            3,
            |a, _| a.as_mut_slice().copy_from_slice(a0.as_slice()),
            // SAFETY: capture runs between executions; no writer is in flight.
            |a, _| (a.clone(), unsafe { assemble_global_pivots(&pivots, n, 8) }),
        );
        let (lu, piv) = result;
        let mut seq = a0.clone();
        let seq_piv = getrf_naive(&mut seq);
        assert_eq!(piv, seq_piv);
        assert!(lu.max_abs_diff(&seq) < 1e-9);
    }
}
