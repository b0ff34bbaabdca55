//! Acceptance tests for the tile-packed storage layout: every algorithm in
//! the repository (MM, TRS, Cholesky, LU, 2-D Floyd–Warshall, LCS, 1-D
//! Floyd–Warshall) must produce **bit-identical** results on the row-major
//! and tile-packed layouts, in both the NP and ND models, and bit-identical
//! to the one-worker row-major run of the same model — on every executor:
//! the flat pool across the pool-size matrix (1/2/8 workers, or
//! `ND_POOL_WORKERS`) and the anchored pool on both machine layouts.
//! Packing and placement move bytes and strands; they must never change a
//! single floating-point operation.

use nd_algorithms::cholesky::build_cholesky;
use nd_algorithms::common::{BuiltAlgorithm, Mode};
use nd_algorithms::driver::{run_once_on_layout, ContextExtras, Executor};
use nd_algorithms::exec::Layout;
use nd_algorithms::fw1d::build_fw1d;
use nd_algorithms::fw2d::build_fw2d;
use nd_algorithms::lcs::build_lcs;
use nd_algorithms::lu::{assemble_global_pivots, build_lu};
use nd_algorithms::mm::build_mm;
use nd_algorithms::trs::build_trs;
use nd_linalg::lcs::random_sequence;
use nd_linalg::Matrix;
use nd_runtime::ThreadPool;

mod common;
use common::{anchored_executors, flat_executors, machine_layouts, pool_sizes, NamedExecutor};

/// Every executor the assertions run on: flat pools across the pool-size
/// matrix, then anchored pools on both machine layouts.
fn executors() -> impl Iterator<Item = NamedExecutor> {
    flat_executors(pool_sizes()).chain(anchored_executors(machine_layouts()))
}

/// One algorithm case: a built program, its bound matrices, its extras, and
/// which matrix to compare (all of them, here).
struct Case {
    name: &'static str,
    built: BuiltAlgorithm,
    mats: Vec<Matrix>,
    extras_fn: fn() -> ContextExtras,
    tile: usize,
}

fn all_seven(n: usize, base: usize, mode: Mode) -> Vec<Case> {
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let seq_extras = || ContextExtras::Sequences(random_sequence(32, 41), random_sequence(32, 42));
    let fw1d_table = {
        let mut t = Matrix::zeros(n + 1, n + 1);
        for i in 1..=n {
            t[(0, i)] = ((i * 7) % 13) as f64;
        }
        t
    };
    vec![
        Case {
            name: "mm",
            built: build_mm(n, base, mode, 1.0),
            mats: vec![Matrix::zeros(n, n), a.clone(), b.clone()],
            extras_fn: || ContextExtras::None,
            tile: base,
        },
        Case {
            name: "trs",
            built: build_trs(n, base, mode),
            mats: vec![
                Matrix::random_lower_triangular(n, 3),
                Matrix::random(n, n, 4),
            ],
            extras_fn: || ContextExtras::None,
            tile: base,
        },
        Case {
            name: "cholesky",
            built: build_cholesky(n, base, mode),
            mats: vec![Matrix::random_spd(n, 5)],
            extras_fn: || ContextExtras::None,
            tile: base,
        },
        Case {
            name: "lu",
            built: build_lu(n, base, mode),
            mats: vec![Matrix::random(n, n, 6)],
            extras_fn: || ContextExtras::None, // pivots added per run (need n)
            tile: base,
        },
        Case {
            name: "fw2d",
            built: build_fw2d(n, base, mode),
            mats: vec![nd_linalg::fw::random_digraph(n, 3, 7)],
            extras_fn: || ContextExtras::None,
            tile: base,
        },
        Case {
            name: "lcs",
            built: build_lcs(32, 8, mode),
            mats: vec![Matrix::zeros(33, 33)],
            extras_fn: seq_extras,
            tile: 8,
        },
        Case {
            name: "fw1d",
            built: build_fw1d(n, base, mode),
            mats: vec![fw1d_table],
            extras_fn: || ContextExtras::None,
            tile: base,
        },
    ]
}

fn extras_for(case: &Case, n: usize) -> ContextExtras {
    if case.name == "lu" {
        ContextExtras::Pivots(n)
    } else {
        (case.extras_fn)()
    }
}

/// Runs one case on `exec` on the given layout; returns its matrices and,
/// for LU, the global pivots.
fn run(exec: &dyn Executor, case: &Case, layout: Layout, n: usize) -> (Vec<Matrix>, Vec<usize>) {
    let mut mats = case.mats.clone();
    let run = {
        let mut refs: Vec<&mut Matrix> = mats.iter_mut().collect();
        run_once_on_layout(
            exec,
            &case.built,
            &mut refs,
            case.tile,
            layout,
            extras_for(case, n),
        )
    };
    assert!(run.stats.tasks > 0, "{}: no tasks ran", case.name);
    let piv = if case.name == "lu" {
        // SAFETY: the execution has completed; no writer holds the store.
        unsafe { assemble_global_pivots(&run.pivots, n, case.tile) }
    } else {
        Vec::new()
    };
    (mats, piv)
}

/// Asserts two runs of `case` produced the same bits and the same pivots.
fn assert_identical(
    case: &Case,
    what: &str,
    a: &(Vec<Matrix>, Vec<usize>),
    b: &(Vec<Matrix>, Vec<usize>),
) {
    for (i, (x, y)) in a.0.iter().zip(b.0.iter()).enumerate() {
        assert_eq!(x.max_abs_diff(y), 0.0, "{} matrix {i}: {what}", case.name);
    }
    assert_eq!(a.1, b.1, "{} pivots: {what}", case.name);
}

/// Row-major vs tile-packed on `executors`, bit-identical in both models.
fn assert_layouts_identical(executors: impl Iterator<Item = NamedExecutor>) {
    let n = 32;
    let base = 8;
    for (name, exec) in executors {
        for mode in [Mode::Np, Mode::Nd] {
            for case in all_seven(n, base, mode) {
                let row = run(&*exec, &case, Layout::RowMajor, n);
                let tiled = run(&*exec, &case, Layout::Tiled, n);
                let what = format!("{mode:?} layouts differ ({name})");
                assert_identical(&case, &what, &row, &tiled);
            }
        }
    }
}

/// Row-major vs tile-packed, bit-identical, in both models on flat pools of
/// every pool size.
#[test]
fn all_seven_algorithms_bit_identical_across_layouts_flat() {
    assert_layouts_identical(flat_executors(pool_sizes()));
}

/// Row-major vs tile-packed, bit-identical, in both models on anchored pools
/// on both machine layouts — anchoring and contiguous tiles compose.
#[test]
fn all_seven_algorithms_bit_identical_across_layouts_anchored() {
    assert_layouts_identical(anchored_executors(machine_layouts()));
}

/// The tiled layout agrees with the plain serial oracles (sanity beyond
/// layout-vs-layout identity): one-worker row-major is the established
/// bit-exact reference for every algorithm, so tiled runs on every executor
/// must match it exactly — flat and anchored alike.
#[test]
fn tiled_layout_matches_one_worker_row_major_reference() {
    let n = 32;
    let base = 8;
    let reference_pool = ThreadPool::new(1);
    for mode in [Mode::Np, Mode::Nd] {
        let cases = all_seven(n, base, mode);
        let references: Vec<_> = cases
            .iter()
            .map(|case| run(&reference_pool, case, Layout::RowMajor, n))
            .collect();
        for (name, exec) in executors() {
            for (case, reference) in cases.iter().zip(&references) {
                let tiled = run(&*exec, case, Layout::Tiled, n);
                let what = format!("{mode:?} tiled ({name}) differs from 1w row-major");
                assert_identical(case, &what, reference, &tiled);
            }
        }
    }
}
