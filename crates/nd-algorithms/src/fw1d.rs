//! 1-D Floyd–Warshall — the synthetic dynamic-programming benchmark of Section 3
//! (Figure 10) of the paper.
//!
//! The recurrence is `d(t, i) = d(t−1, i) ⊕ d(t−1, t−1)`: every cell of row `t`
//! depends on the cell directly above it and on the previous diagonal cell.  The
//! divide-and-conquer algorithm (Eq. 14) splits the `n × n` time/space table into
//! quadrants and distinguishes two task kinds: `A(X)` for blocks that contain their
//! own diagonal cells and `B(X, Y)` for off-diagonal blocks whose diagonal cells
//! live in another block `Y`.
//!
//! ## Fire-rule tables
//!
//! The quadrant layout used here is `X00` = early time / low index, `X01` = early
//! time / high index, `X10` = late time / low index, `X11` = late time / high index;
//! an `A` task expands to `(A(X00) AB⤳ B(X01)) ABAB⤳ (A(X11) AB⤳ B(X10))` (the
//! paper's Eq. 14, with the bottom half computing the diagonal block `X11` before
//! the off-diagonal `X10`), and a `B` task to
//! `(B(X00) ‖ B(X01)) BBBB⤳ (B(X10) ‖ B(X11))`.
//!
//! The `AB⤳` ("diagonal supply"), `BA⤳`, `BB⤳` and `BBBB⤳` tables below are
//! exactly the paper's.  Two additions are required for a race-free DAG (they do not
//! change the Θ(n) span):
//!
//! * `AV⤳` — the vertical dependency from `X00` to the block below it (`X10`),
//!   which Eq. (14)'s `ABAB⤳` rule set omits even though row `t` of `X10` reads row
//!   `t−1` of `X00`;
//! * `CORNER⤳` / `CORNER_AB⤳` — the dependency of a row on the *previous diagonal
//!   cell* when that cell is the bottom-right corner of the diagonal block one level
//!   up (every cell of the first row below an `A` block reads that block's corner).

use crate::common::{check_power_of_two_ratio, BlockOp, BuiltAlgorithm, Mode};
use crate::driver::{run_once, Executor};
use crate::exec::ExecContext;
use crate::frontend::{build_program, FireProgram, OpRecorder};
use nd_core::fire::{FireRuleSpec, FireTable};
use nd_core::program::{Composition, Expansion, NdProgram};
use nd_linalg::Matrix;

/// Which kind of block a task covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FwKind {
    /// The block contains the diagonal cells needed by its rows.
    A,
    /// The block's diagonal cells live in another block.
    B,
}

/// A task of the 1-D Floyd–Warshall program: a block of the time/space table
/// (1-based half-open ranges; rows are time steps, columns are cells).
#[derive(Clone, Copy, Debug)]
pub struct Fw1dTask {
    /// A (diagonal) or B (off-diagonal).
    pub kind: FwKind,
    /// First time step (inclusive).
    pub t0: usize,
    /// Last time step (exclusive).
    pub t1: usize,
    /// First cell (inclusive).
    pub i0: usize,
    /// Last cell (exclusive).
    pub i1: usize,
}

impl Fw1dTask {
    fn rows(&self) -> usize {
        self.t1 - self.t0
    }
    fn cols(&self) -> usize {
        self.i1 - self.i0
    }
}

/// Registers the 1-D Floyd–Warshall fire types.
pub fn register_fw1d_fire_types(fires: &mut FireTable) {
    // AB (paper): an A block supplies diagonal cells to a B block with the same rows.
    fires.define(
        "AB",
        vec![
            FireRuleSpec::fire(&[1, 1], "AB", &[1, 1]),
            FireRuleSpec::fire(&[1, 1], "AB", &[1, 2]),
            FireRuleSpec::fire(&[2, 1], "AB", &[2, 1]),
            FireRuleSpec::fire(&[2, 1], "AB", &[2, 2]),
        ],
    );
    // ABAB (paper + the two additions documented above): top half of an A feeds its
    // bottom half.
    fires.define(
        "ABAB",
        vec![
            FireRuleSpec::fire(&[2], "BA", &[1]),
            FireRuleSpec::fire(&[1], "AV", &[2]),
            FireRuleSpec::fire(&[1], "CORNER", &[1]),
        ],
    );
    // BA (paper): a B block feeds the A block below it (column-matched last row).
    fires.define(
        "BA",
        vec![
            FireRuleSpec::fire(&[2, 1], "BA", &[1, 1]),
            FireRuleSpec::fire(&[2, 2], "BB", &[1, 2]),
        ],
    );
    // AV (addition): an A block feeds the B block below it.
    fires.define(
        "AV",
        vec![
            FireRuleSpec::fire(&[2, 2], "BB", &[1, 1]),
            FireRuleSpec::fire(&[2, 1], "AV", &[1, 2]),
            FireRuleSpec::fire(&[2, 1], "CORNER_AB", &[1, 1]),
        ],
    );
    // BB (paper): a B block feeds the B block below it.
    fires.define(
        "BB",
        vec![
            FireRuleSpec::fire(&[2, 1], "BB", &[1, 1]),
            FireRuleSpec::fire(&[2, 2], "BB", &[1, 2]),
        ],
    );
    // BBBB (paper): internal arrow of a B task.
    fires.define(
        "BBBB",
        vec![
            FireRuleSpec::fire(&[1], "BB", &[1]),
            FireRuleSpec::fire(&[2], "BB", &[2]),
        ],
    );
    // CORNER (addition): the bottom-right corner cell of an A block is read by every
    // cell of the first row of the A block diagonally below-right of it.
    fires.define(
        "CORNER",
        vec![
            FireRuleSpec::fire(&[2, 1], "CORNER", &[1, 1]),
            FireRuleSpec::fire(&[2, 1], "CORNER_AB", &[1, 2]),
        ],
    );
    // CORNER_AB (addition): same, with a B-structured sink.
    fires.define(
        "CORNER_AB",
        vec![
            FireRuleSpec::fire(&[2, 1], "CORNER_AB", &[1, 1]),
            FireRuleSpec::fire(&[2, 1], "CORNER_AB", &[1, 2]),
        ],
    );
}

/// The 1-D Floyd–Warshall program over an `n × n` table.
pub struct Fw1dProgram {
    /// Base-case block dimension.
    pub base: usize,
    /// NP or ND.
    pub mode: Mode,
    fires: FireTable,
    ops: OpRecorder,
}

impl Fw1dProgram {
    /// Creates the program with the Floyd–Warshall fire types registered.
    pub fn new(base: usize, mode: Mode) -> Self {
        let mut fires = FireTable::new();
        register_fw1d_fire_types(&mut fires);
        fires.resolve();
        Fw1dProgram {
            base,
            mode,
            fires,
            ops: OpRecorder::new(),
        }
    }
}

impl FireProgram for Fw1dProgram {
    fn recorder(&self) -> &OpRecorder {
        &self.ops
    }
    fn mode(&self) -> Mode {
        self.mode
    }
}

impl NdProgram for Fw1dProgram {
    type Task = Fw1dTask;

    fn fire_table(&self) -> &FireTable {
        &self.fires
    }

    fn task_size(&self, t: &Fw1dTask) -> u64 {
        (t.rows() * t.cols()) as u64 + t.rows() as u64
    }

    fn expand(&self, t: &Fw1dTask) -> Expansion<Fw1dTask> {
        if t.rows() <= self.base {
            return self.ops.strand(
                (t.rows() * t.cols()) as u64,
                (t.rows() * t.cols()) as u64 + t.rows() as u64,
                BlockOp::Fw1dBlock {
                    table: 0,
                    t0: t.t0,
                    t1: t.t1,
                    i0: t.i0,
                    i1: t.i1,
                },
            );
        }
        let tm = t.t0 + t.rows() / 2;
        let im = t.i0 + t.cols() / 2;
        let block = |kind, t0, t1, i0, i1| {
            Composition::task(Fw1dTask {
                kind,
                t0,
                t1,
                i0,
                i1,
            })
        };
        match t.kind {
            FwKind::A => {
                let a00 = block(FwKind::A, t.t0, tm, t.i0, im);
                let b01 = block(FwKind::B, t.t0, tm, im, t.i1);
                let a11 = block(FwKind::A, tm, t.t1, im, t.i1);
                let b10 = block(FwKind::B, tm, t.t1, t.i0, im);
                match self.mode {
                    Mode::Np => Expansion::compose(Composition::seq2(
                        Composition::seq2(a00, b01),
                        Composition::seq2(a11, b10),
                    )),
                    Mode::Nd => Expansion::compose(Composition::fire(
                        Composition::fire(a00, self.fires.id("AB"), b01),
                        self.fires.id("ABAB"),
                        Composition::fire(a11, self.fires.id("AB"), b10),
                    )),
                }
            }
            FwKind::B => {
                let b00 = block(FwKind::B, t.t0, tm, t.i0, im);
                let b01 = block(FwKind::B, t.t0, tm, im, t.i1);
                let b10 = block(FwKind::B, tm, t.t1, t.i0, im);
                let b11 = block(FwKind::B, tm, t.t1, im, t.i1);
                match self.mode {
                    Mode::Np => Expansion::compose(Composition::seq2(
                        Composition::par2(b00, b01),
                        Composition::par2(b10, b11),
                    )),
                    Mode::Nd => Expansion::compose(Composition::fire(
                        Composition::par2(b00, b01),
                        self.fires.id("BBBB"),
                        Composition::par2(b10, b11),
                    )),
                }
            }
        }
    }

    fn task_label(&self, t: &Fw1dTask) -> Option<String> {
        Some(format!("{:?}({}x{})", t.kind, t.rows(), t.cols()))
    }
}

/// Builds the spawn tree, DAG and operation table for the 1-D Floyd–Warshall
/// problem of size `n` (table matrix id 0, sized `(n+1) × (n+1)`).
pub fn build_fw1d(n: usize, base: usize, mode: Mode) -> BuiltAlgorithm {
    check_power_of_two_ratio(n, base);
    let program = Fw1dProgram::new(base, mode);
    let root = Fw1dTask {
        kind: FwKind::A,
        t0: 1,
        t1: n + 1,
        i0: 1,
        i1: n + 1,
    };
    build_program(
        &program,
        root,
        format!("fw1d-{}-n{}-b{}", mode.name(), n, base),
    )
}

/// Runs the 1-D Floyd–Warshall in parallel from the given initial row
/// (`initial[1..=n]` are the `d(0, ·)` values) and returns the full table.
pub fn fw1d_parallel(exec: &dyn Executor, initial: &[f64], mode: Mode, base: usize) -> Matrix {
    assert!(
        !initial.is_empty(),
        "fw1d_parallel needs the initial row initial[0..=n] (got an empty slice)"
    );
    let n = initial.len() - 1;
    let built = build_fw1d(n, base, mode);
    let mut table = Matrix::zeros(n + 1, n + 1);
    for i in 1..=n {
        table[(0, i)] = initial[i];
    }
    let ctx = ExecContext::from_matrices(&mut [&mut table]);
    run_once(exec, &built, &ctx).expect("algorithm strand panicked");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::work_span::{fit_power_law, WorkSpan};
    use nd_linalg::fw::fw1d_naive;
    use nd_runtime::ThreadPool;

    /// One compiled 1-D Floyd–Warshall graph recomputes the table (re-seeded
    /// in place between runs) three times bit-identically, counters restored.
    #[test]
    fn compiled_fw1d_reuse_is_bit_identical() {
        let pool = ThreadPool::new(4);
        let n = 64;
        let initial: Vec<f64> = (0..=n).map(|i| ((i * 7) % 13) as f64).collect();
        let built = build_fw1d(n, 16, Mode::Nd);
        let mut table = Matrix::zeros(n + 1, n + 1);
        let ctx = ExecContext::from_matrices(&mut [&mut table]);
        let reference = crate::driver::execute_reuse_rounds(
            &pool,
            &built,
            &ctx,
            &mut table,
            3,
            |table, _| {
                table.as_mut_slice().fill(0.0);
                for i in 1..=n {
                    table[(0, i)] = initial[i];
                }
            },
            |table, _| table.clone(),
        );
        let expected = fw1d_parallel(&ThreadPool::new(1), &initial, Mode::Nd, 16);
        assert_eq!(reference.max_abs_diff(&expected), 0.0);
    }

    #[test]
    fn np_and_nd_share_leaves_and_work() {
        let np = build_fw1d(64, 8, Mode::Np);
        let nd = build_fw1d(64, 8, Mode::Nd);
        assert_eq!(np.dag.strand_count(), nd.dag.strand_count());
        assert_eq!(np.dag.work(), nd.dag.work());
        assert!(np.dag.is_acyclic());
        assert!(nd.dag.is_acyclic());
    }

    #[test]
    fn nd_span_is_smaller_and_near_linear() {
        let sizes = [32usize, 64, 128, 256];
        let spans = |mode: Mode| -> Vec<(f64, f64)> {
            sizes
                .iter()
                .map(|&n| {
                    let ws = WorkSpan::of_dag(&build_fw1d(n, 8, mode).dag);
                    (n as f64, ws.span as f64)
                })
                .collect()
        };
        let np = spans(Mode::Np);
        let nd = spans(Mode::Nd);
        for (a, b) in np.iter().zip(nd.iter()) {
            assert!(b.1 <= a.1);
        }
        let (e_np, _) = fit_power_law(&np);
        let (e_nd, _) = fit_power_law(&nd);
        assert!(e_nd < e_np, "nd exponent {e_nd} vs np {e_np}");
        assert!(e_nd < 1.25, "nd 1-D FW span should be ~linear, got {e_nd}");
        assert!(
            e_np > 1.2,
            "np 1-D FW span should carry a log factor, got {e_np}"
        );
    }

    #[test]
    fn parallel_fw1d_matches_sequential() {
        let pool = ThreadPool::new(4);
        let n = 128;
        let initial: Vec<f64> = (0..=n).map(|i| ((i * 7) % 13) as f64).collect();
        let reference = fw1d_naive(&initial);
        for mode in [Mode::Np, Mode::Nd] {
            let table = fw1d_parallel(&pool, &initial, mode, 16);
            assert!(
                table.max_abs_diff(&reference) < 1e-12,
                "{mode:?} parallel 1-D FW diverged"
            );
        }
    }

    #[test]
    fn parallel_fw1d_tiny_base_case() {
        // Deep rule recursion, including the corner rules.
        let pool = ThreadPool::new(4);
        let n = 64;
        let initial: Vec<f64> = (0..=n).map(|i| ((i * 3) % 7) as f64).collect();
        let reference = fw1d_naive(&initial);
        let table = fw1d_parallel(&pool, &initial, Mode::Nd, 2);
        assert!(table.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fw1d_parallel needs the initial row")]
    fn parallel_fw1d_rejects_an_empty_initial_row() {
        fw1d_parallel(&ThreadPool::new(1), &[], Mode::Nd, 16);
    }

    #[test]
    fn nd_exposes_more_ready_parallelism() {
        let np = build_fw1d(128, 8, Mode::Np);
        let nd = build_fw1d(128, 8, Mode::Nd);
        assert!(nd.dag.max_ready_width() >= np.dag.max_ready_width());
    }
}
