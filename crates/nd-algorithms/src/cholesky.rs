//! Cholesky factorization — Section 3 of the paper (Eq. 10 / Eq. 11).
//!
//! `CHO(A)` computes the lower-triangular `L` with `A = L·Lᵀ` for a symmetric
//! positive-definite `A`.  The 2-way recursion factors the top-left quadrant,
//! solves a triangular system for the bottom-left panel (`L₁₀ ← A₁₀·L₀₀⁻ᵀ`),
//! applies the symmetric trailing update `A₁₁ −= L₁₀·L₁₀ᵀ`, and recurses on the
//! trailing quadrant:
//!
//! ```text
//! CHO(A) = ( CHO(A₀₀)  CT⤳  TRSR(A₁₀, L₀₀) )  CTMC⤳  ( SYRK(A₁₁, L₁₀)  MC⤳  CHO(A₁₁) )
//! ```
//!
//! In the NP model (Eq. 10) the four steps are serialised and the span is
//! `Θ(n log² n)`; with the fire constructs below the span drops to the optimal
//! `Θ(n)`.
//!
//! ## Fire-rule tables
//!
//! The paper's Eq. (11) rule listing is partially garbled in the source text this
//! reproduction works from, so every table below is re-derived from the data
//! dependencies, following exactly the procedure the paper demonstrates for TRS
//! (expand both endpoints one level and match producers of each quadrant with its
//! consumers).  The task kinds are: `CHO` (factor a diagonal block), `TRSR`
//! (right-solve `X·Lᵀ = B`), `SYRK` (`C −= A·Aᵀ`), `GNT` (`C −= A·Bᵀ`), and the
//! derived arrow types
//!
//! * `CT`   — CHO produces `L`, TRSR consumes it as its triangular operand;
//! * `CTMC` — the top pair feeds the bottom pair (`{+○2○ TS⤳ -○1○}`);
//! * `TS`   — TRSR produces `L₁₀`, SYRK consumes it;
//! * `MC`   — SYRK finishes the trailing block, CHO factors it;
//! * `RTM` / `RTN` — TRSR output consumed by a `GNT` as its left / transposed
//!   operand;
//! * `MT_R` — a `GNT` finishes a block, a TRSR solves on it;
//! * `TTR`  — the internal arrow of a TRSR (mirror of the TRS `2TM2T⤳`);
//! * `SYG` / `SYP` — the group / pair arrows of SYRK (mirrors of `MMG` / `MMP`).

use crate::common::{check_power_of_two_ratio, BlockOp, BuiltAlgorithm, Mode, Rect};
use crate::driver::{run_once, Executor};
use crate::exec::ExecContext;
use crate::frontend::{build_program, FireProgram, OpRecorder};
use crate::mm::register_mm_fire_types;
use nd_core::fire::{FireRuleSpec, FireTable};
use nd_core::program::{Composition, Expansion, NdProgram};
use nd_linalg::Matrix;

/// A task of the Cholesky program.
#[derive(Clone, Debug)]
pub enum ChoTask {
    /// Factor a diagonal block in place.
    Cho {
        /// The block.
        a: Rect,
    },
    /// Solve `X·Lᵀ = B` in place in `B`.
    TrsR {
        /// Right-hand side (overwritten with the solution).
        b: Rect,
        /// Lower-triangular operand.
        l: Rect,
    },
    /// `C −= A·Aᵀ` (symmetric trailing update; the full block is updated, only the
    /// lower triangle is subsequently read).
    Syrk {
        /// Updated block.
        c: Rect,
        /// Operand.
        a: Rect,
    },
    /// `C −= A·Bᵀ`.
    Gnt {
        /// Updated block.
        c: Rect,
        /// Left operand.
        a: Rect,
        /// Transposed operand.
        b: Rect,
    },
}

/// Registers the Cholesky fire types (plus the shared `MMG`/`MMP`).
pub fn register_cholesky_fire_types(fires: &mut FireTable) {
    register_mm_fire_types(fires);
    // RTM: TRSR output consumed by a GNT as its *left* operand.
    fires.define(
        "RTM",
        vec![
            FireRuleSpec::fire(&[1, 1, 1], "RTM", &[1, 1, 1]),
            FireRuleSpec::fire(&[1, 1, 1], "RTM", &[1, 1, 2]),
            FireRuleSpec::fire(&[1, 2, 1], "RTM", &[1, 2, 1]),
            FireRuleSpec::fire(&[1, 2, 1], "RTM", &[1, 2, 2]),
            FireRuleSpec::fire(&[2, 1], "RTM", &[2, 1, 1]),
            FireRuleSpec::fire(&[2, 1], "RTM", &[2, 1, 2]),
            FireRuleSpec::fire(&[2, 2], "RTM", &[2, 2, 1]),
            FireRuleSpec::fire(&[2, 2], "RTM", &[2, 2, 2]),
        ],
    );
    // RTN: TRSR output consumed by a GNT as its *transposed* operand.
    fires.define(
        "RTN",
        vec![
            FireRuleSpec::fire(&[1, 1, 1], "RTN", &[1, 1, 1]),
            FireRuleSpec::fire(&[1, 1, 1], "RTN", &[1, 2, 1]),
            FireRuleSpec::fire(&[1, 2, 1], "RTN", &[1, 1, 2]),
            FireRuleSpec::fire(&[1, 2, 1], "RTN", &[1, 2, 2]),
            FireRuleSpec::fire(&[2, 1], "RTN", &[2, 1, 1]),
            FireRuleSpec::fire(&[2, 1], "RTN", &[2, 2, 1]),
            FireRuleSpec::fire(&[2, 2], "RTN", &[2, 1, 2]),
            FireRuleSpec::fire(&[2, 2], "RTN", &[2, 2, 2]),
        ],
    );
    // MT_R: a GNT finishes a block, a TRSR solves on it.
    fires.define(
        "MT_R",
        vec![
            FireRuleSpec::fire(&[2, 1, 1], "MT_R", &[1, 1, 1]),
            FireRuleSpec::fire(&[2, 2, 1], "MT_R", &[1, 2, 1]),
            FireRuleSpec::fire(&[2, 1, 2], "MMP", &[1, 1, 2]),
            FireRuleSpec::fire(&[2, 2, 2], "MMP", &[1, 2, 2]),
        ],
    );
    // TTR: internal arrow of a TRSR (top column-half feeds the bottom column-half).
    fires.define(
        "TTR",
        vec![
            FireRuleSpec::fire(&[1, 2], "MT_R", &[1]),
            FireRuleSpec::fire(&[2, 2], "MT_R", &[2]),
        ],
    );
    // CT: CHO produces L, TRSR consumes it as its triangular operand.
    fires.define(
        "CT",
        vec![
            FireRuleSpec::fire(&[1, 1], "CT", &[1, 1, 1]),
            FireRuleSpec::fire(&[1, 1], "CT", &[1, 2, 1]),
            FireRuleSpec::fire(&[1, 2], "RTN", &[1, 1, 2]),
            FireRuleSpec::fire(&[1, 2], "RTN", &[1, 2, 2]),
            FireRuleSpec::fire(&[2, 2], "CT", &[2, 1]),
            FireRuleSpec::fire(&[2, 2], "CT", &[2, 2]),
        ],
    );
    // CTMC: the (CHO, TRSR) pair feeds the (SYRK, CHO) pair.
    fires.define("CTMC", vec![FireRuleSpec::fire(&[2], "TS", &[1])]);
    // TS: TRSR produces L₁₀, SYRK consumes it (as both operands).
    fires.define(
        "TS",
        vec![
            FireRuleSpec::fire(&[1, 1, 1], "TS", &[1, 1]),
            FireRuleSpec::fire(&[1, 1, 1], "RTN", &[1, 2]),
            FireRuleSpec::fire(&[1, 2, 1], "RTM", &[1, 2]),
            FireRuleSpec::fire(&[1, 2, 1], "TS", &[1, 3]),
            FireRuleSpec::fire(&[2, 1], "TS", &[2, 1]),
            FireRuleSpec::fire(&[2, 1], "RTN", &[2, 2]),
            FireRuleSpec::fire(&[2, 2], "RTM", &[2, 2]),
            FireRuleSpec::fire(&[2, 2], "TS", &[2, 3]),
        ],
    );
    // MC: SYRK finishes the trailing block, CHO factors it.
    fires.define(
        "MC",
        vec![
            FireRuleSpec::fire(&[2, 1], "MC", &[1, 1]),
            FireRuleSpec::fire(&[2, 2], "MT_R", &[1, 2]),
            FireRuleSpec::fire(&[2, 3], "SYP", &[2, 1]),
        ],
    );
    // SYG: the two contribution groups inside a SYRK.
    fires.define(
        "SYG",
        vec![
            FireRuleSpec::fire(&[1], "SYP", &[1]),
            FireRuleSpec::fire(&[2], "MMP", &[2]),
            FireRuleSpec::fire(&[3], "SYP", &[3]),
        ],
    );
    // SYP: two SYRKs accumulating into the same block.
    fires.define(
        "SYP",
        vec![
            FireRuleSpec::fire(&[2, 1], "SYP", &[1, 1]),
            FireRuleSpec::fire(&[2, 2], "MMP", &[1, 2]),
            FireRuleSpec::fire(&[2, 3], "SYP", &[1, 3]),
        ],
    );
}

fn cho_size(a: &Rect) -> u64 {
    a.area()
}
fn trsr_size(b: &Rect, l: &Rect) -> u64 {
    b.area() + (l.rows * (l.rows + 1) / 2) as u64
}
fn syrk_size(c: &Rect, a: &Rect) -> u64 {
    (c.rows * (c.rows + 1) / 2) as u64 + a.area()
}
fn gnt_size(c: &Rect, a: &Rect, b: &Rect) -> u64 {
    c.area() + a.area() + b.area()
}

/// The Cholesky program.
pub struct CholeskyProgram {
    /// Base-case block dimension.
    pub base: usize,
    /// NP or ND.
    pub mode: Mode,
    fires: FireTable,
    ops: OpRecorder,
}

impl CholeskyProgram {
    /// Creates the program with the Cholesky fire types registered.
    pub fn new(base: usize, mode: Mode) -> Self {
        let mut fires = FireTable::new();
        register_cholesky_fire_types(&mut fires);
        fires.resolve();
        CholeskyProgram {
            base,
            mode,
            fires,
            ops: OpRecorder::new(),
        }
    }

    fn strand(&self, op: BlockOp, work: u64, size: u64) -> Expansion<ChoTask> {
        self.ops.strand(work, size, op)
    }

    fn expand_cho(&self, a: &Rect) -> Expansion<ChoTask> {
        let d = a.rows;
        if d <= self.base {
            return self.strand(
                BlockOp::Potrf { a: *a },
                (d * d * d / 3).max(1) as u64,
                cho_size(a),
            );
        }
        let a00 = a.quadrant(0, 0);
        let a10 = a.quadrant(1, 0);
        let a11 = a.quadrant(1, 1);
        let cho00 = Composition::task(ChoTask::Cho { a: a00 });
        let trs10 = Composition::task(ChoTask::TrsR { b: a10, l: a00 });
        let syrk11 = Composition::task(ChoTask::Syrk { c: a11, a: a10 });
        let cho11 = Composition::task(ChoTask::Cho { a: a11 });
        match self.mode {
            Mode::Np => Expansion::compose(Composition::seq2(
                Composition::seq2(cho00, trs10),
                Composition::seq2(syrk11, cho11),
            )),
            Mode::Nd => Expansion::compose(Composition::fire(
                Composition::fire(cho00, self.fires.id("CT"), trs10),
                self.fires.id("CTMC"),
                Composition::fire(syrk11, self.fires.id("MC"), cho11),
            )),
        }
    }

    fn expand_trsr(&self, b: &Rect, l: &Rect) -> Expansion<ChoTask> {
        let d = l.rows;
        if d <= self.base {
            return self.strand(
                BlockOp::TrsmRightLt { l: *l, b: *b },
                (d * d * b.rows) as u64,
                trsr_size(b, l),
            );
        }
        let l00 = l.quadrant(0, 0);
        let l10 = l.quadrant(1, 0);
        let l11 = l.quadrant(1, 1);
        let b00 = b.quadrant(0, 0);
        let b01 = b.quadrant(0, 1);
        let b10 = b.quadrant(1, 0);
        let b11 = b.quadrant(1, 1);
        let trsr = |b: Rect, l: Rect| Composition::task(ChoTask::TrsR { b, l });
        let gnt = |c: Rect, a: Rect, b: Rect| Composition::task(ChoTask::Gnt { c, a, b });
        let pair0 = (trsr(b00, l00), gnt(b01, b00, l10));
        let pair1 = (trsr(b10, l00), gnt(b11, b10, l10));
        let bottom = Composition::par2(trsr(b01, l11), trsr(b11, l11));
        match self.mode {
            Mode::Np => Expansion::compose(Composition::seq2(
                Composition::par2(
                    Composition::seq2(pair0.0, pair0.1),
                    Composition::seq2(pair1.0, pair1.1),
                ),
                bottom,
            )),
            Mode::Nd => Expansion::compose(Composition::fire(
                Composition::par2(
                    Composition::fire(pair0.0, self.fires.id("RTM"), pair0.1),
                    Composition::fire(pair1.0, self.fires.id("RTM"), pair1.1),
                ),
                self.fires.id("TTR"),
                bottom,
            )),
        }
    }

    fn expand_syrk(&self, c: &Rect, a: &Rect) -> Expansion<ChoTask> {
        let d = c.rows;
        if d <= self.base {
            return self.strand(
                BlockOp::GemmNt {
                    c: *c,
                    a: *a,
                    b: *a,
                    alpha: -1.0,
                },
                (d * d * a.cols) as u64,
                syrk_size(c, a),
            );
        }
        let group = |k: usize| {
            Composition::Par(vec![
                Composition::task(ChoTask::Syrk {
                    c: c.quadrant(0, 0),
                    a: a.quadrant(0, k),
                }),
                Composition::task(ChoTask::Gnt {
                    c: c.quadrant(1, 0),
                    a: a.quadrant(1, k),
                    b: a.quadrant(0, k),
                }),
                Composition::task(ChoTask::Syrk {
                    c: c.quadrant(1, 1),
                    a: a.quadrant(1, k),
                }),
            ])
        };
        match self.mode {
            Mode::Np => Expansion::compose(Composition::seq2(group(0), group(1))),
            Mode::Nd => {
                Expansion::compose(Composition::fire(group(0), self.fires.id("SYG"), group(1)))
            }
        }
    }

    fn expand_gnt(&self, c: &Rect, a: &Rect, b: &Rect) -> Expansion<ChoTask> {
        let d = c.rows;
        if d <= self.base {
            return self.strand(
                BlockOp::GemmNt {
                    c: *c,
                    a: *a,
                    b: *b,
                    alpha: -1.0,
                },
                2 * (c.rows * c.cols * a.cols) as u64,
                gnt_size(c, a, b),
            );
        }
        let sub = |ci: usize, cj: usize, k: usize| {
            Composition::task(ChoTask::Gnt {
                c: c.quadrant(ci, cj),
                a: a.quadrant(ci, k),
                b: b.quadrant(cj, k),
            })
        };
        let group = |k: usize| {
            Composition::par2(
                Composition::par2(sub(0, 0, k), sub(0, 1, k)),
                Composition::par2(sub(1, 0, k), sub(1, 1, k)),
            )
        };
        match self.mode {
            Mode::Np => Expansion::compose(Composition::seq2(group(0), group(1))),
            Mode::Nd => {
                Expansion::compose(Composition::fire(group(0), self.fires.id("MMG"), group(1)))
            }
        }
    }
}

impl FireProgram for CholeskyProgram {
    fn recorder(&self) -> &OpRecorder {
        &self.ops
    }
    fn mode(&self) -> Mode {
        self.mode
    }
    fn max_construct_arity(&self) -> u8 {
        3 // the SYRK groups are ternary (SYRK ‖ GNT ‖ SYRK)
    }
}

impl NdProgram for CholeskyProgram {
    type Task = ChoTask;

    fn fire_table(&self) -> &FireTable {
        &self.fires
    }

    fn task_size(&self, t: &ChoTask) -> u64 {
        match t {
            ChoTask::Cho { a } => cho_size(a),
            ChoTask::TrsR { b, l } => trsr_size(b, l),
            ChoTask::Syrk { c, a } => syrk_size(c, a),
            ChoTask::Gnt { c, a, b } => gnt_size(c, a, b),
        }
    }

    fn expand(&self, t: &ChoTask) -> Expansion<ChoTask> {
        match t {
            ChoTask::Cho { a } => self.expand_cho(a),
            ChoTask::TrsR { b, l } => self.expand_trsr(b, l),
            ChoTask::Syrk { c, a } => self.expand_syrk(c, a),
            ChoTask::Gnt { c, a, b } => self.expand_gnt(c, a, b),
        }
    }

    fn task_label(&self, t: &ChoTask) -> Option<String> {
        Some(match t {
            ChoTask::Cho { a } => format!("CHO({})", a.rows),
            ChoTask::TrsR { l, .. } => format!("TRSR({})", l.rows),
            ChoTask::Syrk { c, .. } => format!("SYRK({})", c.rows),
            ChoTask::Gnt { c, .. } => format!("GNT({})", c.rows),
        })
    }
}

/// Builds the spawn tree, DAG and operation table for a Cholesky factorization of
/// an `n × n` matrix (matrix id 0).
pub fn build_cholesky(n: usize, base: usize, mode: Mode) -> BuiltAlgorithm {
    check_power_of_two_ratio(n, base);
    let program = CholeskyProgram::new(base, mode);
    let root = ChoTask::Cho {
        a: Rect::new(0, 0, 0, n, n),
    };
    build_program(
        &program,
        root,
        format!("cholesky-{}-n{}-b{}", mode.name(), n, base),
    )
}

/// Factors `a` in place in parallel: on return the lower triangle holds `L` (the
/// strict upper triangle is zeroed for convenience).
pub fn cholesky_parallel(exec: &dyn Executor, a: &mut Matrix, mode: Mode, base: usize) {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    let built = build_cholesky(n, base, mode);
    let ctx = ExecContext::from_matrices(&mut [a]);
    run_once(exec, &built, &ctx).expect("algorithm strand panicked");
    a.zero_upper_triangle();
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::work_span::{fit_power_law, WorkSpan};
    use nd_linalg::potrf::{cholesky_residual, potrf_naive};
    use nd_runtime::ThreadPool;

    /// One compiled Cholesky graph re-factors the same SPD matrix (restored in
    /// place between runs) three times bit-identically, counters restored.
    #[test]
    fn compiled_cholesky_reuse_is_bit_identical() {
        let pool = nd_runtime::ThreadPool::new(4);
        let n = 32;
        let built = build_cholesky(n, 8, Mode::Nd);
        let spd = Matrix::random_spd(n, 31);
        let mut a = spd.clone();
        let ctx = ExecContext::from_matrices(&mut [&mut a]);
        let reference = crate::driver::execute_reuse_rounds(
            &pool,
            &built,
            &ctx,
            &mut a,
            3,
            |a, _| a.as_mut_slice().copy_from_slice(spd.as_slice()),
            |a, _| {
                let mut l = a.clone();
                l.zero_upper_triangle();
                l
            },
        );
        assert!(cholesky_residual(&reference, &spd) < 1e-9);
    }

    #[test]
    fn np_and_nd_share_leaves_and_work() {
        let np = build_cholesky(64, 8, Mode::Np);
        let nd = build_cholesky(64, 8, Mode::Nd);
        assert_eq!(np.dag.strand_count(), nd.dag.strand_count());
        assert_eq!(np.dag.work(), nd.dag.work());
        assert!(np.dag.is_acyclic());
        assert!(nd.dag.is_acyclic());
    }

    #[test]
    fn nd_span_is_much_smaller_than_np() {
        let sizes = [32usize, 64, 128, 256];
        let spans = |mode: Mode| -> Vec<(f64, f64)> {
            sizes
                .iter()
                .map(|&n| {
                    let ws = WorkSpan::of_dag(&build_cholesky(n, 8, mode).dag);
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
        // NP carries a log² factor, ND is close to linear.
        assert!(e_nd < e_np - 0.1, "nd {e_nd} vs np {e_np}");
        assert!(
            e_nd < 1.35,
            "nd Cholesky span should be near-linear, got {e_nd}"
        );
    }

    #[test]
    fn parallel_cholesky_matches_sequential() {
        let pool = ThreadPool::new(4);
        for mode in [Mode::Np, Mode::Nd] {
            let n = 64;
            let a = Matrix::random_spd(n, 17);
            let mut l_ref = a.clone();
            potrf_naive(&mut l_ref);
            let mut l_par = a.clone();
            cholesky_parallel(&pool, &mut l_par, mode, 16);
            assert!(
                l_par.max_abs_diff(&l_ref) < 1e-8,
                "{mode:?} Cholesky diverged: {}",
                l_par.max_abs_diff(&l_ref)
            );
            assert!(cholesky_residual(&l_par, &a) < 1e-10);
        }
    }

    #[test]
    fn parallel_cholesky_small_base_case() {
        // Deep rule recursion across all eleven Cholesky fire types.
        let pool = ThreadPool::new(4);
        let n = 64;
        let a = Matrix::random_spd(n, 23);
        let mut l_ref = a.clone();
        potrf_naive(&mut l_ref);
        let mut l_par = a.clone();
        cholesky_parallel(&pool, &mut l_par, Mode::Nd, 4);
        assert!(l_par.max_abs_diff(&l_ref) < 1e-8);
    }

    #[test]
    fn nd_exposes_more_ready_parallelism() {
        let np = build_cholesky(128, 16, Mode::Np);
        let nd = build_cholesky(128, 16, Mode::Nd);
        assert!(nd.dag.max_ready_width() >= np.dag.max_ready_width());
    }
}
