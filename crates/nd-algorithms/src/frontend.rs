//! The executable fire-rule frontend: one entry point from an ND program
//! (spawn recipe + fire-rule table) to a runnable [`BuiltAlgorithm`].
//!
//! The paper's programming model is a *recipe*: tasks expand into `;`, `‖` and
//! `⤳` compositions, base cases are strands, and the DAG Rewriting System
//! turns the fire arrows into the algorithm DAG.  This module makes that
//! recipe directly executable — a [`FireProgram`] records a concrete
//! [`BlockOp`] per strand through its [`OpRecorder`], and [`build_program`]
//! performs the whole pipeline:
//!
//! 1. unfold the recipe into a kernel-bearing spawn tree
//!    ([`SpawnTree::unfold`]), which carries the size annotations `s(t)` the
//!    `σ·M_i` anchoring of `nd-exec` consumes,
//! 2. [validate](nd_core::fire::FireTable::validate) the fire-rule table
//!    against the tree's construct arity (malformed rule sets are rejected
//!    with a typed error instead of silently producing a wrong DAG),
//! 3. run the DRS ([`DagRewriter`]) to obtain the algorithm DAG, and
//! 4. package tree + DAG + operation table as a [`BuiltAlgorithm`], ready for
//!    [`driver::compile`](crate::driver::compile) /
//!    [`execute_reuse_rounds`](crate::driver::execute_reuse_rounds) on the
//!    flat pool, and for [`run_once`](crate::driver::run_once) on any
//!    executor — the flat pool, or `nd-exec`'s hierarchical one under
//!    `σ·M_i` anchoring.
//!
//! Every recursive algorithm in this crate (MM/MMS, TRS, Cholesky, LCS, 1-D
//! Floyd–Warshall) goes through this frontend; the access-set tracker of
//! [`crate::access`] remains available as an independent *cross-check oracle*
//! (see [`crate::access::access_oracle_dag`] and `tests/drs_frontend.rs`), not
//! as the DAG authority.
//!
//! # A complete fire-rule program, compiled and executed
//!
//! Two multiplies write the same block, ordered by the fire rule
//! `+○ STEP⤳ -○` (an empty relative pedigree on both sides: a full dependency
//! between the construct's two operands):
//!
//! ```
//! use nd_algorithms::common::{BlockOp, Mode, Rect};
//! use nd_algorithms::driver;
//! use nd_algorithms::exec::ExecContext;
//! use nd_algorithms::frontend::{build_program, FireProgram, OpRecorder};
//! use nd_core::fire::{FireRuleSpec, FireTable};
//! use nd_core::program::{Composition, Expansion, NdProgram};
//! use nd_linalg::Matrix;
//! use nd_runtime::ThreadPool;
//!
//! #[derive(Clone)]
//! enum Task { Root, Mul }
//!
//! struct Twice { fires: FireTable, ops: OpRecorder }
//!
//! impl NdProgram for Twice {
//!     type Task = Task;
//!     fn fire_table(&self) -> &FireTable { &self.fires }
//!     fn task_size(&self, _t: &Task) -> u64 { 3 * 16 }
//!     fn expand(&self, t: &Task) -> Expansion<Task> {
//!         match t {
//!             Task::Root => Expansion::compose(Composition::fire(
//!                 Composition::task(Task::Mul),
//!                 self.fires.id("STEP"),
//!                 Composition::task(Task::Mul),
//!             )),
//!             Task::Mul => self.ops.strand(
//!                 2 * 4 * 4 * 4,
//!                 3 * 16,
//!                 BlockOp::Gemm {
//!                     c: Rect::new(0, 0, 0, 4, 4),
//!                     a: Rect::new(1, 0, 0, 4, 4),
//!                     b: Rect::new(2, 0, 0, 4, 4),
//!                     alpha: 1.0,
//!                 },
//!             ),
//!         }
//!     }
//! }
//!
//! impl FireProgram for Twice {
//!     fn recorder(&self) -> &OpRecorder { &self.ops }
//!     fn mode(&self) -> Mode { Mode::Nd }
//! }
//!
//! let mut fires = FireTable::new();
//! fires.define("STEP", vec![FireRuleSpec::full(&[], &[])]);
//! fires.resolve();
//! let program = Twice { fires, ops: OpRecorder::new() };
//! let built = build_program(&program, Task::Root, "twice-4");
//! assert_eq!(built.dag.strand_count(), 2);
//! assert_eq!(built.dag.edge_count(), 1); // the STEP rule orders the two writers
//!
//! // Bind data and run it compiled — twice, reusing the same graph.
//! let a = Matrix::random(4, 4, 1);
//! let b = Matrix::random(4, 4, 2);
//! let mut c = Matrix::zeros(4, 4);
//! let (mut am, mut bm) = (a.clone(), b.clone());
//! let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
//! let pool = ThreadPool::new(2);
//! let compiled = driver::compile(&built, &ctx);
//! compiled.execute(&pool);
//! compiled.execute(&pool); // compiled graphs re-execute without rebuilding
//!
//! // Four accumulations of A·B in total: two strands × two executions.
//! let mut expected = Matrix::zeros(4, 4);
//! nd_linalg::gemm::gemm_naive(&mut expected, &a, &b, 4.0, 0.0);
//! assert!(c.max_abs_diff(&expected) < 1e-12);
//! ```

use crate::common::{BlockOp, BuiltAlgorithm, Mode};
use nd_core::drs::DagRewriter;
use nd_core::program::{Expansion, NdProgram};
use nd_core::spawn_tree::SpawnTree;
use std::cell::RefCell;

/// Records the concrete [`BlockOp`] of every strand a program expands, in
/// unfold order, handing each strand the operation-table index its DAG vertex
/// will dispatch through.
///
/// Programs embed one recorder and call [`OpRecorder::strand`] in their base
/// cases; [`build_program`] drains it into the [`BuiltAlgorithm`].
#[derive(Debug, Default)]
pub struct OpRecorder {
    ops: RefCell<Vec<BlockOp>>,
}

impl OpRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `op` and returns the base-case strand expansion carrying its
    /// operation-table index, with the given work and size annotations.
    pub fn strand<T>(&self, work: u64, size: u64, op: BlockOp) -> Expansion<T> {
        let mut ops = self.ops.borrow_mut();
        let idx = ops.len() as u64;
        ops.push(op);
        Expansion::strand_op(work, size, idx)
    }

    /// Number of operations recorded so far.
    pub fn len(&self) -> usize {
        self.ops.borrow().len()
    }

    /// `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ops.borrow().is_empty()
    }

    /// Drains the recorded operations (one per strand, in creation order).
    pub fn take(&self) -> Vec<BlockOp> {
        self.ops.take()
    }
}

/// An [`NdProgram`] whose strands record executable block operations — the
/// input type of the fire-rule frontend.
pub trait FireProgram: NdProgram {
    /// The recorder the program's base cases write their [`BlockOp`]s to.
    fn recorder(&self) -> &OpRecorder;

    /// Which model the program's compositions are expressed in.
    fn mode(&self) -> Mode;

    /// The widest construct the program *family* can spawn (not the widest a
    /// particular instance happens to spawn — a shallow instance may bottom
    /// out before reaching its widest composition, and its rule table must
    /// still validate).  Defaults to binary; programs with wider compositions
    /// (e.g. Cholesky's ternary SYRK group) override this.
    fn max_construct_arity(&self) -> u8 {
        2
    }
}

/// Unfolds, validates and rewrites a fire-rule program into a runnable
/// [`BuiltAlgorithm`] — the frontend's single entry point.
///
/// The fire-rule table is validated against the construct arity of the
/// program family ([`FireProgram::max_construct_arity`], or wider if the
/// instance spawned wider), so a malformed table fails here with the
/// offending construct named, not later as a wrong DAG.
///
/// # Panics
/// Panics with the typed [`FireTableError`](nd_core::fire::FireTableError)
/// rendered if the program's fire-rule table is malformed, and if the DRS
/// output is cyclic (which a validated table should never produce).
pub fn build_program<P: FireProgram>(
    program: &P,
    root: P::Task,
    label: impl Into<String>,
) -> BuiltAlgorithm {
    let label = label.into();
    let tree = SpawnTree::unfold(program, root);
    // Pedigree indices are checked against the wider of the program family's
    // declared construct arity and what this instance actually spawned.
    let arity = tree
        .max_construct_arity()
        .max(program.max_construct_arity())
        .max(2);
    if let Err(e) = program.fire_table().validate(arity) {
        panic!("fire-rule frontend rejected `{label}`: {e}");
    }
    let dag = DagRewriter::new(&tree, program.fire_table()).build();
    assert!(
        dag.is_acyclic(),
        "fire-rule frontend produced a cyclic DAG for `{label}`"
    );
    BuiltAlgorithm {
        tree,
        dag,
        fires: program.fire_table().clone(),
        ops: program.recorder().take(),
        mode: program.mode(),
        label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Rect;
    use nd_core::fire::{FireRuleSpec, FireTable};
    use nd_core::program::Composition;

    #[derive(Clone)]
    struct Chain(u32);

    /// A serial chain of `Nop` strands glued by a fire type whose rule table
    /// the test can deliberately corrupt.
    struct ChainProgram {
        fires: FireTable,
        ops: OpRecorder,
    }

    impl ChainProgram {
        fn with_rules(rules: Vec<FireRuleSpec>) -> Self {
            let mut fires = FireTable::new();
            fires.define("LINK", rules);
            fires.resolve();
            ChainProgram {
                fires,
                ops: OpRecorder::new(),
            }
        }
    }

    impl NdProgram for ChainProgram {
        type Task = Chain;
        fn fire_table(&self) -> &FireTable {
            &self.fires
        }
        fn task_size(&self, t: &Chain) -> u64 {
            1 + t.0 as u64
        }
        fn expand(&self, t: &Chain) -> Expansion<Chain> {
            if t.0 == 0 {
                return self.ops.strand(1, 1, BlockOp::Nop);
            }
            Expansion::compose(Composition::fire(
                Composition::task(Chain(t.0 - 1)),
                self.fires.id("LINK"),
                Composition::task(Chain(t.0 - 1)),
            ))
        }
    }

    impl FireProgram for ChainProgram {
        fn recorder(&self) -> &OpRecorder {
            &self.ops
        }
        fn mode(&self) -> Mode {
            Mode::Nd
        }
    }

    #[test]
    fn frontend_builds_a_complete_algorithm() {
        let p = ChainProgram::with_rules(vec![
            FireRuleSpec::fire(&[1], "LINK", &[1]),
            FireRuleSpec::fire(&[2], "LINK", &[2]),
        ]);
        let built = build_program(&p, Chain(3), "chain-3");
        assert_eq!(built.label, "chain-3");
        assert_eq!(built.mode, Mode::Nd);
        assert_eq!(built.dag.strand_count(), 8);
        assert_eq!(built.ops.len(), 8);
        assert!(built.dag.is_acyclic());
        // Every strand carries a valid op tag, and sizes reach the DAG.
        assert_eq!(built.tree.strand_count(), 8);
        assert!(built.tree.max_construct_arity() >= 2);
    }

    #[test]
    #[should_panic(expected = "child index 7")]
    fn frontend_rejects_out_of_arity_rules() {
        let p = ChainProgram::with_rules(vec![FireRuleSpec::fire(&[7], "LINK", &[1])]);
        let _ = build_program(&p, Chain(2), "bad-arity");
    }

    #[test]
    #[should_panic(expected = "repeats rule")]
    fn frontend_rejects_duplicate_rules() {
        let p = ChainProgram::with_rules(vec![
            FireRuleSpec::full(&[1], &[1]),
            FireRuleSpec::full(&[1], &[1]),
        ]);
        let _ = build_program(&p, Chain(2), "dup-rule");
    }

    #[test]
    fn recorder_hands_out_sequential_tags() {
        let rec = OpRecorder::new();
        assert!(rec.is_empty());
        for k in 0..4u64 {
            let e: Expansion<Chain> = rec.strand(
                1,
                1,
                BlockOp::Gemm {
                    c: Rect::new(0, 0, 0, 1, 1),
                    a: Rect::new(1, 0, 0, 1, 1),
                    b: Rect::new(2, 0, 0, 1, 1),
                    alpha: k as f64,
                },
            );
            match e.kind {
                nd_core::program::ExpansionKind::Strand { op, .. } => assert_eq!(op, Some(k)),
                _ => panic!("recorder must produce strands"),
            }
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.take().len(), 4);
        assert!(rec.is_empty());
    }
}
