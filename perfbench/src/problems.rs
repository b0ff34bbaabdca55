//! One problem instance end to end: seeded row-major inputs, the built and
//! compiled graph bound to them, a solve (bind/pack → execute → unpack back
//! to row-major), and the output oracle.
//!
//! Every layer call a solve makes is a public function of the crate that
//! owns it (`build_*`, `driver::bind_layout`, `compute_anchoring`,
//! `driver::compile[_placed]`, `TileMatrix::pack_from`,
//! `CompiledAlgorithm::execute`, `TileMatrix::unpack_into`); the benchmark
//! times and spans those calls from outside.

use crate::spans::Spans;
use crate::stats::{digest_extend, Rng};
use nd_algorithms::common::{BlockOp, BuiltAlgorithm, Mode};
use nd_algorithms::driver::{self, ContextExtras};
use nd_algorithms::exec::{CompiledAlgorithm, ExecContext, Layout};
use nd_algorithms::{cholesky, fw2d, lu, mm};
use nd_exec::{compute_anchoring, AnchorConfig, HierarchicalPool, StealPolicy};
use nd_linalg::tile::TileMatrix;
use nd_linalg::Matrix;
use nd_runtime::dataflow::ExecStats;
use nd_runtime::{RunError, ThreadPool};
use std::time::Instant;

/// Which algorithm a problem runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `C = A·B` (recursive MM).
    Mm,
    /// LU with partial pivoting, in place.
    Lu,
    /// Cholesky, in place (lower triangle).
    Cholesky,
    /// 2-D Floyd–Warshall APSP, in place.
    Fw2d,
}

impl Kind {
    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Mm => "mm",
            Kind::Lu => "lu",
            Kind::Cholesky => "cholesky",
            Kind::Fw2d => "fw2d",
        }
    }
}

/// Shape of one problem.
#[derive(Clone, Copy, Debug)]
pub struct ProblemSpec {
    /// Algorithm.
    pub kind: Kind,
    /// Problem size.
    pub n: usize,
    /// Base-case (tile) size.
    pub b: usize,
    /// Storage layout the graph binds.
    pub layout: Layout,
}

impl ProblemSpec {
    /// A spec.
    pub const fn new(kind: Kind, n: usize, b: usize, layout: Layout) -> Self {
        ProblemSpec { kind, n, b, layout }
    }
}

/// Row-major inputs of one problem, in the context's matrix order
/// (MM: `[C, A, B]`; LU, Cholesky, FW: `[A]`).
#[derive(Clone)]
pub struct Inputs {
    /// The bound matrices.
    pub mats: Vec<Matrix>,
}

impl Inputs {
    /// The benchmark's inputs for `spec`, derived from `seed` alone.  MM
    /// operands use the same formula as `nd-serve`'s workspace regeneration.
    pub fn generate(spec: &ProblemSpec, seed: u64) -> Inputs {
        let n = spec.n;
        let mats = match spec.kind {
            Kind::Mm => vec![
                Matrix::zeros(n, n),
                Matrix::random(n, n, seed),
                Matrix::random(n, n, seed ^ 0x5DEE_CE66),
            ],
            Kind::Lu => vec![Matrix::random(n, n, seed)],
            // Symmetric and strictly diagonally dominant with a positive
            // diagonal, hence SPD — O(n²) to generate, unlike `A·Aᵀ + n·I`.
            Kind::Cholesky => {
                let r = Matrix::random(n, n, seed);
                vec![Matrix::from_fn(n, n, |i, j| {
                    if i == j {
                        n as f64
                    } else {
                        0.5 * (r[(i, j)] + r[(j, i)])
                    }
                })]
            }
            Kind::Fw2d => vec![nd_linalg::fw::random_digraph(n, 4, seed)],
        };
        Inputs { mats }
    }

    /// Digest of every input value.
    pub fn digest(&self) -> u64 {
        self.mats.iter().fold(0xCBF2_9CE4_8422_2325, |h, m| {
            digest_extend(h, m.as_slice().iter().map(|v| v.to_bits()))
        })
    }
}

/// Exact operation and operand-byte counts of a built algorithm, summed over
/// its strands' block operations.  Bytes are *computed* from operand sizes
/// (every element a strand reads or writes, 8 bytes each, once per strand);
/// cache behaviour is not modelled.  Operations are flops for the GEMM-class
/// kernels, min-plus add+compare pairs for Floyd–Warshall and cell updates
/// for LCS.
pub fn op_counts(ops: &[BlockOp]) -> (f64, f64) {
    let (mut flops, mut bytes) = (0.0f64, 0.0f64);
    for op in ops {
        let (f, b) = match op {
            BlockOp::Gemm { c, a, b, .. } | BlockOp::GemmNt { c, a, b, .. } => (
                2.0 * (c.rows * c.cols * a.cols) as f64,
                (2 * c.area() + a.area() + b.area()) as f64,
            ),
            BlockOp::TrsmLower { t, b } => (
                (t.rows * t.rows * b.cols) as f64,
                (t.area() + 2 * b.area()) as f64,
            ),
            BlockOp::TrsmRightLt { l, b } => (
                (b.rows * l.rows * l.rows) as f64,
                (l.area() + 2 * b.area()) as f64,
            ),
            BlockOp::TrsmUnitLower { l, b } => (
                (l.rows * (l.rows - 1) * b.cols) as f64,
                (l.area() + 2 * b.area()) as f64,
            ),
            BlockOp::Potrf { a } => ((a.rows as f64).powi(3) / 3.0, (2 * a.area()) as f64),
            BlockOp::LuPanel { a, .. } => {
                let (m, k) = (a.rows as f64, a.cols as f64);
                (m * k * k - k * k * k / 3.0, (2 * a.area()) as f64)
            }
            BlockOp::LuRowSwap { a, len, .. } => (0.0, (4 * len * a.cols) as f64),
            BlockOp::LcsBlock { i0, i1, j0, j1, .. } => {
                let (r, c) = (i1 - i0, j1 - j0);
                ((r * c) as f64, (r * c + r + c + 1) as f64)
            }
            BlockOp::Fw1dBlock { t0, t1, i0, i1, .. } => {
                let cells = ((t1 - t0) * (i1 - i0)) as f64;
                (cells, 2.0 * cells)
            }
            BlockOp::FwUpdate { x, u, v } => (
                2.0 * (x.rows * x.cols * u.cols) as f64,
                (2 * x.area() + u.area() + v.area()) as f64,
            ),
            BlockOp::Nop => (0.0, 0.0),
        };
        flops += f;
        bytes += 8.0 * b;
    }
    (flops, bytes)
}

/// The executor a workload runs on.
pub enum Executor {
    /// `nd-runtime`'s flat work-stealing pool.
    Flat(ThreadPool),
    /// `nd-exec`'s hierarchy-aware pool mirroring the detected host.
    Anchored(HierarchicalPool),
}

impl Executor {
    /// A flat pool with `workers` workers.
    pub fn flat(workers: usize) -> Self {
        Executor::Flat(ThreadPool::new(workers))
    }

    /// The anchored pool on the host topology (nearest-cluster-first steals).
    pub fn anchored() -> Self {
        Executor::Anchored(HierarchicalPool::from_host(StealPolicy::NearestFirst))
    }

    /// The thread pool graphs execute on.
    pub fn pool(&self) -> &ThreadPool {
        match self {
            Executor::Flat(p) => p,
            Executor::Anchored(h) => h.pool(),
        }
    }

    /// The hierarchical pool, for anchored workloads.
    pub fn hier(&self) -> Option<&HierarchicalPool> {
        match self {
            Executor::Flat(_) => None,
            Executor::Anchored(h) => Some(h),
        }
    }
}

/// Set-up time of one problem, by layer call (nanoseconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `build_*` (spawn tree, DRS, DAG).
    pub build_ns: u64,
    /// `driver::bind_layout` (allocation and first pack).
    pub bind_ns: u64,
    /// `compute_anchoring` (anchored workloads only).
    pub anchoring_ns: u64,
    /// `driver::compile[_placed]`.
    pub compile_ns: u64,
}

impl SetupTimes {
    /// Everything set-up time counts.
    pub fn total_ns(&self) -> u64 {
        self.build_ns + self.bind_ns + self.anchoring_ns + self.compile_ns
    }
}

/// Anchoring statistics of a placed graph.
#[derive(Clone, Debug, Default)]
pub struct AnchorStats {
    /// Tasks anchored per cache level (level 1 first).
    pub anchors_per_level: Vec<u64>,
    /// Anchorings past a full cache's `σ·M_i` budget.
    pub overflow_events: u64,
}

/// Wall time of one solve of one problem, by phase (nanoseconds).
#[derive(Clone, Debug)]
pub struct SolveTimes {
    /// `TileMatrix::pack_from` of every bound matrix (0 for row-major).
    pub bind_ns: u64,
    /// `CompiledAlgorithm::execute`.
    pub exec_ns: u64,
    /// `TileMatrix::unpack_into` of the output (0 for row-major).
    pub unpack_ns: u64,
    /// The executor's statistics.
    pub stats: ExecStats,
}

impl SolveTimes {
    /// Row-major inputs to row-major outputs.
    pub fn total_ns(&self) -> u64 {
        self.bind_ns + self.exec_ns + self.unpack_ns
    }
}

/// One problem: inputs, bound workspace, compiled graph and oracle data.
pub struct Problem {
    /// Shape.
    pub spec: ProblemSpec,
    /// The built algorithm (spawn tree, DAG, block operations).
    pub built: BuiltAlgorithm,
    /// The compiled graph the timed solves execute.
    pub compiled: CompiledAlgorithm,
    /// Row-major workspace, in context order; `mats[0]` is the output.
    pub mats: Vec<Matrix>,
    tiles: Vec<TileMatrix>,
    ctx: ExecContext,
    /// The input of `mats[0]` for the in-place algorithms.
    pristine: Option<Matrix>,
    probe_seed: u64,
    /// Set-up times of this instance.
    pub setup: SetupTimes,
    /// Anchoring statistics (anchored executor only).
    pub anchor: Option<AnchorStats>,
    /// Digest of the 1-worker reference output, once computed.
    pub reference: Option<u64>,
}

fn build(spec: &ProblemSpec) -> BuiltAlgorithm {
    let (n, b) = (spec.n, spec.b);
    match spec.kind {
        Kind::Mm => mm::build_mm(n, b, Mode::Nd, 1.0),
        Kind::Lu => lu::build_lu(n, b, Mode::Nd),
        Kind::Cholesky => cholesky::build_cholesky(n, b, Mode::Nd),
        Kind::Fw2d => fw2d::build_fw2d(n, b, Mode::Nd),
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Problem {
    /// Builds, binds and compiles `spec` against `inputs` — anchored onto
    /// `hier` when given.  Only the layer calls count towards
    /// [`Problem::setup`].
    pub fn setup(
        spec: ProblemSpec,
        inputs: Inputs,
        hier: Option<&HierarchicalPool>,
        probe_seed: u64,
        spans: &mut Spans,
    ) -> Problem {
        let Inputs { mut mats } = inputs;
        let pristine =
            matches!(spec.kind, Kind::Lu | Kind::Cholesky | Kind::Fw2d).then(|| mats[0].clone());
        let mut setup = SetupTimes::default();

        let t = Instant::now();
        let built = spans.time("nd-algorithms.build", 0, |_| build(&spec));
        setup.build_ns = elapsed_ns(t);

        let extras = match spec.kind {
            Kind::Lu => ContextExtras::Pivots(spec.n),
            _ => ContextExtras::None,
        };
        let t = Instant::now();
        let (tiles, ctx) = spans.time("nd-algorithms.bind_layout", 0, |_| {
            let mut refs: Vec<&mut Matrix> = mats.iter_mut().collect();
            driver::bind_layout(&mut refs, spec.b, spec.layout, extras)
        });
        setup.bind_ns = elapsed_ns(t);

        let (compiled, anchor) = match hier {
            None => {
                let t = Instant::now();
                let c = spans.time("nd-algorithms.compile", 0, |_| {
                    driver::compile(&built, &ctx)
                });
                setup.compile_ns = elapsed_ns(t);
                (c, None)
            }
            Some(hier) => {
                let t = Instant::now();
                let anchoring = spans.time("nd-exec.compute_anchoring", 0, |_| {
                    compute_anchoring(
                        &built.tree,
                        &built.dag,
                        hier.machine(),
                        &AnchorConfig::default(),
                    )
                });
                setup.anchoring_ns = elapsed_ns(t);
                let stats = AnchorStats {
                    anchors_per_level: anchoring.anchors_per_level.clone(),
                    overflow_events: anchoring.overflow_events,
                };
                let t = Instant::now();
                let c = spans.time("nd-algorithms.compile", 0, |_| {
                    driver::compile_placed(&built, &ctx, anchoring.placement)
                });
                setup.compile_ns = elapsed_ns(t);
                (c, Some(stats))
            }
        };
        Problem {
            spec,
            built,
            compiled,
            mats,
            tiles,
            ctx,
            pristine,
            probe_seed,
            setup,
            anchor,
            reference: None,
        }
    }

    /// Replaces the inputs in place (the compiled context keeps raw views
    /// into the workspace, so buffers are copied into, never replaced).
    pub fn load_inputs(&mut self, inputs: &Inputs) {
        for (m, src) in self.mats.iter_mut().zip(&inputs.mats) {
            m.as_mut_slice().copy_from_slice(src.as_slice());
        }
        if let Some(p) = &mut self.pristine {
            p.as_mut_slice().copy_from_slice(inputs.mats[0].as_slice());
        }
    }

    /// Restores the row-major inputs a solve consumes (untimed): the input
    /// of an in-place algorithm, or MM's zeroed `C`.
    pub fn restore(&mut self) {
        match &self.pristine {
            Some(p) => self.mats[0].as_mut_slice().copy_from_slice(p.as_slice()),
            None => self.mats[0].as_mut_slice().fill(0.0),
        }
    }

    /// One solve from the row-major workspace to the row-major output:
    /// pack every bound matrix (tiled layout), execute `graph` (the
    /// problem's own compiled graph when `None`) on `pool`, unpack the
    /// output.
    ///
    /// # Errors
    /// The executor's [`RunError`], if a strand fails.
    pub fn solve_on(
        &mut self,
        graph: Option<&CompiledAlgorithm>,
        pool: &ThreadPool,
        spans: &mut Spans,
        id: u64,
    ) -> Result<SolveTimes, RunError> {
        let graph = graph.unwrap_or(&self.compiled);
        let (tiles, mats) = (&mut self.tiles, &mut self.mats);

        let t = Instant::now();
        spans.time("nd-linalg.pack_from", id, |_| {
            for (tile, m) in tiles.iter_mut().zip(mats.iter()) {
                tile.pack_from(m);
            }
        });
        let bind_ns = elapsed_ns(t);

        let t = Instant::now();
        let stats = spans.time("nd-algorithms.execute", id, |_| graph.execute(pool))?;
        let exec_ns = elapsed_ns(t);

        let t = Instant::now();
        spans.time("nd-linalg.unpack_into", id, |_| {
            if let Some(out) = tiles.first() {
                out.unpack_into(&mut mats[0]);
            }
        });
        let unpack_ns = elapsed_ns(t);
        Ok(SolveTimes {
            bind_ns,
            exec_ns,
            unpack_ns,
            stats,
        })
    }

    /// [`Problem::solve_on`] with the problem's own graph.
    ///
    /// # Errors
    /// The executor's [`RunError`], if a strand fails.
    pub fn solve(
        &mut self,
        pool: &ThreadPool,
        spans: &mut Spans,
        id: u64,
    ) -> Result<SolveTimes, RunError> {
        self.solve_on(None, pool, spans, id)
    }

    /// LU's global pivot vector after a solve (empty for other kinds).
    fn pivots(&self) -> Vec<usize> {
        if self.spec.kind != Kind::Lu {
            return Vec::new();
        }
        // SAFETY: called between solves; no execution writes the store.
        unsafe { lu::assemble_global_pivots(&self.ctx.pivots, self.spec.n, self.spec.b) }
    }

    /// Digest of the solve's output: `mats[0]` (and LU's pivots), hashed
    /// word by word.
    pub fn output_digest(&self) -> u64 {
        let h = digest_extend(
            0xCBF2_9CE4_8422_2325,
            self.mats[0].as_slice().iter().map(|v| v.to_bits()),
        );
        digest_extend(h, self.pivots().into_iter().map(|p| p as u64))
    }

    /// Computes the 1-worker reference: restores the inputs, solves on a
    /// one-worker pool with the flat compiled form of the same graph, and
    /// records the output digest.  Returns the reference solve's times.
    ///
    /// # Errors
    /// The executor's [`RunError`], if a strand fails.
    pub fn compute_reference(
        &mut self,
        pool1: &ThreadPool,
        spans: &mut Spans,
    ) -> Result<SolveTimes, RunError> {
        let flat = self
            .anchor
            .is_some()
            .then(|| driver::compile(&self.built, &self.ctx));
        self.restore();
        let times = self.solve_on(flat.as_ref(), pool1, spans, 0)?;
        self.reference = Some(self.output_digest());
        Ok(times)
    }

    /// The output oracle: bit-identity with the 1-worker reference plus an
    /// O(n²) randomized residual (Freivalds for MM, `L·(U·x) = P·A·x` for
    /// LU, `L·(Lᵀ·x) = A·x` for Cholesky, sampled triangle inequalities for
    /// Floyd–Warshall).
    pub fn verify(&self) -> bool {
        let identical = self.reference == Some(self.output_digest());
        identical && self.residual_ok()
    }

    fn probe(&self) -> Vec<f64> {
        let mut rng = Rng::new(self.probe_seed);
        (0..self.spec.n).map(|_| 2.0 * rng.unit() - 1.0).collect()
    }

    fn residual_ok(&self) -> bool {
        const TOL: f64 = 1e-10;
        let n = self.spec.n;
        let out = &self.mats[0];
        let close = |got: &[f64], want: &[f64], scale: &[f64]| {
            let s = scale.iter().copied().fold(0.0, f64::max);
            got.iter()
                .zip(want)
                .all(|(g, w)| (g - w).abs() <= TOL * s && g.is_finite())
        };
        match self.spec.kind {
            Kind::Mm => {
                let x = self.probe();
                let ax: Vec<f64> = x.iter().map(|v| v.abs()).collect();
                let (a, b) = (&self.mats[1], &self.mats[2]);
                let want = matvec(a, &matvec(b, &x));
                let scale = matvec_abs(a, &matvec_abs(b, &ax));
                close(&matvec(out, &x), &want, &scale)
            }
            Kind::Lu => {
                let a = self.pristine.as_ref().expect("LU keeps its input");
                let x = self.probe();
                let ax: Vec<f64> = x.iter().map(|v| v.abs()).collect();
                let mut want = matvec(a, &x);
                for (r, p) in self.pivots().into_iter().enumerate() {
                    want.swap(r, p);
                }
                let got = tri_matvec(
                    out,
                    &tri_matvec(out, &x, Tri::Upper, false),
                    Tri::UnitLower,
                    false,
                );
                let scale = tri_matvec(
                    out,
                    &tri_matvec(out, &ax, Tri::Upper, true),
                    Tri::UnitLower,
                    true,
                );
                close(&got, &want, &scale)
            }
            Kind::Cholesky => {
                let a = self.pristine.as_ref().expect("Cholesky keeps its input");
                let x = self.probe();
                let ax: Vec<f64> = x.iter().map(|v| v.abs()).collect();
                let want = matvec(a, &x);
                let got = tri_matvec(
                    out,
                    &tri_matvec(out, &x, Tri::LowerT, false),
                    Tri::Lower,
                    false,
                );
                let scale = tri_matvec(
                    out,
                    &tri_matvec(out, &ax, Tri::LowerT, true),
                    Tri::Lower,
                    true,
                );
                close(&got, &want, &scale)
            }
            Kind::Fw2d => {
                let w = self.pristine.as_ref().expect("FW keeps its input");
                let mut rng = Rng::new(self.probe_seed);
                let d = |i: usize, j: usize| out.as_slice()[i * n + j];
                let samples = (n / 8).max(8);
                (0..n).all(|i| d(i, i) == 0.0)
                    && (0..samples).all(|_| {
                        let (i, k) = (rng.below(n), rng.below(n));
                        (0..n).all(|j| {
                            let dij = d(i, j);
                            dij <= w[(i, j)] && dij <= d(i, k) + d(k, j) + 1e-9 * dij.abs()
                        })
                    })
            }
        }
    }

    /// Exact (operations, computed bytes) of one solve.
    pub fn op_counts(&self) -> (f64, f64) {
        op_counts(&self.built.ops)
    }
}

fn matvec(m: &Matrix, x: &[f64]) -> Vec<f64> {
    let n = m.cols();
    m.as_slice()
        .chunks_exact(n)
        .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

fn matvec_abs(m: &Matrix, x: &[f64]) -> Vec<f64> {
    let n = m.cols();
    m.as_slice()
        .chunks_exact(n)
        .map(|row| row.iter().zip(x).map(|(a, b)| a.abs() * b).sum())
        .collect()
}

/// Which triangle of an in-place factorisation a product reads.
#[derive(Clone, Copy, PartialEq)]
enum Tri {
    /// On and above the diagonal (LU's `U`).
    Upper,
    /// Strictly below the diagonal with an implicit unit diagonal (LU's `L`).
    UnitLower,
    /// On and below the diagonal (Cholesky's `L`).
    Lower,
    /// The transpose of `Lower` (Cholesky's `Lᵀ`).
    LowerT,
}

/// `T·x` for the triangle `tri` of `f` (`|T|·x` when `abs`).
fn tri_matvec(f: &Matrix, x: &[f64], tri: Tri, abs: bool) -> Vec<f64> {
    let n = x.len();
    let s = f.as_slice();
    let v = |e: f64| if abs { e.abs() } else { e };
    let mut y = vec![0.0; n];
    for i in 0..n {
        let row = &s[i * n..(i + 1) * n];
        match tri {
            Tri::Upper => y[i] = (i..n).map(|j| v(row[j]) * x[j]).sum(),
            Tri::UnitLower => y[i] = x[i] + (0..i).map(|j| v(row[j]) * x[j]).sum::<f64>(),
            Tri::Lower => y[i] = (0..=i).map(|j| v(row[j]) * x[j]).sum(),
            // Row i of L contributes L[i][j]·x[i] to (Lᵀx)[j].
            Tri::LowerT => {
                for j in 0..=i {
                    y[j] += v(row[j]) * x[i];
                }
            }
        }
    }
    y
}
