//! The compiled-graph cache: build-once / execute-many across tenants.
//!
//! Entries are keyed by [`GraphKey`] — `(algorithm, n, b, layout)` — and
//! hold everything a run needs: the built algorithm's
//! compiled graph + operation table *and* the workspace matrices the
//! context's raw views point into.  Compilation is **single-flight**:
//! concurrent misses for one key block on the first compiler instead of
//! compiling redundantly.  Entries whose runs keep faulting are
//! **quarantined** — dropped from the map so the next request compiles a
//! fresh entry (a defence against corrupted workspace state, complementing
//! the circuit breaker's fast rejections).
//!
//! ## Aliasing contract
//!
//! A compiled context holds raw views into the entry's matrix buffers, so
//! those buffers are never reallocated: inputs are regenerated **in place**
//! from the job's seed before every attempt, which is also what makes a
//! retried run bit-identical to a first run.

use crate::job::{AlgoKind, GraphKey, JobSpec};
use nd_algorithms::cholesky::build_cholesky;
use nd_algorithms::common::Mode;
use nd_algorithms::driver::{bind_layout, compile, ContextExtras};
use nd_algorithms::exec::CompiledAlgorithm;
use nd_algorithms::mm::build_mm;
use nd_linalg::tile::TileMatrix;
use nd_linalg::Matrix;
use nd_runtime::fault::{PanicAt, RunBudget, RunError};
use nd_runtime::ThreadPool;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// The workspace a compiled entry owns.  Field order is load-bearing only
/// in that `mats`/`tiles` must stay alive (and their heap buffers
/// unmoved) for as long as `compiled` exists; boxed slices and `Vec`
/// headers may move freely — the raw views point at the heap allocations.
struct EntryInner {
    mats: Box<[Matrix]>,
    tiles: Vec<TileMatrix>,
    scratch: Matrix,
    compiled: CompiledAlgorithm,
    runs: u64,
}

impl EntryInner {
    /// Regenerates the workspace *in place* from the spec's seed.
    fn reinit(&mut self, spec: &JobSpec) {
        let n = spec.n;
        match spec.algo {
            AlgoKind::Mm => {
                self.mats[0].as_mut_slice().fill(0.0);
                let a = Matrix::random(n, n, spec.seed);
                let b = Matrix::random(n, n, spec.seed ^ 0x5DEE_CE66);
                self.mats[1].as_mut_slice().copy_from_slice(a.as_slice());
                self.mats[2].as_mut_slice().copy_from_slice(b.as_slice());
            }
            AlgoKind::Cholesky => {
                let a = Matrix::random_spd(n, spec.seed);
                self.mats[0].as_mut_slice().copy_from_slice(a.as_slice());
            }
        }
        for (tile, mat) in self.tiles.iter_mut().zip(self.mats.iter()) {
            tile.pack_from(mat);
        }
    }

    /// FNV-1a over the output matrix's f64 bit patterns.
    fn digest(&mut self) -> u64 {
        let out: &Matrix = if self.tiles.is_empty() {
            &self.mats[0]
        } else {
            self.tiles[0].unpack_into(&mut self.scratch);
            &self.scratch
        };
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for v in out.as_slice() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

/// One cached compiled graph plus its workspace.  Runs against one entry
/// are serialised by the inner mutex (the graph's dependency counters and
/// the workspace are single-run state); distinct keys run concurrently.
pub struct GraphEntry {
    /// The key this entry compiled under.
    pub key: GraphKey,
    inner: Mutex<EntryInner>,
    /// Consecutive faulted runs (reset by any success); the server
    /// quarantines the entry past its threshold.
    pub(crate) consecutive_faults: AtomicU32,
    task_count: usize,
}

impl GraphEntry {
    /// Builds and compiles an entry for `key`.
    fn compile_for(key: GraphKey) -> Self {
        let n = key.n as usize;
        let base = key.base as usize;
        let (built, mut mats) = match key.algo {
            AlgoKind::Mm => (
                build_mm(n, base, Mode::Nd, 1.0),
                vec![
                    Matrix::zeros(n, n),
                    Matrix::zeros(n, n),
                    Matrix::zeros(n, n),
                ]
                .into_boxed_slice(),
            ),
            AlgoKind::Cholesky => (
                build_cholesky(n, base, Mode::Nd),
                // Identity keeps the workspace factorisable even before the
                // first reinit.
                {
                    let mut a = Matrix::zeros(n, n);
                    for i in 0..n {
                        a[(i, i)] = 1.0;
                    }
                    vec![a].into_boxed_slice()
                },
            ),
        };
        let (tiles, ctx) = {
            let mut refs: Vec<&mut Matrix> = mats.iter_mut().collect();
            bind_layout(&mut refs, base, key.layout, ContextExtras::None)
        };
        let compiled = compile(&built, &ctx);
        let task_count = compiled.task_count();
        GraphEntry {
            key,
            inner: Mutex::new(EntryInner {
                mats,
                tiles,
                scratch: Matrix::zeros(n, n),
                compiled,
                runs: 0,
            }),
            consecutive_faults: AtomicU32::new(0),
            task_count,
        }
    }

    /// Tasks in the compiled graph (used to pick injection targets).
    pub fn task_count(&self) -> usize {
        self.task_count
    }

    /// Completed runs on this entry.
    pub fn runs(&self) -> u64 {
        self.inner.lock().runs
    }

    /// Executes one attempt: reinitialise the workspace from the spec's
    /// seed, run the compiled graph, and digest the output.  When
    /// `inject_task` is set (spec-level `InjectSpec` or the server's seeded
    /// chaos rate) the operation table runs wrapped in a [`PanicAt`], so the
    /// injected panic takes the production fault path end to end.  On a
    /// fault the graph is `reset()` so the entry is immediately reusable.
    pub(crate) fn run(
        &self,
        pool: &ThreadPool,
        spec: &JobSpec,
        inject_task: Option<u32>,
        budget: &RunBudget,
    ) -> Result<u64, RunError> {
        let mut g = self.inner.lock();
        g.reinit(spec);
        let graph = Arc::clone(g.compiled.graph());
        let table = Arc::clone(g.compiled.op_table());
        let result = match inject_task {
            None => graph.execute_with(pool, &table, budget),
            Some(task) => graph.execute_with(pool, &Arc::new(PanicAt::new(table, task)), budget),
        };
        match result {
            Ok(_) => {
                g.runs += 1;
                Ok(g.digest())
            }
            Err(err) => {
                graph.reset();
                Err(err)
            }
        }
    }
}

enum CellState {
    Empty,
    Compiling,
    Ready(Arc<GraphEntry>),
}

struct CacheCell {
    state: Mutex<CellState>,
    cv: Condvar,
}

/// Monotonic cache counters.
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    single_flight_waits: AtomicU64,
    quarantines: AtomicU64,
}

/// Point-in-time cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups served from a ready entry.
    pub hits: u64,
    /// Lookups that found no entry and started (or joined) a compile.
    pub misses: u64,
    /// Compiles actually executed (single-flight: ≤ misses).
    pub compiles: u64,
    /// Lookups that blocked on another thread's in-flight compile.
    pub single_flight_waits: u64,
    /// Entries dropped for repeated faulting.
    pub quarantines: u64,
}

/// The cache: key → single-flight cell → ready entry.
pub struct GraphCache {
    map: Mutex<HashMap<GraphKey, Arc<CacheCell>>>,
    counters: CacheCounters,
}

impl Default for GraphCache {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphCache {
    /// An empty cache.
    pub fn new() -> Self {
        GraphCache {
            map: Mutex::new(HashMap::new()),
            counters: CacheCounters::default(),
        }
    }

    /// Returns the entry for `key`, compiling it at most once per residency
    /// no matter how many threads miss concurrently.
    pub fn get_or_compile(&self, key: GraphKey) -> Arc<GraphEntry> {
        let cell = {
            let mut map = self.map.lock();
            Arc::clone(map.entry(key).or_insert_with(|| {
                Arc::new(CacheCell {
                    state: Mutex::new(CellState::Empty),
                    cv: Condvar::new(),
                })
            }))
        };
        let mut st = cell.state.lock();
        loop {
            match &*st {
                CellState::Ready(entry) => {
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(entry);
                }
                CellState::Empty => {
                    self.counters.misses.fetch_add(1, Ordering::Relaxed);
                    *st = CellState::Compiling;
                    drop(st);
                    // Compile outside the cell lock so waiters can park on
                    // the condvar and other keys proceed.  If the compile
                    // panics, put the cell back to Empty so waiters retry
                    // instead of hanging.
                    let compiled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        Arc::new(GraphEntry::compile_for(key))
                    }));
                    let mut st = cell.state.lock();
                    match compiled {
                        Ok(entry) => {
                            self.counters.compiles.fetch_add(1, Ordering::Relaxed);
                            *st = CellState::Ready(Arc::clone(&entry));
                            cell.cv.notify_all();
                            return entry;
                        }
                        Err(payload) => {
                            *st = CellState::Empty;
                            cell.cv.notify_all();
                            drop(st);
                            std::panic::resume_unwind(payload);
                        }
                    }
                }
                CellState::Compiling => {
                    self.counters
                        .single_flight_waits
                        .fetch_add(1, Ordering::Relaxed);
                    cell.cv.wait(&mut st);
                }
            }
        }
    }

    /// Drops `key`'s entry (if resident): the next lookup compiles fresh.
    pub fn quarantine(&self, key: &GraphKey) {
        if self.map.lock().remove(key).is_some() {
            self.counters.quarantines.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        let c = &self.counters;
        CacheSnapshot {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            compiles: c.compiles.load(Ordering::Relaxed),
            single_flight_waits: c.single_flight_waits.load(Ordering::Relaxed),
            quarantines: c.quarantines.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::InjectSpec;
    use nd_algorithms::exec::Layout;
    use nd_runtime::INJECTED_PANIC_MARKER;

    fn mm_spec(seed: u64, layout: Layout) -> JobSpec {
        JobSpec {
            algo: AlgoKind::Mm,
            n: 16,
            base: 8,
            layout,
            seed,
            inject: InjectSpec::None,
        }
    }

    #[test]
    fn single_flight_compiles_once_under_contention() {
        let cache = Arc::new(GraphCache::new());
        let key = mm_spec(0, Layout::RowMajor).key();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || cache.get_or_compile(key).task_count())
            })
            .collect();
        let counts: Vec<usize> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(counts.iter().all(|&c| c == counts[0] && c > 0));
        let s = cache.snapshot();
        assert_eq!(s.compiles, 1, "single-flight must compile exactly once");
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits + s.misses, 8, "every lookup is a hit or the miss");
    }

    #[test]
    fn run_reinit_digest_is_seed_deterministic_on_both_layouts() {
        let pool = ThreadPool::new(2);
        let cache = GraphCache::new();
        for layout in [Layout::RowMajor, Layout::Tiled] {
            let spec = mm_spec(7, layout);
            let entry = cache.get_or_compile(spec.key());
            let d1 = entry
                .run(&pool, &spec, None, &RunBudget::UNBOUNDED)
                .expect("clean run");
            let d2 = entry
                .run(&pool, &spec, None, &RunBudget::UNBOUNDED)
                .expect("clean rerun");
            assert_eq!(d1, d2, "same seed must digest identically ({layout:?})");
            let d3 = entry
                .run(&pool, &mm_spec(8, layout), None, &RunBudget::UNBOUNDED)
                .unwrap();
            assert_ne!(d1, d3, "different seed must change the digest");
        }
        // The two layouts compute the same math: digests agree across them.
        let row = cache
            .get_or_compile(mm_spec(7, Layout::RowMajor).key())
            .run(
                &pool,
                &mm_spec(7, Layout::RowMajor),
                None,
                &RunBudget::UNBOUNDED,
            )
            .unwrap();
        let tiled = cache
            .get_or_compile(mm_spec(7, Layout::Tiled).key())
            .run(
                &pool,
                &mm_spec(7, Layout::Tiled),
                None,
                &RunBudget::UNBOUNDED,
            )
            .unwrap();
        assert_eq!(row, tiled, "layouts are bit-identical, so digests match");
    }

    #[test]
    fn injected_fault_takes_the_typed_path_and_recovery_is_bit_identical() {
        let pool = ThreadPool::new(2);
        let cache = GraphCache::new();
        let spec = mm_spec(3, Layout::RowMajor);
        let entry = cache.get_or_compile(spec.key());
        let clean = entry
            .run(&pool, &spec, None, &RunBudget::UNBOUNDED)
            .unwrap();
        let mid = entry.task_count() as u32 / 2;
        let err = entry
            .run(&pool, &spec, Some(mid), &RunBudget::UNBOUNDED)
            .unwrap_err();
        match &err {
            RunError::Panicked { payload, .. } => {
                assert_eq!(payload, INJECTED_PANIC_MARKER);
            }
            other => panic!("expected a typed panic, got {other}"),
        }
        // reset() already happened inside run(); the rerun is bit-identical.
        let recovered = entry
            .run(&pool, &spec, None, &RunBudget::UNBOUNDED)
            .unwrap();
        assert_eq!(recovered, clean, "reset()+rerun must be bit-identical");
    }

    #[test]
    fn cholesky_entries_run_and_quarantine_recompiles() {
        let pool = ThreadPool::new(1);
        let cache = GraphCache::new();
        let spec = JobSpec {
            algo: AlgoKind::Cholesky,
            n: 16,
            base: 8,
            layout: Layout::RowMajor,
            seed: 11,
            inject: InjectSpec::None,
        };
        let entry = cache.get_or_compile(spec.key());
        let d1 = entry
            .run(&pool, &spec, None, &RunBudget::UNBOUNDED)
            .unwrap();
        cache.quarantine(&spec.key());
        assert_eq!(cache.snapshot().quarantines, 1);
        let fresh = cache.get_or_compile(spec.key());
        assert_eq!(fresh.runs(), 0, "quarantine must yield a fresh entry");
        let d2 = fresh
            .run(&pool, &spec, None, &RunBudget::UNBOUNDED)
            .unwrap();
        assert_eq!(d1, d2, "recompiled entry computes the same result");
        assert_eq!(cache.snapshot().compiles, 2);
    }
}
