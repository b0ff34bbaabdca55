//! What a tenant submits and what it gets back: job specifications, the
//! compiled-graph cache key they map to, and the terminal outcomes.
//!
//! The contract at the heart of the serving layer is **every accepted job
//! reaches exactly one terminal [`JobOutcome`]** — `Done`, `Shed`, or
//! `Poisoned` — no matter how many injected panics, deadline trips, breaker
//! cooldowns, or drains happen in between.  Nothing is ever silently lost.

use nd_algorithms::exec::Layout;

/// Which algorithm a job runs.  Each kind maps to one of the paper's built
/// algorithms via the shared driver layer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AlgoKind {
    /// Dense matrix multiply (`C = A·B`, the paper's MM recursion).
    Mm,
    /// In-place Cholesky factorisation of an SPD matrix.
    Cholesky,
}

impl AlgoKind {
    /// Short stable name (bench sections, error messages).
    pub fn name(self) -> &'static str {
        match self {
            AlgoKind::Mm => "mm",
            AlgoKind::Cholesky => "cholesky",
        }
    }
}

/// Deterministic fault injection carried by a spec — the serving layer's
/// chaos hook, taken on the *production* fault path (the wrapped operation
/// table panics inside the executor's real catch scope, producing a typed
/// `RunError::Panicked` exactly like an organic strand panic).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InjectSpec {
    /// No spec-level injection; the server's seeded chaos rate (if any)
    /// still applies.
    None,
    /// Every attempt panics — a poisoned spec, used to prove the breaker
    /// trips and the retry budget refuses to loop forever.
    Always,
    /// The first `k` attempts against this spec's graph key panic, then the
    /// spec heals — used to prove the breaker probes back to Closed.
    FirstK(u32),
}

/// The compiled-graph cache key: everything that determines the compiled
/// form.  Input data (the seed) deliberately excluded — jobs with different
/// inputs share one compiled graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GraphKey {
    /// Which algorithm.
    pub algo: AlgoKind,
    /// Problem size.
    pub n: u32,
    /// Base-case (tile) size.
    pub base: u32,
    /// Matrix storage layout the context binds.
    pub layout: Layout,
}

impl GraphKey {
    /// A stable 32-bit FNV-1a hash of the key, carried in `Breaker` trace
    /// events so trips can be correlated within a session.
    pub fn hash32(&self) -> u32 {
        let mut h: u32 = 0x811C_9DC5;
        let mut mix = |v: u32| {
            for byte in v.to_le_bytes() {
                h ^= byte as u32;
                h = h.wrapping_mul(0x0100_0193);
            }
        };
        mix(self.algo as u32);
        mix(self.n);
        mix(self.base);
        mix(self.layout as u32);
        h
    }
}

impl std::fmt::Display for GraphKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}(n={}, b={}, {:?})",
            self.algo.name(),
            self.n,
            self.base,
            self.layout
        )
    }
}

/// One job: an algorithm instance plus its input seed and fault-injection
/// marker.  Inputs are regenerated *in place* from `seed` before every
/// attempt (the compiled context holds raw views into the cache entry's
/// buffers), so a retried run is bit-identical to a first run.
#[derive(Clone, Copy, Debug)]
pub struct JobSpec {
    /// Which algorithm.
    pub algo: AlgoKind,
    /// Problem size (power of two, `>= base`).
    pub n: usize,
    /// Base-case size (power of two).
    pub base: usize,
    /// Storage layout to bind.
    pub layout: Layout,
    /// Input seed; same seed ⇒ same inputs ⇒ same result digest.
    pub seed: u64,
    /// Deterministic fault injection for this spec.
    pub inject: InjectSpec,
}

impl JobSpec {
    /// A plain spec with no injection.
    pub fn new(algo: AlgoKind, n: usize, base: usize, layout: Layout, seed: u64) -> Self {
        JobSpec {
            algo,
            n,
            base,
            layout,
            seed,
            inject: InjectSpec::None,
        }
    }

    /// The cache key this spec compiles under.
    pub fn key(&self) -> GraphKey {
        GraphKey {
            algo: self.algo,
            n: self.n as u32,
            base: self.base as u32,
            layout: self.layout,
        }
    }

    /// `true` if the dimensions are acceptable (powers of two, `n >= base`,
    /// both nonzero) — checked at submission so a malformed spec is a typed
    /// rejection, not a panic inside the compile path.
    pub fn is_valid(&self) -> bool {
        let pow2 = |v: usize| v > 0 && v & (v - 1) == 0;
        pow2(self.n) && pow2(self.base) && self.n >= self.base
    }
}

/// Why an accepted job was shed (a terminal outcome distinct from `Done`
/// and `Poisoned`: the server chose not to finish it, and says so).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShedReason {
    /// The spec's circuit breaker was open when the job (re)ran, and stayed
    /// open past the deferral allowance.
    BreakerOpen,
    /// The job was still queued when the drain deadline expired.
    DrainDeadline,
}

/// The exactly-once terminal outcome of an accepted job.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The run completed.  `digest` is an FNV-1a hash over the output
    /// matrix's f64 bit patterns — bit-identity across retries is asserted
    /// by comparing digests of same-seed jobs.
    Done {
        /// Output digest (same spec + seed ⇒ same digest, always).
        digest: u64,
        /// Attempts consumed (1 = first try succeeded).
        attempts: u32,
        /// Acceptance-to-completion latency in clock nanoseconds.
        latency_ns: u64,
    },
    /// The server gave up without running the job to completion.
    Shed {
        /// Why.
        reason: ShedReason,
        /// Attempts consumed before shedding.
        attempts: u32,
    },
    /// Every attempt in the retry budget faulted; the job is reported
    /// poisoned with the final typed error rendered.
    Poisoned {
        /// Attempts consumed (== the retry budget).
        attempts: u32,
        /// `Display` rendering of the last `RunError`.
        error: String,
    },
}

impl JobOutcome {
    /// `true` for [`JobOutcome::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self, JobOutcome::Done { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_with_same_shape_share_a_key() {
        let a = JobSpec::new(AlgoKind::Mm, 32, 8, Layout::RowMajor, 1);
        let b = JobSpec::new(AlgoKind::Mm, 32, 8, Layout::RowMajor, 999);
        assert_eq!(a.key(), b.key(), "seed must not split the cache");
        let c = JobSpec::new(AlgoKind::Mm, 32, 8, Layout::Tiled, 1);
        assert_ne!(a.key(), c.key(), "layout is part of the compiled form");
        assert_ne!(a.key().hash32(), c.key().hash32());
    }

    #[test]
    fn dimension_validation() {
        assert!(JobSpec::new(AlgoKind::Mm, 64, 8, Layout::RowMajor, 0).is_valid());
        assert!(!JobSpec::new(AlgoKind::Mm, 48, 8, Layout::RowMajor, 0).is_valid());
        assert!(!JobSpec::new(AlgoKind::Mm, 8, 16, Layout::RowMajor, 0).is_valid());
        assert!(!JobSpec::new(AlgoKind::Mm, 0, 0, Layout::RowMajor, 0).is_valid());
    }
}
