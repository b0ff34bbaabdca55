//! Per-tenant QoS envelopes: token-bucket rate limiting, an
//! outstanding-job cap, and a priority class mapped onto the runtime's
//! admission [`Priority`] semantics — one tenant's burst cannot starve
//! another.

use crate::clock::ServeClock;
use crate::error::ServeError;
use nd_runtime::Priority;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A tenant's envelope.
#[derive(Clone, Copy, Debug)]
pub struct TenantConfig {
    /// Token refill rate, jobs per second.  `f64::INFINITY` = unlimited.
    pub rate_per_sec: f64,
    /// Bucket capacity (burst allowance), tokens.
    pub burst: f64,
    /// Maximum jobs accepted but not yet terminal.
    pub max_outstanding: usize,
    /// Scheduling class: `High` tenants' jobs are dequeued before `Low`
    /// tenants' (the same two-level discipline as the pool's admission
    /// layer under `Degrade`).
    pub priority: Priority,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            rate_per_sec: f64::INFINITY,
            burst: 64.0,
            max_outstanding: 1024,
            priority: Priority::High,
        }
    }
}

/// Monotonic per-tenant counters (relaxed atomics; read by snapshots).
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Submissions attempted.
    pub submitted: AtomicU64,
    /// Submissions accepted.
    pub admitted: AtomicU64,
    /// Rejections: empty token bucket.
    pub rate_limited: AtomicU64,
    /// Rejections: outstanding cap.
    pub busy: AtomicU64,
    /// Terminal `Done` outcomes.
    pub done: AtomicU64,
    /// Terminal `Shed` outcomes.
    pub shed: AtomicU64,
    /// Terminal `Poisoned` outcomes.
    pub poisoned: AtomicU64,
    /// Retry re-queues of this tenant's jobs.
    pub retries: AtomicU64,
}

/// Point-in-time view of one tenant, exported by the health snapshot.
#[derive(Clone, Debug)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub name: String,
    /// Jobs accepted but not yet terminal.
    pub outstanding: usize,
    /// Submissions attempted / accepted.
    pub submitted: u64,
    /// Submissions accepted.
    pub admitted: u64,
    /// Rate-limit rejections.
    pub rate_limited: u64,
    /// Outstanding-cap rejections.
    pub busy: u64,
    /// Terminal outcomes by kind.
    pub done: u64,
    /// Terminal sheds.
    pub shed: u64,
    /// Terminal poisonings.
    pub poisoned: u64,
    /// Retry re-queues.
    pub retries: u64,
}

struct Bucket {
    tokens: f64,
    last_refill_ns: u64,
}

impl Bucket {
    /// Credits the time since the last refill at `rate` tokens per second,
    /// capped at `burst`.  Submitters read the clock before they take the
    /// bucket lock, so `now_ns` may be older than `last_refill_ns`; such a
    /// refill credits nothing and leaves `last_refill_ns` where it is, so no
    /// interval is ever credited twice.
    fn refill(&mut self, now_ns: u64, rate: f64, burst: f64) {
        if now_ns <= self.last_refill_ns {
            return;
        }
        let dt_s = (now_ns - self.last_refill_ns) as f64 / 1e9;
        self.tokens = (self.tokens + dt_s * rate).min(burst);
        self.last_refill_ns = now_ns;
    }
}

/// One registered tenant: config, bucket, outstanding count, counters.
pub(crate) struct TenantState {
    pub name: String,
    pub cfg: TenantConfig,
    bucket: Mutex<Bucket>,
    pub outstanding: AtomicUsize,
    pub counters: TenantCounters,
}

impl TenantState {
    pub fn new(name: &str, cfg: TenantConfig, now_ns: u64) -> Self {
        TenantState {
            name: name.to_string(),
            cfg,
            bucket: Mutex::new(Bucket {
                tokens: cfg.burst,
                last_refill_ns: now_ns,
            }),
            outstanding: AtomicUsize::new(0),
            counters: TenantCounters::default(),
        }
    }

    /// The admission gate: refills the bucket from the clock, takes a token
    /// and an outstanding slot, or rejects with the typed reason.  On
    /// success the outstanding count has been incremented — the caller must
    /// guarantee a terminal outcome eventually releases it.
    pub fn try_admit(&self, clock: &ServeClock) -> Result<(), ServeError> {
        // Outstanding cap first (cheap, and failing it should not burn a
        // token).
        let cap = self.cfg.max_outstanding;
        let mut cur = self.outstanding.load(Ordering::Relaxed);
        loop {
            if cur >= cap {
                self.counters.busy.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::TenantBusy {
                    tenant: self.name.clone(),
                    outstanding: cur,
                    cap,
                });
            }
            match self.outstanding.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }

        if self.cfg.rate_per_sec.is_finite() {
            let now = clock.now_ns();
            let mut b = self.bucket.lock();
            b.refill(now, self.cfg.rate_per_sec, self.cfg.burst);
            if b.tokens < 1.0 {
                let deficit = 1.0 - b.tokens;
                let retry_after_ns = (deficit / self.cfg.rate_per_sec * 1e9).ceil() as u64;
                drop(b);
                self.outstanding.fetch_sub(1, Ordering::AcqRel);
                self.counters.rate_limited.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::RateLimited {
                    tenant: self.name.clone(),
                    retry_after_ns,
                });
            }
            b.tokens -= 1.0;
        }
        Ok(())
    }

    /// Releases the outstanding slot a terminal outcome frees.
    pub fn release(&self) {
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }

    pub fn snapshot(&self) -> TenantSnapshot {
        let c = &self.counters;
        TenantSnapshot {
            name: self.name.clone(),
            outstanding: self.outstanding.load(Ordering::Relaxed),
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            rate_limited: c.rate_limited.load(Ordering::Relaxed),
            busy: c.busy.load(Ordering::Relaxed),
            done: c.done.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            poisoned: c.poisoned.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_limits_and_refills_on_the_clock() {
        let clock = ServeClock::virtual_at(0);
        let t = TenantState::new(
            "t",
            TenantConfig {
                rate_per_sec: 2.0,
                burst: 2.0,
                max_outstanding: 100,
                priority: Priority::High,
            },
            0,
        );
        assert!(t.try_admit(&clock).is_ok());
        assert!(t.try_admit(&clock).is_ok());
        let err = t.try_admit(&clock).unwrap_err();
        let ServeError::RateLimited { retry_after_ns, .. } = err else {
            panic!("expected RateLimited, got {err:?}");
        };
        assert!(retry_after_ns > 0 && retry_after_ns <= 500_000_000);
        // The failed admit must not leak an outstanding slot.
        assert_eq!(t.outstanding.load(Ordering::Relaxed), 2);
        // Half a second refills one token at 2/s.
        clock.advance(500_000_000);
        assert!(t.try_admit(&clock).is_ok());
        assert!(t.try_admit(&clock).is_err());
    }

    /// A refill with a clock reading older than the last refill (a submitter
    /// that read the clock first but took the lock second) credits nothing
    /// and must not move the refill mark back: 200, 100, 300 credits exactly
    /// the 300 ns since the start.
    #[test]
    fn late_clock_reading_never_credits_an_interval_twice() {
        let (rate, burst) = (1e6, 1.0); // 1e-3 tokens per ns
        let mut b = Bucket {
            tokens: 0.0,
            last_refill_ns: 0,
        };
        for now in [200, 100, 300] {
            b.refill(now, rate, burst);
        }
        assert_eq!(b.last_refill_ns, 300);
        let expected = (300e-9 * rate).min(burst);
        assert!(
            (b.tokens - expected).abs() < 1e-12,
            "credited {} tokens, expected {expected}",
            b.tokens
        );
        // The same sequence against a burst cap below the total credit.
        let mut capped = Bucket {
            tokens: 0.0,
            last_refill_ns: 0,
        };
        for now in [200, 100, 300] {
            capped.refill(now, rate, 0.25);
        }
        assert_eq!(capped.tokens, 0.25);
    }

    #[test]
    fn outstanding_cap_rejects_without_burning_tokens() {
        let clock = ServeClock::virtual_at(0);
        let t = TenantState::new(
            "t",
            TenantConfig {
                rate_per_sec: 1000.0,
                burst: 1.0,
                max_outstanding: 1,
                priority: Priority::Low,
            },
            0,
        );
        assert!(t.try_admit(&clock).is_ok());
        let err = t.try_admit(&clock).unwrap_err();
        assert!(matches!(
            err,
            ServeError::TenantBusy {
                outstanding: 1,
                cap: 1,
                ..
            }
        ));
        t.release();
        clock.advance(2_000_000); // refill the single-token bucket
        assert!(t.try_admit(&clock).is_ok());
        assert_eq!(t.counters.busy.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn infinite_rate_never_rate_limits() {
        let clock = ServeClock::virtual_at(0);
        let t = TenantState::new("t", TenantConfig::default(), 0);
        for _ in 0..500 {
            assert!(t.try_admit(&clock).is_ok());
        }
    }
}
