//! # nd-serve — a fault-tolerant multi-tenant serving layer on the executor
//!
//! Everything below the serving layer treats one graph execution as the unit
//! of work: `nd-runtime` runs a compiled DAG to one terminal result, and the
//! fault layer guarantees a typed [`RunError`](nd_runtime::RunError) instead
//! of a hang when a strand panics or a deadline trips.  This crate supplies
//! the missing *service* story on top of that substrate: many tenants
//! submitting a stream of algorithm jobs onto **one** shared topology-aware
//! pool, with the operational machinery a long-running service needs —
//! supervision, retry, circuit breaking, and graceful drain.
//!
//! The server is deliberately async-free and socketless: submission is a
//! plain method call returning a ticket with a channel receiver (a *channel
//! façade*), so the whole stack is testable deterministically and a wire
//! front end is a thin loop over [`Server::submit`].  Runner threads — never
//! pool workers, which would deadlock parking on a completion latch —
//! multiplex executions onto the pool.
//!
//! * [`server`] — the [`Server`]: accept/reject, runner crew, exactly-once
//!   terminal [`JobOutcome`] per accepted job, drain/shutdown, health.
//! * [`cache`] — the compiled-graph cache keyed by
//!   `(algorithm, n, b, layout)`: single-flight compilation,
//!   in-place re-initialisation between runs, digest of every output for
//!   bit-identity checks, and quarantine of repeatedly-faulting entries.
//! * [`qos`] — per-tenant envelopes: token-bucket rate limit, outstanding
//!   cap, priority class.
//! * [`retry`] — attempt budgets and seeded jittered exponential backoff.
//! * [`breaker`] — the per-graph-key circuit breaker
//!   (Closed → Open → HalfOpen).
//! * [`clock`] — wall or virtual time behind one interface, so backoffs and
//!   cooldowns replay deterministically under test.
//! * [`job`] — job specs, graph keys, outcomes.
//! * [`error`] — typed submission rejections.
//!
//! ## Quickstart
//!
//! ```
//! use nd_serve::{AlgoKind, JobOutcome, JobSpec, Server, ServeConfig, TenantConfig};
//! use nd_algorithms::exec::Layout;
//! use nd_runtime::ThreadPool;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let pool = Arc::new(ThreadPool::new(2));
//! let server = Server::new(pool, ServeConfig::default());
//! server.register_tenant("interactive", TenantConfig::default());
//!
//! let spec = JobSpec::new(AlgoKind::Mm, 16, 8, Layout::RowMajor, 7);
//! let ticket = server.submit("interactive", spec).expect("accepted");
//! match ticket.wait() {
//!     JobOutcome::Done { attempts, .. } => assert_eq!(attempts, 1),
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//!
//! let report = server.shutdown(Duration::from_secs(5));
//! assert!(report.completed);
//! ```

#![warn(rust_2018_idioms)]
#![deny(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod clock;
pub mod error;
pub mod job;
pub mod qos;
pub mod retry;
pub mod server;

pub use breaker::{Breaker, BreakerConfig, BreakerState, Gate};
pub use cache::{CacheSnapshot, GraphCache, GraphEntry};
pub use clock::ServeClock;
pub use error::ServeError;
pub use job::{AlgoKind, GraphKey, InjectSpec, JobOutcome, JobSpec, ShedReason};
pub use qos::{TenantConfig, TenantCounters, TenantSnapshot};
pub use retry::{RetryPolicy, SplitMix64};
pub use server::{DrainReport, HealthSnapshot, JobTicket, ServeConfig, Server, ServerState};
