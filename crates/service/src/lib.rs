#![warn(clippy::unwrap_used)]
//! verifai-service: a long-lived concurrent verification service over
//! [`verifai::VerifAi`] — worker pool, bounded admission queue with load
//! shedding, micro-batching, evidence caching, deadlines, and stats.

pub mod cache;
pub mod obs;
pub mod service;
pub mod stats;
pub mod tenants;

pub use cache::{CacheStats, EvidenceCache, EvidenceKey};
pub use obs::ServiceObs;
pub use service::{RequestOutcome, ServiceConfig, SubmitError, Ticket, VerificationService};
pub use stats::{ServiceStats, StageLatency, StageTotals, TenantStats, VerdictCounts};
pub use tenants::TenantSpec;
