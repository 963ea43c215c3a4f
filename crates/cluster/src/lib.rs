//! # verifai-cluster — sharded, scatter/gather serving tier
//!
//! Partitions a generated lake into N shards (deterministic hash
//! placement, [`shard_of`]), builds per-shard content + semantic indexes,
//! and hands them to the [`verifai::VerifAi`] system as its live indexes,
//! one set per shard. A [`Router`] over `Arc` clones of the same handles
//! scatters each query to every shard, gathers per-shard top-k,
//! k-way-merges ([`merge_topk`]) and fuses exactly as the single-lake
//! pipeline would.
//!
//! The headline invariant: for any shard count N, the routed system with
//! the **exact (flat) semantic backend** returns *identical* results to a
//! single-lake build (same hits, same order under the total tie-break).
//! Three mechanisms carry it:
//!
//! 1. **Global BM25 statistics** — per-shard corpus stats are merged and
//!    re-injected ([`verifai_index::CorpusStats`]) so shard-local scoring
//!    uses whole-corpus idf and average length.
//! 2. **Exact semantic backend** — byte-identity holds under the flat
//!    index; with HNSW (per-shard graphs, own insertion histories) the
//!    invariant weakens to recall-equivalence, which the identity suite
//!    asserts separately.
//! 3. **Member-level merge before fusion** — rank fusion is not
//!    distributive over shards, so the router merges each index family
//!    globally first, then fuses.
//!
//! The tier is **live** through the system itself: `VerifAi::apply` routes
//! each streaming mutation's index ops to the owning shard ([`shard_of`])
//! and re-merges the global statistics of the modalities it touched. The
//! router only searches.
#![warn(missing_docs)]

mod build;
mod merge;
mod router;
mod shard;

pub use build::{build_cluster, build_cluster_with_clock, ClusterBuild, ClusterConfig};
pub use merge::merge_topk;
pub use router::{RoutedSource, Router};
pub use verifai::shard_of;
