#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
//! # verifai
//!
//! **VerifAI: Verified Generative AI** — a framework for verifying the outputs
//! of generative models against multi-modal data lakes, reproducing Tang, Yang,
//! Fan & Cao (CIDR 2024).
//!
//! Given a generated *data object* `g` (an imputed tuple cell or a textual
//! claim) and a data lake `L` of tables, tuples, and text documents, VerifAI
//! discovers evidence instances and classifies each `(g, x)` pair as
//! `Verified`, `Refuted`, or `NotRelated`:
//!
//! ```text
//! g ──► Indexer (content BM25 ⊕ semantic vectors, task-agnostic, large k)
//!        │
//!        ▼
//!       Combiner (dedup + reciprocal-rank fusion)
//!        │
//!        ▼
//!       Reranker (task-specific: ColBERT / OpenTFV / tuple, small k′)
//!        │
//!        ▼
//!       Verifier (Agent picks ChatGPT-sim / PASTA / tuple model)
//!        │
//!        ▼
//!       verdicts + explanations + provenance + trust-weighted decision
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use verifai::{VerifAi, VerifAiConfig};
//! use verifai_datagen::{build, completion_workload, LakeSpec};
//! use verifai_llm::Verdict;
//!
//! // A small synthetic multi-modal lake with ground truth by construction.
//! let generated = build(&LakeSpec::tiny(42));
//! let tasks = completion_workload(&generated, 5, 7);
//!
//! // Stand up the framework over it.
//! let mut system = VerifAi::build(generated, VerifAiConfig::default());
//!
//! // Let the (simulated) LLM impute a masked cell, then verify it.
//! let object = system.impute(&tasks[0]);
//! let report = system.verify_object(&object);
//! assert!(matches!(
//!     report.decision,
//!     Verdict::Verified | Verdict::Refuted | Verdict::NotRelated
//! ));
//! ```
//!
//! The [`experiments`] module regenerates every table and figure of the paper;
//! see EXPERIMENTS.md at the repository root for paper-vs-measured numbers.

pub mod config;
pub mod corpus;
pub mod exec;
pub mod experiments;
pub mod features;
pub mod live;
pub mod metrics;
pub mod partition;
pub mod pipeline;
pub mod report;
pub mod stages;

pub use config::{SemanticBackend, VerifAiConfig};
pub use features::{FeatureStats, FeatureStore};
pub use live::{
    mutate_lake, IndexOp, LakeMutation, LiveContentSource, LiveIndexes, LiveLakeStats,
    LiveSemanticSource, MutationError, MutationOutcome, SharedContent, SharedSemantic,
};
pub use metrics::{paper_correct, recall_at_k, Accuracy};
pub use partition::shard_of;
pub use pipeline::{materialize, BuildStats, EvidenceVerdict, VerifAi, VerificationReport};
pub use stages::{
    JudgeOutcome, PipelineError, RerankStage, ScoreRerank, StagePlan, StageTiming, StagedPipeline,
    TopKPassthrough, VerifyStage, Views,
};

// Re-export the vocabulary types so downstream users need only this crate.
pub use verifai_llm::{DataObject, ImputedCell, TextClaim, Verdict};

// Observability vocabulary: clocks, traces, and metrics flow through every
// layer, so surface them here alongside the pipeline types they annotate.
pub use verifai_obs::{
    Clock, CostVector, MockClock, ObsConfig, RequestTrace, SystemClock, TraceId,
};
