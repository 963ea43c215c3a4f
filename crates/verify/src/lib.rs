#![warn(missing_docs)]
//! # verifai-verify
//!
//! The Verifier module (paper §3.3) and its supporting machinery.
//!
//! VerifAI uses two kinds of Verifiers: a one-size-fits-all model (ChatGPT —
//! here the simulated LLM from `verifai-llm`) and *specific, localized models*
//! for individual modality pairs, which can beat the generic model on their
//! home turf while keeping data private:
//!
//! * [`llm_verifier::LlmVerifier`] — wraps [`verifai_llm::SimLlm`]; handles every
//!   `(object, evidence)` pair;
//! * [`pasta::PastaVerifier`] — the local (text, table) fact-verification model.
//!   Table-operations aware: it parses the claim into an operation AST and
//!   executes it. Binary output (true/false), like the real PASTA;
//! * [`tuple_model::TupleModelVerifier`] — the local (tuple, tuple) model
//!   standing in for RetClean's fine-tuned RoBERTa;
//! * [`kg_model::KgModelVerifier`] — the local knowledge-graph verifier the
//!   paper's §5 proposes as a promising direction;
//! * [`agent::Agent`] — "an Agent decides which Verifier to use for a given
//!   task" (§3.3), with policies expressing the paper's privacy/accuracy
//!   trade-off;
//! * [`trust`] — source-trust estimation from verdict agreement (challenge C3);
//! * [`provenance`] — the verification lineage store (challenge C4).

pub mod agent;
pub mod kg_model;
pub mod llm_verifier;
pub mod pasta;
pub mod provenance;
pub mod trust;
pub mod tuple_model;

pub use agent::{Agent, AgentPolicy};
pub use kg_model::{KgModelConfig, KgModelVerifier};
pub use llm_verifier::LlmVerifier;
pub use pasta::{PastaConfig, PastaVerifier};
pub use provenance::{
    stamp_trace, Note, NullSink, ProvenanceLog, ProvenanceRecord, ProvenanceSink, SharedProvenance,
    Stage, StageRecorder,
};
pub use trust::{TrustModel, VerdictObservation};
pub use tuple_model::{TupleModelConfig, TupleModelVerifier};
// The ternary verdict type is defined next to the data-object types in
// `verifai-llm`; re-exported here because it is the Verifier's output type.
pub use verifai_llm::Verdict;

use verifai_lake::InstanceRef;
use verifai_llm::{DataObject, Transcript};

/// Output of one verifier invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifierOutput {
    /// Ternary outcome.
    pub verdict: Verdict,
    /// Natural-language justification.
    pub explanation: String,
}

/// A verification model for (generated object, evidence instance) pairs.
/// Evidence is read where it lies: an [`InstanceRef`] borrowed from the
/// lake, or from an owned instance through [`verifai_lake::DataInstance::view`].
pub trait Verifier: Send + Sync {
    /// Stable name for provenance and reports.
    fn name(&self) -> &'static str;

    /// Whether this verifier is trained for the given modality pair.
    fn supports(&self, object: &DataObject, evidence: InstanceRef<'_>) -> bool;

    /// Verify the object against one evidence instance.
    fn verify(&self, object: &DataObject, evidence: InstanceRef<'_>) -> VerifierOutput;

    /// The prompt/response exchange behind `output`, which this verifier's
    /// [`Verifier::verify`] returned for the pair — prompt-level lineage
    /// (challenge C4) for the caller that wants it. `None` for verifiers
    /// that are not prompt-driven (the default).
    fn transcript(
        &self,
        object: &DataObject,
        evidence: InstanceRef<'_>,
        output: &VerifierOutput,
    ) -> Option<Transcript> {
        let _ = (object, evidence, output);
        None
    }
}
