//! The Agent: verifier selection (paper §3.3).
//!
//! "It utilizes multiple Verifiers, each tailored to a specific task. An Agent
//! decides which Verifier to use for a given task." The policy captures the
//! paper's stated trade-off: local models for privacy and in-distribution
//! accuracy, the generic LLM for coverage and generalization.

use crate::{Verifier, VerifierOutput};
use verifai_lake::InstanceRef;
use verifai_llm::DataObject;

/// Verifier-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentPolicy {
    /// Prefer a local model that supports the pair; fall back to the generic
    /// LLM. The privacy-preserving default for sensitive deployments.
    PreferLocal,
    /// Always use the generic LLM (the paper's simple default).
    LlmOnly,
}

/// Dispatches (object, evidence) pairs to verifiers.
pub struct Agent {
    /// Localized models, in priority order.
    local: Vec<Box<dyn Verifier>>,
    /// The generic fallback (supports everything).
    generic: Box<dyn Verifier>,
    policy: AgentPolicy,
}

impl Agent {
    /// Agent over the given local verifiers and generic fallback.
    pub fn new(
        local: Vec<Box<dyn Verifier>>,
        generic: Box<dyn Verifier>,
        policy: AgentPolicy,
    ) -> Agent {
        Agent {
            local,
            generic,
            policy,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> AgentPolicy {
        self.policy
    }

    /// Pick the verifier for a pair.
    pub fn choose(&self, object: &DataObject, evidence: InstanceRef<'_>) -> &dyn Verifier {
        if self.policy == AgentPolicy::PreferLocal {
            for v in &self.local {
                if v.supports(object, evidence) {
                    return v.as_ref();
                }
            }
        }
        self.generic.as_ref()
    }

    /// Verify a pair with the chosen verifier; returns the output and the
    /// verifier's name for provenance.
    pub fn verify(
        &self,
        object: &DataObject,
        evidence: InstanceRef<'_>,
    ) -> (VerifierOutput, &'static str) {
        let v = self.choose(object, evidence);
        (v.verify(object, evidence), v.name())
    }
}

impl std::fmt::Debug for Agent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Agent")
            .field("policy", &self.policy)
            .field(
                "local",
                &self.local.iter().map(|v| v.name()).collect::<Vec<_>>(),
            )
            .field("generic", &self.generic.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llm_verifier::LlmVerifier;
    use crate::pasta::PastaVerifier;
    use crate::tuple_model::TupleModelVerifier;
    use verifai_lake::{Column, DataInstance, DataType, Schema, Table, Tuple, Value};
    use verifai_llm::{ImputedCell, SimLlm, SimLlmConfig, TextClaim, WorldModel};

    fn agent(policy: AgentPolicy) -> Agent {
        Agent::new(
            vec![
                Box::new(PastaVerifier::with_defaults()),
                Box::new(TupleModelVerifier::with_defaults()),
            ],
            Box::new(LlmVerifier::new(SimLlm::new(
                SimLlmConfig::oracle(1),
                WorldModel::new(),
            ))),
            policy,
        )
    }

    fn claim_object() -> DataObject {
        DataObject::TextClaim(TextClaim {
            id: 0,
            text: "in the c, the x of y is 1".into(),
            expr: None,
            scope: None,
        })
    }

    fn table_evidence() -> DataInstance {
        DataInstance::Table(Table::new(1, "c", Schema::default(), 0))
    }

    fn tuple_evidence() -> DataInstance {
        DataInstance::Tuple(Tuple {
            id: 1,
            table: 1,
            row_index: 0,
            schema: Schema::new(vec![Column::key("k", DataType::Text)]),
            values: vec![Value::text("v")],
            source: 0,
        })
    }

    #[test]
    fn prefer_local_routes_by_modality() {
        let a = agent(AgentPolicy::PreferLocal);
        assert_eq!(
            a.choose(&claim_object(), table_evidence().view()).name(),
            "pasta"
        );
        let cell = DataObject::ImputedCell(ImputedCell {
            id: 0,
            tuple: Tuple {
                id: 0,
                table: 0,
                row_index: 0,
                schema: Schema::new(vec![Column::key("k", DataType::Text)]),
                values: vec![Value::text("v")],
                source: 0,
            },
            column: "k".into(),
            value: Value::text("v"),
        });
        assert_eq!(
            a.choose(&cell, tuple_evidence().view()).name(),
            "roberta-tuple"
        );
        // No local model handles (claim, tuple): falls back to the LLM.
        assert_eq!(
            a.choose(&claim_object(), tuple_evidence().view()).name(),
            "chatgpt-sim"
        );
    }

    #[test]
    fn llm_only_ignores_locals() {
        let a = agent(AgentPolicy::LlmOnly);
        assert_eq!(
            a.choose(&claim_object(), table_evidence().view()).name(),
            "chatgpt-sim"
        );
    }

    #[test]
    fn verify_reports_chosen_verifier() {
        let a = agent(AgentPolicy::PreferLocal);
        let (_, name) = a.verify(&claim_object(), table_evidence().view());
        assert_eq!(name, "pasta");
    }
}
