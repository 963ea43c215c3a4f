//! The generic LLM verifier (ChatGPT's role as the default Verifier).

use crate::{Verifier, VerifierOutput};
use verifai_lake::InstanceRef;
use verifai_llm::{DataObject, LlmVerdict, SimLlm, Transcript};

/// Wraps the simulated LLM as a [`Verifier`]. Supports every modality pair —
/// the paper's "one-size-fits-all model such as ChatGPT".
#[derive(Debug, Clone)]
pub struct LlmVerifier {
    llm: SimLlm,
}

impl LlmVerifier {
    /// Verifier over the given model.
    pub fn new(llm: SimLlm) -> LlmVerifier {
        LlmVerifier { llm }
    }

    /// The wrapped model.
    pub fn llm(&self) -> &SimLlm {
        &self.llm
    }
}

impl Verifier for LlmVerifier {
    fn name(&self) -> &'static str {
        "chatgpt-sim"
    }

    fn supports(&self, _object: &DataObject, _evidence: InstanceRef<'_>) -> bool {
        true
    }

    fn verify(&self, object: &DataObject, evidence: InstanceRef<'_>) -> VerifierOutput {
        let out = self.llm.verify(object, evidence);
        VerifierOutput {
            verdict: out.verdict,
            explanation: out.explanation,
        }
    }

    fn transcript(
        &self,
        object: &DataObject,
        evidence: InstanceRef<'_>,
        output: &VerifierOutput,
    ) -> Option<Transcript> {
        let verdict = LlmVerdict {
            verdict: output.verdict,
            explanation: output.explanation.clone(),
        };
        Some(self.llm.transcript(object, evidence, &verdict))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_lake::{Column, DataInstance, DataType, Schema, Tuple, Value};
    use verifai_llm::{ImputedCell, SimLlmConfig, Verdict, WorldModel};

    #[test]
    fn delegates_to_llm_and_keeps_transcript() {
        let v = LlmVerifier::new(SimLlm::new(SimLlmConfig::oracle(1), WorldModel::new()));
        let schema = Schema::new(vec![
            Column::key("district", DataType::Text),
            Column::new("incumbent", DataType::Text),
        ]);
        let obj = DataObject::ImputedCell(ImputedCell {
            id: 0,
            tuple: Tuple {
                id: 0,
                table: 0,
                row_index: 0,
                schema: schema.clone(),
                values: vec![Value::text("NY-1"), Value::Null],
                source: 0,
            },
            column: "incumbent".into(),
            value: Value::text("Otis Pike"),
        });
        let evidence = DataInstance::Tuple(Tuple {
            id: 1,
            table: 1,
            row_index: 0,
            schema,
            values: vec![Value::text("NY-1"), Value::text("Otis Pike")],
            source: 0,
        });
        let evidence = evidence.view();
        assert!(v.supports(&obj, evidence));
        let out = v.verify(&obj, evidence);
        assert_eq!(out.verdict, Verdict::Verified);
        let transcript = v
            .transcript(&obj, evidence, &out)
            .expect("the LLM verifier is prompt-driven");
        assert!(transcript.messages[0]
            .content
            .starts_with("Please use the evidence below"));
        assert_eq!(
            transcript.messages[1].content,
            format!("Result: Verified. {}", out.explanation)
        );
        assert_eq!(v.name(), "chatgpt-sim");
    }
}
