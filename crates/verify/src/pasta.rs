//! The PASTA-style local (text, table) verifier.
//!
//! PASTA (Gu et al., EMNLP 2022) is a fact-verification model pre-trained with
//! sentence-table cloze objectives to be *table-operations aware*. Our local
//! model makes that literal: a claim is parsed into an operation AST
//! ([`verifai_claims::parse_claim`]) and executed against the table.
//!
//! Two properties of the real model are reproduced mechanically:
//!
//! * **Binary output.** PASTA answers only true/false (paper §4, evaluation
//!   metric case 3: its "false" on not-related evidence is counted correct).
//! * **Out-of-distribution collapse.** PASTA "hasn't encountered [irrelevant
//!   tables] during training" and drops from 0.89 to 0.72 accuracy on retrieved
//!   tables. Here that happens for structural reasons: when the executor cannot
//!   bind the claim to the table ([`ExecOutcome::Unsupported`]), the model was
//!   never trained to abstain and instead emits a miscalibrated guess
//!   ([`PastaConfig::spurious_true_rate`]). Likewise claims outside its parser
//!   grammar (hard paraphrases) degrade to a weak lexical-overlap guess.

use crate::{Verifier, VerifierOutput};
use verifai_claims::{execute, parse_claim, ExecOutcome};
use verifai_embed::hashing::{fnv1a, splitmix64, unit_float};
use verifai_lake::{InstanceRef, Table};
use verifai_llm::{DataObject, TextClaim, Verdict};
use verifai_text::sim::containment;
use verifai_text::Analyzer;

/// Behavioural knobs of the PASTA-style model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PastaConfig {
    /// Residual error of the execution backend on parsed claims (the real
    /// model is near-exact on in-distribution inputs but not perfect).
    pub exec_error_rate: f64,
    /// Probability of outputting "true" when the table cannot actually bind
    /// the claim — the untrained-regime miscalibration. Under the paper's
    /// metric every such "true" is wrong, so this directly controls the
    /// retrieved-table accuracy drop.
    pub spurious_true_rate: f64,
    /// Probability of guessing "true" when the claim fails to parse and the
    /// lexical fallback is uninformative.
    pub fallback_true_rate: f64,
    /// Seed for hash-derived draws.
    pub seed: u64,
}

impl Default for PastaConfig {
    fn default() -> Self {
        PastaConfig {
            exec_error_rate: 0.03,
            spurious_true_rate: 0.40,
            fallback_true_rate: 0.5,
            seed: 0x9a57a,
        }
    }
}

/// The local table-fact-verification model.
#[derive(Debug, Clone)]
pub struct PastaVerifier {
    config: PastaConfig,
    analyzer: Analyzer,
}

impl PastaVerifier {
    /// Model with the given configuration.
    pub fn new(config: PastaConfig) -> PastaVerifier {
        PastaVerifier {
            config,
            analyzer: Analyzer::standard(),
        }
    }

    /// Model with default (paper-calibrated) configuration.
    pub fn with_defaults() -> PastaVerifier {
        PastaVerifier::new(PastaConfig::default())
    }

    fn chance(&self, tags: &[u64], p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let mut h = self.config.seed;
        for &t in tags {
            h = splitmix64(h ^ t.wrapping_mul(0x9e3779b97f4a7c15));
        }
        unit_float(h) < p
    }

    /// The model's binary judgment of a claim against a table.
    pub fn verify_binary(&self, claim: &TextClaim, table: &Table) -> bool {
        let claim_tag = fnv1a(claim.text.as_bytes(), self.config.seed);
        let tags = [claim_tag, table.id, 0x9a];
        // The local model only sees the claim *text*: unlike the LLM it has no
        // robust language understanding to fall back on.
        match parse_claim(&claim.text) {
            Some(expr) => match execute(&expr, table) {
                ExecOutcome::True => !self.chance(&tags, self.config.exec_error_rate),
                ExecOutcome::False => self.chance(&tags, self.config.exec_error_rate),
                ExecOutcome::Unsupported => {
                    // Never trained to abstain: force a miscalibrated answer.
                    self.chance(&[tags[0], tags[1], 0x0d], self.config.spurious_true_rate)
                }
            },
            None => {
                // Parse failure (hard paraphrase): fall back to weak lexical
                // overlap between claim and table, biased by the guess rate.
                let claim_terms = self.analyzer.analyze(&claim.text);
                let table_terms = self.analyzer.analyze(&verifai_text::serialize_table(table));
                let overlap = containment(&claim_terms, &table_terms);
                let p_true =
                    (self.config.fallback_true_rate + 0.3 * (overlap - 0.5)).clamp(0.05, 0.95);
                self.chance(&[tags[0], tags[1], 0x0e], p_true)
            }
        }
    }
}

impl Verifier for PastaVerifier {
    fn name(&self) -> &'static str {
        "pasta"
    }

    fn supports(&self, object: &DataObject, evidence: InstanceRef<'_>) -> bool {
        matches!(
            (object, evidence),
            (DataObject::TextClaim(_), InstanceRef::Table(_))
        )
    }

    fn verify(&self, object: &DataObject, evidence: InstanceRef<'_>) -> VerifierOutput {
        let (DataObject::TextClaim(claim), InstanceRef::Table(table)) = (object, evidence) else {
            return VerifierOutput {
                verdict: Verdict::NotRelated,
                explanation: "PASTA only handles (text, table) pairs.".to_string(),
            };
        };
        let answer = self.verify_binary(claim, table);
        VerifierOutput {
            // Binary model: never emits NotRelated.
            verdict: if answer {
                Verdict::Verified
            } else {
                Verdict::Refuted
            },
            explanation: format!(
                "PASTA judges the claim {} by table '{}'.",
                if answer { "entailed" } else { "not entailed" },
                table.caption()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_lake::{Column, DataInstance, DataType, Schema, Value};

    fn ncaa_table() -> Table {
        let mut t = Table::new(
            1,
            "1959 NCAA Track and Field Championships",
            Schema::new(vec![
                Column::key("team", DataType::Text),
                Column::new("points", DataType::Int),
            ]),
            0,
        );
        for (team, pts) in [("Kansas", 42), ("Brown", 1), ("Yale", 1)] {
            t.push_row(vec![Value::text(team), Value::Int(pts)])
                .unwrap();
        }
        t
    }

    fn claim(text: &str) -> TextClaim {
        TextClaim {
            id: 0,
            text: text.into(),
            expr: None,
            scope: None,
        }
    }

    #[test]
    fn exact_on_parseable_claims() {
        let p = PastaVerifier::new(PastaConfig {
            exec_error_rate: 0.0,
            ..Default::default()
        });
        let t = ncaa_table();
        assert!(p.verify_binary(&claim("in the c, the points of Brown is 1"), &t));
        assert!(!p.verify_binary(&claim("in the c, the points of Brown is 9"), &t));
        assert!(p.verify_binary(
            &claim("in the c, the number of rows where points is 1 is 2"),
            &t
        ));
    }

    #[test]
    fn binary_verdicts_only() {
        let p = PastaVerifier::with_defaults();
        let t = ncaa_table();
        for text in [
            "in the c, the points of Brown is 1",
            "in the c, the points of Brown is 9",
            "nobody tops Kansas when it comes to points in the c", // unparseable
        ] {
            let out = p.verify(
                &DataObject::TextClaim(claim(text)),
                DataInstance::Table(t.clone()).view(),
            );
            assert_ne!(
                out.verdict,
                Verdict::NotRelated,
                "PASTA must answer true/false: {text}"
            );
        }
    }

    #[test]
    fn untrained_regime_emits_spurious_trues() {
        // On tables that cannot bind the claim, the model guesses "true" at
        // roughly spurious_true_rate.
        let p = PastaVerifier::new(PastaConfig {
            spurious_true_rate: 0.40,
            ..Default::default()
        });
        let mut film = Table::new(
            9,
            "2007 dance films",
            Schema::new(vec![
                Column::key("film", DataType::Text),
                Column::new("year", DataType::Int),
            ]),
            0,
        );
        film.push_row(vec![Value::text("Stomp the Yard"), Value::Int(2007)])
            .unwrap();
        let trues = (0..400)
            .filter(|i| {
                let c = claim(&format!(
                    "in the championships {i}, the points of Brown is {i}"
                ));
                p.verify_binary(&c, &film)
            })
            .count();
        let rate = trues as f64 / 400.0;
        assert!(
            (0.22..0.42).contains(&rate),
            "spurious-true rate {rate} far from 0.32"
        );
    }

    #[test]
    fn deterministic() {
        let p = PastaVerifier::with_defaults();
        let t = ncaa_table();
        let c = claim("the championships show points adding up to 44 overall");
        assert_eq!(p.verify_binary(&c, &t), p.verify_binary(&c, &t));
    }

    #[test]
    fn supports_only_text_table() {
        let p = PastaVerifier::with_defaults();
        let obj = DataObject::TextClaim(claim("x"));
        assert!(p.supports(&obj, DataInstance::Table(ncaa_table()).view()));
        let doc = DataInstance::Text(verifai_lake::TextDocument::new(1, "t", "b", 0));
        assert!(!p.supports(&obj, doc.view()));
    }
}
