//! Grounded verification reasoning — ChatGPT's second role in the paper.
//!
//! Given a generated [`DataObject`] and one retrieved evidence instance —
//! read where it lies, as an [`InstanceRef`] — the simulated LLM produces a
//! ternary [`Verdict`] plus a natural-language explanation (the red boxes of
//! the paper's Figure 4). The prompt/response [`Transcript`] of a call is
//! rendered on request ([`SimLlm::transcript`]), not per call: it is a pure
//! function of the pair and the verdict, and most verdicts are never audited
//! at prompt level.
//!
//! The reasoning is genuine — value matching, fact-sentence scanning, claim
//! execution — with residual hash-derived error channels for the things real
//! LLMs get wrong: multi-row arithmetic ([`aggregate_error_rate`]) more than
//! single-cell lookups ([`lookup_error_rate`]), and a small chance of missing
//! that evidence is unrelated ([`relatedness_error_rate`]). Those asymmetries
//! are what produce the paper's Table 2 crossover against the local PASTA
//! model.
//!
//! [`aggregate_error_rate`]: crate::SimLlmConfig::aggregate_error_rate
//! [`lookup_error_rate`]: crate::SimLlmConfig::lookup_error_rate
//! [`relatedness_error_rate`]: crate::SimLlmConfig::relatedness_error_rate

use std::borrow::Cow;
use std::cell::RefCell;

use crate::generate::{entity_key, key_values, push_entity_key, SimLlm};
use crate::object::{DataObject, ImputedCell, TextClaim, Verdict};
use crate::prompt::{verification_prompt, Transcript};
use verifai_claims::{
    aggregate_value, execute, parse_claim, scope_relation_normalized, ClaimExpr, ExecOutcome,
    ScopeRelation,
};
use verifai_lake::value::normalize_onto;
use verifai_lake::{InstanceRef, KgEntity, NormalizedText, Table, TextDocument, TupleRef, Value};

/// The result of one grounded verification call.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmVerdict {
    /// Ternary outcome.
    pub verdict: Verdict,
    /// Natural-language justification (Figure 4's "further explanation").
    pub explanation: String,
}

/// Stable tag for an evidence instance, fed into noise channels.
fn evidence_tag(evidence: InstanceRef<'_>) -> u64 {
    let kind = match evidence {
        InstanceRef::Tuple(_) => 1u64,
        InstanceRef::Table(_) => 2,
        InstanceRef::Text(_) => 3,
        InstanceRef::Kg(_) => 4,
    };
    (kind << 56) ^ evidence.id().raw()
}

/// Swap Verified and Refuted, leaving the non-judgements untouched.
fn flip(v: Verdict) -> Verdict {
    match v {
        Verdict::Verified => Verdict::Refuted,
        Verdict::Refuted => Verdict::Verified,
        Verdict::NotRelated | Verdict::Unknown => v,
    }
}

/// Per-thread buffers for what a verify call derives from the *object* —
/// the fact pattern it looks for, its entity key, its scope normalized — and
/// the text [`scan_fact`] normalizes on the fly. Evidence is never
/// normalized here: a document and a caption arrive prepared
/// ([`TextDocument::normalized`], [`Table::normalized_caption`]). Once the
/// buffers have grown, a verify call allocates nothing for them.
#[derive(Default)]
struct Scratch {
    needle: String,
    entity: String,
    column: String,
    scope: String,
    text: NormalizedText,
}

/// Normalize `s` into `buffer` in place of what it held — `normalize_str`
/// without the allocation.
fn normalize_into<'b>(buffer: &'b mut String, s: &str) -> &'b str {
    buffer.clear();
    normalize_onto(buffer, s);
    buffer.trim_end_matches(' ')
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Run `f` over this thread's scratch buffers.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// The value asserted by the first sentence of `text` of the pattern
/// `"... {attribute} of {entity} is {value}"`, normalized. `needle` is
/// scratch space for the pattern.
fn fact<'t>(
    text: &'t NormalizedText,
    needle: &mut String,
    entity: &str,
    attribute: &str,
) -> Option<&'t str> {
    // Append `s` normalized; false if it normalizes to nothing.
    fn push_normalized(needle: &mut String, s: &str) -> bool {
        let at = needle.len();
        normalize_onto(needle, s);
        if needle.len() > at && needle.ends_with(' ') {
            needle.pop();
        }
        needle.len() > at
    }
    needle.clear();
    if !push_normalized(needle, attribute) {
        return None;
    }
    needle.push_str(" of ");
    if !push_normalized(needle, entity) {
        return None;
    }
    needle.push_str(" is ");
    let needle = needle.as_str();
    text.sentences().find_map(|sentence| {
        let pos = sentence.find(needle)?;
        let value = sentence[pos + needle.len()..].trim();
        (!value.is_empty()).then_some(value)
    })
}

/// Scan text for the fact sentence pattern `"... {attr} of {entity} is {value}"`
/// and return the (normalized) asserted value. Sentences are split on `.` and
/// normalized before matching, so stylistic prefixes don't matter.
pub fn scan_fact(text: &str, entity: &str, attribute: &str) -> Option<String> {
    with_scratch(|scratch| {
        scratch.text.read(&[text]);
        fact(&scratch.text, &mut scratch.needle, entity, attribute).map(str::to_string)
    })
}

/// The claim's semantics: its known expression, borrowed, or a parse of its
/// text.
fn claim_expr(claim: &TextClaim) -> Option<Cow<'_, ClaimExpr>> {
    match &claim.expr {
        Some(expr) => Some(Cow::Borrowed(expr)),
        None => parse_claim(&claim.text).map(Cow::Owned),
    }
}

impl SimLlm {
    /// Verify a generated data object against one retrieved evidence
    /// instance, owned (`&DataInstance`) or read in place (`InstanceRef`).
    pub fn verify<'a>(
        &self,
        object: &DataObject,
        evidence: impl Into<InstanceRef<'a>>,
    ) -> LlmVerdict {
        let evidence = evidence.into();
        let tag = evidence_tag(evidence);
        let (verdict, explanation) = match (object, evidence) {
            (DataObject::ImputedCell(cell), InstanceRef::Tuple(t)) => {
                self.verify_cell_vs_tuple(cell, t, tag)
            }
            (DataObject::ImputedCell(cell), InstanceRef::Text(d)) => {
                self.verify_cell_vs_text(cell, d, tag)
            }
            (DataObject::ImputedCell(cell), InstanceRef::Table(t)) => {
                self.verify_cell_vs_table(cell, t, tag)
            }
            (DataObject::TextClaim(claim), InstanceRef::Table(t)) => {
                self.verify_claim_vs_table(claim, t, tag)
            }
            (DataObject::TextClaim(claim), InstanceRef::Tuple(t)) => {
                self.verify_claim_vs_tuple(claim, t, tag)
            }
            (DataObject::TextClaim(claim), InstanceRef::Text(d)) => {
                self.verify_claim_vs_text(claim, d, tag)
            }
            (DataObject::ImputedCell(cell), InstanceRef::Kg(e)) => {
                self.verify_cell_vs_kg(cell, e, tag)
            }
            (DataObject::TextClaim(claim), InstanceRef::Kg(e)) => {
                self.verify_claim_vs_kg(claim, e, tag)
            }
        };
        LlmVerdict {
            verdict,
            explanation,
        }
    }

    /// The prompt/response exchange of [`SimLlm::verify`] for this pair and
    /// the verdict it returned, for prompt-level provenance (challenge C4):
    /// the paper's verification prompt over the serialized evidence, and
    /// the model's reply.
    pub fn transcript<'a>(
        &self,
        object: &DataObject,
        evidence: impl Into<InstanceRef<'a>>,
        verdict: &LlmVerdict,
    ) -> Transcript {
        let mut transcript = Transcript::default();
        transcript.user(verification_prompt(
            &verifai_text::serialize_instance(evidence),
            &object.render(),
        ));
        transcript.assistant(format!(
            "Result: {}. {}",
            verdict.verdict, verdict.explanation
        ));
        transcript
    }

    /// Apply the Verified/Refuted flip channel.
    fn noisy(&self, base: Verdict, tags: &[u64], p: f64) -> Verdict {
        if base != Verdict::NotRelated && self.chance(tags, p) {
            flip(base)
        } else {
            base
        }
    }

    /// Apply the missed-relatedness channel: hallucinate a verdict for
    /// unrelated evidence with probability `relatedness_error_rate`.
    fn relatedness_noise(&self, tags: &[u64]) -> Verdict {
        if self.chance(tags, self.config().relatedness_error_rate) {
            if self.chance(&[tags[0], tags[1], 0xa17], 0.5) {
                Verdict::Verified
            } else {
                Verdict::Refuted
            }
        } else {
            Verdict::NotRelated
        }
    }

    // -- (imputed cell, tuple) ------------------------------------------------

    fn verify_cell_vs_tuple(
        &self,
        cell: &ImputedCell,
        tuple: TupleRef<'_>,
        tag: u64,
    ) -> (Verdict, String) {
        let tags = [cell.id, tag, 0x71];
        // Relatedness: every key value of the generated tuple must appear
        // somewhere in the evidence tuple.
        let mut keys = key_values(&cell.tuple).peekable();
        let related =
            keys.peek().is_some() && keys.all(|k| tuple.values.iter().any(|v| v.matches(k)));
        if !related {
            let v = self.relatedness_noise(&tags);
            return (
                v,
                "The evidence tuple describes a different entity.".to_string(),
            );
        }
        // `TupleRef::get_fuzzy`, with the column normalized into scratch.
        let column = with_scratch(|scratch| {
            let want = normalize_into(&mut scratch.column, &cell.column);
            tuple.schema.fuzzy_index_of_normalized(want)
        });
        match column.and_then(|i| tuple.values.get(i)) {
            Some(actual) if !actual.is_null() => {
                let matches = actual.matches(&cell.value);
                let base = if matches {
                    Verdict::Verified
                } else {
                    Verdict::Refuted
                };
                let v = self.noisy(base, &tags, self.config().tuple_verify_error_rate);
                let expl = if matches {
                    format!(
                        "The evidence tuple records {} = {}, matching the generated value.",
                        cell.column, actual
                    )
                } else {
                    format!(
                        "The evidence tuple records {} = {}, contradicting the generated value {}.",
                        cell.column, actual, cell.value
                    )
                };
                (v, expl)
            }
            _ => (
                self.relatedness_noise(&tags),
                format!(
                    "The evidence tuple has no usable {} attribute.",
                    cell.column
                ),
            ),
        }
    }

    // -- (imputed cell, text) -------------------------------------------------

    fn verify_cell_vs_text(
        &self,
        cell: &ImputedCell,
        doc: &TextDocument,
        tag: u64,
    ) -> (Verdict, String) {
        let tags = [cell.id, tag, 0x72];
        let text = doc.normalized();
        let asserted = with_scratch(|scratch| {
            push_entity_key(&mut scratch.entity, &cell.tuple);
            let entity = scratch.entity.as_str();
            text.contains(entity)
                .then(|| fact(text, &mut scratch.needle, entity, &cell.column))
        });
        match asserted {
            None => {
                let v = self.relatedness_noise(&tags);
                (
                    v,
                    "The text does not mention the entity in question.".to_string(),
                )
            }
            Some(Some(asserted)) => {
                let generated = cell.value.normalized();
                let matches = asserted == generated
                    || match (cell.value.as_f64(), Value::infer(asserted).as_f64()) {
                        (Some(a), Some(b)) => verifai_lake::value::float_eq(a, b),
                        _ => false,
                    };
                let base = if matches {
                    Verdict::Verified
                } else {
                    Verdict::Refuted
                };
                let v = self.noisy(base, &tags, self.config().tuple_verify_error_rate);
                let expl = if matches {
                    format!(
                        "The text states the {} is '{asserted}', which matches.",
                        cell.column
                    )
                } else {
                    format!(
                        "The text states the {} is '{asserted}', not '{generated}'.",
                        cell.column
                    )
                };
                (v, expl)
            }
            Some(None) => (
                self.relatedness_noise(&tags),
                format!(
                    "The text mentions the entity but says nothing about its {}.",
                    cell.column
                ),
            ),
        }
    }

    // -- (imputed cell, table) ------------------------------------------------

    fn verify_cell_vs_table(
        &self,
        cell: &ImputedCell,
        table: &Table,
        tag: u64,
    ) -> (Verdict, String) {
        // Reason over each row as a tuple and take the strongest signal.
        let mut saw_refuted = false;
        for row in 0..table.num_rows() {
            let Some(t) = table.tuple_ref_at(row, row as u64) else {
                continue;
            };
            let (v, expl) = self.verify_cell_vs_tuple(cell, t, tag);
            match v {
                Verdict::Verified => {
                    return (
                        Verdict::Verified,
                        format!("Row {} of the table: {expl}", row + 1),
                    )
                }
                Verdict::Refuted => saw_refuted = true,
                Verdict::NotRelated | Verdict::Unknown => {}
            }
        }
        if saw_refuted {
            (
                Verdict::Refuted,
                "A matching row in the evidence table contradicts the generated value.".to_string(),
            )
        } else {
            (
                Verdict::NotRelated,
                "No row of the evidence table concerns this entity.".to_string(),
            )
        }
    }

    // -- (claim, table) ---------------------------------------------------------

    fn verify_claim_vs_table(
        &self,
        claim: &TextClaim,
        table: &Table,
        tag: u64,
    ) -> (Verdict, String) {
        // Caption-scope check — the LLM's contextual strength, and the paper's
        // Figure 4 mechanism: E2 is "not related because it is for the year
        // 1959". An out-of-scope table (e.g. the same championship series but
        // a different year) can neither support nor refute the claim. A table
        // matched only by an under-specified (vague) scope gets the existential
        // reading: it can verify the claim but not single-handedly refute it.
        let relation = match claim.scope.as_deref() {
            Some(scope) => with_scratch(|scratch| {
                let scope = normalize_into(&mut scratch.scope, scope);
                scope_relation_normalized(scope, table.normalized_caption())
            }),
            None => ScopeRelation::Partial,
        };
        self.judge_claim_on_table(claim, claim_expr(claim), relation, table, tag)
    }

    /// Judge a claim — read as `expr`, its scope standing in `relation` to
    /// the table's caption — against a table.
    fn judge_claim_on_table(
        &self,
        claim: &TextClaim,
        expr: Option<Cow<'_, ClaimExpr>>,
        relation: ScopeRelation,
        table: &Table,
        tag: u64,
    ) -> (Verdict, String) {
        let tags = [claim.id, tag, 0x73];
        // Misread channel: the model occasionally misunderstands the sentence.
        if self.chance(&[tags[0], tags[1], 0x3f], self.config().misread_rate) {
            let pick = self.chance(&[tags[0], tags[1], 0x40], 0.5);
            let v = if pick {
                Verdict::Verified
            } else {
                Verdict::Refuted
            };
            return (
                v,
                "The claim was interpreted loosely against the table.".to_string(),
            );
        }
        if relation == ScopeRelation::Mismatch {
            let scope = claim.scope.as_deref().unwrap_or_default();
            let v = self.relatedness_noise(&tags);
            return (
                v,
                format!(
                    "The claim concerns '{scope}', but the evidence table is \
                     '{}'; it is not related.",
                    table.caption()
                ),
            );
        }
        // Language understanding: the LLM grasps the claim even in hard
        // paraphrase (its strength); fall back to the grammar parser otherwise.
        let Some(expr) = expr else {
            // No reading of the claim at all — judge relatedness lexically.
            return (
                self.relatedness_noise(&tags),
                "The claim could not be related to the evidence table.".to_string(),
            );
        };
        match execute(&expr, table) {
            ExecOutcome::Unsupported => {
                let v = self.relatedness_noise(&tags);
                (v, explain_unsupported(&expr, table))
            }
            ExecOutcome::False if relation == ScopeRelation::Partial => {
                // Existential reading of an under-specified claim: this family
                // member does not bear it out, but another might — abstain.
                let v = self.relatedness_noise(&tags);
                (
                    v,
                    format!(
                        "The evidence table '{}' does not bear the claim out, but the \
                         claim does not pin down which table it refers to; it cannot be \
                         refuted from this table alone.",
                        table.caption()
                    ),
                )
            }
            outcome => {
                let err = if expr.is_aggregate_like() {
                    self.config().aggregate_error_rate
                } else {
                    self.config().lookup_error_rate
                };
                let base = if outcome == ExecOutcome::True {
                    Verdict::Verified
                } else {
                    Verdict::Refuted
                };
                let v = self.noisy(base, &tags, err);
                (v, explain_outcome(&expr, table, v))
            }
        }
    }

    // -- (claim, tuple) ---------------------------------------------------------

    fn verify_claim_vs_tuple(
        &self,
        claim: &TextClaim,
        tuple: TupleRef<'_>,
        tag: u64,
    ) -> (Verdict, String) {
        // View the tuple as a one-row table; single-row evidence can support
        // lookups but never aggregates. A tuple is *direct* evidence about its
        // subject — no caption family to be ambiguous over — so the pseudo-table
        // takes the claim's own scope as caption (relation Exact, or Partial
        // for a scope that normalizes to nothing): a tuple that contradicts a
        // lookup about its subject refutes it outright.
        let expr = claim_expr(claim);
        if expr.as_deref().is_some_and(ClaimExpr::is_aggregate_like) {
            return (
                Verdict::NotRelated,
                "A single tuple cannot establish a claim about the whole table.".to_string(),
            );
        }
        let caption = claim.scope.as_deref().unwrap_or("evidence tuple");
        let mut table = Table::new(u64::MAX, caption, tuple.schema.clone(), tuple.source);
        let _ = table.push_row(tuple.values.to_vec());
        let relation = if table.normalized_caption().is_empty() {
            ScopeRelation::Partial
        } else {
            ScopeRelation::Exact
        };
        self.judge_claim_on_table(claim, expr, relation, &table, tag)
    }

    // -- (claim, text) ----------------------------------------------------------

    fn verify_claim_vs_text(
        &self,
        claim: &TextClaim,
        doc: &TextDocument,
        tag: u64,
    ) -> (Verdict, String) {
        let tags = [claim.id, tag, 0x74];
        let expr = claim_expr(claim);
        let Some(ClaimExpr::Lookup {
            key,
            column,
            op,
            value,
            ..
        }) = expr.as_deref()
        else {
            return (
                Verdict::NotRelated,
                "The text evidence cannot evaluate a table-level claim.".to_string(),
            );
        };
        let text = doc.normalized();
        let asserted =
            with_scratch(|scratch| fact(text, &mut scratch.needle, &key.to_string(), column));
        match asserted {
            Some(asserted) => {
                // Evaluate the claim's comparison against the asserted value —
                // a negated claim ("is not X") is REFUTED by a text asserting X.
                let asserted_value = Value::infer(asserted);
                let holds = op.eval(&asserted_value, value);
                let base = if holds {
                    Verdict::Verified
                } else {
                    Verdict::Refuted
                };
                let v = self.noisy(base, &tags, self.config().tuple_verify_error_rate);
                let expl = format!(
                    "The text states the {column} of {key} is '{asserted}'{}.",
                    if holds {
                        ", as claimed"
                    } else {
                        ", contradicting the claim"
                    }
                );
                (v, expl)
            }
            None => (
                self.relatedness_noise(&tags),
                "The text says nothing about the claimed fact.".to_string(),
            ),
        }
    }
}

impl SimLlm {
    // -- (imputed cell, knowledge-graph entity) -------------------------------
    //
    // The cross-modal pair the paper's §5 singles out: a small subgraph either
    // asserts the disputed fact or it does not.

    fn verify_cell_vs_kg(
        &self,
        cell: &ImputedCell,
        entity: &KgEntity,
        tag: u64,
    ) -> (Verdict, String) {
        let tags = [cell.id, tag, 0x75];
        let subject = entity_key(&cell.tuple);
        if !entity.is_about(&subject) {
            let v = self.relatedness_noise(&tags);
            return (
                v,
                "The knowledge-graph entity is a different subject.".to_string(),
            );
        }
        match entity.object_of(&cell.column) {
            Some(object) if !object.is_null() => {
                let matches = object.matches(&cell.value);
                let base = if matches {
                    Verdict::Verified
                } else {
                    Verdict::Refuted
                };
                let v = self.noisy(base, &tags, self.config().tuple_verify_error_rate);
                let expl = if matches {
                    format!(
                        "The knowledge graph asserts ({}, {}, {}), matching the generated value.",
                        entity.name, cell.column, object
                    )
                } else {
                    format!(
                        "The knowledge graph asserts ({}, {}, {}), contradicting the generated \
                         value {}.",
                        entity.name, cell.column, object, cell.value
                    )
                };
                (v, expl)
            }
            _ => (
                self.relatedness_noise(&tags),
                format!(
                    "The knowledge-graph entity has no {} edge to compare against.",
                    cell.column
                ),
            ),
        }
    }

    // -- (claim, knowledge-graph entity) --------------------------------------

    fn verify_claim_vs_kg(
        &self,
        claim: &TextClaim,
        entity: &KgEntity,
        tag: u64,
    ) -> (Verdict, String) {
        let tags = [claim.id, tag, 0x76];
        let expr = claim_expr(claim);
        let Some(ClaimExpr::Lookup {
            key,
            column,
            op,
            value,
            ..
        }) = expr.as_deref()
        else {
            return (
                Verdict::NotRelated,
                "A single knowledge-graph entity cannot evaluate a table-level claim.".to_string(),
            );
        };
        if !entity.is_about(&key.to_string()) {
            let v = self.relatedness_noise(&tags);
            return (
                v,
                "The knowledge-graph entity is a different subject.".to_string(),
            );
        }
        match entity.object_of(column) {
            Some(object) if !object.is_null() => {
                let holds = op.eval(object, value);
                let base = if holds {
                    Verdict::Verified
                } else {
                    Verdict::Refuted
                };
                let v = self.noisy(base, &tags, self.config().lookup_error_rate);
                let expl = format!(
                    "The knowledge graph asserts ({}, {column}, {object}){}.",
                    entity.name,
                    if holds {
                        ", as claimed"
                    } else {
                        ", contradicting the claim"
                    }
                );
                (v, expl)
            }
            _ => (
                self.relatedness_noise(&tags),
                format!("The knowledge-graph entity has no {column} edge."),
            ),
        }
    }
}

/// Figure-4-style explanation, coherent with the verdict actually emitted:
/// when the error channel flips an aggregate verdict, the model is simulating
/// an arithmetic slip, so the number it *reports* is the one consistent with
/// its (wrong) conclusion rather than the true aggregate.
fn explain_outcome(expr: &ClaimExpr, table: &Table, verdict: Verdict) -> String {
    let relation = if verdict == Verdict::Verified {
        "which supports the claim"
    } else {
        "which refutes the claim"
    };
    match expr {
        ClaimExpr::Aggregate { value: claimed, .. } => {
            let claimed_num = claimed.as_f64();
            let shown = match (verdict, aggregate_value(expr, table), claimed_num) {
                // Supporting the claim: the model believes the aggregate equals
                // the claimed value.
                (Verdict::Verified, _, Some(c)) => Some(c),
                // Refuting: report the computed aggregate — unless it actually
                // equals the claim (a flipped verdict), in which case the slip
                // produced a nearby wrong number.
                (_, Some(actual), Some(c)) => {
                    if (actual - c).abs() <= 1e-3 * actual.abs().max(1.0) {
                        Some(actual + 1.0)
                    } else {
                        Some(actual)
                    }
                }
                (_, actual, _) => actual,
            };
            match shown {
                Some(x) => format!(
                    "An aggregation query over the evidence table '{}' yields {}, {relation}.",
                    table.caption(),
                    trim_float(x)
                ),
                None => format!(
                    "Aggregating the evidence table '{}' decides the claim, {relation}.",
                    table.caption()
                ),
            }
        }
        ClaimExpr::Lookup { key, column, .. } => format!(
            "Looking up {key} in the evidence table '{}' shows its {column}, {relation}.",
            table.caption()
        ),
        ClaimExpr::Superlative { rank_column, .. } => format!(
            "Ranking the evidence table '{}' by {rank_column} decides the claim, {relation}.",
            table.caption()
        ),
    }
}

/// Explanation when the table cannot bind the claim.
fn explain_unsupported(expr: &ClaimExpr, table: &Table) -> String {
    let cols = expr.mentioned_columns().join(", ");
    format!(
        "The evidence table '{}' does not contain the information the claim is about ({cols}); \
         it is not related.",
        table.caption()
    )
}

fn trim_float(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{}", x as i64)
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimLlmConfig;
    use crate::world::WorldModel;
    use verifai_claims::{AggFunc, CmpOp, Predicate};
    use verifai_lake::{Column, DataInstance, DataType, Schema, Tuple};

    fn oracle() -> SimLlm {
        SimLlm::new(SimLlmConfig::oracle(1), WorldModel::new())
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::key("district", DataType::Text),
            Column::new("incumbent", DataType::Text),
        ])
    }

    fn gen_cell(value: &str) -> ImputedCell {
        ImputedCell {
            id: 1,
            tuple: Tuple {
                id: 0,
                table: 0,
                row_index: 0,
                schema: schema(),
                values: vec![Value::text("New York 1"), Value::Null],
                source: 0,
            },
            column: "incumbent".into(),
            value: Value::text(value),
        }
    }

    fn evidence_tuple(district: &str, incumbent: &str) -> DataInstance {
        DataInstance::Tuple(Tuple {
            id: 10,
            table: 2,
            row_index: 0,
            schema: schema(),
            values: vec![Value::text(district), Value::text(incumbent)],
            source: 0,
        })
    }

    #[test]
    fn cell_vs_tuple_verified_refuted_notrelated() {
        let llm = oracle();
        let obj = DataObject::ImputedCell(gen_cell("Otis Pike"));
        let good = llm.verify(&obj, &evidence_tuple("New York 1", "Otis Pike"));
        assert_eq!(good.verdict, Verdict::Verified);
        let bad = llm.verify(&obj, &evidence_tuple("New York 1", "Someone Else"));
        assert_eq!(bad.verdict, Verdict::Refuted);
        assert!(bad.explanation.contains("Someone Else"));
        let other = llm.verify(&obj, &evidence_tuple("Ohio 5", "Otis Pike"));
        assert_eq!(other.verdict, Verdict::NotRelated);
    }

    #[test]
    fn cell_vs_text_scans_fact_sentences() {
        let llm = oracle();
        let obj = DataObject::ImputedCell(gen_cell("Otis Pike"));
        let good = DataInstance::Text(TextDocument::new(
            1,
            "New York 1",
            "New York 1 is a congressional district. The incumbent of New York 1 is Otis Pike.",
            0,
        ));
        assert_eq!(llm.verify(&obj, &good).verdict, Verdict::Verified);

        let bad = DataInstance::Text(TextDocument::new(
            2,
            "New York 1",
            "The incumbent of New York 1 is Stuyvesant Wainwright.",
            0,
        ));
        let v = llm.verify(&obj, &bad);
        assert_eq!(v.verdict, Verdict::Refuted);
        assert!(v.explanation.contains("stuyvesant wainwright"));

        let silent = DataInstance::Text(TextDocument::new(
            3,
            "New York 1",
            "New York 1 is a congressional district on Long Island.",
            0,
        ));
        assert_eq!(llm.verify(&obj, &silent).verdict, Verdict::NotRelated);

        let unrelated = DataInstance::Text(TextDocument::new(
            4,
            "Stomp the Yard",
            "Stomp the Yard is a 2007 film.",
            0,
        ));
        assert_eq!(llm.verify(&obj, &unrelated).verdict, Verdict::NotRelated);
    }

    fn ncaa_table() -> Table {
        let mut t = Table::new(
            30,
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

    /// The Figure 4 case: a count claim refuted by an aggregation query, and a
    /// not-related table correctly set aside, both with explanations.
    #[test]
    fn figure4_count_claim_refuted_with_aggregation_explanation() {
        let llm = oracle();
        // "Brown was the only team to score exactly 1 point" -> count(points=1) = 1.
        let claim = DataObject::TextClaim(TextClaim {
            id: 9,
            text: "in the 1959 NCAA Track and Field Championships, the number of rows where \
                   points is 1 is 1"
                .into(),
            expr: Some(ClaimExpr::Aggregate {
                func: AggFunc::Count,
                column: None,
                predicates: vec![Predicate {
                    column: "points".into(),
                    op: CmpOp::Eq,
                    value: Value::Int(1),
                }],
                op: CmpOp::Eq,
                value: Value::Int(1),
            }),
            // The exact scope the claim text names; with only a vague scope the
            // existential reading would abstain instead of refuting.
            scope: Some("1959 NCAA Track and Field Championships".into()),
        });
        let e1 = DataInstance::Table(ncaa_table());
        let v1 = llm.verify(&claim, &e1);
        assert_eq!(v1.verdict, Verdict::Refuted);
        assert!(
            v1.explanation.contains("aggregation query"),
            "{}",
            v1.explanation
        );
        assert!(v1.explanation.contains('2'), "{}", v1.explanation); // actual count

        // E2: a table about films — not related.
        let mut film = Table::new(
            31,
            "2007 dance films",
            Schema::new(vec![
                Column::key("film", DataType::Text),
                Column::new("lead actor", DataType::Text),
            ]),
            0,
        );
        film.push_row(vec![
            Value::text("Stomp the Yard"),
            Value::text("Columbus Short"),
        ])
        .unwrap();
        let v2 = llm.verify(&claim, &DataInstance::Table(film));
        assert_eq!(v2.verdict, Verdict::NotRelated);
        assert!(v2.explanation.contains("not related"), "{}", v2.explanation);
    }

    #[test]
    fn claim_vs_table_parses_text_when_expr_missing() {
        let llm = oracle();
        let claim = DataObject::TextClaim(TextClaim {
            id: 3,
            text: "in the championships, the points of Brown is 1".into(),
            expr: None,
            scope: None,
        });
        let v = llm.verify(&claim, &DataInstance::Table(ncaa_table()));
        assert_eq!(v.verdict, Verdict::Verified);
    }

    #[test]
    fn claim_vs_tuple_rejects_aggregates() {
        let llm = oracle();
        let claim = DataObject::TextClaim(TextClaim {
            id: 4,
            text: "in the c, the total points is 44".into(),
            expr: None,
            scope: None,
        });
        let t = ncaa_table().tuple_at(0, 50).unwrap();
        let v = llm.verify(&claim, &DataInstance::Tuple(t));
        assert_eq!(v.verdict, Verdict::NotRelated);
    }

    #[test]
    fn transcripts_follow_paper_template() {
        let llm = oracle();
        let obj = DataObject::ImputedCell(gen_cell("Otis Pike"));
        let evidence = evidence_tuple("New York 1", "Otis Pike");
        let v = llm.verify(&obj, &evidence);
        let transcript = llm.transcript(&obj, &evidence, &v);
        let prompt = &transcript.messages[0].content;
        assert!(prompt.starts_with("Please use the evidence below"));
        assert!(prompt.contains("Generative Data:"));
        assert!(transcript.messages[1]
            .content
            .starts_with("Result: Verified"));
    }

    /// The transcript rendered on demand is, word for word, the one
    /// `verify` used to attach to every verdict: one pair of each of the
    /// eight modality combinations against strings captured from that
    /// version.
    #[test]
    fn on_demand_transcripts_equal_the_eager_ones() {
        const PROMPT: &str =
            "Please use the evidence below to validate the generative data.\nEvidence: ";
        const CELL: &str = "\nGenerative Data: tuple [district is New York 1] with generated incumbent = Otis Pike\nResult: Verified/Refuted/Not Related + Further explanation";
        const CLAIM: &str = "\nGenerative Data: claim: in the 1959 NCAA Track and Field Championships, the points of Brown is 1\nResult: Verified/Refuted/Not Related + Further explanation";
        let llm = oracle();
        let cell = DataObject::ImputedCell(gen_cell("Otis Pike"));
        let claim = DataObject::TextClaim(TextClaim {
            id: 20,
            text: "in the 1959 NCAA Track and Field Championships, the points of Brown is 1".into(),
            expr: Some(ClaimExpr::Lookup {
                key_column: "team".into(),
                key: Value::text("Brown"),
                column: "points".into(),
                op: CmpOp::Eq,
                value: Value::Int(1),
            }),
            scope: Some("1959 NCAA Track and Field Championships".into()),
        });
        let mut elections = Table::new(40, "elections", schema(), 0);
        elections
            .push_row(vec![Value::text("Ohio 5"), Value::Null])
            .unwrap();
        elections
            .push_row(vec![Value::text("New York 1"), Value::text("Otis Pike")])
            .unwrap();
        let mut ny = KgEntity::new(60, "New York 1", 0);
        ny.assert_fact("incumbent", Value::text("Otis Pike"));
        ny.assert_fact("first elected", Value::Int(1960));
        let mut brown = KgEntity::new(70, "Brown", 0);
        brown.assert_fact("points", Value::Int(1));
        let cases = [
            (
                &cell,
                DataInstance::Tuple(elections.tuple_at(1, 10).unwrap()),
                "district is New York 1 . incumbent is Otis Pike",
                "Result: Verified. The evidence tuple records incumbent = Otis Pike, matching the generated value.",
            ),
            (
                &cell,
                DataInstance::Table(elections),
                "elections . district , incumbent . district Ohio 5 . district New York 1 , incumbent Otis Pike",
                "Result: Verified. Row 2 of the table: The evidence tuple records incumbent = Otis Pike, matching the generated value.",
            ),
            (
                &cell,
                DataInstance::Text(TextDocument::new(
                    1,
                    "New York 1",
                    "New York 1 is a congressional district. The incumbent of New York 1 is Otis Pike.",
                    0,
                )),
                "New York 1. New York 1 is a congressional district. The incumbent of New York 1 is Otis Pike.",
                "Result: Verified. The text states the incumbent is 'otis pike', which matches.",
            ),
            (
                &cell,
                DataInstance::Kg(ny),
                "New York 1 . incumbent Otis Pike . first elected 1960",
                "Result: Verified. The knowledge graph asserts (New York 1, incumbent, Otis Pike), matching the generated value.",
            ),
            (
                &claim,
                DataInstance::Tuple(ncaa_table().tuple_at(1, 50).unwrap()),
                "team is Brown . points is 1",
                "Result: Verified. Looking up Brown in the evidence table '1959 NCAA Track and Field Championships' shows its points, which supports the claim.",
            ),
            (
                &claim,
                DataInstance::Table(ncaa_table()),
                "1959 NCAA Track and Field Championships . team , points . team Kansas , points 42 . team Brown , points 1 . team Yale , points 1",
                "Result: Verified. Looking up Brown in the evidence table '1959 NCAA Track and Field Championships' shows its points, which supports the claim.",
            ),
            (
                &claim,
                DataInstance::Text(TextDocument::new(2, "Brown", "The points of Brown is 2.", 0)),
                "Brown. The points of Brown is 2.",
                "Result: Refuted. The text states the points of Brown is '2', contradicting the claim.",
            ),
            (
                &claim,
                DataInstance::Kg(brown),
                "Brown . points 1",
                "Result: Verified. The knowledge graph asserts (Brown, points, 1), as claimed.",
            ),
        ];
        for (object, evidence, serialized, reply) in &cases {
            let verdict = llm.verify(object, evidence);
            let transcript = llm.transcript(object, evidence, &verdict);
            let data = if matches!(object, DataObject::ImputedCell(_)) {
                CELL
            } else {
                CLAIM
            };
            assert_eq!(transcript.messages.len(), 2);
            assert_eq!(
                transcript.messages[0].content,
                format!("{PROMPT}{serialized}{data}")
            );
            assert_eq!(transcript.messages[1].content, *reply);
            // A view of the same evidence reads the same.
            assert_eq!(llm.verify(object, evidence.view()), verdict);
        }
    }

    #[test]
    fn noise_channels_flip_deterministically() {
        // With a 100% error rate, verdicts must flip but stay deterministic.
        let cfg = SimLlmConfig {
            tuple_verify_error_rate: 1.0,
            ..SimLlmConfig::oracle(2)
        };
        let llm = SimLlm::new(cfg, WorldModel::new());
        let obj = DataObject::ImputedCell(gen_cell("Otis Pike"));
        let e = evidence_tuple("New York 1", "Otis Pike");
        let v1 = llm.verify(&obj, &e);
        assert_eq!(v1.verdict, Verdict::Refuted); // flipped from Verified
        assert_eq!(llm.verify(&obj, &e).verdict, v1.verdict);
    }

    #[test]
    fn cell_vs_kg_matches_triples() {
        use verifai_lake::KgEntity;
        let llm = oracle();
        let obj = DataObject::ImputedCell(gen_cell("Otis Pike"));
        let mut good = KgEntity::new(60, "New York 1", 0);
        good.assert_fact("incumbent", Value::text("Otis Pike"));
        let v = llm.verify(&obj, &DataInstance::Kg(good));
        assert_eq!(v.verdict, Verdict::Verified);
        assert!(
            v.explanation.contains("knowledge graph asserts"),
            "{}",
            v.explanation
        );

        let mut bad = KgEntity::new(61, "New York 1", 0);
        bad.assert_fact("incumbent", Value::text("Someone Else"));
        assert_eq!(
            llm.verify(&obj, &DataInstance::Kg(bad)).verdict,
            Verdict::Refuted
        );

        let mut other = KgEntity::new(62, "Ohio 5", 0);
        other.assert_fact("incumbent", Value::text("Otis Pike"));
        assert_eq!(
            llm.verify(&obj, &DataInstance::Kg(other)).verdict,
            Verdict::NotRelated
        );

        // Subject matches but the predicate is absent.
        let silent = KgEntity::new(63, "New York 1", 0);
        assert_eq!(
            llm.verify(&obj, &DataInstance::Kg(silent)).verdict,
            Verdict::NotRelated
        );
    }

    #[test]
    fn claim_vs_kg_handles_lookups_only() {
        use verifai_claims::CmpOp;
        use verifai_lake::KgEntity;
        let llm = oracle();
        let mut kg = KgEntity::new(70, "Brown", 0);
        kg.assert_fact("points", Value::Int(1));
        let lookup = DataObject::TextClaim(TextClaim {
            id: 20,
            text: "in the c, the points of Brown is 1".into(),
            expr: Some(ClaimExpr::Lookup {
                key_column: "team".into(),
                key: Value::text("Brown"),
                column: "points".into(),
                op: CmpOp::Eq,
                value: Value::Int(1),
            }),
            scope: None,
        });
        assert_eq!(
            llm.verify(&lookup, &DataInstance::Kg(kg.clone())).verdict,
            Verdict::Verified
        );

        let aggregate = DataObject::TextClaim(TextClaim {
            id: 21,
            text: "in the c, the total points is 85".into(),
            expr: None,
            scope: None,
        });
        assert_eq!(
            llm.verify(&aggregate, &DataInstance::Kg(kg)).verdict,
            Verdict::NotRelated
        );
    }

    #[test]
    fn existential_reading_abstains_on_partial_scope() {
        let llm = oracle();
        // Claim scoped to the caption family (no year) that is FALSE on this
        // member: the LLM must abstain rather than refute.
        let claim = DataObject::TextClaim(TextClaim {
            id: 30,
            text: "in the NCAA Track and Field Championships, the points of Brown is 7".into(),
            expr: None,
            scope: Some("NCAA Track and Field Championships".into()),
        });
        let v = llm.verify(&claim, &DataInstance::Table(ncaa_table()));
        assert_eq!(v.verdict, Verdict::NotRelated, "{}", v.explanation);
        assert!(
            v.explanation.contains("does not pin down"),
            "{}",
            v.explanation
        );

        // The same claim TRUE on this member is verified even under the
        // existential reading.
        let true_claim = DataObject::TextClaim(TextClaim {
            id: 31,
            text: "in the NCAA Track and Field Championships, the points of Brown is 1".into(),
            expr: None,
            scope: Some("NCAA Track and Field Championships".into()),
        });
        assert_eq!(
            llm.verify(&true_claim, &DataInstance::Table(ncaa_table()))
                .verdict,
            Verdict::Verified
        );
    }

    #[test]
    fn cell_vs_table_uses_matching_row() {
        let llm = oracle();
        let mut table = Table::new(40, "elections", schema(), 0);
        table
            .push_row(vec![Value::text("Ohio 5"), Value::text("Other Person")])
            .unwrap();
        table
            .push_row(vec![Value::text("New York 1"), Value::text("Otis Pike")])
            .unwrap();
        let obj = DataObject::ImputedCell(gen_cell("Otis Pike"));
        let v = llm.verify(&obj, &DataInstance::Table(table));
        assert_eq!(v.verdict, Verdict::Verified);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use verifai_lake::value::normalize_str;

    /// `scan_fact` as it was before the one-pass scanner: split the text on
    /// `.` and normalize every sentence on its own.
    fn oracle_scan_fact(text: &str, entity: &str, attribute: &str) -> Option<String> {
        let entity = normalize_str(entity);
        let attribute = normalize_str(attribute);
        if entity.is_empty() || attribute.is_empty() {
            return None;
        }
        let needle = format!("{attribute} of {entity} is ");
        for sentence in text.split('.') {
            let norm = normalize_str(sentence);
            if let Some(pos) = norm.find(&needle) {
                let value = norm[pos + needle.len()..].trim();
                if !value.is_empty() {
                    return Some(value.to_string());
                }
            }
        }
        None
    }

    /// Text assembled from the pieces the scan cares about: the entity
    /// (whole, and split by a `.`), the attribute, the words of the fact
    /// pattern, values, dots and spaces in runs, a multi-char lowercasing.
    fn arb_text(max_pieces: usize) -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                Just("New York 1"),
                Just("New. York 1"),
                Just("The incumbent of New York 1 is Otis Pike"),
                Just("incumbent of New York 1 is"),
                Just("incumbent"),
                Just(" of "),
                Just(" is "),
                Just("Otis Pike"),
                Just("İ"),
                Just("."),
                Just(". "),
                Just(" . . "),
                Just(" "),
                Just("-- "),
                Just("x"),
            ],
            0..max_pieces,
        )
        .prop_map(|pieces| pieces.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The text a document prepared when it was built decides what the
        /// two passes over `full_text()` decided: the entity check on the
        /// whole normalized text and the first matching sentence's value —
        /// with entities that span a `.`, empty sentences, the fact in the
        /// title, several matching sentences, and a value at the end of the
        /// text with and without its final `.`. So does a document whose
        /// text was replaced in a lake, and `scan_fact` over the joined text.
        #[test]
        fn one_pass_scan_equals_normalize_then_scan_fact(
            title in arb_text(4),
            body in arb_text(10),
            entity in prop_oneof![
                Just("New York 1"),
                Just("new york"),
                Just("York. 1"),
                Just("İ"),
                Just("--"),
            ],
            attribute in prop_oneof![Just("incumbent"), Just("Incumbent!"), Just("of"), Just("")],
        ) {
            let doc = TextDocument::new(1, title, body, 0);
            let full = doc.full_text();
            let entity_key = normalize_str(entity);
            let want = (
                normalize_str(&full).contains(&entity_key),
                oracle_scan_fact(&full, entity, attribute),
            );
            let read = |doc: &TextDocument| {
                let text = doc.normalized();
                let mut needle = String::new();
                (
                    text.contains(&entity_key),
                    fact(text, &mut needle, entity, attribute).map(str::to_string),
                )
            };
            prop_assert_eq!(&read(&doc), &want, "{:?}", full);
            let mut lake = verifai_lake::DataLake::new();
            lake.add_doc(TextDocument::new(1, "stale. title", "The incumbent of New York 1 is x", 0))
                .unwrap();
            lake.update_doc(1, doc.title(), doc.body()).unwrap();
            prop_assert_eq!(&read(lake.doc(1).unwrap()), &want);
            prop_assert_eq!(scan_fact(&full, entity, attribute), want.1);
        }
    }
}
