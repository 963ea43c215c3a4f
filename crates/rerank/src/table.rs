//! OpenTFV-style (text, table) reranking.
//!
//! For open-domain table-based fact verification the reranker must decide, per
//! table, how likely it is to contain the evidence a claim needs. Following
//! OpenTFV we combine structured lexical signals — caption match, header match,
//! cell-value match — with dense similarity between the claim and the
//! serialized table.

use std::borrow::Cow;
use std::fmt::Write;
use std::sync::RwLock;

use crate::{Candidate, Prepared, Reranker};
use verifai_embed::{TextEmbedder, Vector};
use verifai_lake::{InstanceRef, Table};
use verifai_llm::DataObject;
use verifai_text::sim::{containment_in, TermSet};
use verifai_text::{Analyzer, Interner};

/// Weights of the component signals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableRerankWeights {
    /// Claim-term containment in the caption.
    pub caption: f64,
    /// Claim-term containment in the headers.
    pub header: f64,
    /// Claim-term containment in cell values.
    pub cells: f64,
    /// Dense cosine between claim and serialized table.
    pub dense: f64,
}

impl Default for TableRerankWeights {
    fn default() -> Self {
        TableRerankWeights {
            caption: 0.4,
            header: 0.2,
            cells: 0.25,
            dense: 0.15,
        }
    }
}

/// The evidence side of the table reranker: the analyzed caption, header and
/// cell terms as interned id sets, and the dense vector of the serialized
/// table.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedTable {
    caption: TermSet,
    header: TermSet,
    cells: TermSet,
    dense: Vector,
}

impl PreparedTable {
    /// Heap bytes held.
    pub fn heap_bytes(&self) -> usize {
        (self.caption.len() + self.header.len() + self.cells.len()) * std::mem::size_of::<u32>()
            + self.dense.dim() * std::mem::size_of::<f32>()
    }
}

/// The (text, table) reranker.
#[derive(Debug)]
pub struct TableReranker {
    weights: TableRerankWeights,
    analyzer: Analyzer,
    embedder: TextEmbedder,
    /// Ids of every term a prepared table holds. Claims only look terms up:
    /// a term no table has cannot match, so queries never grow it.
    terms: RwLock<Interner>,
}

impl TableReranker {
    /// Reranker with explicit weights and embedder.
    pub fn new(weights: TableRerankWeights, embedder: TextEmbedder) -> TableReranker {
        TableReranker {
            weights,
            analyzer: Analyzer::standard(),
            embedder,
            terms: RwLock::new(Interner::new()),
        }
    }

    /// Default configuration.
    pub fn with_defaults() -> TableReranker {
        TableReranker::new(
            TableRerankWeights::default(),
            TextEmbedder::with_seed(0x0917),
        )
    }

    /// The evidence side of one table. Terms stream from the analyzer
    /// straight into the interner: caption, then headers, then cells. The
    /// dense vector embeds `serialized`, the table's
    /// [`verifai_text::serialize_table`] text, or that text built here when
    /// the caller has none.
    pub fn prepare_table(&self, table: &Table, serialized: Option<&str>) -> PreparedTable {
        // Cells: analyze a bounded sample of values (first 64 rows) to keep the
        // reranker cheap on large tables.
        let mut cell_text = String::new();
        for row in table.rows().iter().take(64) {
            for v in row {
                if !v.is_null() {
                    write!(cell_text, "{v} ").expect("writing to a String cannot fail");
                }
            }
        }
        let dense = match serialized {
            Some(text) => self.embedder.embed(text),
            None => self.embedder.embed(&verifai_text::serialize_table(table)),
        };
        let mut terms = self.terms.write().expect("term interner lock poisoned");
        PreparedTable {
            caption: self.intern_terms(&mut terms, [table.caption()]),
            // Column names are analyzed one by one: the space that would
            // join them ends a token, so this is the joined header's terms.
            header: self.intern_terms(&mut terms, table.schema.names()),
            cells: self.intern_terms(&mut terms, [cell_text.as_str()]),
            dense,
        }
    }

    /// The id set of every term of `texts`, interning the new ones.
    fn intern_terms<'t>(
        &self,
        terms: &mut Interner,
        texts: impl IntoIterator<Item = &'t str>,
    ) -> TermSet {
        let mut ids = Vec::new();
        for text in texts {
            self.analyzer
                .for_each_term(text, |term| ids.push(terms.intern(term).0));
        }
        TermSet::new(ids)
    }
}

impl Reranker for TableReranker {
    /// Component-wise score of the claim against every table candidate: the
    /// claim is analyzed and embedded once; each table contributes three
    /// set probes and one dot product.
    fn score_all(&self, object: &DataObject, candidates: &[Candidate<'_>]) -> Vec<f64> {
        let text: Cow<'_, str> = match object {
            DataObject::TextClaim(c) => Cow::Borrowed(&c.text),
            DataObject::ImputedCell(c) => Cow::Owned(verifai_text::serialize_tuple(&c.tuple)),
        };
        let claim_words = self.analyzer.analyze(&text);
        if claim_words.is_empty() || !candidates.iter().any(|c| self.supports(c.evidence)) {
            return vec![0.0; candidates.len()];
        }
        // Prepare what the caller did not, *before* resolving the claim's
        // term ids: a table prepared on the spot may introduce them.
        let tables: Vec<Option<Cow<'_, PreparedTable>>> = candidates
            .iter()
            .map(|c| match (c.evidence, c.prepared) {
                (InstanceRef::Table(_), Some(Prepared::Table(table))) => {
                    Some(Cow::Borrowed(&**table))
                }
                (InstanceRef::Table(table), _) => Some(Cow::Owned(self.prepare_table(table, None))),
                _ => None,
            })
            .collect();
        let claim_terms: Vec<Option<u32>> = {
            let terms = self.terms.read().expect("term interner lock poisoned");
            claim_words.iter().map(|w| terms.get(w)).collect()
        };
        let claim_dense = self.embedder.embed(&text);
        let w = &self.weights;
        tables
            .iter()
            .map(|table| {
                // Not a table: nothing to score.
                let Some(table) = table else { return 0.0 };
                let lexical = w.caption * containment_in(&claim_terms, &table.caption)
                    + w.header * containment_in(&claim_terms, &table.header)
                    + w.cells * containment_in(&claim_terms, &table.cells);
                // Embedder output is unit by construction: fused dot = cosine.
                let dense = claim_dense.dot_unit(&table.dense) as f64;
                lexical + w.dense * dense.max(0.0)
            })
            .collect()
    }

    fn prepare(&self, evidence: InstanceRef<'_>, serialized: Option<&str>) -> Option<Prepared> {
        match evidence {
            InstanceRef::Table(table) => Some(Prepared::Table(Box::new(
                self.prepare_table(table, serialized),
            ))),
            _ => None,
        }
    }

    fn name(&self) -> &'static str {
        "opentfv-table"
    }

    fn supports(&self, evidence: InstanceRef<'_>) -> bool {
        matches!(evidence, InstanceRef::Table(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_lake::{Column, DataInstance, DataType, Schema, Value};
    use verifai_llm::TextClaim;

    fn table(id: u64, caption: &str, teams: &[(&str, i64)]) -> Table {
        let mut t = Table::new(
            id,
            caption,
            Schema::new(vec![
                Column::key("team", DataType::Text),
                Column::new("points", DataType::Int),
            ]),
            0,
        );
        for (team, pts) in teams {
            t.push_row(vec![Value::text(*team), Value::Int(*pts)])
                .unwrap();
        }
        t
    }

    fn claim(text: &str) -> DataObject {
        DataObject::TextClaim(TextClaim {
            id: 0,
            text: text.into(),
            expr: None,
            scope: None,
        })
    }

    /// The implementation this reranker shipped with before evidence was
    /// prepared ahead: analyze and embed both sides of every pair, probe
    /// string sets.
    fn analyze_everything_score(claim_text: &str, table: &Table) -> f64 {
        use verifai_text::sim::containment;
        let analyzer = Analyzer::standard();
        let embedder = TextEmbedder::with_seed(0x0917);
        let claim_terms = analyzer.analyze(claim_text);
        if claim_terms.is_empty() {
            return 0.0;
        }
        let caption_terms = analyzer.analyze(table.caption());
        let header_text: String = table.schema.names().collect::<Vec<_>>().join(" ");
        let header_terms = analyzer.analyze(&header_text);
        let mut cell_text = String::new();
        for row in table.rows().iter().take(64) {
            for v in row {
                if !v.is_null() {
                    cell_text.push_str(&v.to_string());
                    cell_text.push(' ');
                }
            }
        }
        let cell_terms = analyzer.analyze(&cell_text);
        let w = TableRerankWeights::default();
        let lexical = w.caption * containment(&claim_terms, &caption_terms)
            + w.header * containment(&claim_terms, &header_terms)
            + w.cells * containment(&claim_terms, &cell_terms);
        let dense = embedder
            .embed(claim_text)
            .dot_unit(&embedder.embed(&verifai_text::serialize_table(table)))
            as f64;
        lexical + w.dense * dense.max(0.0)
    }

    /// One request over many tables — prepared ahead, on the spot, or mixed,
    /// with a non-table among them — returns the old per-pair scores bit for
    /// bit, and embeds the claim once however many candidates there are.
    #[test]
    fn request_scores_equal_per_pair_and_analyze_everything_scores() {
        let r = TableReranker::with_defaults();
        let tables = [
            table(
                1,
                "1959 NCAA Track and Field Championships",
                &[("Brown", 1), ("Kansas", 42)],
            ),
            table(
                2,
                "1959 Formula One season",
                &[("Ferrari", 32), ("Cooper", 40)],
            ),
            table(3, "", &[]),
        ];
        let mut evidence: Vec<DataInstance> =
            tables.iter().cloned().map(DataInstance::Table).collect();
        evidence.push(DataInstance::Text(verifai_lake::TextDocument::new(
            9, "t", "Brown", 0,
        )));
        for text in [
            "in the 1959 NCAA Track and Field Championships, the points of Brown is 1",
            "points points team ferrari",
            "the of",
        ] {
            let q = claim(text);
            let mut want: Vec<f64> = tables
                .iter()
                .map(|t| analyze_everything_score(text, t))
                .collect();
            want.push(0.0);
            let per_pair: Vec<f64> = evidence.iter().map(|e| r.score(&q, e)).collect();
            assert_eq!(per_pair, want);
            let features: Vec<Option<Prepared>> =
                evidence.iter().map(|e| r.prepare(e.view(), None)).collect();
            assert!(features[3].is_none(), "only tables are prepared");
            // The text a caller already serialized yields the same features.
            for (table, prepared) in tables.iter().zip(&features) {
                let serialized = verifai_text::serialize_table(table);
                let again = r.prepare(InstanceRef::Table(table), Some(&serialized));
                match (again, prepared) {
                    (Some(Prepared::Table(again)), Some(Prepared::Table(prepared))) => {
                        assert_eq!(again, *prepared)
                    }
                    other => panic!("a table prepares as a table: {other:?}"),
                }
            }
            for keep_every in [1, 2, usize::MAX] {
                let candidates: Vec<Candidate<'_>> = evidence
                    .iter()
                    .zip(&features)
                    .enumerate()
                    .map(|(i, (evidence, f))| Candidate {
                        evidence: evidence.view(),
                        prepared: f.as_ref().filter(|_| i % keep_every == 0),
                    })
                    .collect();
                let (scores, cost) = verifai_obs::meter::scoped(|| r.score_all(&q, &candidates));
                assert_eq!(scores, want);
                if keep_every == 1 && want.iter().any(|s| *s != 0.0) {
                    assert_eq!(cost.embeds, 1, "claim embedded once, tables not at all");
                }
            }
        }
    }

    #[test]
    fn source_table_outranks_distractors() {
        let r = TableReranker::with_defaults();
        let source = table(
            1,
            "1959 NCAA Track and Field Championships",
            &[("Brown", 1), ("Kansas", 42)],
        );
        let distractor = table(
            2,
            "1959 Formula One season",
            &[("Ferrari", 32), ("Cooper", 40)],
        );
        let unrelated = table(3, "List of airports in Ohio", &[("CMH", 0), ("CLE", 0)]);
        let q = claim("in the 1959 NCAA Track and Field Championships, the points of Brown is 1");
        let (s1, s2, s3) = (
            r.score(&q, &DataInstance::Table(source)),
            r.score(&q, &DataInstance::Table(distractor)),
            r.score(&q, &DataInstance::Table(unrelated)),
        );
        assert!(s1 > s2, "source {s1} <= caption-sharing distractor {s2}");
        assert!(s2 > s3, "distractor {s2} <= unrelated {s3}");
    }

    #[test]
    fn cell_mentions_matter() {
        let r = TableReranker::with_defaults();
        // Same caption; only one table actually contains the claimed subject.
        let with_subject = table(1, "championship results", &[("Brown", 1)]);
        let without = table(2, "championship results", &[("Kansas", 42)]);
        let q = claim("in the championship results, the points of Brown is 1");
        assert!(
            r.score(&q, &DataInstance::Table(with_subject))
                > r.score(&q, &DataInstance::Table(without))
        );
    }

    #[test]
    fn non_table_evidence_scores_zero() {
        let r = TableReranker::with_defaults();
        let q = claim("anything");
        let doc = DataInstance::Text(verifai_lake::TextDocument::new(1, "t", "b", 0));
        assert_eq!(r.score(&q, &doc), 0.0);
    }

    #[test]
    fn empty_claim_scores_zero() {
        let r = TableReranker::with_defaults();
        let t = table(1, "cap", &[("x", 1)]);
        assert_eq!(r.score(&claim(""), &DataInstance::Table(t)), 0.0);
    }
}
