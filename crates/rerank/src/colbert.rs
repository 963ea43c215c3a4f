//! ColBERT-style late-interaction reranking for (text, text) pairs.
//!
//! ColBERT scores a query against a document by embedding every token of each
//! side and summing, over query tokens, the maximum similarity against any
//! document token (MaxSim). That "holistic comparison of each token of a query
//! and each token of a retrieved text file" is exactly what the paper adopts
//! from RetClean. Our token encoder is the deterministic hashed embedder from
//! `verifai-embed`.

use std::borrow::Cow;

use crate::{Candidate, Prepared, Reranker};
use verifai_embed::{kernel, TokenEmbedder, TokenVocab, VocabRows};
use verifai_lake::InstanceRef;
use verifai_llm::DataObject;

/// The evidence side of late interaction: the *distinct* token ids (rows of
/// the reranker's [`TokenVocab`]) among a document's first `max_doc_tokens`
/// tokens. MaxSim takes a maximum over the document's tokens, and a maximum
/// over a set ignores duplicates, so the score is that of the full token
/// list at roughly 40 % of its length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedDoc {
    tokens: Box<[u32]>,
}

impl PreparedDoc {
    /// Number of distinct tokens kept.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True for a document with no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Heap bytes held.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.tokens)
    }
}

/// Late-interaction (MaxSim) reranker over per-token embeddings.
#[derive(Debug)]
pub struct ColbertReranker {
    /// Every document token ever prepared, embedded once.
    vocab: TokenVocab,
    /// Cap on document tokens scored (long wiki pages are truncated, as real
    /// ColBERT does with its document length limit).
    max_doc_tokens: usize,
}

impl ColbertReranker {
    /// Reranker with the given encoder.
    pub fn new(encoder: TokenEmbedder) -> ColbertReranker {
        ColbertReranker {
            vocab: TokenVocab::new(encoder),
            max_doc_tokens: 256,
        }
    }

    /// Default encoder (64-dim, fixed seed).
    pub fn with_defaults() -> ColbertReranker {
        ColbertReranker::new(TokenEmbedder::new(64, 0xc01b))
    }

    /// The interned document-token vocabulary.
    pub fn vocab(&self) -> &TokenVocab {
        &self.vocab
    }

    /// The query side of a data object, as the text whose tokens are
    /// scored.
    pub fn query_text(object: &DataObject) -> Cow<'_, str> {
        match object {
            DataObject::TextClaim(c) => Cow::Borrowed(&c.text),
            DataObject::ImputedCell(c) => Cow::Owned(verifai_text::tuple_query(
                &c.tuple,
                Some((c.column.as_str(), &c.value.to_string())),
            )),
        }
    }

    /// The evidence side of one instance: serialize, tokenize, cap at
    /// `max_doc_tokens`, and only then intern (embedding what is new) and
    /// deduplicate.
    pub fn prepare_doc(&self, evidence: InstanceRef<'_>) -> PreparedDoc {
        let text = verifai_text::serialize_instance(evidence);
        let mut ids = self
            .vocab
            .encoder()
            .with_tokens(&text, self.max_doc_tokens, |tokens| {
                self.vocab.intern_all(tokens)
            });
        let mut seen = std::collections::HashSet::with_capacity(ids.len());
        ids.retain(|id| seen.insert(*id));
        PreparedDoc {
            tokens: ids.into_boxed_slice(),
        }
    }
}

/// Query tokens whose similarities share one 4-wide maximum step.
const QUERY_BLOCK: usize = 4;

/// 4-wide blocks whose running maxima one pass over a document keeps at
/// once: four independent chains of maximum steps instead of one, which is
/// what keeps the pass at the steps' throughput rather than their latency.
const GROUP_BLOCKS: usize = 4;

/// The similarities of [`QUERY_BLOCK`] × [`GROUP_BLOCKS`] query tokens.
type Group = [[f32; QUERY_BLOCK]; GROUP_BLOCKS];

const NO_SIMILARITY: Group = [[f32::NEG_INFINITY; QUERY_BLOCK]; GROUP_BLOCKS];

/// Columns whose rows are prefetched ahead of the one being computed: far
/// enough for a row of the vocabulary slab to arrive from memory, near
/// enough to still be cached when its turn comes.
const PREFETCH_AHEAD: usize = 4;

/// One request's similarity columns, kept per thread so that a request
/// allocates none of it once the thread has served one as large.
#[derive(Debug, Default)]
struct Columns {
    /// By vocabulary id: the column of a token this request numbered, or
    /// [`Columns::NONE`]. Reset through `tokens`, never reallocated for it.
    column_of: Vec<u32>,
    /// The numbered tokens, in column order.
    tokens: Vec<u32>,
    /// Every document's tokens as columns, documents back to back; document
    /// `d` ends at `ends[d]`.
    visits: Vec<u32>,
    ends: Vec<usize>,
    /// Column `c` is `sims[c * groups..][..groups]`: its similarity with
    /// each query token, in query order, padded with −∞.
    sims: Vec<Group>,
    groups: usize,
    /// Per query token (padded like a column), the maximum over one
    /// document.
    best: Vec<Group>,
}

thread_local! {
    static COLUMNS: std::cell::RefCell<Columns> = std::cell::RefCell::default();
}

impl Columns {
    const NONE: u32 = u32::MAX;

    /// Number the distinct tokens of `docs` and compute their columns
    /// against the `width` query rows of `query`.
    fn fill(
        &mut self,
        rows: &VocabRows<'_>,
        query: &[f32],
        width: usize,
        docs: &[Cow<'_, PreparedDoc>],
    ) {
        // Whatever an earlier request numbered — also one that panicked
        // halfway — is forgotten token by token.
        for &token in &self.tokens {
            self.column_of[token as usize] = Self::NONE;
        }
        self.tokens.clear();
        self.visits.clear();
        self.ends.clear();
        if self.column_of.len() < rows.len() {
            self.column_of.resize(rows.len(), Self::NONE);
        }
        for (d, doc) in docs.iter().enumerate() {
            // Documents lie scattered through the feature store: each one's
            // tokens are asked for two documents ahead of its turn.
            if let Some(ahead) = docs.get(d + 2) {
                kernel::prefetch(&ahead.tokens);
            }
            for &token in doc.tokens.iter() {
                let column = &mut self.column_of[token as usize];
                if *column == Self::NONE {
                    *column = self.tokens.len() as u32;
                    self.tokens.push(token);
                }
                self.visits.push(*column);
            }
            self.ends.push(self.visits.len());
        }

        self.groups = width.div_ceil(QUERY_BLOCK * GROUP_BLOCKS);
        self.sims.clear();
        self.sims
            .resize(self.tokens.len() * self.groups, NO_SIMILARITY);
        for (c, column) in self.sims.chunks_exact_mut(self.groups).enumerate() {
            if let Some(&ahead) = self.tokens.get(c + PREFETCH_AHEAD) {
                kernel::prefetch(rows.row(ahead));
            }
            // Token embeddings are unit by construction, so the dot IS the
            // cosine.
            let column = &mut column.as_flattened_mut().as_flattened_mut()[..width];
            kernel::dot_many(query, rows.row(self.tokens[c]), column);
        }
    }

    /// Per query token, the maximum similarity over the tokens of document
    /// `d` of the request (padding lanes stay −∞), taken 4-wide, in the
    /// document's token order.
    fn maxima(&mut self, d: usize) -> &[f32] {
        let start = d.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        let visits = &self.visits[start..self.ends[d]];
        self.best.clear();
        for g in 0..self.groups {
            let mut best = NO_SIMILARITY;
            for &column in visits {
                let sims = &self.sims[column as usize * self.groups + g];
                for (best, sims) in best.iter_mut().zip(sims) {
                    for (b, &s) in best.iter_mut().zip(sims) {
                        *b = if s > *b { s } else { *b };
                    }
                }
            }
            self.best.push(best);
        }
        self.best.as_flattened().as_flattened()
    }
}

impl Reranker for ColbertReranker {
    /// MaxSim as a lookup. The query's distinct tokens become a block of
    /// rows — the vocabulary's own row for a token it holds (a row is that
    /// token's `embed_token`), a fresh embedding only for one it has never
    /// seen. The candidates' distinct document tokens are numbered in a
    /// per-thread [`Columns`] map, and each gets one *column* of (query
    /// token × it) similarities, all computed in one blocked pass of
    /// [`kernel::dot_many`] over their rows. A document's score is then, per
    /// query token, the maximum over its tokens' columns, taken four query
    /// tokens at a time. The candidates of one request share most of their
    /// vocabulary, so a column is reused by many of them.
    fn score_all(&self, object: &DataObject, candidates: &[Candidate<'_>]) -> Vec<f64> {
        // Interning takes the vocabulary's write lock, so everything missing
        // is prepared before the rows are borrowed for reading.
        let docs: Vec<Cow<'_, PreparedDoc>> = candidates
            .iter()
            .map(|c| match c.prepared {
                Some(Prepared::Tokens(doc)) => Cow::Borrowed(doc),
                _ => Cow::Owned(self.prepare_doc(c.evidence)),
            })
            .collect();

        let encoder = self.vocab.encoder();
        let rows = self.vocab.rows();
        // Query positions → distinct query tokens, one row each. The sum
        // below runs over positions (a repeated query token counts twice, as
        // in textbook MaxSim).
        let (positions, query) =
            encoder.with_tokens(&Self::query_text(object), usize::MAX, |query_tokens| {
                let mut distinct: Vec<&str> = Vec::with_capacity(query_tokens.len());
                let positions: Vec<usize> = query_tokens
                    .iter()
                    .map(|token| {
                        distinct
                            .iter()
                            .position(|seen| seen == token)
                            .unwrap_or_else(|| {
                                distinct.push(token);
                                distinct.len() - 1
                            })
                    })
                    .collect();
                let mut query = Vec::with_capacity(distinct.len() * encoder.dim());
                for token in distinct {
                    match rows.id(token) {
                        Some(id) => query.extend_from_slice(rows.row(id)),
                        None => query.extend_from_slice(encoder.embed_token(token).as_slice()),
                    }
                }
                (positions, query)
            });
        if positions.is_empty() {
            return vec![0.0; candidates.len()];
        }
        let width = query.len() / encoder.dim();

        COLUMNS.with_borrow_mut(|columns| {
            columns.fill(&rows, &query, width, &docs);
            docs.iter()
                .enumerate()
                .map(|(d, doc)| {
                    if doc.is_empty() {
                        return 0.0;
                    }
                    let best = columns.maxima(d);
                    let mut total = 0.0f64;
                    for &q in &positions {
                        total += (best[q] as f64).max(0.0);
                    }
                    total / positions.len() as f64
                })
                .collect()
        })
    }

    fn prepare(&self, evidence: InstanceRef<'_>, _serialized: Option<&str>) -> Option<Prepared> {
        Some(Prepared::Tokens(self.prepare_doc(evidence)))
    }

    fn name(&self) -> &'static str {
        "colbert"
    }

    // Late interaction scores any serialized token stream: texts natively,
    // knowledge-graph subgraphs as serialized triples — and it is the
    // composite's generic fallback for modalities no specialist claims.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{colbert_score, maxsim};
    use verifai_lake::{DataInstance, TextDocument};
    use verifai_llm::TextClaim;

    fn claim(text: &str) -> DataObject {
        DataObject::TextClaim(TextClaim {
            id: 0,
            text: text.into(),
            expr: None,
            scope: None,
        })
    }

    fn doc(id: u64, body: &str) -> DataInstance {
        DataInstance::Text(TextDocument::new(id, "title", body, 0))
    }

    /// Regression for the cap: a document longer than `max_doc_tokens` is
    /// cut *before* anything is embedded — tokens past the cap never reach
    /// the vocabulary — and still scores exactly as the embed-then-truncate
    /// path did.
    #[test]
    fn long_document_is_capped_before_embedding_with_the_same_score() {
        let r = ColbertReranker::with_defaults();
        let head: Vec<String> = (0..300).map(|i| format!("filler{}", i % 140)).collect();
        let body = format!("{} zanzibar clove auction", head.join(" "));
        let long = doc(1, &body);
        let q = claim("the zanzibar auction used filler7 and filler7 and filler139");
        let prepared = r.prepare_doc(long.view());
        assert!(prepared.len() <= 256, "cap applies to distinct tokens too");
        // "title" + 140 distinct fillers fit under the cap; the tail does not.
        assert_eq!(prepared.len(), 141);
        assert_eq!(r.vocab().len(), 141, "tokens past the cap were embedded");
        let want = colbert_score(&q, long.view());
        assert!(want > 0.0 && want < 1.0);
        assert_eq!(r.score(&q, &long), want);
        // A short document that does hold the tail scores it.
        let short = doc(2, "zanzibar clove auction");
        assert_eq!(r.score(&q, &short), colbert_score(&q, short.view()));
        assert!(r.score(&q, &short) > 0.0);
    }

    /// One request over many candidates — prepared ahead, prepared on the
    /// spot, or mixed — returns the per-pair scores bit for bit, including
    /// empty documents, empty queries and repeated query tokens.
    #[test]
    fn request_scores_equal_per_pair_and_embed_everything_scores() {
        let r = ColbertReranker::with_defaults();
        let docs = [
            doc(
                1,
                "Stomp the Yard is a 2007 film. Meagan Good plays April Palmer.",
            ),
            doc(2, "The 1959 championships were held at Berkeley in June."),
            doc(3, "the the the yard yard film"),
            DataInstance::Text(TextDocument::new(4, "", "", 0)),
            doc(5, "Meagan Good and the yard of the film, the film of 2007."),
        ];
        for q in [
            claim("Meagan Good plays a role in Stomp the Yard"),
            claim("the yard the yard the film"),
            claim(""),
        ] {
            let want: Vec<f64> = docs.iter().map(|d| colbert_score(&q, d.view())).collect();
            let per_pair: Vec<f64> = docs.iter().map(|d| r.score(&q, d)).collect();
            assert_eq!(per_pair, want);
            let features: Vec<Option<Prepared>> =
                docs.iter().map(|d| r.prepare(d.view(), None)).collect();
            for keep_every in [1, 2, usize::MAX] {
                let candidates: Vec<Candidate<'_>> = docs
                    .iter()
                    .zip(&features)
                    .enumerate()
                    .map(|(i, (evidence, f))| Candidate {
                        evidence: evidence.view(),
                        prepared: f.as_ref().filter(|_| i % keep_every == 0),
                    })
                    .collect();
                assert_eq!(r.score_all(&q, &candidates), want);
            }
        }
    }

    #[test]
    fn exact_topical_overlap_beats_unrelated() {
        let r = ColbertReranker::with_defaults();
        let q = claim("Meagan Good plays a role in Stomp the Yard");
        let related = doc(
            1,
            "Stomp the Yard is a 2007 film. Meagan Good plays April Palmer.",
        );
        let unrelated = doc(2, "The 1959 championships were held at Berkeley in June.");
        assert!(r.score(&q, &related) > r.score(&q, &unrelated) + 0.2);
    }

    #[test]
    fn maxsim_is_one_for_identical_token_sets() {
        let enc = TokenEmbedder::new(64, 1);
        let toks = enc.embed_text("alpha beta gamma");
        let s = maxsim(&toks, &toks);
        assert!((s - 1.0).abs() < 1e-5, "{s}");
    }

    #[test]
    fn maxsim_empty_inputs() {
        assert_eq!(maxsim(&[], &[]), 0.0);
        let enc = TokenEmbedder::new(64, 1);
        let toks = enc.embed_text("x");
        assert_eq!(maxsim(&toks, &[]), 0.0);
    }

    #[test]
    fn partial_overlap_scores_between() {
        let r = ColbertReranker::with_defaults();
        let q = claim("brown scored one point in 1959");
        let full = doc(1, "brown scored one point in 1959");
        let partial = doc(2, "brown university results from 1959");
        let none = doc(3, "completely different words entirely elsewhere");
        let (sf, sp, sn) = (
            r.score(&q, &full),
            r.score(&q, &partial),
            r.score(&q, &none),
        );
        assert!(sf > sp, "{sf} <= {sp}");
        assert!(sp > sn, "{sp} <= {sn}");
    }

    #[test]
    fn works_for_imputed_cells_too() {
        use verifai_lake::{Column, DataType, Schema, Tuple, Value};
        let r = ColbertReranker::with_defaults();
        let cell = verifai_llm::ImputedCell {
            id: 0,
            tuple: Tuple {
                id: 0,
                table: 0,
                row_index: 0,
                schema: Schema::new(vec![
                    Column::key("district", DataType::Text),
                    Column::new("incumbent", DataType::Text),
                ]),
                values: vec![Value::text("New York 1"), Value::Null],
                source: 0,
            },
            column: "incumbent".into(),
            value: Value::text("Otis Pike"),
        };
        let obj = DataObject::ImputedCell(cell);
        let related = doc(1, "The incumbent of New York 1 is Otis Pike.");
        let unrelated = doc(2, "Basketball statistics for the 1997 season.");
        assert!(r.score(&obj, &related) > r.score(&obj, &unrelated));
    }
}
