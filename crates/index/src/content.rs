//! The content index's building block: a segment of tokenized documents
//! ranked by BM25, and the one scoring kernel every search runs.
//!
//! This is the Elasticsearch substitute. Documents (serialized instances) are
//! analyzed into terms; postings record per-document term frequencies; queries
//! are analyzed with the *same* analyzer and scored with Okapi BM25. A
//! segment is append-only and private to this crate: the one content index
//! is [`crate::SegmentedInvertedIndex`], which keeps a memtable and sealed
//! segments and scores all of them in one pass.

use crate::hit::SearchHit;
use crate::persist::{self, PersistError, SnapshotKind};
use crate::vector::{offer, VisitedSet};
use bytes::{BufMut, Bytes, BytesMut};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use verifai_lake::InstanceId;
use verifai_obs::meter;
use verifai_text::{Analyzer, AnalyzerConfig};

/// Corpus-wide statistics BM25 scoring depends on: document count, total
/// analyzed length, and per-term document frequencies.
///
/// An index keeps these for its own live documents. A *sharded* corpus
/// cannot score from them — each shard sees only its partition, and
/// shard-local idf / average-length would score the same document
/// differently depending on which shard it landed on. Shard builders
/// therefore [`merge`] the stats of every partition and hand the global
/// totals back to each shard via
/// [`SegmentedInvertedIndex::set_shared_stats`], making per-shard scores
/// exactly equal to a single whole-corpus index.
///
/// [`merge`]: CorpusStats::merge
/// [`SegmentedInvertedIndex::set_shared_stats`]: crate::SegmentedInvertedIndex::set_shared_stats
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorpusStats {
    /// Number of indexed documents.
    pub docs: u64,
    /// Sum of analyzed document lengths.
    pub total_len: u64,
    /// Analyzed term → number of documents containing it.
    pub doc_freqs: HashMap<String, u64>,
}

impl CorpusStats {
    /// Fold another partition's statistics into this one. Commutative and
    /// associative, so shard merge order does not matter.
    pub fn merge(&mut self, other: &CorpusStats) {
        self.docs += other.docs;
        self.total_len += other.total_len;
        for (term, df) in &other.doc_freqs {
            *self.doc_freqs.entry(term.clone()).or_insert(0) += df;
        }
    }
}

/// BM25 tuning parameters (Elasticsearch defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation.
    pub k1: f64,
    /// Length normalization.
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// A posting: internal document ordinal and term frequency.
#[derive(Debug, Clone, Copy)]
struct Posting {
    doc: u32,
    tf: u32,
}

/// One segment of a [`crate::SegmentedInvertedIndex`]: an append-only
/// inverted index over serialized data instances. Every postings list is
/// strictly ascending by ordinal and every ordinal is a stored document —
/// scoring and merging index `lengths`, `ids` and remap tables by it, so
/// the reader checks both.
#[derive(Debug)]
pub(crate) struct Segment {
    analyzer: Analyzer,
    params: Bm25Params,
    postings: HashMap<String, Vec<Posting>>,
    /// doc ordinal -> external id.
    ids: Vec<InstanceId>,
    /// doc ordinal -> analyzed length.
    lengths: Vec<u32>,
    total_len: u64,
}

/// Tombstoned ordinals of one segment: a bitset and its population count.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tombstones {
    words: Vec<u64>,
    count: usize,
}

impl Tombstones {
    /// Tombstone `ord`.
    pub(crate) fn insert(&mut self, ord: u32) {
        let word = ord as usize / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (ord % 64);
        self.count += usize::from(self.words[word] & bit == 0);
        self.words[word] |= bit;
    }

    #[inline]
    pub(crate) fn contains(&self, ord: u32) -> bool {
        self.words
            .get(ord as usize / 64)
            .is_some_and(|w| w & (1u64 << (ord % 64)) != 0)
    }

    pub(crate) fn len(&self) -> usize {
        self.count
    }
}

/// The analyzed terms of one text, counted: every distinct term once, in
/// ascending order, with its frequency — what a segment posts, the live
/// statistics count and a query scores. Filled by the analysis kernel into
/// per-thread buffers (see [`with_term_counts`]), so counting a text
/// allocates nothing per term; a caller copies a term only to keep it.
#[derive(Debug, Default)]
pub(crate) struct TermCounts {
    /// Every term occurrence, concatenated.
    bytes: String,
    /// `(start, end)` of each occurrence in `bytes`, sorted by term.
    spans: Vec<(usize, usize)>,
    /// `(index into spans of its first occurrence, frequency)` per
    /// distinct term, ascending.
    distinct: Vec<(usize, u32)>,
}

impl TermCounts {
    fn fill(&mut self, analyzer: &Analyzer, text: &str) {
        let TermCounts {
            bytes,
            spans,
            distinct,
        } = self;
        bytes.clear();
        spans.clear();
        distinct.clear();
        analyzer.for_each_term(text, |term| {
            let start = bytes.len();
            bytes.push_str(term);
            spans.push((start, bytes.len()));
        });
        let term = |&(start, end): &(usize, usize)| &bytes[start..end];
        spans.sort_unstable_by(|a, b| term(a).cmp(term(b)));
        for (i, span) in spans.iter().enumerate() {
            match distinct.last_mut() {
                Some((first, freq)) if term(&spans[*first]) == term(span) => *freq += 1,
                _ => distinct.push((i, 1)),
            }
        }
    }

    /// Term occurrences: the text's analyzed length.
    pub(crate) fn total(&self) -> u32 {
        self.spans.len() as u32
    }

    /// `(term, frequency)` of every distinct term, ascending by term.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, u32)> {
        self.distinct.iter().map(|&(first, freq)| {
            let (start, end) = self.spans[first];
            (&self.bytes[start..end], freq)
        })
    }
}

thread_local! {
    static TERM_COUNTS: RefCell<TermCounts> = RefCell::default();
}

/// Count `text`'s terms under `analyzer` into this thread's [`TermCounts`]
/// and hand them to `f`. `f` must not count another text itself.
pub(crate) fn with_term_counts<R>(
    analyzer: &Analyzer,
    text: &str,
    f: impl FnOnce(&TermCounts) -> R,
) -> R {
    TERM_COUNTS.with_borrow_mut(|counts| {
        counts.fill(analyzer, text);
        f(counts)
    })
}

/// A query prepared for scoring: analyzed once per search, each distinct
/// term's idf resolved once against the corpus statistics in force, terms
/// in sorted order — the floating-point accumulation order every segment
/// repeats.
pub(crate) struct PreparedQuery {
    /// `(term, query frequency, idf)`. The idf is `None` when no live
    /// document holds the term: its postings are all dead, so they are
    /// charged but not scored.
    terms: Vec<(String, f64, Option<f64>)>,
    avg_len: f64,
}

impl PreparedQuery {
    /// Prepare `query` against a corpus of `docs` documents of `total_len`
    /// analyzed terms, where `df_of` is a term's document frequency. `None`
    /// when nothing can match (empty corpus, or no term survives analysis).
    pub(crate) fn new(
        analyzer: &Analyzer,
        query: &str,
        docs: u64,
        total_len: u64,
        df_of: impl Fn(&str) -> u64,
    ) -> Option<PreparedQuery> {
        if docs == 0 {
            return None;
        }
        let n = docs as f64;
        let terms: Vec<(String, f64, Option<f64>)> = with_term_counts(analyzer, query, |counts| {
            counts
                .iter()
                .map(|(term, qf)| {
                    let df = df_of(term);
                    // The "+1" form used by Lucene: always positive.
                    let idf =
                        (df > 0).then(|| ((n - df as f64 + 0.5) / (df as f64 + 0.5) + 1.0).ln());
                    (term.to_string(), qf as f64, idf)
                })
                .collect()
        });
        if terms.is_empty() {
            return None;
        }
        Some(PreparedQuery {
            terms,
            avg_len: total_len as f64 / n,
        })
    }
}

/// Document lengths below this read their normalization from the
/// per-search table; longer documents compute it per posting.
const NORM_TABLE_CAP: usize = 4096;

/// Per-thread scoring scratch, reused across searches so a search
/// allocates nothing that scales with the index.
#[derive(Default)]
struct Scratch {
    /// Dense score accumulator indexed by ordinal; an entry is valid for
    /// the current segment only when `seen` holds its ordinal.
    scores: Vec<f64>,
    seen: VisitedSet,
    /// Ordinals touched in the current segment, in first-touch order.
    touched: Vec<u32>,
    /// Length normalization by document length, valid for one search.
    norms: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Run a prepared query over `segments` (each with its tombstones): one
/// scoring kernel, one top-k across all of them, one postings charge.
/// Hits come back in [`crate::hit::sort_hits`]' total order.
pub(crate) fn search_segments<'a>(
    query: Option<PreparedQuery>,
    k: usize,
    segments: impl IntoIterator<Item = (&'a Segment, &'a Tombstones)>,
) -> Vec<SearchHit> {
    let Some(query) = query.filter(|_| k > 0) else {
        return Vec::new();
    };
    let mut top: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    let visited = SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        scratch.norms.clear();
        segments
            .into_iter()
            .map(|(segment, dead)| segment.score_into(&query, dead, scratch, &mut top, k))
            .sum::<u64>()
    });
    // One tally update per search: a posting is a (doc, tf) pair, 8 bytes
    // as laid out in the snapshot format.
    meter::charge_postings(visited, visited * 8);
    top.into_sorted_vec()
        .into_iter()
        .map(|e| SearchHit::new(e.id, e.score))
        .collect()
}

/// Heap entry for top-k selection (min-heap on score).
struct HeapEntry {
    score: f64,
    id: InstanceId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.id == other.id
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smaller scores at the top of the heap so we can evict
        // them. Ties evict the *largest external id*, mirroring
        // `sort_hits`' total order (score desc, id asc) — the survivors at
        // a tied k-boundary are then the same set a whole-corpus index
        // keeps, which is what makes sharded top-k merge exact.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl Segment {
    /// Empty segment with the given analyzer and BM25 parameters.
    pub(crate) fn new(analyzer: Analyzer, params: Bm25Params) -> Segment {
        Segment {
            analyzer,
            params,
            postings: HashMap::new(),
            ids: Vec::new(),
            lengths: Vec::new(),
            total_len: 0,
        }
    }

    /// Number of stored documents, tombstoned or not.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Add a document already analyzed into term counts (by this
    /// segment's analyzer). Returns its internal ordinal.
    pub(crate) fn add_analyzed(&mut self, id: InstanceId, counts: &TermCounts) -> u32 {
        let doc = self.ids.len() as u32;
        self.ids.push(id);
        let len = counts.total();
        self.lengths.push(len);
        self.total_len += len as u64;
        // Terms come in sorted order, so the postings map's vectors are
        // built in a stable order whatever the map's iteration order.
        for (term, freq) in counts.iter() {
            let posting = Posting { doc, tf: freq };
            match self.postings.get_mut(term) {
                Some(list) => list.push(posting),
                None => {
                    self.postings.insert(term.to_string(), vec![posting]);
                }
            }
        }
        doc
    }

    /// BM25 length normalization of a document of `dl` analyzed terms. The
    /// one expression every `denom` is built from, table or not, so a score
    /// has the same bits however its norm was obtained.
    #[inline]
    fn length_norm(&self, dl: usize, avg_len: f64) -> f64 {
        self.params.k1 * (1.0 - self.params.b + self.params.b * dl as f64 / avg_len)
    }

    /// The scoring kernel: accumulate this segment's share of `query` into
    /// the dense scratch accumulator, skipping `dead` ordinals, then offer
    /// every touched document to the search-wide top-`k` heap. Returns the
    /// postings visited — every posting of every query term present here,
    /// scored or not. A document's score is the sum of its term
    /// contributions in sorted term order from `0.0`, against the
    /// statistics baked into `query` — bit-identical to one segment holding
    /// the whole surviving corpus, whatever the segment layout.
    fn score_into(
        &self,
        query: &PreparedQuery,
        dead: &Tombstones,
        scratch: &mut Scratch,
        top: &mut BinaryHeap<HeapEntry>,
        k: usize,
    ) -> u64 {
        scratch.seen.begin(self.ids.len());
        if scratch.scores.len() < self.ids.len() {
            scratch.scores.resize(self.ids.len(), 0.0);
        }
        scratch.touched.clear();
        let norms = &mut scratch.norms;
        let mut visited = 0u64;
        for (term, qf, idf) in &query.terms {
            let Some(postings) = self.postings.get(term) else {
                continue;
            };
            visited += postings.len() as u64;
            let Some(idf) = idf else {
                continue;
            };
            for p in postings {
                if dead.contains(p.doc) {
                    continue;
                }
                let dl = self.lengths[p.doc as usize] as usize;
                if dl >= norms.len() && dl < NORM_TABLE_CAP {
                    let known = norms.len();
                    norms.extend((known..=dl).map(|l| self.length_norm(l, query.avg_len)));
                }
                let norm = norms.get(dl).copied();
                let norm = norm.unwrap_or_else(|| self.length_norm(dl, query.avg_len));
                let tf = p.tf as f64;
                let denom = tf + norm;
                let contrib = idf * tf * (self.params.k1 + 1.0) / denom;
                let score = &mut scratch.scores[p.doc as usize];
                if scratch.seen.insert(p.doc) {
                    *score = 0.0;
                    scratch.touched.push(p.doc);
                }
                *score += contrib * qf;
            }
        }
        for &doc in &scratch.touched {
            let score = scratch.scores[doc as usize];
            // Strictly below a full heap's worst score: rejected with one
            // compare, before the id is even loaded. Ties go to `offer`.
            if top.len() >= k && top.peek().is_some_and(|worst| score < worst.score) {
                continue;
            }
            let id = self.ids[doc as usize];
            offer(top, k, HeapEntry { score, id });
        }
        visited
    }

    /// Serialize the segment into a snapshot blob of kind
    /// [`SnapshotKind::Inverted`]: analyzer and BM25 parameters, the
    /// documents' ids and lengths in ordinal order, then every postings
    /// list in sorted term order.
    pub(crate) fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64 + self.ids.len() * 16);
        persist::put_header(&mut buf, SnapshotKind::Inverted, 0);
        let cfg = self.analyzer.config();
        buf.put_u8(cfg.lowercase as u8);
        buf.put_u8(cfg.remove_stopwords as u8);
        buf.put_u8(cfg.stem as u8);
        buf.put_f64_le(self.params.k1);
        buf.put_f64_le(self.params.b);
        buf.put_u64_le(self.total_len);
        buf.put_u32_le(self.ids.len() as u32);
        for (id, &len) in self.ids.iter().zip(self.lengths.iter()) {
            persist::put_instance_id(&mut buf, *id);
            buf.put_u32_le(len);
        }
        let mut terms: Vec<&String> = self.postings.keys().collect();
        terms.sort_unstable();
        buf.put_u32_le(terms.len() as u32);
        for term in terms {
            persist::put_str(&mut buf, term);
            let postings = &self.postings[term];
            buf.put_u32_le(postings.len() as u32);
            for p in postings {
                buf.put_u32_le(p.doc);
                buf.put_u32_le(p.tf);
            }
        }
        buf.freeze()
    }

    /// Reconstruct a segment from a blob produced by [`Self::to_bytes`].
    /// Every count is bounded by the bytes left before anything is sized
    /// from it, and a posting whose ordinal is not a stored document or
    /// does not follow its list's previous one is
    /// [`PersistError::Corrupt`].
    pub(crate) fn from_bytes(mut buf: Bytes) -> Result<Segment, PersistError> {
        persist::check_header(&mut buf, SnapshotKind::Inverted, 0)?;
        let lowercase = persist::get_u8(&mut buf)? != 0;
        let remove_stopwords = persist::get_u8(&mut buf)? != 0;
        let stem = persist::get_u8(&mut buf)? != 0;
        let k1 = persist::get_f64(&mut buf)?;
        let b = persist::get_f64(&mut buf)?;
        let total_len = persist::get_u64(&mut buf)?;
        // A document is its 9-byte id and its length.
        let n_docs = persist::get_count(&mut buf, 13)?;
        let mut ids = Vec::with_capacity(n_docs);
        let mut lengths = Vec::with_capacity(n_docs);
        for _ in 0..n_docs {
            ids.push(persist::get_instance_id(&mut buf)?);
            lengths.push(persist::get_u32(&mut buf)?);
        }
        // A term is at least its string length and its postings count.
        let n_terms = persist::get_count(&mut buf, 8)?;
        let mut postings = HashMap::with_capacity(n_terms);
        for _ in 0..n_terms {
            let term = persist::get_str(&mut buf)?;
            let n = persist::get_count(&mut buf, 8)?;
            let mut list = Vec::with_capacity(n);
            // The least ordinal the next posting may hold.
            let mut next = 0usize;
            for _ in 0..n {
                let doc = persist::get_u32(&mut buf)?;
                let tf = persist::get_u32(&mut buf)?;
                if (doc as usize) < next || doc as usize >= n_docs {
                    return Err(PersistError::Corrupt(
                        "posting ordinal out of order or past the document count",
                    ));
                }
                next = doc as usize + 1;
                list.push(Posting { doc, tf });
            }
            postings.insert(term, list);
        }
        persist::finish(&buf)?;
        Ok(Segment {
            analyzer: Analyzer::new(AnalyzerConfig {
                lowercase,
                remove_stopwords,
                stem,
            }),
            params: Bm25Params { k1, b },
            postings,
            ids,
            lengths,
            total_len,
        })
    }

    /// The external ids in internal-ordinal order.
    pub(crate) fn doc_ids(&self) -> &[InstanceId] {
        &self.ids
    }

    /// The analyzer this segment tokenizes with.
    pub(crate) fn analyzer(&self) -> Analyzer {
        self.analyzer
    }

    /// The BM25 parameters this segment scores with.
    pub(crate) fn params(&self) -> Bm25Params {
        self.params
    }

    /// Merge segments into one compacted segment, dropping each segment's
    /// dead ordinals.
    ///
    /// Surviving documents are renumbered in `(segment, ordinal)` order, so
    /// the result is exactly the segment a fresh sequential build over the
    /// surviving documents (in that order) would produce: posting lists stay
    /// sorted by document ordinal, per-document term frequencies and lengths
    /// are carried over verbatim, and no re-analysis happens. The merge is
    /// pure posting-list surgery — O(total postings), not O(total text).
    pub(crate) fn merge_compact(parts: &[(&Segment, &Tombstones)]) -> Segment {
        let (analyzer, params) = parts
            .first()
            .map(|(seg, _)| (seg.analyzer, seg.params))
            .unwrap_or_else(|| (Analyzer::standard(), Bm25Params::default()));
        let mut merged = Segment::new(analyzer, params);
        // Per-segment remap: old ordinal -> new ordinal (dead -> None).
        let mut remaps: Vec<Vec<Option<u32>>> = Vec::with_capacity(parts.len());
        for (seg, dead) in parts {
            let mut remap = Vec::with_capacity(seg.ids.len());
            for (ord, (&id, &len)) in seg.ids.iter().zip(seg.lengths.iter()).enumerate() {
                if dead.contains(ord as u32) {
                    remap.push(None);
                } else {
                    remap.push(Some(merged.ids.len() as u32));
                    merged.ids.push(id);
                    merged.lengths.push(len);
                    merged.total_len += len as u64;
                }
            }
            remaps.push(remap);
        }
        for ((seg, _), remap) in parts.iter().zip(remaps.iter()) {
            for (term, postings) in &seg.postings {
                let list = merged.postings.entry(term.clone()).or_default();
                for p in postings {
                    if let Some(doc) = remap[p.doc as usize] {
                        list.push(Posting { doc, tf: p.tf });
                    }
                }
            }
        }
        // A term may exist only in dead documents; drop its empty list so
        // vocabulary and snapshots match a fresh build exactly.
        merged.postings.retain(|_, list| !list.is_empty());
        // Posting lists were appended per segment in segment order; within a
        // segment they are ordinal-sorted already, and later segments map to
        // larger ordinals, so each list is sorted. Debug-check the invariant.
        debug_assert!(merged
            .postings
            .values()
            .all(|l| l.windows(2).all(|w| w[0].doc < w[1].doc)));
        merged
    }
}

/// Reference BM25 over raw documents — the accumulate-into-a-`HashMap`
/// formula the kernel replaced, sharing none of its code: every document
/// analyzed afresh, statistics recounted (unless `shared` overrides them),
/// every hit sorted. The oracle the layout-independence tests compare to.
#[cfg(test)]
pub(crate) fn oracle_search(
    docs: &[(InstanceId, String)],
    shared: Option<&CorpusStats>,
    query: &str,
    k: usize,
) -> Vec<SearchHit> {
    let (analyzer, params) = (Analyzer::standard(), Bm25Params::default());
    let tfs: Vec<HashMap<String, u32>> = docs
        .iter()
        .map(|(_, text)| analyzer.term_frequencies(text))
        .collect();
    let mut own = CorpusStats::default();
    for tf in &tfs {
        own.docs += 1;
        own.total_len += tf.values().map(|&f| f as u64).sum::<u64>();
        for term in tf.keys() {
            *own.doc_freqs.entry(term.clone()).or_insert(0) += 1;
        }
    }
    let stats = shared.unwrap_or(&own);
    let mut qvec: Vec<(String, u32)> = analyzer.term_frequencies(query).into_iter().collect();
    qvec.sort_unstable();
    let avg_len = stats.total_len as f64 / stats.docs as f64;
    let mut scores: HashMap<usize, f64> = HashMap::new();
    for (term, qf) in qvec {
        let Some(&df) = stats.doc_freqs.get(&term) else {
            continue;
        };
        let idf = ((stats.docs as f64 - df as f64 + 0.5) / (df as f64 + 0.5) + 1.0).ln();
        for (doc, tf) in tfs.iter().enumerate() {
            let Some(&f) = tf.get(&term) else {
                continue;
            };
            let dl = tf.values().sum::<u32>() as f64;
            let tf = f as f64;
            let denom = tf + params.k1 * (1.0 - params.b + params.b * dl / avg_len);
            let contrib = idf * tf * (params.k1 + 1.0) / denom;
            *scores.entry(doc).or_insert(0.0) += contrib * qf as f64;
        }
    }
    let mut hits: Vec<SearchHit> = scores
        .into_iter()
        .map(|(doc, score)| SearchHit::new(docs[doc].0, score))
        .collect();
    crate::hit::sort_hits(&mut hits);
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hit::sort_hits;
    use crate::SegmentedInvertedIndex;
    use std::sync::Arc;

    fn tid(i: u64) -> InstanceId {
        InstanceId::Text(i)
    }

    const TEXTS: [&str; 4] = [
        "Meagan Good is an American actress born in Panorama City",
        "Stomp the Yard is a 2007 dance drama film starring Columbus Short",
        "Michael Jordan played basketball for the Chicago Bulls",
        "The 1959 NCAA track and field championships were held in June",
    ];

    fn small_index() -> SegmentedInvertedIndex {
        let mut idx = SegmentedInvertedIndex::default();
        for (i, text) in TEXTS.iter().enumerate() {
            idx.add(tid(i as u64), text);
        }
        idx
    }

    /// A segment holding `texts`, each under its position as id.
    fn segment_of(texts: &[&str]) -> Segment {
        let analyzer = Analyzer::standard();
        let mut seg = Segment::new(analyzer, Bm25Params::default());
        for (i, text) in texts.iter().enumerate() {
            with_term_counts(&analyzer, text, |counts| {
                seg.add_analyzed(tid(i as u64), counts)
            });
        }
        seg
    }

    /// Top-`k` of one segment scored against its own statistics.
    fn search(seg: &Segment, query: &str, k: usize) -> Vec<SearchHit> {
        let df_of = |term: &str| seg.postings.get(term).map_or(0, |p| p.len() as u64);
        let query =
            PreparedQuery::new(&seg.analyzer, query, seg.len() as u64, seg.total_len, df_of);
        search_segments(query, k, [(seg, &Tombstones::default())])
    }

    /// Term counts are the analyzer's term frequencies, sorted by term,
    /// and a reused buffer keeps nothing of the text counted before.
    #[test]
    fn term_counts_are_sorted_term_frequencies() {
        let analyzer = Analyzer::standard();
        for text in [
            TEXTS[1],
            "",
            "the the",
            TEXTS[3],
            "Yard yard YARD stomp café Café",
        ] {
            let mut expected: Vec<(String, u32)> =
                analyzer.term_frequencies(text).into_iter().collect();
            expected.sort_unstable();
            let (counts, total) = with_term_counts(&analyzer, text, |counts| {
                let pairs: Vec<(String, u32)> =
                    counts.iter().map(|(t, f)| (t.to_string(), f)).collect();
                (pairs, counts.total())
            });
            assert_eq!(counts, expected, "{text:?}");
            assert_eq!(total, analyzer.analyze(text).len() as u32, "{text:?}");
        }
    }

    #[test]
    fn exact_topic_match_ranks_first() {
        let idx = small_index();
        let hits = idx.search("Meagan Good actress", 2);
        assert_eq!(hits[0].id, tid(0));
        assert!(hits[0].score > 0.0);
    }

    #[test]
    fn k_limits_results() {
        let idx = small_index();
        assert_eq!(idx.search("the", 10).len(), 0); // stopword-only query
        assert!(idx.search("film dance basketball", 2).len() <= 2);
        assert!(idx.search("film", 0).is_empty());
    }

    #[test]
    fn empty_index_and_query() {
        let idx = SegmentedInvertedIndex::default();
        assert!(idx.search("anything", 5).is_empty());
        let idx = small_index();
        assert!(idx.search("", 5).is_empty());
    }

    #[test]
    fn idf_downweights_common_terms() {
        let mut idx = SegmentedInvertedIndex::default();
        for i in 0..20 {
            idx.add(tid(i), "common filler text");
        }
        idx.add(tid(100), "common rare filler");
        let hits = idx.search("rare", 5);
        assert_eq!(hits[0].id, tid(100));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn rarer_match_beats_frequent_match() {
        let idx = small_index();
        // "basketball" appears once — doc 2 must beat docs matching "the".
        let hits = idx.search("basketball career statistics", 4);
        assert_eq!(hits[0].id, tid(2));
    }

    #[test]
    fn stemming_bridges_inflection() {
        let idx = small_index();
        let hits = idx.search("championship", 4);
        assert_eq!(hits[0].id, tid(3)); // matches "championships"
    }

    #[test]
    fn length_normalization_prefers_concise_docs() {
        let mut idx = SegmentedInvertedIndex::default();
        idx.add(tid(0), "jordan");
        idx.add(
            tid(1),
            "jordan mentioned once inside a much longer document about many other things entirely \
             unrelated to the query regarding sports and athletes and so on",
        );
        let hits = idx.search("jordan", 2);
        assert_eq!(hits[0].id, tid(0));
    }

    #[test]
    fn deterministic_across_builds() {
        let a = small_index().search("dance film 2007", 4);
        let b = small_index().search("dance film 2007", 4);
        assert_eq!(a, b);
    }

    #[test]
    fn doc_frequency_reports_analyzed_terms() {
        // Statistics are keyed by analyzed terms: "basketball" is counted
        // under its stem, and a term no document holds is absent.
        let stats = small_index().corpus_stats();
        let stem = |word: &str| Analyzer::standard().analyze(word).remove(0);
        assert_eq!(stats.doc_freqs.get(&stem("basketball")), Some(&1));
        assert_eq!(stats.doc_freqs.get(&stem("zebra")), None);
    }

    #[test]
    fn snapshot_roundtrip_preserves_rankings() {
        let seg = segment_of(&TEXTS);
        let restored = Segment::from_bytes(seg.to_bytes()).unwrap();
        assert_eq!(restored.doc_ids(), seg.doc_ids());
        for q in [
            "Meagan Good actress",
            "basketball career",
            "championship 1959",
        ] {
            assert_eq!(search(&restored, q, 4), search(&seg, q, 4), "query {q}");
        }
        // Snapshots are deterministic.
        assert_eq!(seg.to_bytes(), restored.to_bytes());
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(matches!(
            Segment::from_bytes(Bytes::from_static(b"garbage")),
            Err(PersistError::BadMagic | PersistError::Truncated)
        ));
        // Truncated valid snapshot.
        let full = segment_of(&TEXTS).to_bytes();
        let cut = full.slice(0..full.len() / 2);
        assert!(Segment::from_bytes(cut).is_err());
    }

    #[test]
    fn corrupt_postings_and_counts_are_errors_not_panics() {
        // Terms in sorted order: "aardvark" (ordinals 0, 1), "yak", "zebra".
        let good = segment_of(&["aardvark zebra", "aardvark yak"])
            .to_bytes()
            .to_vec();
        // Past the header and fixed fields (34 bytes), the document count
        // and two 13-byte documents, the term count, then "aardvark": its
        // length, its 8 bytes, its postings count, its postings.
        let n_docs_at = 34;
        let n_terms_at = n_docs_at + 4 + 2 * 13;
        let postings_at = n_terms_at + 4 + 4 + 8 + 4;
        let corrupt = |at: usize, word: u32| {
            let mut raw = good.clone();
            raw[at..at + 4].copy_from_slice(&word.to_le_bytes());
            Segment::from_bytes(Bytes::from(raw)).map(|_| ())
        };
        assert_eq!(
            corrupt(postings_at, 0),
            Ok(()),
            "offsets must hit a posting"
        );
        // An ordinal past the document count: scoring would index past
        // `lengths`, merging past its remap table.
        assert!(matches!(
            corrupt(postings_at, 2),
            Err(PersistError::Corrupt(_))
        ));
        // The second posting repeating the first.
        assert!(matches!(
            corrupt(postings_at + 8, 0),
            Err(PersistError::Corrupt(_))
        ));
        // Document, term and postings counts no buffer could hold.
        for at in [n_docs_at, n_terms_at, postings_at - 4] {
            assert_eq!(
                corrupt(at, u32::MAX),
                Err(PersistError::Truncated),
                "at {at}"
            );
        }
    }

    #[test]
    fn shared_stats_make_shard_scores_global() {
        // Split the corpus across two "shards"; with merged CorpusStats
        // installed, each shard scores its documents exactly as the
        // whole-corpus index does.
        let global = small_index();
        let mut shard_a = SegmentedInvertedIndex::default();
        let mut shard_b = SegmentedInvertedIndex::default();
        for (i, text) in TEXTS.iter().enumerate() {
            let shard = if i % 2 == 0 {
                &mut shard_a
            } else {
                &mut shard_b
            };
            shard.add(tid(i as u64), text);
        }
        let mut merged = shard_a.corpus_stats();
        merged.merge(&shard_b.corpus_stats());
        assert_eq!(merged, global.corpus_stats());
        let merged = Arc::new(merged);
        shard_a.set_shared_stats(merged.clone());
        shard_b.set_shared_stats(merged);
        for q in ["Meagan Good actress", "basketball film", "championship"] {
            let mut sharded: Vec<SearchHit> = shard_a.search(q, 10);
            sharded.extend(shard_b.search(q, 10));
            sort_hits(&mut sharded);
            assert_eq!(sharded, global.search(q, 10), "query {q}");
        }
    }

    #[test]
    fn tied_scores_keep_smallest_ids_at_k_boundary() {
        // Identical documents tie exactly; the k survivors must be the
        // smallest ids (sort_hits' total order), not heap-insertion order.
        let mut idx = SegmentedInvertedIndex::default();
        for i in 0..10 {
            idx.add(tid(i), "identical zebra document");
        }
        let hits = idx.search("zebra", 4);
        let ids: Vec<InstanceId> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![tid(0), tid(1), tid(2), tid(3)]);
    }

    #[test]
    fn vocabulary_grows() {
        let idx = small_index();
        assert!(idx.corpus_stats().doc_freqs.len() > 10);
        assert_eq!(idx.len(), 4);
        assert!(!idx.is_empty());
    }
}

#[cfg(test)]
mod prop_tests {
    use crate::SegmentedInvertedIndex;
    use proptest::prelude::*;
    use verifai_lake::InstanceId;

    proptest! {
        /// Top-k results are always sorted by descending score.
        #[test]
        fn results_sorted(docs in proptest::collection::vec("[a-z ]{5,40}", 1..20),
                          query in "[a-z ]{1,20}", k in 1usize..10) {
            let mut idx = SegmentedInvertedIndex::default();
            for (i, d) in docs.iter().enumerate() {
                idx.add(InstanceId::Text(i as u64), d);
            }
            let hits = idx.search(&query, k);
            prop_assert!(hits.len() <= k);
            for w in hits.windows(2) {
                prop_assert!(w[0].score >= w[1].score);
            }
        }

        /// A document is always retrievable by its own (non-stopword) content.
        #[test]
        fn self_retrieval(content in "[b-df-hj-np-tv-xz]{4,10} [b-df-hj-np-tv-xz]{4,10}") {
            let mut idx = SegmentedInvertedIndex::default();
            idx.add(InstanceId::Text(0), &content);
            idx.add(InstanceId::Text(1), "completely different words here");
            let hits = idx.search(&content, 1);
            prop_assert_eq!(hits[0].id, InstanceId::Text(0));
        }
    }
}
