//! Segmented inverted index: the one content index, live-mutable BM25.
//!
//! A segment is append-only — deleting or updating a document in it would
//! mean rebuilding it. This index gives the content path a log-structured
//! lifecycle instead: writes land in one small mutable **memtable** segment;
//! when it reaches the seal threshold it is frozen into the list of immutable
//! **sealed** segments and a fresh memtable starts. Deletes tombstone the
//! document's ordinal inside whichever segment holds it.
//!
//! ## Segment policy
//!
//! A search pays per segment, so the segment count is bounded at all
//! times. When a seal pushes the sealed count past the fan-out cap, a
//! **trailing run** of adjacent segments is merged into one, size-tiered
//! (see `merge_tail`). Once more than half of the stored documents are
//! tombstones, a `remove` merges *every* segment into one — a full merge
//! is what sheds tombstones everywhere — and a batch build ends with the
//! same [`compact`](SegmentedInvertedIndex::compact). Every merge is pure
//! posting-list surgery over adjacent segments (`merge_compact` — no
//! re-analysis), so the result equals a fresh sequential build of the
//! survivors.
//!
//! ## Score equivalence across segment layouts
//!
//! BM25 is corpus-relative, so naive per-segment scoring would drift as
//! segments fill. The index therefore maintains **live corpus statistics**
//! (document count, total length, per-term document frequencies over
//! non-tombstoned documents only) incrementally on every add/remove. A
//! search prepares its query once against those, and every segment runs the
//! one scoring kernel (`content.rs`'s `score_into`) with its tombstoned
//! ordinals skipped, feeding one top-k. Identical integer statistics,
//! identical per-document term frequencies, the same sorted-term
//! accumulation order and the same length-norm expression make each
//! document's score **bit-identical** to one segment holding the whole
//! surviving corpus, and the top-k is taken under `sort_hits`' total order
//! — so results do not depend on the segment layout (DESIGN.md §19). The
//! layout-independence property test below (against the test-only oracle in
//! `content.rs`) and the interleaved-history property test in `verifai`
//! hold the system to exactly this.

use crate::content::{
    search_segments, with_term_counts, Bm25Params, CorpusStats, PreparedQuery, Segment, Tombstones,
};
use crate::hit::SearchHit;
use crate::persist::{self, PersistError, SnapshotKind};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::sync::Arc;
use verifai_lake::InstanceId;
use verifai_text::Analyzer;

/// Memtable size at which it is sealed into an immutable segment.
const DEFAULT_SEAL_THRESHOLD: usize = 256;
/// Fan-out cap: a seal that pushes the sealed-segment count past this
/// merges a trailing run of them.
const MAX_SEALED_SEGMENTS: usize = 8;

/// A mutable, segment-based BM25 index: one writable memtable, immutable
/// sealed segments, tombstoned deletes, and merge-based compaction. See the
/// module docs for the score-equivalence argument.
///
/// Invariant: every live external id is held by exactly one segment. Updates
/// are expressed as remove + add by the caller (the live lake layer).
#[derive(Debug)]
pub struct SegmentedInvertedIndex {
    analyzer: Analyzer,
    params: Bm25Params,
    memtable: Segment,
    /// id -> memtable ordinal, for live memtable documents.
    mem_locations: HashMap<InstanceId, u32>,
    mem_dead: Tombstones,
    sealed: Vec<Arc<Segment>>,
    /// Tombstoned ordinals per sealed segment (parallel to `sealed`).
    dead: Vec<Tombstones>,
    /// id -> (sealed segment index, ordinal), for live sealed documents.
    locations: HashMap<InstanceId, (usize, u32)>,
    /// Statistics of the *live* documents only, maintained incrementally.
    live: CorpusStats,
    /// Cluster-installed global stats overriding `live` during scoring.
    shared_stats: Option<Arc<CorpusStats>>,
    seal_threshold: usize,
    generation: u64,
    compactions: u64,
}

impl Default for SegmentedInvertedIndex {
    fn default() -> Self {
        SegmentedInvertedIndex::new(Analyzer::standard(), Bm25Params::default())
    }
}

impl SegmentedInvertedIndex {
    /// The bound [`Self::segments`] never exceeds: the sealed fan-out cap
    /// plus the memtable.
    pub const MAX_SEGMENTS: usize = MAX_SEALED_SEGMENTS + 1;

    /// Empty index with the given analyzer and BM25 parameters.
    pub fn new(analyzer: Analyzer, params: Bm25Params) -> SegmentedInvertedIndex {
        SegmentedInvertedIndex {
            analyzer,
            params,
            memtable: Segment::new(analyzer, params),
            mem_locations: HashMap::new(),
            mem_dead: Tombstones::default(),
            sealed: Vec::new(),
            dead: Vec::new(),
            locations: HashMap::new(),
            live: CorpusStats::default(),
            shared_stats: None,
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            generation: 0,
            compactions: 0,
        }
    }

    /// Override the memtable seal threshold (builder-style). Small values
    /// force multi-segment layouts in tests.
    pub fn with_seal_threshold(mut self, threshold: usize) -> SegmentedInvertedIndex {
        self.seal_threshold = threshold.max(1);
        self
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.locations.len() + self.mem_locations.len()
    }

    /// True when no live documents remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Segments currently backing the index (sealed + non-empty memtable).
    pub fn segments(&self) -> usize {
        self.sealed.len() + usize::from(!self.memtable.is_empty())
    }

    /// Tombstoned documents not yet compacted away.
    pub fn tombstones(&self) -> usize {
        self.mem_dead.len() + self.dead.iter().map(Tombstones::len).sum::<usize>()
    }

    /// Mutation generation: bumped on every add/remove, persisted.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Times compaction has merged the segments.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Live-corpus statistics, for cross-shard merging.
    pub fn corpus_stats(&self) -> CorpusStats {
        self.live.clone()
    }

    /// Score against corpus-wide statistics instead of the live-local ones:
    /// with the merged statistics of every shard installed, each shard
    /// scores its documents exactly as one index over the whole corpus
    /// would (see [`CorpusStats`]).
    pub fn set_shared_stats(&mut self, stats: Arc<CorpusStats>) {
        self.shared_stats = Some(stats);
    }

    /// Add a document. The id must not be live in the index (updates are
    /// remove + add).
    pub fn add(&mut self, id: InstanceId, text: &str) {
        debug_assert!(
            !self.locations.contains_key(&id) && !self.mem_locations.contains_key(&id),
            "id {id:?} is already live; remove it before re-adding"
        );
        // One analysis feeds both the live statistics and the memtable.
        let analyzer = self.analyzer;
        let ord = with_term_counts(&analyzer, text, |counts| {
            self.live.docs += 1;
            self.live.total_len += counts.total() as u64;
            for (term, _) in counts.iter() {
                match self.live.doc_freqs.get_mut(term) {
                    Some(df) => *df += 1,
                    None => {
                        self.live.doc_freqs.insert(term.to_string(), 1);
                    }
                }
            }
            self.memtable.add_analyzed(id, counts)
        });
        self.mem_locations.insert(id, ord);
        self.generation += 1;
        if self.memtable.len() >= self.seal_threshold {
            self.seal();
        }
    }

    /// Tombstone the document live under `id`. `text` must be the exact
    /// text it was added with — it is re-analyzed to subtract the document's
    /// contribution from the live statistics (the index stores no text).
    /// Returns false (and changes nothing) when the id is not live.
    pub fn remove(&mut self, id: InstanceId, text: &str) -> bool {
        if let Some(ord) = self.mem_locations.remove(&id) {
            self.mem_dead.insert(ord);
        } else if let Some((seg, ord)) = self.locations.remove(&id) {
            self.dead[seg].insert(ord);
        } else {
            return false;
        }
        let live = &mut self.live;
        with_term_counts(&self.analyzer, text, |counts| {
            live.docs -= 1;
            live.total_len -= counts.total() as u64;
            for (term, _) in counts.iter() {
                if let Some(df) = live.doc_freqs.get_mut(term) {
                    *df -= 1;
                    if *df == 0 {
                        live.doc_freqs.remove(term);
                    }
                }
            }
        });
        self.generation += 1;
        if self.should_compact() {
            self.compact();
        }
        true
    }

    /// Freeze the memtable into an immutable sealed segment and start a
    /// fresh one; when that pushes the sealed count past the fan-out cap,
    /// merge a trailing run of segments. No-op when the memtable is empty.
    pub fn seal(&mut self) {
        self.freeze_memtable();
        // One merge after a seal; more only on loading a snapshot written
        // without the cap.
        while self.sealed.len() > MAX_SEALED_SEGMENTS {
            self.merge_tail();
        }
    }

    fn freeze_memtable(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let seg = self.sealed.len();
        let full = std::mem::replace(&mut self.memtable, Segment::new(self.analyzer, self.params));
        self.sealed.push(Arc::new(full));
        self.dead.push(std::mem::take(&mut self.mem_dead));
        for (id, ord) in self.mem_locations.drain() {
            self.locations.insert(id, (seg, ord));
        }
    }

    /// Whether dead weight justifies a full merge: more than half of the
    /// stored documents are tombstones. (The segment count is bounded on
    /// the seal path, not here.)
    pub fn should_compact(&self) -> bool {
        let stored = self.memtable.len() + self.sealed.iter().map(|s| s.len()).sum::<usize>();
        self.tombstones() * 2 > stored
    }

    /// Size-tiered tail merge: merge the newest sealed segment with the
    /// run of older neighbours that are each no larger than the run so far
    /// (always at least one). Equal-sized fresh segments collapse together;
    /// a large old segment joins only once comparable volume sits behind
    /// it, so the merge work per added document stays logarithmic.
    fn merge_tail(&mut self) {
        let Some(mut start) = self.sealed.len().checked_sub(2) else {
            return;
        };
        let mut run = self.sealed[start].len() + self.sealed[start + 1].len();
        while start > 0 && self.sealed[start - 1].len() <= run {
            start -= 1;
            run += self.sealed[start].len();
        }
        self.merge_sealed(start);
    }

    /// Merge the adjacent sealed segments `start..` into one, dropping
    /// their tombstones; `locations` is remapped for that run only.
    fn merge_sealed(&mut self, start: usize) {
        let parts: Vec<(&Segment, &Tombstones)> = self.sealed[start..]
            .iter()
            .map(|s| &**s)
            .zip(&self.dead[start..])
            .collect();
        let merged = Segment::merge_compact(&parts);
        for (ord, &id) in merged.doc_ids().iter().enumerate() {
            self.locations.insert(id, (start, ord as u32));
        }
        self.sealed.truncate(start);
        self.dead.truncate(start);
        if !merged.is_empty() {
            self.sealed.push(Arc::new(merged));
            self.dead.push(Tombstones::default());
        }
    }

    /// Merge every segment (and the memtable) into one compacted sealed
    /// segment, dropping tombstones. Live insertion order is preserved, so
    /// the merged segment equals a fresh sequential build of the survivors.
    /// No-op when the index already is one clean sealed segment.
    pub fn compact(&mut self) {
        self.freeze_memtable();
        if self.sealed.is_empty() || (self.sealed.len() == 1 && self.dead[0].len() == 0) {
            return;
        }
        self.merge_sealed(0);
        self.compactions += 1;
    }

    /// Top-k hits by BM25 over the live corpus: the query prepared once
    /// against the (shared or live) statistics, every segment scored by the
    /// one kernel with its tombstones skipped, one top-k under
    /// [`sort_hits`](crate::hit::sort_hits)' total order.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        if self.is_empty() {
            return Vec::new();
        }
        let stats: &CorpusStats = self.shared_stats.as_deref().unwrap_or(&self.live);
        let df_of = |term: &str| stats.doc_freqs.get(term).copied().unwrap_or(0);
        let query = PreparedQuery::new(&self.analyzer, query, stats.docs, stats.total_len, df_of);
        let sealed = self.sealed.iter().map(|s| &**s).zip(&self.dead);
        search_segments(query, k, sealed.chain([(&self.memtable, &self.mem_dead)]))
    }

    /// Serialize into a snapshot of kind [`SnapshotKind::Segmented`]:
    /// generation and compaction count, every segment (memtable last) as a
    /// length-prefixed segment blob (kind [`SnapshotKind::Inverted`]) plus
    /// its sorted tombstone ordinals, then the live statistics in sorted
    /// term order. Deterministic for a given index state.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        persist::put_header(&mut buf, SnapshotKind::Segmented, 0);
        buf.put_u64_le(self.generation);
        buf.put_u64_le(self.compactions);
        let include_mem = !self.memtable.is_empty();
        buf.put_u32_le((self.sealed.len() + usize::from(include_mem)) as u32);
        let write_segment = |buf: &mut BytesMut, seg: &Segment, dead: &Tombstones| {
            let blob = seg.to_bytes();
            buf.put_u32_le(blob.len() as u32);
            buf.put_slice(&blob);
            buf.put_u32_le(dead.len() as u32);
            for ord in (0..seg.len() as u32).filter(|&ord| dead.contains(ord)) {
                buf.put_u32_le(ord);
            }
        };
        for (seg, dead) in self.sealed.iter().zip(self.dead.iter()) {
            write_segment(&mut buf, seg, dead);
        }
        if include_mem {
            write_segment(&mut buf, &self.memtable, &self.mem_dead);
        }
        buf.put_u64_le(self.live.docs);
        buf.put_u64_le(self.live.total_len);
        let mut terms: Vec<(&String, &u64)> = self.live.doc_freqs.iter().collect();
        terms.sort_unstable();
        buf.put_u32_le(terms.len() as u32);
        for (term, &df) in terms {
            persist::put_str(&mut buf, term);
            buf.put_u64_le(df);
        }
        buf.freeze()
    }

    /// Reconstruct from a snapshot produced by [`Self::to_bytes`]. Every
    /// stored segment loads as sealed (tail-merged down to the fan-out cap
    /// when the snapshot holds more); the memtable starts fresh.
    pub fn from_bytes(mut buf: Bytes) -> Result<SegmentedInvertedIndex, PersistError> {
        persist::check_header(&mut buf, SnapshotKind::Segmented, 0)?;
        let generation = persist::get_u64(&mut buf)?;
        let compactions = persist::get_u64(&mut buf)?;
        // A segment is at least its blob length and its tombstone count.
        let nsegs = persist::get_count(&mut buf, 8)?;
        let mut sealed = Vec::with_capacity(nsegs);
        let mut dead = Vec::with_capacity(nsegs);
        let mut locations = HashMap::new();
        for seg_idx in 0..nsegs {
            let blob_len = persist::get_u32(&mut buf)? as usize;
            if buf.remaining() < blob_len {
                return Err(PersistError::Truncated);
            }
            let seg = Segment::from_bytes(buf.copy_to_bytes(blob_len))?;
            let ndead = persist::get_count(&mut buf, 4)?;
            let mut dead_set = Tombstones::default();
            for _ in 0..ndead {
                let ord = persist::get_u32(&mut buf)?;
                if ord as usize >= seg.len() {
                    return Err(PersistError::Corrupt("tombstone ordinal out of range"));
                }
                dead_set.insert(ord);
            }
            for (ord, &id) in seg.doc_ids().iter().enumerate() {
                if !dead_set.contains(ord as u32) {
                    locations.insert(id, (seg_idx, ord as u32));
                }
            }
            sealed.push(Arc::new(seg));
            dead.push(dead_set);
        }
        let docs = persist::get_u64(&mut buf)?;
        let total_len = persist::get_u64(&mut buf)?;
        // A term is at least its string length and its frequency.
        let nterms = persist::get_count(&mut buf, 12)?;
        let mut doc_freqs = HashMap::with_capacity(nterms);
        for _ in 0..nterms {
            let term = persist::get_str(&mut buf)?;
            doc_freqs.insert(term, persist::get_u64(&mut buf)?);
        }
        persist::finish(&buf)?;
        let (analyzer, params) = sealed
            .first()
            .map(|s| (s.analyzer(), s.params()))
            .unwrap_or_else(|| (Analyzer::standard(), Bm25Params::default()));
        let mut index = SegmentedInvertedIndex {
            analyzer,
            params,
            memtable: Segment::new(analyzer, params),
            mem_locations: HashMap::new(),
            mem_dead: Tombstones::default(),
            sealed,
            dead,
            locations,
            live: CorpusStats {
                docs,
                total_len,
                doc_freqs,
            },
            shared_stats: None,
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            generation,
            compactions,
        };
        // Every stored segment loaded as sealed: restore the fan-out cap.
        index.seal();
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::oracle_search;
    use crate::hit::sort_hits;

    fn tid(i: u64) -> InstanceId {
        InstanceId::Text(i)
    }

    fn texts() -> Vec<String> {
        (0..40u64)
            .map(|i| {
                format!(
                    "document {} about {} with extra {} words",
                    i,
                    [
                        "jordan basketball",
                        "election district",
                        "film actress",
                        "championship track"
                    ][(i % 4) as usize],
                    ["chicago", "york", "stomp", "ncaa"][(i % 4) as usize]
                )
            })
            .collect()
    }

    /// The survivors `(position, text)` as the oracle's documents.
    fn docs_of(surviving: &[(u64, &str)]) -> Vec<(InstanceId, String)> {
        surviving
            .iter()
            .map(|&(i, t)| (tid(i), t.to_string()))
            .collect()
    }

    #[test]
    fn segmented_matches_monolith_bit_exact() {
        // Multi-segment layout (tiny seal threshold) with interleaved
        // deletes must score bit-identically to the oracle over the
        // survivors.
        let all = texts();
        let mut seg = SegmentedInvertedIndex::default().with_seal_threshold(7);
        for (i, t) in all.iter().enumerate() {
            seg.add(tid(i as u64), t);
        }
        let mut survivors: Vec<(u64, &str)> = Vec::new();
        for (i, t) in all.iter().enumerate() {
            if i % 3 == 0 {
                assert!(seg.remove(tid(i as u64), t));
            } else {
                survivors.push((i as u64, t));
            }
        }
        let docs = docs_of(&survivors);
        assert_eq!(seg.len(), docs.len());
        for q in [
            "jordan basketball chicago",
            "election district york",
            "film actress stomp",
            "document words",
        ] {
            assert_eq!(
                seg.search(q, 10),
                oracle_search(&docs, None, q, 10),
                "query {q}"
            );
        }
    }

    #[test]
    fn update_is_remove_then_add() {
        let mut seg = SegmentedInvertedIndex::default().with_seal_threshold(3);
        for i in 0..9u64 {
            seg.add(tid(i), &format!("original text number {i}"));
        }
        assert!(seg.remove(tid(4), "original text number 4"));
        seg.add(tid(4), "completely replaced zebra content");
        let hits = seg.search("zebra", 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, tid(4));
        // The oracle over the surviving state agrees.
        let mut docs: Vec<(InstanceId, String)> = (0..9u64)
            .filter(|&i| i != 4)
            .map(|i| (tid(i), format!("original text number {i}")))
            .collect();
        docs.push((tid(4), "completely replaced zebra content".into()));
        assert_eq!(
            seg.search("original number", 10),
            oracle_search(&docs, None, "original number", 10)
        );
    }

    #[test]
    fn compaction_triggers_and_preserves_scores() {
        let all = texts();
        let mut seg = SegmentedInvertedIndex::default().with_seal_threshold(5);
        for (i, t) in all.iter().enumerate() {
            seg.add(tid(i as u64), t);
        }
        let before_segments = seg.segments();
        assert!(before_segments > 1, "tiny threshold must create segments");
        // Delete until tombstones dominate — compaction must fire.
        for (i, t) in all.iter().enumerate().take(24) {
            seg.remove(tid(i as u64), t);
        }
        assert!(seg.compactions() >= 1, "compaction should have triggered");
        // Removes after the last auto-compaction may have re-accumulated a
        // few tombstones; an explicit merge sheds them all.
        seg.compact();
        assert_eq!(seg.tombstones(), 0);
        let survivors: Vec<(u64, &str)> = all
            .iter()
            .enumerate()
            .skip(24)
            .map(|(i, t)| (i as u64, t.as_str()))
            .collect();
        let docs = docs_of(&survivors);
        for q in ["jordan basketball", "championship ncaa"] {
            assert_eq!(
                seg.search(q, 10),
                oracle_search(&docs, None, q, 10),
                "query {q}"
            );
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let all = texts();
        let mut seg = SegmentedInvertedIndex::default().with_seal_threshold(7);
        for (i, t) in all.iter().enumerate() {
            seg.add(tid(i as u64), t);
        }
        for (i, t) in all.iter().enumerate().take(5) {
            seg.remove(tid(i as u64), t);
        }
        let bytes = seg.to_bytes();
        let back = SegmentedInvertedIndex::from_bytes(bytes.clone()).unwrap();
        assert_eq!(back.len(), seg.len());
        assert_eq!(back.generation(), seg.generation());
        assert_eq!(back.corpus_stats(), seg.corpus_stats());
        for q in ["jordan basketball", "film actress stomp"] {
            assert_eq!(back.search(q, 10), seg.search(q, 10), "query {q}");
        }
        // Deterministic encoding.
        assert_eq!(
            bytes,
            SegmentedInvertedIndex::from_bytes(bytes.clone())
                .unwrap()
                .to_bytes()
        );
        // A reloaded index keeps mutating correctly.
        let mut back = back;
        back.add(tid(999), "fresh post-reload zebra document");
        assert_eq!(back.search("zebra", 2)[0].id, tid(999));
    }

    #[test]
    fn reload_restores_the_segment_bound() {
        // A full fan-out plus a memtable is within the bound live, but on
        // reload every stored segment is sealed: the loader merges a tail,
        // so the next add cannot push the count past the bound.
        let mut seg = SegmentedInvertedIndex::default().with_seal_threshold(3);
        let docs: Vec<(InstanceId, String)> = (0..8 * 3 + 1)
            .map(|i| (tid(i), format!("alpha word{} beta", i % 5)))
            .collect();
        for (id, text) in &docs {
            seg.add(*id, text);
        }
        assert_eq!(seg.segments(), SegmentedInvertedIndex::MAX_SEGMENTS);
        let mut back = SegmentedInvertedIndex::from_bytes(seg.to_bytes()).unwrap();
        assert!(back.segments() < SegmentedInvertedIndex::MAX_SEGMENTS);
        assert_layout_independent(&back, &docs, None);
        back.add(tid(999), "gamma");
        assert!(back.segments() <= SegmentedInvertedIndex::MAX_SEGMENTS);
    }

    #[test]
    fn monolith_snapshots_migrate_to_single_segment() {
        // A bare segment blob is what a monolithic index once saved at the
        // top level. It is not a segmented snapshot: rejected by kind.
        let analyzer = Analyzer::standard();
        let mut mono = Segment::new(analyzer, Bm25Params::default());
        for (i, text) in ["alpha beta gamma", "delta epsilon zeta"]
            .iter()
            .enumerate()
        {
            with_term_counts(&analyzer, text, |counts| {
                mono.add_analyzed(tid(i as u64), counts)
            });
        }
        assert_eq!(
            SegmentedInvertedIndex::from_bytes(mono.to_bytes()).unwrap_err(),
            PersistError::BadKind {
                expected: SnapshotKind::Segmented as u8,
                got: SnapshotKind::Inverted as u8,
            }
        );
        // The same documents saved by the segmented writer reload as one
        // sealed segment that answers alike and stays mutable.
        let mut seg = SegmentedInvertedIndex::default();
        seg.add(tid(0), "alpha beta gamma");
        seg.add(tid(1), "delta epsilon zeta");
        let mut back = SegmentedInvertedIndex::from_bytes(seg.to_bytes()).unwrap();
        assert_eq!(back.segments(), 1);
        assert_eq!(back.len(), 2);
        assert_eq!(back.search("alpha", 2), seg.search("alpha", 2));
        assert!(back.remove(tid(0), "alpha beta gamma"));
        assert!(back.search("alpha", 2).is_empty());
    }

    #[test]
    fn snapshot_rejects_garbage_and_truncation() {
        assert!(SegmentedInvertedIndex::from_bytes(Bytes::from_static(b"nah")).is_err());
        let mut seg = SegmentedInvertedIndex::default().with_seal_threshold(3);
        for i in 0..7u64 {
            seg.add(tid(i), &format!("words {i} here"));
        }
        let full = seg.to_bytes();
        for cut in (0..full.len()).step_by(3) {
            assert!(
                SegmentedInvertedIndex::from_bytes(full.slice(0..cut)).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Nor does a snapshot with anything after its body.
        let mut long = full.to_vec();
        long.push(0);
        assert!(matches!(
            SegmentedInvertedIndex::from_bytes(Bytes::from(long)),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn shared_stats_make_sharded_segmented_scores_global() {
        // Two segmented "shards" with merged stats installed must together
        // equal the oracle over the whole corpus, mutations included.
        let all = texts();
        let mut a = SegmentedInvertedIndex::default().with_seal_threshold(4);
        let mut b = SegmentedInvertedIndex::default().with_seal_threshold(4);
        for (i, t) in all.iter().enumerate() {
            if i % 2 == 0 {
                a.add(tid(i as u64), t);
            } else {
                b.add(tid(i as u64), t);
            }
        }
        a.remove(tid(6), &all[6]);
        b.remove(tid(9), &all[9]);
        let mut merged = a.corpus_stats();
        merged.merge(&b.corpus_stats());
        let merged = Arc::new(merged);
        a.set_shared_stats(merged.clone());
        b.set_shared_stats(merged);
        let survivors: Vec<(u64, &str)> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 6 && *i != 9)
            .map(|(i, t)| (i as u64, t.as_str()))
            .collect();
        let docs = docs_of(&survivors);
        for q in ["jordan basketball chicago", "election district"] {
            let mut hits = a.search(q, 10);
            hits.extend(b.search(q, 10));
            sort_hits(&mut hits);
            hits.truncate(10);
            assert_eq!(hits, oracle_search(&docs, None, q, 10), "query {q}");
        }
    }

    #[test]
    fn add_only_history_never_exceeds_the_segment_cap() {
        // The fan-out cap is enforced where segments are born: no remove
        // ever runs here, and the count still never passes the bound.
        let threshold = 5;
        let mut seg = SegmentedInvertedIndex::default().with_seal_threshold(threshold);
        let mut docs: Vec<(InstanceId, String)> = Vec::new();
        for i in 0..20 * threshold as u64 {
            let text = format!(
                "filler {} word{}",
                ["jordan", "film"][(i % 2) as usize],
                i % 7
            );
            seg.add(tid(i), &text);
            docs.push((tid(i), text));
            assert!(
                seg.segments() <= SegmentedInvertedIndex::MAX_SEGMENTS,
                "{} segments after {} adds",
                seg.segments(),
                i + 1
            );
        }
        assert!(
            seg.segments() > 1,
            "tail merges must not rewrite everything"
        );
        assert_eq!(
            seg.compactions(),
            0,
            "a tail merge is not a full compaction"
        );
        assert_layout_independent(&seg, &docs, None);
    }

    /// `seg` must answer every probe exactly — ids and score bits — as the
    /// `HashMap` oracle over `survivors`, under `shared` statistics when
    /// given.
    fn assert_layout_independent(
        seg: &SegmentedInvertedIndex,
        survivors: &[(InstanceId, String)],
        shared: Option<&Arc<CorpusStats>>,
    ) {
        let bits = |hits: Vec<SearchHit>| -> Vec<(InstanceId, u64)> {
            hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
        };
        for query in [
            "alpha",
            "beta gamma",
            "gamma gamma delta",
            "unicorn alpha",
            "omega zeta alpha beta film jordan",
        ] {
            // 2 cuts through runs of tied duplicates; 1000 exceeds any
            // live count.
            for k in [1, 2, 5, 1000] {
                let oracle = oracle_search(survivors, shared.map(|s| &**s), query, k);
                assert_eq!(
                    bits(seg.search(query, k)),
                    bits(oracle),
                    "oracle: {query:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn layout_edge_cases_match_monolith_and_oracle() {
        let mut seg = SegmentedInvertedIndex::default().with_seal_threshold(2);
        let mut docs: Vec<(InstanceId, String)> = Vec::new();
        // Six identical documents over three segments, ids descending: they
        // tie exactly, so k = 2 and k = 5 cut the tie inside and across
        // segments, and every later arrival must displace an earlier one.
        for i in (0..6u64).rev() {
            seg.add(tid(i), "alpha beta");
            docs.push((tid(i), "alpha beta".into()));
        }
        assert!(seg.segments() >= 3);
        // A term whose every holder is tombstoned: postings remain, live
        // document frequency is zero.
        seg.add(tid(6), "unicorn gamma");
        seg.add(tid(7), "gamma gamma delta");
        docs.push((tid(7), "gamma gamma delta".into()));
        assert!(seg.remove(tid(6), "unicorn gamma"));
        assert!(seg.search("unicorn", 5).is_empty());
        assert_layout_independent(&seg, &docs, None);
        seg.merge_tail();
        assert_layout_independent(&seg, &docs, None);
    }

    proptest::proptest! {
        /// Results do not depend on the segment layout: after any
        /// interleaving of adds, removes, explicit seals, tail merges and
        /// full compactions, at any seal threshold, with or without shared
        /// statistics, `search` equals the oracle over the survivors — ids
        /// and `f64` bits. Texts come from a small pool, so duplicates that
        /// tie exactly are the common case.
        #[test]
        fn search_is_independent_of_segment_layout(
            threshold in 1usize..16,
            ops in proptest::collection::vec((0u8..10, 0usize..1000), 1..120),
            share in proptest::strategy::any::<bool>(),
        ) {
            const POOL: [&str; 8] = [
                "alpha beta", "alpha beta", "gamma gamma delta", "unicorn alpha",
                "omega zeta film", "jordan film alpha beta gamma", "delta", "zeta omega omega",
            ];
            let mut seg = SegmentedInvertedIndex::default().with_seal_threshold(threshold);
            let mut live: Vec<(InstanceId, String)> = Vec::new();
            for (step, (op, pick)) in ops.into_iter().enumerate() {
                match op {
                    0..=5 => {
                        // Distinct ids in no relation to insertion order.
                        let id = tid(step as u64 * 7919 % 1009);
                        let text = POOL[pick % POOL.len()];
                        seg.add(id, text);
                        live.push((id, text.to_string()));
                    }
                    6 | 7 if !live.is_empty() => {
                        let (id, text) = live.remove(pick % live.len());
                        proptest::prop_assert!(seg.remove(id, &text));
                    }
                    8 => seg.seal(),
                    9 if pick % 2 == 0 => seg.compact(),
                    _ => seg.merge_tail(),
                }
                proptest::prop_assert!(seg.segments() <= SegmentedInvertedIndex::MAX_SEGMENTS);
                proptest::prop_assert_eq!(seg.len(), live.len());
            }
            // Shared statistics: this index is one shard of a larger corpus.
            let shared = share.then(|| {
                let mut stats = seg.corpus_stats();
                let mut other = SegmentedInvertedIndex::default();
                for (i, text) in POOL.iter().enumerate() {
                    other.add(tid(10_000 + i as u64), text);
                }
                stats.merge(&other.corpus_stats());
                Arc::new(stats)
            });
            if let Some(stats) = &shared {
                seg.set_shared_stats(stats.clone());
            }
            assert_layout_independent(&seg, &live, shared.as_ref());
        }
    }

    #[test]
    fn remove_missing_id_is_noop() {
        let mut seg = SegmentedInvertedIndex::default();
        seg.add(tid(0), "something here");
        let g = seg.generation();
        assert!(!seg.remove(tid(99), "whatever"));
        assert_eq!(seg.generation(), g);
        assert_eq!(seg.len(), 1);
    }
}
