//! Semantic (vector) indexes: exact flat scan and HNSW approximate search.
//!
//! These are the Faiss / pgvector substitutes. Both index embedding vectors
//! under [`InstanceId`]s and return cosine-similarity-ranked hits.
//! [`FlatIndex`] is exact (and the recall reference); [`HnswIndex`] is the
//! approximate graph index real deployments use at the paper's corpus scale.
//!
//! ## The unit-norm invariant
//!
//! Both indexes **normalize every vector on `add`** (and on snapshot load,
//! when the snapshot does not already carry the
//! [`persist::FLAG_UNIT_NORM`] guarantee). With every stored vector unit,
//! cosine similarity degenerates to a single fused dot product
//! ([`Vector::dot_unit`]) — one pass over the data instead of the three a
//! raw `cosine` costs — for the flat scan and for every distance evaluated
//! during HNSW construction and search. Queries are normalized once at the
//! search (or insert) entry point. Scores are unchanged up to float
//! normalization error (≤ ~1e-6 for the already-unit embedder outputs).

//!
//! ## The quantized two-phase scan
//!
//! [`FlatIndex`] keeps an int8 **code sidecar** next to the f32 slabs:
//! every vector is symmetric-scalar-quantized on `add`
//! ([`verifai_embed::quant`]), codes live in one contiguous array (stride
//! `dim`, parallel to the rows, tombstones included, rebuilt on
//! compaction). In quantized mode `search` runs two phases: an int8 scan
//! over the codes selects an over-fetched shortlist of
//! `rescore_factor · k` candidates at a quarter of the memory traffic,
//! then the exact f32 kernel rescores the shortlist and truncates to
//! `k`. `rescore_factor = usize::MAX` rescores everything and is
//! byte-identical to the exact scan. [`VectorIndex::search_batch`] walks
//! the code array once per block for a whole batch of queries, so B
//! concurrent searches amortize one memory sweep.

use crate::hit::{sort_hits, SearchHit};
use crate::persist::{self, PersistError, SnapshotKind, FLAG_QUANT_CODES, FLAG_UNIT_NORM};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};
use verifai_embed::quant;
use verifai_embed::Vector;
use verifai_lake::InstanceId;
use verifai_obs::meter;

/// A unit-length copy of `query` (zero stays zero): the one normalization
/// a search pays, after which every candidate comparison is a single dot.
fn unit_query(query: &Vector) -> Vector {
    let mut q = query.clone();
    q.normalize();
    q
}

/// Common interface of the semantic indexes.
pub trait VectorIndex {
    /// Insert a vector under an id.
    fn add(&mut self, id: InstanceId, vector: Vector);
    /// Tombstone every entry stored under `id`; true when anything was
    /// removed. Tombstoned entries never appear in search results.
    fn remove(&mut self, id: InstanceId) -> bool;
    /// Top-k most similar entries (cosine).
    fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit>;
    /// Top-k for each of `queries`, in order. The default runs the
    /// single-query search per query; [`FlatIndex`] overrides it with a
    /// blocked multi-query scan that walks the candidate array once per
    /// block for the whole batch (results are identical either way).
    fn search_batch(&self, queries: &[Vector], k: usize) -> Vec<Vec<SearchHit>> {
        queries.iter().map(|q| self.search(q, k)).collect()
    }
    /// Number of **live** (non-tombstoned) vectors.
    fn len(&self) -> usize;
    /// True when no live vectors remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Flat (exact) index
// ---------------------------------------------------------------------------

/// Exact nearest-neighbour index: brute-force cosine scan with a top-k heap.
///
/// Deletion is mark-and-skip: [`VectorIndex::remove`] tombstones the entry
/// and the scan skips it; once tombstones outnumber live entries the index
/// compacts itself (drops the dead rows, preserving live insertion order),
/// so a long mutation history cannot degrade scan cost past 2× live size.
///
/// Every vector is additionally int8-quantized on `add` into a contiguous
/// code sidecar (`codes`, stride `dim`, rows parallel to `ids` including
/// tombstones; `scales` holds the per-vector symmetric scale). With
/// `quantized` set ([`FlatIndex::new_quantized`] or
/// [`FlatIndex::set_quantized`]) searches run the two-phase scan: int8
/// shortlist of `rescore_factor · k`, exact f32 rescore, truncate to `k`.
#[derive(Debug)]
pub struct FlatIndex {
    ids: Vec<InstanceId>,
    vectors: Vec<Vector>,
    deleted: Vec<bool>,
    dead: usize,
    generation: u64,
    compactions: u64,
    /// Contiguous int8 codes, `dim` bytes per row, tombstoned rows included.
    codes: Vec<i8>,
    /// Per-row symmetric quantization scale.
    scales: Vec<f32>,
    /// Row stride of `codes`; fixed by the first `add` (0 while empty).
    dim: usize,
    /// Serve searches through the quantized two-phase scan.
    quantized: bool,
    /// Shortlist over-fetch: phase 1 keeps `rescore_factor · k` candidates.
    rescore_factor: usize,
}

/// Phase-1 shortlist over-fetch when none is configured explicitly.
pub const DEFAULT_RESCORE_FACTOR: usize = 4;

impl Default for FlatIndex {
    fn default() -> FlatIndex {
        FlatIndex {
            ids: Vec::new(),
            vectors: Vec::new(),
            deleted: Vec::new(),
            dead: 0,
            generation: 0,
            compactions: 0,
            codes: Vec::new(),
            scales: Vec::new(),
            dim: 0,
            quantized: false,
            rescore_factor: DEFAULT_RESCORE_FACTOR,
        }
    }
}

impl FlatIndex {
    /// Empty index serving exact scans.
    pub fn new() -> FlatIndex {
        FlatIndex::default()
    }

    /// Empty index serving quantized two-phase scans with the given
    /// shortlist over-fetch (`usize::MAX` rescores every candidate, which
    /// is byte-identical to the exact scan).
    pub fn new_quantized(rescore_factor: usize) -> FlatIndex {
        FlatIndex {
            quantized: true,
            rescore_factor: rescore_factor.max(1),
            ..FlatIndex::default()
        }
    }

    /// Switch between the exact scan and the quantized two-phase scan.
    /// The code sidecar is maintained either way, so this is a pure mode
    /// flip — no re-encode.
    pub fn set_quantized(&mut self, quantized: bool, rescore_factor: usize) {
        self.quantized = quantized;
        self.rescore_factor = rescore_factor.max(1);
    }

    /// True when searches run the quantized two-phase scan.
    pub fn is_quantized(&self) -> bool {
        self.quantized
    }

    /// The configured phase-1 shortlist over-fetch.
    pub fn rescore_factor(&self) -> usize {
        self.rescore_factor
    }

    /// Mutation generation: bumped on every add/remove, persisted in v3
    /// snapshots so a reloaded index resumes where the saved one stopped.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Tombstoned entries not yet compacted away.
    pub fn tombstones(&self) -> usize {
        self.dead
    }

    /// Times the live-count-triggered compaction has run.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Drop tombstoned entries now, preserving live insertion order. The
    /// code sidecar is rebuilt alongside (codes are copied, not
    /// re-derived — quantization is deterministic so both agree).
    pub fn compact(&mut self) {
        if self.dead == 0 {
            return;
        }
        let live = self.ids.len() - self.dead;
        let mut ids = Vec::with_capacity(live);
        let mut vectors = Vec::with_capacity(live);
        let mut codes = Vec::with_capacity(live * self.dim);
        let mut scales = Vec::with_capacity(live);
        for (ord, v) in self.vectors.drain(..).enumerate() {
            if !self.deleted[ord] {
                ids.push(self.ids[ord]);
                scales.push(self.scales[ord]);
                codes.extend_from_slice(&self.codes[ord * self.dim..(ord + 1) * self.dim]);
                vectors.push(v);
            }
        }
        self.ids = ids;
        self.vectors = vectors;
        self.codes = codes;
        self.scales = scales;
        self.deleted = vec![false; self.ids.len()];
        self.dead = 0;
        self.compactions += 1;
    }

    /// The int8 code row of entry `ord`.
    fn code_row(&self, ord: usize) -> &[i8] {
        &self.codes[ord * self.dim..(ord + 1) * self.dim]
    }
}

struct MinEntry {
    score: f64,
    ord: usize,
    id: InstanceId,
}
impl PartialEq for MinEntry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.ord == other.ord
    }
}
impl Eq for MinEntry {}
impl PartialOrd for MinEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MinEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Evict smallest score first; among score ties, the largest
        // external id — the same total order `sort_hits` uses, so the k
        // survivors at a tied boundary match a whole-corpus scan's and
        // sharded top-k merge stays exact. The insertion ordinal breaks
        // the remaining (score, id) duplicates deterministically.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.id.cmp(&other.id))
            .then_with(|| self.ord.cmp(&other.ord))
    }
}

/// Offer `entry` to a worst-evicting top-`cap` heap. Outcome is identical
/// to `push` followed by a size-capped `pop`, but a full heap rejects a
/// would-be-evicted entry with one `peek` instead of sift-up + sift-down —
/// the common case on a scan, where most rows score below the current
/// boundary.
#[inline]
pub(crate) fn offer<T: Ord>(heap: &mut BinaryHeap<T>, cap: usize, entry: T) {
    if heap.len() >= cap {
        // `>=` under the entry's reversed order: `entry` sorts at-or-before
        // the current worst, so pushing it would evict it right back.
        if heap.peek().is_some_and(|worst| entry >= *worst) {
            return;
        }
        heap.push(entry);
        heap.pop();
    } else {
        heap.push(entry);
    }
}

impl FlatIndex {
    /// Serialize the index into a version-4 binary snapshot: generation,
    /// scan mode (quantized flag + rescore factor), ids, tombstone bytes,
    /// every vector's components as one contiguous `f32` slab, then the
    /// quantization sidecar (per-row scales + the int8 code array) behind
    /// [`persist::FLAG_QUANT_CODES`] so a reload serves quantized scans
    /// without re-encoding.
    pub fn to_bytes(&self) -> Bytes {
        let dim = self.vectors.first().map(|v| v.dim()).unwrap_or(0);
        debug_assert!(
            self.vectors.iter().all(|v| v.dim() == dim),
            "flat index holds mixed dimensions"
        );
        let n = self.ids.len();
        let mut buf = BytesMut::with_capacity(48 + n * (14 + dim * 5));
        persist::put_header(
            &mut buf,
            SnapshotKind::Flat,
            FLAG_UNIT_NORM | FLAG_QUANT_CODES,
        );
        buf.put_u64_le(self.generation);
        buf.put_u8(self.quantized as u8);
        buf.put_u64_le(self.rescore_factor as u64);
        buf.put_u32_le(n as u32);
        buf.put_u32_le(dim as u32);
        for id in &self.ids {
            persist::put_instance_id(&mut buf, *id);
        }
        for &d in &self.deleted {
            buf.put_u8(d as u8);
        }
        for v in &self.vectors {
            for &x in v.as_slice() {
                buf.put_f32_le(x);
            }
        }
        for &s in &self.scales {
            buf.put_f32_le(s);
        }
        for &c in &self.codes {
            buf.put_u8(c as u8);
        }
        buf.freeze()
    }

    /// Serialize in the legacy version-3 wire format (no quantization
    /// sidecar or scan-mode fields). Kept as the fixture encoder for the
    /// migration tests: loading one must re-quantize to a bit-identical
    /// sidecar.
    pub fn to_bytes_v3(&self) -> Bytes {
        let dim = self.vectors.first().map(|v| v.dim()).unwrap_or(0);
        let n = self.ids.len();
        let mut buf = BytesMut::with_capacity(32 + n * (10 + dim * 4));
        persist::put_header_versioned(&mut buf, SnapshotKind::Flat, FLAG_UNIT_NORM, 3);
        buf.put_u64_le(self.generation);
        buf.put_u32_le(n as u32);
        buf.put_u32_le(dim as u32);
        for id in &self.ids {
            persist::put_instance_id(&mut buf, *id);
        }
        for &d in &self.deleted {
            buf.put_u8(d as u8);
        }
        for v in &self.vectors {
            for &x in v.as_slice() {
                buf.put_f32_le(x);
            }
        }
        buf.freeze()
    }

    /// Serialize in the legacy version-2 wire format (per-entry
    /// length-prefixed vectors, no generation or tombstones). Kept as the
    /// fixture encoder for migration tests and the cold-vs-warm load
    /// benchmark; the index must hold no tombstones (v2 cannot express them).
    pub fn to_bytes_v2(&self) -> Bytes {
        assert_eq!(self.dead, 0, "compact before encoding a v2 snapshot");
        let dim = self.vectors.first().map(|v| v.dim()).unwrap_or(0);
        let mut buf = BytesMut::with_capacity(16 + self.ids.len() * (13 + dim * 4));
        persist::put_header_versioned(&mut buf, SnapshotKind::Flat, FLAG_UNIT_NORM, 2);
        buf.put_u32_le(self.ids.len() as u32);
        for (id, v) in self.ids.iter().zip(self.vectors.iter()) {
            persist::put_instance_id(&mut buf, *id);
            put_vector(&mut buf, v);
        }
        buf.freeze()
    }

    /// Reconstruct an index from a snapshot produced by [`Self::to_bytes`]
    /// (or a legacy encoder).
    ///
    /// Version-3+ snapshots load zero-copy: the vector payload decodes in
    /// one bulk pass into a shared slab and every [`Vector`] borrows a view
    /// of it. Version-4 snapshots additionally reload their quantization
    /// sidecar and scan mode verbatim; older versions migrate on load —
    /// v1/v2 eagerly decode per entry (generation 0, no tombstones), any
    /// snapshot without [`persist::FLAG_QUANT_CODES`] re-quantizes its
    /// vectors (bit-identical to an eager writer's codes, quantization
    /// being pure), and any without [`persist::FLAG_UNIT_NORM`] predates
    /// the unit-norm invariant and is normalized, never silently
    /// mis-scored.
    pub fn from_bytes(mut buf: Bytes) -> Result<FlatIndex, PersistError> {
        let (version, flags) = persist::check_header(&mut buf, SnapshotKind::Flat)?;
        if version < 3 {
            let n = persist::get_u32(&mut buf)? as usize;
            let mut ids = Vec::with_capacity(n);
            let mut vectors = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(persist::get_instance_id(&mut buf)?);
                let mut v = get_vector(&mut buf)?;
                if flags & FLAG_UNIT_NORM == 0 {
                    v.normalize();
                }
                vectors.push(v);
            }
            let deleted = vec![false; ids.len()];
            let mut idx = FlatIndex {
                ids,
                vectors,
                deleted,
                ..FlatIndex::default()
            };
            idx.requantize();
            return Ok(idx);
        }
        let generation = persist::get_u64(&mut buf)?;
        let (quantized, rescore_factor) = if version >= 4 {
            let q = persist::get_u8(&mut buf)? != 0;
            let rf = (persist::get_u64(&mut buf)? as usize).max(1);
            (q, rf)
        } else {
            (false, DEFAULT_RESCORE_FACTOR)
        };
        let n = persist::get_u32(&mut buf)? as usize;
        let dim = persist::get_u32(&mut buf)? as usize;
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(persist::get_instance_id(&mut buf)?);
        }
        let (deleted, dead) = get_tombstones(&mut buf, n)?;
        let slab = get_slab(&mut buf, n * dim)?;
        let mut vectors = Vec::with_capacity(n);
        for i in 0..n {
            let mut v = Vector::from_slab(slab.clone(), i * dim, dim);
            if flags & FLAG_UNIT_NORM == 0 {
                v.normalize();
            }
            vectors.push(v);
        }
        let mut idx = FlatIndex {
            ids,
            vectors,
            deleted,
            dead,
            generation,
            compactions: 0,
            codes: Vec::new(),
            scales: Vec::new(),
            dim,
            quantized,
            rescore_factor,
        };
        if flags & FLAG_QUANT_CODES != 0 {
            idx.scales = get_f32s(&mut buf, n)?;
            idx.codes = get_i8s(&mut buf, n * dim)?;
        } else {
            idx.requantize();
        }
        Ok(idx)
    }

    /// Rebuild the code sidecar from the (already unit) stored vectors —
    /// the migration path for snapshots that predate the codes.
    fn requantize(&mut self) {
        self.dim = self.vectors.first().map(|v| v.dim()).unwrap_or(self.dim);
        self.scales.clear();
        self.codes.clear();
        self.codes.reserve(self.vectors.len() * self.dim);
        for v in &self.vectors {
            let (codes, scale) = quant::quantize(v.as_slice());
            self.codes.extend_from_slice(&codes);
            self.scales.push(scale);
        }
    }
}

/// Encode a vector as `u32 dim + f32 components`.
fn put_vector(buf: &mut BytesMut, v: &Vector) {
    buf.put_u32_le(v.dim() as u32);
    for &x in v.as_slice() {
        buf.put_f32_le(x);
    }
}

/// Decode a vector.
fn get_vector(buf: &mut Bytes) -> Result<Vector, PersistError> {
    let dim = persist::get_u32(buf)? as usize;
    let mut v = Vec::with_capacity(dim);
    for _ in 0..dim {
        v.push(persist::get_f32(buf)?);
    }
    Ok(Vector::from_vec(v))
}

/// Bulk-decode `count` little-endian f32s into one shared slab — the v3
/// zero-copy load path: one allocation for the whole vector payload, each
/// [`Vector`] then borrows a `(start, len)` view of it.
fn get_slab(buf: &mut Bytes, count: usize) -> Result<Arc<Vec<f32>>, PersistError> {
    if buf.remaining() < count * 4 {
        return Err(PersistError::Truncated);
    }
    let raw = buf.copy_to_bytes(count * 4);
    let mut slab = Vec::with_capacity(count);
    slab.extend(
        raw.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
    Ok(Arc::new(slab))
}

/// Bulk-decode `count` little-endian f32s into an owned vec (the
/// quantization scales — small next to the slab, so no sharing needed).
fn get_f32s(buf: &mut Bytes, count: usize) -> Result<Vec<f32>, PersistError> {
    if buf.remaining() < count * 4 {
        return Err(PersistError::Truncated);
    }
    let raw = buf.copy_to_bytes(count * 4);
    Ok(raw
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Bulk-decode `count` raw bytes as i8 codes.
fn get_i8s(buf: &mut Bytes, count: usize) -> Result<Vec<i8>, PersistError> {
    if buf.remaining() < count {
        return Err(PersistError::Truncated);
    }
    let raw = buf.copy_to_bytes(count);
    Ok(raw.iter().map(|&b| b as i8).collect())
}

/// Decode `n` tombstone bytes, returning the flags and the dead count.
fn get_tombstones(buf: &mut Bytes, n: usize) -> Result<(Vec<bool>, usize), PersistError> {
    if buf.remaining() < n {
        return Err(PersistError::Truncated);
    }
    let raw = buf.copy_to_bytes(n);
    let deleted: Vec<bool> = raw.iter().map(|&b| b != 0).collect();
    let dead = deleted.iter().filter(|&&d| d).count();
    Ok((deleted, dead))
}

impl FlatIndex {
    /// Run phase 1 of the two-phase scan for one encoded query over the
    /// rows `[lo, hi)`: int8 scores into the shortlist heap, capped at
    /// `shortlist` entries.
    fn quantized_scan_range(
        &self,
        qcodes: &[i8],
        qscale: f32,
        lo: usize,
        hi: usize,
        shortlist: usize,
        heap: &mut BinaryHeap<MinEntry>,
    ) {
        let mut scored = 0u64;
        for ord in lo..hi {
            if self.deleted[ord] {
                continue;
            }
            scored += 1;
            let score = quant::dot_i8(self.code_row(ord), qcodes) as f64
                * (self.scales[ord] * qscale) as f64;
            offer(
                heap,
                shortlist,
                MinEntry {
                    score,
                    ord,
                    id: self.ids[ord],
                },
            );
        }
        // One tally update per range, never per row: int8 codes are one
        // byte per dimension.
        meter::charge_quantized(scored, scored * self.dim as u64);
    }

    /// Phase 2: exact f32 rescore of a phase-1 shortlist, reorder, truncate.
    fn rescore(&self, heap: BinaryHeap<MinEntry>, q: &Vector, k: usize) -> Vec<SearchHit> {
        meter::charge_rescore(heap.len() as u64, (heap.len() * self.dim * 4) as u64);
        let mut hits: Vec<SearchHit> = heap
            .into_iter()
            .map(|e| SearchHit::new(self.ids[e.ord], self.vectors[e.ord].dot_unit(q) as f64))
            .collect();
        sort_hits(&mut hits);
        hits.truncate(k);
        hits
    }

    /// The phase-1 shortlist width for a top-`k` request.
    fn shortlist_len(&self, k: usize) -> usize {
        self.rescore_factor.saturating_mul(k)
    }
}

impl VectorIndex for FlatIndex {
    fn add(&mut self, id: InstanceId, mut vector: Vector) {
        vector.normalize();
        if self.ids.is_empty() {
            self.dim = vector.dim();
        }
        debug_assert_eq!(vector.dim(), self.dim, "flat index holds one dimension");
        let (codes, scale) = quant::quantize(vector.as_slice());
        self.codes.extend_from_slice(&codes);
        self.scales.push(scale);
        self.ids.push(id);
        self.vectors.push(vector);
        self.deleted.push(false);
        self.generation += 1;
    }

    fn remove(&mut self, id: InstanceId) -> bool {
        let mut any = false;
        for (ord, eid) in self.ids.iter().enumerate() {
            if *eid == id && !self.deleted[ord] {
                self.deleted[ord] = true;
                self.dead += 1;
                any = true;
            }
        }
        if any {
            self.generation += 1;
            if self.dead * 2 > self.ids.len() {
                self.compact();
            }
        }
        any
    }

    fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit> {
        if k == 0 {
            return Vec::new();
        }
        let q = unit_query(query);
        if self.quantized {
            // Phase 1: int8 scan over the code sidecar — a quarter of the
            // memory traffic — keeping a shortlist of rescore_factor · k.
            let (qcodes, qscale) = quant::quantize(q.as_slice());
            let shortlist = self.shortlist_len(k);
            let mut heap: BinaryHeap<MinEntry> =
                BinaryHeap::with_capacity(shortlist.min(self.ids.len()) + 1);
            self.quantized_scan_range(&qcodes, qscale, 0, self.ids.len(), shortlist, &mut heap);
            // Phase 2: exact rescore of the shortlist on the f32 slabs.
            return self.rescore(heap, &q, k);
        }
        let mut heap: BinaryHeap<MinEntry> = BinaryHeap::with_capacity(k + 1);
        let mut scored = 0u64;
        for (ord, v) in self.vectors.iter().enumerate() {
            if self.deleted[ord] {
                continue;
            }
            scored += 1;
            let score = v.dot_unit(&q) as f64;
            heap.push(MinEntry {
                score,
                ord,
                id: self.ids[ord],
            });
            if heap.len() > k {
                heap.pop();
            }
        }
        meter::charge_scan(scored, scored * (self.dim * 4) as u64);
        let mut hits: Vec<SearchHit> = heap
            .into_iter()
            .map(|e| SearchHit::new(self.ids[e.ord], e.score))
            .collect();
        sort_hits(&mut hits);
        hits
    }

    /// Blocked multi-query scan: the candidate array is walked once per
    /// **block** for the whole batch, so B queries share every block's trip
    /// through the cache hierarchy instead of sweeping the corpus B times.
    /// Per-query results are identical to [`VectorIndex::search`] — each
    /// query's heap sees the same candidates in the same order.
    /// Blocked multi-query scan: **one sweep** of the stored rows serves the
    /// whole batch — each row (code row in quantized mode, f32 row in
    /// exact mode) is loaded once and scored against every query while hot,
    /// instead of B independent sweeps each re-reading the full array. The
    /// per-query heaps see rows in the same global order the single-query
    /// scan visits them, so results are identical to per-query
    /// [`VectorIndex::search`] calls.
    fn search_batch(&self, queries: &[Vector], k: usize) -> Vec<Vec<SearchHit>> {
        if k == 0 || queries.is_empty() {
            return vec![Vec::new(); queries.len()];
        }
        if queries.len() == 1 {
            return vec![self.search(&queries[0], k)];
        }
        let qs: Vec<Vector> = queries.iter().map(unit_query).collect();
        let n = self.ids.len();
        if self.quantized {
            let enc: Vec<(Vec<i8>, f32)> =
                qs.iter().map(|q| quant::quantize(q.as_slice())).collect();
            let shortlist = self.shortlist_len(k);
            let mut heaps: Vec<BinaryHeap<MinEntry>> = qs
                .iter()
                .map(|_| BinaryHeap::with_capacity(shortlist.min(n).saturating_add(1)))
                .collect();
            let mut scored = 0u64;
            for ord in 0..n {
                if self.deleted[ord] {
                    continue;
                }
                scored += 1;
                let row = self.code_row(ord);
                let scale = self.scales[ord];
                let id = self.ids[ord];
                for ((qcodes, qscale), heap) in enc.iter().zip(heaps.iter_mut()) {
                    let score = quant::dot_i8(row, qcodes) as f64 * (scale * qscale) as f64;
                    offer(heap, shortlist, MinEntry { score, ord, id });
                }
            }
            // Charged as if each query swept alone, so blocked and
            // per-query execution meter identically.
            let ops = scored * qs.len() as u64;
            meter::charge_quantized(ops, ops * self.dim as u64);
            return heaps
                .into_iter()
                .zip(qs.iter())
                .map(|(heap, q)| self.rescore(heap, q, k))
                .collect();
        }
        let mut heaps: Vec<BinaryHeap<MinEntry>> = qs
            .iter()
            .map(|_| BinaryHeap::with_capacity(k + 1))
            .collect();
        let mut scored = 0u64;
        for ord in 0..n {
            if self.deleted[ord] {
                continue;
            }
            scored += 1;
            let v = &self.vectors[ord];
            let id = self.ids[ord];
            for (q, heap) in qs.iter().zip(heaps.iter_mut()) {
                let score = v.dot_unit(q) as f64;
                offer(heap, k, MinEntry { score, ord, id });
            }
        }
        let ops = scored * qs.len() as u64;
        meter::charge_scan(ops, ops * (self.dim * 4) as u64);
        heaps
            .into_iter()
            .map(|heap| {
                let mut hits: Vec<SearchHit> = heap
                    .into_iter()
                    .map(|e| SearchHit::new(self.ids[e.ord], e.score))
                    .collect();
                sort_hits(&mut hits);
                hits
            })
            .collect()
    }

    fn len(&self) -> usize {
        self.ids.len() - self.dead
    }
}

// ---------------------------------------------------------------------------
// HNSW (approximate) index
// ---------------------------------------------------------------------------

/// HNSW construction/search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HnswConfig {
    /// Max neighbours per node on layers > 0 (layer 0 uses `2 * m`).
    pub m: usize,
    /// Candidate-list width during construction.
    pub ef_construction: usize,
    /// Candidate-list width during search.
    pub ef_search: usize,
    /// Seed for the (deterministic) level generator.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            seed: 0x9e37,
        }
    }
}

/// One directed HNSW edge with the endpoint distance cached at creation
/// time. Stored vectors are immutable (and unit), so the cache is exact:
/// `connect`'s back-link prune sorts on it instead of cloning the node's
/// vector and re-scoring every neighbour. Snapshots store only the ordinal;
/// distances are re-derived on load.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Neighbor {
    ord: u32,
    dist: f64,
}

#[derive(Debug)]
struct HnswNode {
    id: InstanceId,
    vector: Vector,
    /// Adjacency per layer; `neighbors[l]` exists for l <= node level.
    neighbors: Vec<Vec<Neighbor>>,
}

/// Hierarchical Navigable Small World graph over cosine similarity.
///
/// Insertion has always been incremental (the graph grows one node at a
/// time); deletion is tombstoning — removed nodes keep their edges and keep
/// routing searches, they just cannot be returned. Search over-fetches by
/// the tombstone count so `k` live results still come back, and an explicit
/// [`HnswIndex::compact`] rebuilds the graph from the live nodes when the
/// caller decides the dead weight is worth shedding.
#[derive(Debug)]
pub struct HnswIndex {
    config: HnswConfig,
    nodes: Vec<HnswNode>,
    entry: Option<u32>,
    max_level: usize,
    deleted: Vec<bool>,
    dead: usize,
    generation: u64,
    compactions: u64,
    /// Pooled visited buffer for `search_layer`: epoch-stamped so reuse is
    /// an epoch bump, not a clear. Behind a mutex only so `&self` searches
    /// can borrow it; a concurrent search that finds it taken falls back to
    /// a fresh buffer rather than waiting.
    visited: Mutex<VisitedSet>,
}

/// Epoch-stamped visited set: `stamps[ord] == epoch` means "seen this
/// search". `begin` bumps the epoch, which invalidates every stamp at once
/// — no per-search allocation, no O(n) clear (except on the ~4-billionth
/// search, when the epoch wraps and stamps reset).
#[derive(Debug, Default)]
pub(crate) struct VisitedSet {
    stamps: Vec<u32>,
    epoch: u32,
}

impl VisitedSet {
    /// Start a new search over `n` nodes.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Mark `ord` visited; true when it was not already.
    pub(crate) fn insert(&mut self, ord: u32) -> bool {
        let s = &mut self.stamps[ord as usize];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            true
        }
    }
}

/// Hint the prefetcher at a node's vector ahead of the dot that will read
/// it — the descent loops touch neighbours whose slabs the hardware
/// stride prefetcher cannot predict. No-op off x86_64.
#[inline(always)]
fn prefetch_slice(v: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::x86_64::_mm_prefetch(v.as_ptr() as *const i8, std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = v;
}

impl HnswIndex {
    /// Empty index with the given parameters.
    pub fn new(config: HnswConfig) -> HnswIndex {
        HnswIndex {
            config,
            nodes: Vec::new(),
            entry: None,
            max_level: 0,
            deleted: Vec::new(),
            dead: 0,
            generation: 0,
            compactions: 0,
            visited: Mutex::new(VisitedSet::default()),
        }
    }

    /// Empty index with default parameters.
    pub fn with_defaults() -> HnswIndex {
        HnswIndex::new(HnswConfig::default())
    }

    /// Candidate-list width used at search time.
    pub fn ef_search(&self) -> usize {
        self.config.ef_search
    }

    /// Retune the search-time candidate-list width. Construction parameters
    /// are fixed at build, but `ef_search` only shapes queries — the
    /// recall/latency frontier benchmark sweeps it on a standing graph.
    pub fn set_ef_search(&mut self, ef_search: usize) {
        self.config.ef_search = ef_search.max(1);
    }

    /// Mutation generation: bumped on every add/remove, persisted in v3
    /// snapshots.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Tombstoned nodes still in the graph.
    pub fn tombstones(&self) -> usize {
        self.dead
    }

    /// Times [`HnswIndex::compact`] has rebuilt the graph.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Rebuild the graph from the live nodes (insertion order preserved),
    /// shedding tombstones. Unlike the flat index this is not triggered
    /// automatically: a rebuild re-runs construction, so the caller (the
    /// segmented merge scheduler, an operator) decides when it pays.
    pub fn compact(&mut self) {
        if self.dead == 0 {
            return;
        }
        let mut fresh = HnswIndex::new(self.config);
        for (ord, node) in self.nodes.drain(..).enumerate() {
            if !self.deleted[ord] {
                fresh.add(node.id, node.vector);
            }
        }
        fresh.generation = self.generation;
        fresh.compactions = self.compactions + 1;
        *self = fresh;
    }

    /// Cosine *distance* (1 - similarity): lower is closer. A single fused
    /// dot — both operands are unit by the index invariant (`q` must be
    /// pre-normalized by the caller, which `add`/`search` guarantee).
    fn dist(&self, a: u32, q: &Vector) -> f64 {
        1.0 - self.nodes[a as usize].vector.dot_unit(q) as f64
    }

    /// Deterministic geometric level for the `ord`-th insertion.
    fn draw_level(&self, ord: usize) -> usize {
        // P(level >= l) = (1/m)^l, derived from a hash of (seed, ord).
        let mut h = verifai_embed::hashing::splitmix64(self.config.seed ^ (ord as u64) << 1);
        let mut level = 0usize;
        let threshold = u64::MAX / self.config.m.max(2) as u64;
        while h < threshold && level < 16 {
            level += 1;
            h = verifai_embed::hashing::splitmix64(h);
        }
        level
    }

    /// Greedy descent from the entry point to the closest node at `layer`.
    /// Each neighbour's vector is prefetched one step ahead of the dot that
    /// scores it, hiding the slab miss behind the current evaluation.
    fn greedy_at_layer(&self, start: u32, q: &Vector, layer: usize) -> u32 {
        let mut cur = start;
        let mut cur_d = self.dist(cur, q);
        let mut evals = 1u64;
        loop {
            let mut improved = false;
            let edges = &self.nodes[cur as usize].neighbors[layer];
            evals += edges.len() as u64;
            for (i, e) in edges.iter().enumerate() {
                if let Some(next) = edges.get(i + 1) {
                    prefetch_slice(self.nodes[next.ord as usize].vector.as_slice());
                }
                let d = self.dist(e.ord, q);
                if d < cur_d {
                    cur = e.ord;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                meter::charge_scan(evals, evals * (q.dim() * 4) as u64);
                return cur;
            }
        }
    }

    /// Best-first search at one layer, returning up to `ef` closest candidates
    /// as (distance, ordinal) sorted ascending by distance.
    ///
    /// The visited set comes from the pooled epoch-stamped buffer (taken
    /// for the duration of the call; concurrent searches that find the
    /// pool taken use a fresh buffer), so steady-state searches allocate
    /// nothing for visit tracking.
    fn search_layer(&self, entry: u32, q: &Vector, layer: usize, ef: usize) -> Vec<(f64, u32)> {
        let mut visited: VisitedSet = self
            .visited
            .try_lock()
            .map(|mut pool| std::mem::take(&mut *pool))
            .unwrap_or_default();
        visited.begin(self.nodes.len());
        visited.insert(entry);
        let mut evals = 1u64;
        let d0 = self.dist(entry, q);
        // Candidates: min-dist first (use Reverse ordering via negated compare).
        let mut candidates: BinaryHeap<CandEntry> = BinaryHeap::new();
        candidates.push(CandEntry {
            dist: d0,
            ord: entry,
            min_first: true,
        });
        // Results: max-dist first so the worst can be evicted.
        let mut results: BinaryHeap<CandEntry> = BinaryHeap::new();
        results.push(CandEntry {
            dist: d0,
            ord: entry,
            min_first: false,
        });

        while let Some(c) = candidates.pop() {
            let worst = results.peek().map(|r| r.dist).unwrap_or(f64::INFINITY);
            if c.dist > worst && results.len() >= ef {
                break;
            }
            let edges = &self.nodes[c.ord as usize].neighbors[layer];
            for (i, e) in edges.iter().enumerate() {
                if let Some(next) = edges.get(i + 1) {
                    prefetch_slice(self.nodes[next.ord as usize].vector.as_slice());
                }
                if !visited.insert(e.ord) {
                    continue;
                }
                evals += 1;
                let d = self.dist(e.ord, q);
                let worst = results.peek().map(|r| r.dist).unwrap_or(f64::INFINITY);
                if results.len() < ef || d < worst {
                    candidates.push(CandEntry {
                        dist: d,
                        ord: e.ord,
                        min_first: true,
                    });
                    results.push(CandEntry {
                        dist: d,
                        ord: e.ord,
                        min_first: false,
                    });
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        meter::charge_scan(evals, evals * (q.dim() * 4) as u64);
        // Return the buffer to the pool for the next search.
        if let Ok(mut pool) = self.visited.try_lock() {
            *pool = visited;
        }
        let mut out: Vec<(f64, u32)> = results.into_iter().map(|e| (e.dist, e.ord)).collect();
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        out
    }

    /// Connect `node` to the closest `max_conn` of `candidates` at `layer`,
    /// and back-link with pruning.
    ///
    /// The `search_layer` distances ride along into the edge cache, and the
    /// back-link reuses them (the fused dot is symmetric), so pruning a
    /// neighbour's over-full list is a sort over cached values: no vector
    /// clone, no re-scoring of edges that were already scored when created.
    fn connect(&mut self, node: u32, candidates: &[(f64, u32)], layer: usize, max_conn: usize) {
        let selected: Vec<Neighbor> = candidates
            .iter()
            .take(max_conn)
            .filter(|&&(_, o)| o != node)
            .map(|&(dist, ord)| Neighbor { ord, dist })
            .collect();
        self.nodes[node as usize].neighbors[layer] = selected.clone();
        for e in &selected {
            let nv = &mut self.nodes[e.ord as usize].neighbors[layer];
            if nv.iter().any(|x| x.ord == node) {
                continue;
            }
            nv.push(Neighbor {
                ord: node,
                dist: e.dist,
            });
            if nv.len() > max_conn {
                // Prune: keep the max_conn closest neighbours of e.ord.
                nv.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap_or(Ordering::Equal));
                nv.truncate(max_conn);
            }
        }
    }
}

struct CandEntry {
    dist: f64,
    ord: u32,
    /// true = min-heap behaviour (closest first), false = max-heap (farthest first).
    min_first: bool,
}
impl PartialEq for CandEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.ord == other.ord
    }
}
impl Eq for CandEntry {}
impl PartialOrd for CandEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CandEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        let ord = self
            .dist
            .partial_cmp(&other.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.ord.cmp(&other.ord));
        if self.min_first {
            ord.reverse()
        } else {
            ord
        }
    }
}

impl HnswIndex {
    /// Serialize the graph into a version-3 binary snapshot: generation,
    /// config, ids, tombstones, adjacency **with cached edge distances**,
    /// then every vector's components as one contiguous `f32` slab. Storing
    /// the distances means load skips the O(edges) re-derivation pass the
    /// v1/v2 format paid, and the slab makes the vector payload one bulk
    /// decode — together this is what makes warm restart near-instant.
    pub fn to_bytes(&self) -> Bytes {
        let dim = self.nodes.first().map(|n| n.vector.dim()).unwrap_or(0);
        debug_assert!(
            self.nodes.iter().all(|n| n.vector.dim() == dim),
            "hnsw index holds mixed dimensions"
        );
        let payload: usize = self
            .nodes
            .iter()
            .map(|n| 10 + dim * 4 + n.neighbors.iter().map(|l| 4 + 12 * l.len()).sum::<usize>())
            .sum();
        let mut buf = BytesMut::with_capacity(64 + payload);
        persist::put_header(&mut buf, SnapshotKind::Hnsw, FLAG_UNIT_NORM);
        buf.put_u64_le(self.generation);
        buf.put_u32_le(self.config.m as u32);
        buf.put_u32_le(self.config.ef_construction as u32);
        buf.put_u32_le(self.config.ef_search as u32);
        buf.put_u64_le(self.config.seed);
        buf.put_u32_le(self.max_level as u32);
        match self.entry {
            Some(e) => {
                buf.put_u8(1);
                buf.put_u32_le(e);
            }
            None => buf.put_u8(0),
        }
        buf.put_u32_le(self.nodes.len() as u32);
        buf.put_u32_le(dim as u32);
        for node in &self.nodes {
            persist::put_instance_id(&mut buf, node.id);
        }
        for &d in &self.deleted {
            buf.put_u8(d as u8);
        }
        for node in &self.nodes {
            buf.put_u32_le(node.neighbors.len() as u32);
            for layer in &node.neighbors {
                buf.put_u32_le(layer.len() as u32);
                for e in layer {
                    buf.put_u32_le(e.ord);
                    buf.put_f64_le(e.dist);
                }
            }
        }
        for node in &self.nodes {
            for &x in node.vector.as_slice() {
                buf.put_f32_le(x);
            }
        }
        buf.freeze()
    }

    /// Serialize in the legacy version-2 wire format (per-entry
    /// length-prefixed vectors, ordinal-only adjacency, no generation or
    /// tombstones — distances re-derived on load). Fixture encoder for
    /// migration tests and the cold-load benchmark; the graph must hold no
    /// tombstones (v2 cannot express them).
    pub fn to_bytes_v2(&self) -> Bytes {
        assert_eq!(self.dead, 0, "compact before encoding a v2 snapshot");
        let payload: usize = self
            .nodes
            .iter()
            .map(|n| {
                17 + n.vector.dim() * 4 + n.neighbors.iter().map(|l| 4 + 4 * l.len()).sum::<usize>()
            })
            .sum();
        let mut buf = BytesMut::with_capacity(48 + payload);
        persist::put_header_versioned(&mut buf, SnapshotKind::Hnsw, FLAG_UNIT_NORM, 2);
        buf.put_u32_le(self.config.m as u32);
        buf.put_u32_le(self.config.ef_construction as u32);
        buf.put_u32_le(self.config.ef_search as u32);
        buf.put_u64_le(self.config.seed);
        buf.put_u32_le(self.max_level as u32);
        match self.entry {
            Some(e) => {
                buf.put_u8(1);
                buf.put_u32_le(e);
            }
            None => buf.put_u8(0),
        }
        buf.put_u32_le(self.nodes.len() as u32);
        for node in &self.nodes {
            persist::put_instance_id(&mut buf, node.id);
            put_vector(&mut buf, &node.vector);
            buf.put_u32_le(node.neighbors.len() as u32);
            for layer in &node.neighbors {
                buf.put_u32_le(layer.len() as u32);
                for e in layer {
                    buf.put_u32_le(e.ord);
                }
            }
        }
        buf.freeze()
    }

    /// Reconstruct the graph from a snapshot produced by [`Self::to_bytes`]
    /// (or a legacy encoder).
    ///
    /// Version-3 snapshots load zero-copy (shared vector slab) with their
    /// cached edge distances intact. Version-1/2 snapshots migrate on load:
    /// eager per-entry vector decode, distances re-derived, generation 0,
    /// no tombstones; vectors without [`persist::FLAG_UNIT_NORM`] are
    /// normalized.
    pub fn from_bytes(mut buf: Bytes) -> Result<HnswIndex, PersistError> {
        let (version, flags) = persist::check_header(&mut buf, SnapshotKind::Hnsw)?;
        let generation = if version >= 3 {
            persist::get_u64(&mut buf)?
        } else {
            0
        };
        let m = persist::get_u32(&mut buf)? as usize;
        let ef_construction = persist::get_u32(&mut buf)? as usize;
        let ef_search = persist::get_u32(&mut buf)? as usize;
        let seed = persist::get_u64(&mut buf)?;
        let max_level = persist::get_u32(&mut buf)? as usize;
        let entry = match persist::get_u8(&mut buf)? {
            0 => None,
            1 => Some(persist::get_u32(&mut buf)?),
            other => return Err(PersistError::BadTag(other)),
        };
        let n = persist::get_u32(&mut buf)? as usize;
        let config = HnswConfig {
            m,
            ef_construction,
            ef_search,
            seed,
        };

        if version >= 3 {
            let dim = persist::get_u32(&mut buf)? as usize;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(persist::get_instance_id(&mut buf)?);
            }
            let (deleted, dead) = get_tombstones(&mut buf, n)?;
            let mut adjacency = Vec::with_capacity(n);
            for _ in 0..n {
                let n_layers = persist::get_u32(&mut buf)? as usize;
                let mut neighbors = Vec::with_capacity(n_layers);
                for _ in 0..n_layers {
                    let len = persist::get_u32(&mut buf)? as usize;
                    let mut layer = Vec::with_capacity(len);
                    for _ in 0..len {
                        let ord = persist::get_u32(&mut buf)?;
                        if ord as usize >= n {
                            return Err(PersistError::BadTag(ord as u8));
                        }
                        let dist = persist::get_f64(&mut buf)?;
                        layer.push(Neighbor { ord, dist });
                    }
                    neighbors.push(layer);
                }
                adjacency.push(neighbors);
            }
            let slab = get_slab(&mut buf, n * dim)?;
            let nodes: Vec<HnswNode> = ids
                .into_iter()
                .zip(adjacency)
                .enumerate()
                .map(|(i, (id, neighbors))| {
                    let mut vector = Vector::from_slab(slab.clone(), i * dim, dim);
                    if flags & FLAG_UNIT_NORM == 0 {
                        vector.normalize();
                    }
                    HnswNode {
                        id,
                        vector,
                        neighbors,
                    }
                })
                .collect();
            return Ok(HnswIndex {
                config,
                nodes,
                entry,
                max_level,
                deleted,
                dead,
                generation,
                compactions: 0,
                visited: Mutex::new(VisitedSet::default()),
            });
        }

        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let id = persist::get_instance_id(&mut buf)?;
            let mut vector = get_vector(&mut buf)?;
            if flags & FLAG_UNIT_NORM == 0 {
                vector.normalize();
            }
            let n_layers = persist::get_u32(&mut buf)? as usize;
            let mut neighbors = Vec::with_capacity(n_layers);
            for _ in 0..n_layers {
                let len = persist::get_u32(&mut buf)? as usize;
                let mut layer = Vec::with_capacity(len);
                for _ in 0..len {
                    let ord = persist::get_u32(&mut buf)?;
                    if ord as usize >= n {
                        return Err(PersistError::BadTag(ord as u8));
                    }
                    layer.push(Neighbor { ord, dist: 0.0 });
                }
                neighbors.push(layer);
            }
            nodes.push(HnswNode {
                id,
                vector,
                neighbors,
            });
        }
        // Re-derive the cached edge distances from the (now unit) vectors.
        #[allow(clippy::needless_range_loop)]
        for i in 0..nodes.len() {
            for l in 0..nodes[i].neighbors.len() {
                for j in 0..nodes[i].neighbors[l].len() {
                    let o = nodes[i].neighbors[l][j].ord as usize;
                    let d = 1.0 - nodes[i].vector.dot_unit(&nodes[o].vector) as f64;
                    nodes[i].neighbors[l][j].dist = d;
                }
            }
        }
        let deleted = vec![false; nodes.len()];
        Ok(HnswIndex {
            config,
            nodes,
            entry,
            max_level,
            deleted,
            dead: 0,
            generation,
            compactions: 0,
            visited: Mutex::new(VisitedSet::default()),
        })
    }
}

impl VectorIndex for HnswIndex {
    fn add(&mut self, id: InstanceId, mut vector: Vector) {
        vector.normalize();
        let ord = self.nodes.len() as u32;
        let level = self.draw_level(ord as usize);
        self.deleted.push(false);
        self.generation += 1;
        self.nodes.push(HnswNode {
            id,
            vector,
            neighbors: vec![Vec::new(); level + 1],
        });
        // Already unit: every `dist` during construction is a single dot.
        let q = self.nodes[ord as usize].vector.clone();

        let Some(mut entry) = self.entry else {
            self.entry = Some(ord);
            self.max_level = level;
            return;
        };

        // Descend from the top layer to level+1 greedily.
        for l in ((level + 1)..=self.max_level).rev() {
            entry = self.greedy_at_layer(entry, &q, l);
        }
        // Insert at each layer from min(level, max_level) down to 0.
        for l in (0..=level.min(self.max_level)).rev() {
            let found = self.search_layer(entry, &q, l, self.config.ef_construction);
            let max_conn = if l == 0 {
                self.config.m * 2
            } else {
                self.config.m
            };
            self.connect(ord, &found, l, max_conn);
            if let Some(&(_, best)) = found.first() {
                entry = best;
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(ord);
        }
    }

    fn remove(&mut self, id: InstanceId) -> bool {
        let mut any = false;
        for (ord, node) in self.nodes.iter().enumerate() {
            if node.id == id && !self.deleted[ord] {
                self.deleted[ord] = true;
                self.dead += 1;
                any = true;
            }
        }
        if any {
            self.generation += 1;
        }
        any
    }

    fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit> {
        let Some(mut entry) = self.entry else {
            return Vec::new();
        };
        if k == 0 || self.dead == self.nodes.len() {
            return Vec::new();
        }
        let q = unit_query(query);
        for l in (1..=self.max_level).rev() {
            entry = self.greedy_at_layer(entry, &q, l);
        }
        // Over-fetch by the tombstone count: dead nodes still route (their
        // edges are intact) but cannot be returned, so widening the
        // candidate list keeps `k` honored after filtering.
        let ef = (self.config.ef_search.max(k) + self.dead).min(self.nodes.len());
        let found = self.search_layer(entry, &q, 0, ef);
        let mut hits: Vec<SearchHit> = found
            .into_iter()
            .filter(|&(_, o)| !self.deleted[o as usize])
            .take(k)
            .map(|(d, o)| SearchHit::new(self.nodes[o as usize].id, 1.0 - d))
            .collect();
        sort_hits(&mut hits);
        hits
    }

    fn len(&self) -> usize {
        self.nodes.len() - self.dead
    }
}

// ---------------------------------------------------------------------------
// Backend-erased index
// ---------------------------------------------------------------------------

/// Either semantic index behind one concrete type, so shard slots and the
/// live layer can hold whichever backend the config chose while still
/// reaching the full mutable surface (remove/compact/snapshot) that a
/// `dyn VectorIndex` would erase.
#[derive(Debug)]
pub enum AnyVectorIndex {
    /// Exact flat scan.
    Flat(FlatIndex),
    /// Approximate HNSW graph.
    Hnsw(HnswIndex),
}

impl AnyVectorIndex {
    /// The backend's short name (matches its `EvidenceSource` name).
    pub fn backend_name(&self) -> &'static str {
        match self {
            AnyVectorIndex::Flat(_) => "flat",
            AnyVectorIndex::Hnsw(_) => "hnsw",
        }
    }

    /// Mutation generation of the wrapped index.
    pub fn generation(&self) -> u64 {
        match self {
            AnyVectorIndex::Flat(i) => i.generation(),
            AnyVectorIndex::Hnsw(i) => i.generation(),
        }
    }

    /// Tombstoned entries in the wrapped index.
    pub fn tombstones(&self) -> usize {
        match self {
            AnyVectorIndex::Flat(i) => i.tombstones(),
            AnyVectorIndex::Hnsw(i) => i.tombstones(),
        }
    }

    /// Compactions the wrapped index has run.
    pub fn compactions(&self) -> u64 {
        match self {
            AnyVectorIndex::Flat(i) => i.compactions(),
            AnyVectorIndex::Hnsw(i) => i.compactions(),
        }
    }

    /// Force a compaction of the wrapped index.
    pub fn compact(&mut self) {
        match self {
            AnyVectorIndex::Flat(i) => i.compact(),
            AnyVectorIndex::Hnsw(i) => i.compact(),
        }
    }

    /// Snapshot the wrapped index (the kind tag records which backend).
    pub fn to_bytes(&self) -> Bytes {
        match self {
            AnyVectorIndex::Flat(i) => i.to_bytes(),
            AnyVectorIndex::Hnsw(i) => i.to_bytes(),
        }
    }

    /// Reload whichever backend the snapshot holds, dispatching on its kind
    /// tag.
    pub fn from_bytes(buf: Bytes) -> Result<AnyVectorIndex, PersistError> {
        match persist::peek_kind(&buf)? {
            x if x == SnapshotKind::Flat as u8 => {
                Ok(AnyVectorIndex::Flat(FlatIndex::from_bytes(buf)?))
            }
            x if x == SnapshotKind::Hnsw as u8 => {
                Ok(AnyVectorIndex::Hnsw(HnswIndex::from_bytes(buf)?))
            }
            other => Err(PersistError::BadKind {
                expected: SnapshotKind::Flat as u8,
                got: other,
            }),
        }
    }
}

impl VectorIndex for AnyVectorIndex {
    fn add(&mut self, id: InstanceId, vector: Vector) {
        match self {
            AnyVectorIndex::Flat(i) => i.add(id, vector),
            AnyVectorIndex::Hnsw(i) => i.add(id, vector),
        }
    }

    fn remove(&mut self, id: InstanceId) -> bool {
        match self {
            AnyVectorIndex::Flat(i) => VectorIndex::remove(i, id),
            AnyVectorIndex::Hnsw(i) => VectorIndex::remove(i, id),
        }
    }

    fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit> {
        match self {
            AnyVectorIndex::Flat(i) => i.search(query, k),
            AnyVectorIndex::Hnsw(i) => i.search(query, k),
        }
    }

    fn search_batch(&self, queries: &[Vector], k: usize) -> Vec<Vec<SearchHit>> {
        match self {
            AnyVectorIndex::Flat(i) => i.search_batch(queries, k),
            AnyVectorIndex::Hnsw(i) => i.search_batch(queries, k),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyVectorIndex::Flat(i) => i.len(),
            AnyVectorIndex::Hnsw(i) => i.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use verifai_embed::TextEmbedder;

    fn tid(i: u64) -> InstanceId {
        InstanceId::Text(i)
    }

    fn corpus() -> Vec<(InstanceId, Vector)> {
        let e = TextEmbedder::with_seed(11);
        let texts = [
            "united states house election new york district",
            "house election results new york representatives",
            "basketball career points michael jordan bulls",
            "dance drama film stomp the yard 2007",
            "track and field championship 1959 ncaa",
            "actress meagan good film roles",
            "governor election ohio incumbent",
            "chicago bulls championship 1997 season",
        ];
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| (tid(i as u64), e.embed(t)))
            .collect()
    }

    #[test]
    fn flat_finds_semantic_neighbour() {
        let mut idx = FlatIndex::new();
        for (id, v) in corpus() {
            idx.add(id, v);
        }
        let e = TextEmbedder::with_seed(11);
        let hits = idx.search(&e.embed("new york house election"), 2);
        assert!(hits[0].id == tid(0) || hits[0].id == tid(1));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn flat_k_zero_and_empty() {
        let idx = FlatIndex::new();
        let e = TextEmbedder::with_seed(11);
        assert!(idx.search(&e.embed("x"), 3).is_empty());
        let mut idx = FlatIndex::new();
        idx.add(tid(0), e.embed("abc"));
        assert!(idx.search(&e.embed("abc"), 0).is_empty());
    }

    #[test]
    fn hnsw_matches_flat_on_small_corpus() {
        let mut flat = FlatIndex::new();
        let mut hnsw = HnswIndex::with_defaults();
        for (id, v) in corpus() {
            flat.add(id, v.clone());
            hnsw.add(id, v);
        }
        let e = TextEmbedder::with_seed(11);
        for q in [
            "jordan basketball points",
            "film actress",
            "election district",
        ] {
            let qv = e.embed(q);
            let f = flat.search(&qv, 3);
            let h = hnsw.search(&qv, 3);
            assert_eq!(f[0].id, h[0].id, "query '{q}' disagrees at rank 1");
        }
    }

    #[test]
    fn hnsw_recall_at_10_on_larger_corpus() {
        // 300 synthetic points; HNSW must achieve high recall@10 vs flat.
        let e = TextEmbedder::with_seed(3);
        let mut flat = FlatIndex::new();
        let mut hnsw = HnswIndex::new(HnswConfig {
            ef_search: 80,
            ..HnswConfig::default()
        });
        for i in 0..300u64 {
            let text = format!("entity {} topic {} attribute {}", i, i % 17, i % 7);
            let v = e.embed(&text);
            flat.add(tid(i), v.clone());
            hnsw.add(tid(i), v);
        }
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in 0..20u64 {
            let qv = e.embed(&format!(
                "entity {} topic {}",
                q * 13 % 300,
                (q * 13 % 300) % 17
            ));
            let truth: HashSet<InstanceId> =
                flat.search(&qv, 10).into_iter().map(|h| h.id).collect();
            for h in hnsw.search(&qv, 10) {
                total += 1;
                if truth.contains(&h.id) {
                    hit += 1;
                }
            }
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.8, "HNSW recall@10 too low: {recall}");
    }

    #[test]
    fn hnsw_deterministic() {
        let build = || {
            let mut h = HnswIndex::with_defaults();
            for (id, v) in corpus() {
                h.add(id, v);
            }
            h
        };
        let e = TextEmbedder::with_seed(11);
        let q = e.embed("championship season");
        assert_eq!(build().search(&q, 4), build().search(&q, 4));
    }

    #[test]
    fn hnsw_single_element() {
        let mut h = HnswIndex::with_defaults();
        let e = TextEmbedder::with_seed(11);
        h.add(tid(9), e.embed("lonely document"));
        let hits = h.search(&e.embed("lonely"), 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, tid(9));
    }

    #[test]
    fn snapshots_roundtrip_both_vector_indexes() {
        let e = TextEmbedder::with_seed(11);
        let mut flat = FlatIndex::new();
        let mut hnsw = HnswIndex::with_defaults();
        for (id, v) in corpus() {
            flat.add(id, v.clone());
            hnsw.add(id, v);
        }
        let flat2 = FlatIndex::from_bytes(flat.to_bytes()).unwrap();
        let hnsw2 = HnswIndex::from_bytes(hnsw.to_bytes()).unwrap();
        for q in [
            "jordan basketball",
            "election district new york",
            "film actress",
        ] {
            let qv = e.embed(q);
            assert_eq!(flat.search(&qv, 4), flat2.search(&qv, 4), "flat query {q}");
            assert_eq!(hnsw.search(&qv, 4), hnsw2.search(&qv, 4), "hnsw query {q}");
        }
        // A restored graph keeps growing correctly.
        let mut hnsw3 = HnswIndex::from_bytes(hnsw.to_bytes()).unwrap();
        hnsw3.add(tid(99), e.embed("brand new document about elections"));
        assert_eq!(hnsw3.len(), hnsw.len() + 1);
        let hits = hnsw3.search(&e.embed("brand new document"), 1);
        assert_eq!(hits[0].id, tid(99));
    }

    #[test]
    fn snapshot_garbage_rejected() {
        assert!(FlatIndex::from_bytes(bytes::Bytes::from_static(b"nah")).is_err());
        assert!(HnswIndex::from_bytes(bytes::Bytes::from_static(b"VFAI\x01\x02")).is_err());
    }

    #[test]
    fn add_normalizes_to_unit_invariant() {
        // A vector and its scaled copy index identically: `add` owns the
        // unit-norm invariant, so scores are cosines, not raw dots.
        let mut a = FlatIndex::new();
        let mut b = FlatIndex::new();
        a.add(tid(0), Vector::from_vec(vec![3.0, 4.0, 0.0]));
        b.add(tid(0), Vector::from_vec(vec![30.0, 40.0, 0.0]));
        let q = Vector::from_vec(vec![1.0, 1.0, 0.0]);
        let ha = a.search(&q, 1);
        let hb = b.search(&q, 1);
        assert_eq!(ha, hb);
        let expect = Vector::from_vec(vec![3.0, 4.0, 0.0]).cosine(&q) as f64;
        assert!((ha[0].score - expect).abs() < 1e-6);
    }

    #[test]
    fn v1_flat_snapshot_migrates_by_normalizing() {
        // Hand-encode a version-1 Flat snapshot (no flags byte) holding a
        // deliberately non-unit vector, as the pre-invariant encoder could.
        let mut buf = BytesMut::new();
        buf.put_slice(b"VFAI\x01");
        buf.put_u8(SnapshotKind::Flat as u8);
        buf.put_u32_le(1);
        persist::put_instance_id(&mut buf, tid(7));
        put_vector(&mut buf, &Vector::from_vec(vec![3.0, 4.0]));
        let idx = FlatIndex::from_bytes(buf.freeze()).unwrap();
        let hits = idx.search(&Vector::from_vec(vec![1.0, 0.0]), 1);
        assert_eq!(hits[0].id, tid(7));
        // cosine([3,4],[1,0]) = 0.6; an unmigrated raw dot would score 3.0.
        assert!(
            (hits[0].score - 0.6).abs() < 1e-6,
            "migrated vector must be normalized, got score {}",
            hits[0].score
        );
    }

    #[test]
    fn v1_hnsw_snapshot_migrates_by_normalizing() {
        // Minimal version-1 graph: one level-0 node with a non-unit vector.
        let mut buf = BytesMut::new();
        buf.put_slice(b"VFAI\x01");
        buf.put_u8(SnapshotKind::Hnsw as u8);
        buf.put_u32_le(16); // m
        buf.put_u32_le(100); // ef_construction
        buf.put_u32_le(64); // ef_search
        buf.put_u64_le(0x9e37); // seed
        buf.put_u32_le(0); // max_level
        buf.put_u8(1);
        buf.put_u32_le(0); // entry = node 0
        buf.put_u32_le(1); // node count
        persist::put_instance_id(&mut buf, tid(5));
        put_vector(&mut buf, &Vector::from_vec(vec![0.0, 3.0, 4.0]));
        buf.put_u32_le(1); // one layer
        buf.put_u32_le(0); // no neighbours
        let idx = HnswIndex::from_bytes(buf.freeze()).unwrap();
        let hits = idx.search(&Vector::from_vec(vec![0.0, 1.0, 0.0]), 1);
        assert_eq!(hits[0].id, tid(5));
        assert!(
            (hits[0].score - 0.6).abs() < 1e-6,
            "migrated vector must be normalized, got score {}",
            hits[0].score
        );
    }

    #[test]
    fn v1_hnsw_snapshot_body_decodes_identically() {
        // The v2 body is byte-for-byte the v1 body; only the header differs.
        // A real pre-invariant snapshot (unit vectors, same graph wire
        // format) must reload to an equivalent graph.
        let e = TextEmbedder::with_seed(11);
        let mut hnsw = HnswIndex::with_defaults();
        for (id, v) in corpus() {
            hnsw.add(id, v);
        }
        let v2 = hnsw.to_bytes_v2();
        let mut v1 = BytesMut::new();
        v1.put_slice(b"VFAI\x01");
        v1.put_u8(v2[5]); // kind
        v1.put_slice(&v2[7..]); // body, minus the v2 flags byte
        let old = HnswIndex::from_bytes(v1.freeze()).unwrap();
        let q = e.embed("championship season");
        assert_eq!(old.search(&q, 4), hnsw.search(&q, 4));
    }

    #[test]
    fn v2_snapshots_migrate_to_equivalent_indexes() {
        // The legacy encoders emit the exact v2 wire format; loading them
        // must produce indexes that answer identically to the live ones
        // (generation resets to 0 — v2 carries none).
        let e = TextEmbedder::with_seed(11);
        let mut flat = FlatIndex::new();
        let mut hnsw = HnswIndex::with_defaults();
        for (id, v) in corpus() {
            flat.add(id, v.clone());
            hnsw.add(id, v);
        }
        let flat2 = FlatIndex::from_bytes(flat.to_bytes_v2()).unwrap();
        let hnsw2 = HnswIndex::from_bytes(hnsw.to_bytes_v2()).unwrap();
        assert_eq!(flat2.generation(), 0);
        assert_eq!(hnsw2.generation(), 0);
        for q in ["jordan basketball", "election district new york"] {
            let qv = e.embed(q);
            assert_eq!(flat.search(&qv, 4), flat2.search(&qv, 4), "flat {q}");
            assert_eq!(hnsw.search(&qv, 4), hnsw2.search(&qv, 4), "hnsw {q}");
        }
    }

    #[test]
    fn v3_load_is_zero_copy_and_keeps_state() {
        let mut flat = FlatIndex::new();
        let mut hnsw = HnswIndex::with_defaults();
        for (id, v) in corpus() {
            flat.add(id, v.clone());
            hnsw.add(id, v);
        }
        flat.remove(tid(3));
        hnsw.remove(tid(3));
        let gen_f = flat.generation();
        let gen_h = hnsw.generation();
        let flat2 = FlatIndex::from_bytes(flat.to_bytes()).unwrap();
        let hnsw2 = HnswIndex::from_bytes(hnsw.to_bytes()).unwrap();
        assert_eq!(flat2.generation(), gen_f);
        assert_eq!(hnsw2.generation(), gen_h);
        assert_eq!(flat2.tombstones(), 1);
        assert_eq!(hnsw2.tombstones(), 1);
        assert_eq!(flat2.len(), flat.len());
        assert_eq!(hnsw2.len(), hnsw.len());
        // Every reloaded vector borrows the shared slab — the zero-copy path.
        assert!(flat2.vectors.iter().all(|v| v.is_shared()));
        assert!(hnsw2.nodes.iter().all(|n| n.vector.is_shared()));
        // And the tombstone survives the round-trip.
        let e = TextEmbedder::with_seed(11);
        let q = e.embed("dance drama film stomp the yard 2007");
        assert!(flat2.search(&q, 8).iter().all(|h| h.id != tid(3)));
        assert!(hnsw2.search(&q, 8).iter().all(|h| h.id != tid(3)));
    }

    #[test]
    fn flat_tombstones_skip_and_compact() {
        let e = TextEmbedder::with_seed(11);
        let mut idx = FlatIndex::new();
        for (id, v) in corpus() {
            idx.add(id, v);
        }
        assert_eq!(idx.len(), 8);
        assert!(idx.remove(tid(2)));
        assert!(!idx.remove(tid(2)), "double remove is a no-op");
        assert_eq!(idx.len(), 7);
        assert_eq!(idx.tombstones(), 1);
        let hits = idx.search(&e.embed("basketball jordan bulls"), 8);
        assert_eq!(hits.len(), 7);
        assert!(hits.iter().all(|h| h.id != tid(2)));
        // Removing past the half-dead threshold triggers compaction.
        for i in [0u64, 1, 3, 4] {
            idx.remove(tid(i));
        }
        assert_eq!(idx.tombstones(), 0, "compaction sheds tombstones");
        assert!(idx.compactions() >= 1);
        assert_eq!(idx.len(), 3);
        let hits = idx.search(&e.embed("chicago bulls championship"), 8);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn hnsw_tombstones_overfetch_honors_k() {
        // Delete half the corpus; searches for k=4 must still fill from the
        // live half and never surface a tombstoned id.
        let e = TextEmbedder::with_seed(3);
        let mut idx = HnswIndex::with_defaults();
        for i in 0..40u64 {
            idx.add(tid(i), e.embed(&format!("entity {} topic {}", i, i % 5)));
        }
        for i in 0..20u64 {
            assert!(idx.remove(tid(i)));
        }
        assert_eq!(idx.len(), 20);
        assert_eq!(idx.tombstones(), 20);
        let hits = idx.search(&e.embed("entity 25 topic 0"), 4);
        assert_eq!(hits.len(), 4, "over-fetch must fill k past tombstones");
        assert!(hits.iter().all(|h| h.id >= tid(20)));
        // Compaction rebuilds from the live nodes and keeps answering.
        idx.compact();
        assert_eq!(idx.tombstones(), 0);
        assert_eq!(idx.compactions(), 1);
        assert_eq!(idx.len(), 20);
        let hits2 = idx.search(&e.embed("entity 25 topic 0"), 4);
        assert_eq!(hits2.len(), 4);
        assert!(hits2.iter().all(|h| h.id >= tid(20)));
    }

    #[test]
    fn any_vector_index_dispatches_and_roundtrips() {
        let e = TextEmbedder::with_seed(11);
        let mut any = AnyVectorIndex::Hnsw(HnswIndex::with_defaults());
        for (id, v) in corpus() {
            any.add(id, v);
        }
        assert_eq!(any.backend_name(), "hnsw");
        assert!(any.remove(tid(1)));
        assert_eq!(any.tombstones(), 1);
        let back = AnyVectorIndex::from_bytes(any.to_bytes()).unwrap();
        assert_eq!(back.backend_name(), "hnsw");
        assert_eq!(back.len(), any.len());
        let qv = e.embed("election district");
        assert_eq!(any.search(&qv, 3), back.search(&qv, 3));
        // Kind dispatch picks flat for flat snapshots.
        let mut flat = FlatIndex::new();
        flat.add(tid(0), e.embed("alpha"));
        let f = AnyVectorIndex::from_bytes(flat.to_bytes()).unwrap();
        assert_eq!(f.backend_name(), "flat");
        // And rejects a non-vector snapshot kind outright.
        let mut bogus = flat.to_bytes().to_vec();
        bogus[5] = SnapshotKind::Inverted as u8;
        assert!(AnyVectorIndex::from_bytes(Bytes::from(bogus)).is_err());
    }

    #[test]
    fn truncated_v3_snapshots_rejected_not_garbled() {
        // Chop a valid v3 snapshot at every prefix length; the decoder must
        // return a typed error every time, never panic or succeed.
        let mut flat = FlatIndex::new();
        let mut hnsw = HnswIndex::with_defaults();
        for (id, v) in corpus() {
            flat.add(id, v.clone());
            hnsw.add(id, v);
        }
        flat.remove(tid(0));
        hnsw.remove(tid(0));
        let fb = flat.to_bytes();
        let hb = hnsw.to_bytes();
        for cut in 0..fb.len() {
            assert!(
                FlatIndex::from_bytes(fb.slice(0..cut)).is_err(),
                "flat prefix of {cut} bytes must not decode"
            );
        }
        for cut in (0..hb.len()).step_by(7) {
            assert!(
                HnswIndex::from_bytes(hb.slice(0..cut)).is_err(),
                "hnsw prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn unknown_snapshot_flags_rejected_not_misscored() {
        let mut flat = FlatIndex::new();
        flat.add(tid(0), Vector::from_vec(vec![1.0, 0.0]));
        let good = flat.to_bytes();
        let mut bad = good.to_vec();
        bad[6] |= 0x40; // a flag bit this decoder does not understand
        assert_eq!(
            FlatIndex::from_bytes(Bytes::from(bad.clone())).unwrap_err(),
            PersistError::BadFlags(FLAG_UNIT_NORM | FLAG_QUANT_CODES | 0x40)
        );
        bad[5] = SnapshotKind::Hnsw as u8;
        assert_eq!(
            HnswIndex::from_bytes(Bytes::from(bad)).unwrap_err(),
            PersistError::BadFlags(FLAG_UNIT_NORM | FLAG_QUANT_CODES | 0x40)
        );
    }

    #[test]
    fn full_rescore_is_identical_to_exact_scan() {
        // rescore_factor = ∞ keeps every candidate in phase 1 and rescores
        // all of them with the exact kernel: byte-identical to exact mode.
        let mut exact = FlatIndex::new();
        let mut quant = FlatIndex::new_quantized(usize::MAX);
        for (id, v) in corpus() {
            exact.add(id, v.clone());
            quant.add(id, v);
        }
        let e = TextEmbedder::with_seed(11);
        for q in ["jordan basketball", "election district", "film actress"] {
            let qv = e.embed(q);
            for k in [1usize, 3, 8] {
                assert_eq!(exact.search(&qv, k), quant.search(&qv, k), "{q} k={k}");
            }
        }
    }

    #[test]
    fn quantized_scan_skips_tombstones_and_survives_compaction() {
        let e = TextEmbedder::with_seed(11);
        let mut idx = FlatIndex::new_quantized(4);
        for (id, v) in corpus() {
            idx.add(id, v);
        }
        assert!(idx.remove(tid(2)));
        let hits = idx.search(&e.embed("basketball jordan bulls"), 8);
        assert_eq!(hits.len(), 7);
        assert!(hits.iter().all(|h| h.id != tid(2)));
        // Force a compaction; the code sidecar must be rebuilt in step.
        for i in [0u64, 1, 3, 4] {
            idx.remove(tid(i));
        }
        assert_eq!(idx.tombstones(), 0);
        assert_eq!(idx.codes.len(), idx.ids.len() * idx.dim);
        assert_eq!(idx.scales.len(), idx.ids.len());
        let hits = idx.search(&e.embed("chicago bulls championship"), 8);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn v4_snapshot_carries_codes_and_scan_mode() {
        let mut idx = FlatIndex::new_quantized(7);
        for (id, v) in corpus() {
            idx.add(id, v);
        }
        idx.remove(tid(3));
        let back = FlatIndex::from_bytes(idx.to_bytes()).unwrap();
        assert!(back.is_quantized());
        assert_eq!(back.rescore_factor(), 7);
        assert_eq!(back.codes, idx.codes);
        assert_eq!(back.scales, idx.scales);
        assert_eq!(back.dim, idx.dim);
        let e = TextEmbedder::with_seed(11);
        for q in ["jordan basketball", "election district new york"] {
            let qv = e.embed(q);
            assert_eq!(idx.search(&qv, 4), back.search(&qv, 4), "{q}");
        }
    }

    #[test]
    fn v3_snapshot_migrates_by_requantizing() {
        // A v3 snapshot predates the code sidecar: loading one must
        // re-quantize to codes bit-identical to the eager writer's
        // (quantization is pure), defaulting to the exact scan mode.
        let mut idx = FlatIndex::new();
        for (id, v) in corpus() {
            idx.add(id, v);
        }
        idx.remove(tid(1));
        let gen = idx.generation();
        let back = FlatIndex::from_bytes(idx.to_bytes_v3()).unwrap();
        assert!(!back.is_quantized());
        assert_eq!(back.generation(), gen);
        assert_eq!(back.tombstones(), 1);
        assert_eq!(back.codes, idx.codes);
        assert_eq!(back.scales, idx.scales);
    }

    #[test]
    fn batch_search_matches_per_query_search() {
        // The blocked multi-query scan must return exactly what B
        // independent searches return — exact mode, quantized mode, and
        // through the backend-erased dispatch.
        let e = TextEmbedder::with_seed(11);
        let queries: Vec<Vector> = [
            "jordan basketball points",
            "election district new york",
            "film actress roles",
            "championship season",
            "track and field",
        ]
        .iter()
        .map(|q| e.embed(q))
        .collect();
        let mut exact = FlatIndex::new();
        let mut quant = FlatIndex::new_quantized(3);
        let mut hnsw = HnswIndex::with_defaults();
        for (id, v) in corpus() {
            exact.add(id, v.clone());
            quant.add(id, v.clone());
            hnsw.add(id, v);
        }
        exact.remove(tid(5));
        quant.remove(tid(5));
        for k in [1usize, 3, 8] {
            let want_e: Vec<_> = queries.iter().map(|q| exact.search(q, k)).collect();
            assert_eq!(exact.search_batch(&queries, k), want_e, "exact k={k}");
            let want_q: Vec<_> = queries.iter().map(|q| quant.search(q, k)).collect();
            assert_eq!(quant.search_batch(&queries, k), want_q, "quant k={k}");
            let want_h: Vec<_> = queries.iter().map(|q| hnsw.search(q, k)).collect();
            assert_eq!(hnsw.search_batch(&queries, k), want_h, "hnsw k={k}");
        }
        let any = AnyVectorIndex::Flat(quant);
        let want: Vec<_> = queries.iter().map(|q| any.search(q, 4)).collect();
        assert_eq!(any.search_batch(&queries, 4), want);
        // Degenerate shapes.
        assert!(exact.search_batch(&[], 3).is_empty());
        assert_eq!(exact.search_batch(&queries, 0), vec![Vec::new(); 5]);
    }

    #[test]
    fn visited_pool_reuse_is_stable_across_searches() {
        // Repeated searches reuse the pooled epoch-stamped buffer; results
        // must not drift between the cold (allocating) first search and
        // warm reuse, including interleaved mutations.
        let e = TextEmbedder::with_seed(3);
        let mut idx = HnswIndex::with_defaults();
        for i in 0..60u64 {
            idx.add(tid(i), e.embed(&format!("entity {} topic {}", i, i % 5)));
        }
        let q = e.embed("entity 31 topic 1");
        let first = idx.search(&q, 5);
        for _ in 0..50 {
            assert_eq!(idx.search(&q, 5), first);
        }
        idx.add(tid(1000), e.embed("entity 31 topic 1 duplicate"));
        let after = idx.search(&q, 5);
        assert_eq!(after.len(), 5);
        assert_eq!(idx.search(&q, 5), after);
    }

    #[test]
    fn trait_object_usable() {
        let mut indexes: Vec<Box<dyn VectorIndex>> = vec![
            Box::new(FlatIndex::new()),
            Box::new(HnswIndex::with_defaults()),
        ];
        let e = TextEmbedder::with_seed(11);
        for idx in &mut indexes {
            idx.add(tid(0), e.embed("shared content"));
            assert_eq!(idx.len(), 1);
            assert!(!idx.is_empty());
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random raw vector (the index normalizes).
    fn random_vector(seed: u64, row: u64, dim: usize) -> Vector {
        let v: Vec<f32> = (0..dim)
            .map(|i| {
                let h = verifai_embed::hashing::splitmix64(seed ^ (row << 20) ^ (i as u64) << 4);
                (verifai_embed::hashing::unit_float(h) * 2.0 - 1.0) as f32
            })
            .collect();
        Vector::from_vec(v)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite contract: the quantized two-phase scan at the default
        /// rescore factor achieves recall@10 ≥ 0.95 against the exact flat
        /// scan, across random corpora and dimensions.
        #[test]
        fn quantized_rescore_recall_at_10(
            dim in 8usize..160,
            n in 40usize..160,
            seed in 0u64..200,
        ) {
            let mut exact = FlatIndex::new();
            let mut quant = FlatIndex::new_quantized(DEFAULT_RESCORE_FACTOR);
            for row in 0..n as u64 {
                let v = random_vector(seed, row, dim);
                exact.add(InstanceId::Text(row), v.clone());
                quant.add(InstanceId::Text(row), v);
            }
            let k = 10usize.min(n);
            let mut hit = 0usize;
            let mut total = 0usize;
            for qi in 0..8u64 {
                let q = random_vector(seed ^ 0xdead, qi, dim);
                let truth: std::collections::HashSet<InstanceId> =
                    exact.search(&q, k).into_iter().map(|h| h.id).collect();
                for h in quant.search(&q, k) {
                    total += 1;
                    hit += truth.contains(&h.id) as usize;
                }
            }
            let recall = hit as f64 / total as f64;
            prop_assert!(
                recall >= 0.95,
                "dim {} n {} seed {}: recall@{} = {}", dim, n, seed, k, recall
            );
        }

        /// rescore_factor = ∞ (full rescore) is byte-identical to exact.
        #[test]
        fn full_rescore_identity(
            dim in 4usize..96,
            n in 10usize..120,
            seed in 0u64..200,
        ) {
            let mut exact = FlatIndex::new();
            let mut quant = FlatIndex::new_quantized(usize::MAX);
            for row in 0..n as u64 {
                let v = random_vector(seed, row, dim);
                exact.add(InstanceId::Text(row), v.clone());
                quant.add(InstanceId::Text(row), v);
            }
            for qi in 0..4u64 {
                let q = random_vector(seed ^ 0xbeef, qi, dim);
                for k in [1usize, 5, 10] {
                    prop_assert_eq!(exact.search(&q, k), quant.search(&q, k));
                }
            }
        }
    }
}
