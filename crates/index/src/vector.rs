//! Semantic (vector) indexes: exact flat scan and HNSW approximate search.
//!
//! These are the Faiss / pgvector substitutes. Both index embedding vectors
//! under [`InstanceId`]s and return cosine-similarity-ranked hits.
//! [`FlatIndex`] is exact (and the recall reference); [`HnswIndex`] is the
//! approximate graph index real deployments use at the paper's corpus scale.
//!
//! ## The unit-norm invariant
//!
//! Both indexes **normalize every vector on `add`**; a snapshot carries the
//! guarantee as [`persist::FLAG_UNIT_NORM`], and its reader checks every
//! row against it. With every stored vector unit,
//! cosine similarity degenerates to a single fused dot product
//! ([`kernel::dot_unit`]) — one pass over the data instead of the three a
//! raw `cosine` costs — for the flat scan and for every distance evaluated
//! during HNSW construction and search. Queries are normalized once at the
//! search (or insert) entry point. Scores are unchanged up to float
//! normalization error (≤ ~1e-6 for the already-unit embedder outputs).
//!
//! ## One row slab
//!
//! Neither index boxes its vectors. Rows live in a `RowSlab`: chunks of
//! [`ROWS_PER_CHUNK`] fixed-stride rows, so an index of `n` vectors is
//! `⌈n / 256⌉` allocations, a row is two index computations away, growth
//! allocates one chunk and never copies (a doubling `Vec<f32>` holds up to
//! twice its contents and, while it reallocates, the old buffer too — that
//! showed as +17 % peak RSS), and a snapshot's slab section decodes straight
//! into place. HNSW keeps its adjacency in the same structure (DESIGN.md
//! §21).

use crate::hit::{sort_hits, SearchHit};
use crate::persist::{self, PersistError, SnapshotKind, FLAG_UNIT_NORM};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::mem::size_of;
use std::sync::Mutex;
use verifai_embed::{kernel, Vector};
use verifai_lake::InstanceId;
use verifai_obs::meter;

/// Common interface of the semantic indexes.
pub trait VectorIndex {
    /// Insert a vector under an id.
    fn add(&mut self, id: InstanceId, vector: Vector);
    /// Tombstone every entry stored under `id`; true when anything was
    /// removed. Tombstoned entries never appear in search results.
    fn remove(&mut self, id: InstanceId) -> bool;
    /// Top-k most similar live entries (cosine). A tombstoned entry never
    /// takes a slot: [`FlatIndex`] returns `min(k, len())` hits, and
    /// [`HnswIndex`] returns fewer than that only when fewer live nodes are
    /// reachable from its entry point.
    fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit>;
    /// Number of **live** (non-tombstoned) vectors.
    fn len(&self) -> usize;
    /// True when no live vectors remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Row slab
// ---------------------------------------------------------------------------

/// Rows per chunk of the indexes' row storage (128 KB of `f32` rows at
/// dimension 128): an index holds at most this many rows' worth of memory it
/// has not filled yet.
pub const ROWS_PER_CHUNK: usize = 256;

/// Fixed-stride rows in chunks of [`ROWS_PER_CHUNK`]. Each chunk is
/// allocated once at its full size and filled in place, so growth never
/// copies a row and never holds more than one chunk of spare capacity. An
/// empty slab takes its stride from the first row pushed.
#[derive(Debug)]
struct RowSlab<T> {
    stride: usize,
    len: usize,
    chunks: Vec<Vec<T>>,
}

impl<T> Default for RowSlab<T> {
    fn default() -> RowSlab<T> {
        RowSlab {
            stride: 0,
            len: 0,
            chunks: Vec::new(),
        }
    }
}

impl<T: Copy> RowSlab<T> {
    /// Elements per row (0 while empty).
    fn stride(&self) -> usize {
        self.stride
    }

    /// Row `ord`.
    #[inline]
    fn row(&self, ord: usize) -> &[T] {
        let at = (ord % ROWS_PER_CHUNK) * self.stride;
        &self.chunks[ord / ROWS_PER_CHUNK][at..at + self.stride]
    }

    /// Row `ord`, writable.
    #[inline]
    fn row_mut(&mut self, ord: usize) -> &mut [T] {
        let at = (ord % ROWS_PER_CHUNK) * self.stride;
        &mut self.chunks[ord / ROWS_PER_CHUNK][at..at + self.stride]
    }

    /// Append one row. Every row of a slab has the same length: row
    /// offsets are computed from it, so a mismatch panics rather than
    /// shifting every later row.
    fn push(&mut self, row: impl ExactSizeIterator<Item = T>) {
        if self.len == 0 {
            self.stride = row.len();
        }
        assert_eq!(row.len(), self.stride, "row slab holds one stride");
        if self.len.is_multiple_of(ROWS_PER_CHUNK) {
            self.chunks
                .push(Vec::with_capacity(ROWS_PER_CHUNK * self.stride));
        }
        let chunk = self.chunks.last_mut().expect("a chunk was just ensured");
        chunk.extend(row);
        self.len += 1;
    }

    /// All rows in order.
    fn iter(&self) -> impl Iterator<Item = &[T]> {
        (0..self.len).map(|ord| self.row(ord))
    }

    /// Bytes of heap the slab holds, spare capacity included.
    fn heap_bytes(&self) -> usize {
        let rows: usize = self.chunks.iter().map(|c| c.capacity()).sum();
        rows * size_of::<T>() + self.chunks.capacity() * size_of::<Vec<T>>()
    }
}

/// Largest dimension a snapshot may declare. A slab allocates a whole chunk
/// for its first row, so the dimension is bounded before anything is sized
/// from it.
const MAX_DIM: usize = 1 << 16;

/// Encoded size of one `dim`-float row, `dim` checked against [`MAX_DIM`].
fn row_bytes(dim: usize) -> Result<usize, PersistError> {
    if dim > MAX_DIM {
        return Err(PersistError::BadTag(dim as u8));
    }
    Ok(dim * 4)
}

impl RowSlab<f32> {
    /// Decode a snapshot's slab section — `n` rows of `dim` little-endian
    /// floats — straight into chunks: one pass, no per-vector allocation.
    /// Every row must be unit (or zero), as the header's
    /// [`FLAG_UNIT_NORM`] promises and every fused dot assumes.
    fn decode(buf: &mut Bytes, n: usize, dim: usize) -> Result<RowSlab<f32>, PersistError> {
        let row_bytes = row_bytes(dim)?;
        let total = n.checked_mul(row_bytes).ok_or(PersistError::Truncated)?;
        if buf.remaining() < total {
            return Err(PersistError::Truncated);
        }
        let mut rows = RowSlab::default();
        for ord in 0..n {
            let raw = buf.copy_to_bytes(row_bytes);
            rows.push(
                raw.chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
            );
            if !kernel::is_unit_or_zero(rows.row(ord)) {
                return Err(PersistError::Corrupt("a stored vector is not unit length"));
            }
        }
        Ok(rows)
    }

    /// Encode every row's components as little-endian floats, in order.
    fn put_rows(&self, buf: &mut BytesMut) {
        for row in self.iter() {
            for &x in row {
                buf.put_f32_le(x);
            }
        }
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
#[derive(Debug, Default)]
pub struct FlatIndex {
    ids: Vec<InstanceId>,
    /// Unit rows, parallel to `ids`; the stride is the index's dimension,
    /// fixed by the first `add` (0 while empty).
    rows: RowSlab<f32>,
    deleted: Vec<bool>,
    dead: usize,
    generation: u64,
    compactions: u64,
}

impl FlatIndex {
    /// Empty index.
    pub fn new() -> FlatIndex {
        FlatIndex::default()
    }

    /// Mutation generation: bumped on every add/remove, persisted in
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

    /// Bytes of heap the index holds (rows, ids, tombstones), spare
    /// capacity included.
    pub fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes()
            + self.ids.capacity() * size_of::<InstanceId>()
            + self.deleted.capacity()
    }

    /// Drop tombstoned entries now, preserving live insertion order.
    pub fn compact(&mut self) {
        if self.dead == 0 {
            return;
        }
        let live = self.ids.len() - self.dead;
        let mut ids = Vec::with_capacity(live);
        let mut rows = RowSlab::default();
        for ord in 0..self.ids.len() {
            if !self.deleted[ord] {
                ids.push(self.ids[ord]);
                rows.push(self.rows.row(ord).iter().copied());
            }
        }
        self.ids = ids;
        self.rows = rows;
        self.deleted = vec![false; self.ids.len()];
        self.dead = 0;
        self.compactions += 1;
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

/// The flags byte of every flat snapshot: unit rows.
const FLAT_FLAGS: u8 = FLAG_UNIT_NORM;

impl FlatIndex {
    /// Serialize the index into a binary snapshot: generation, counts, ids,
    /// tombstone bytes, then every vector's components as one contiguous
    /// `f32` slab.
    pub fn to_bytes(&self) -> Bytes {
        let dim = self.rows.stride();
        let n = self.ids.len();
        let mut buf = BytesMut::with_capacity(48 + n * (10 + dim * 4));
        persist::put_header(&mut buf, SnapshotKind::Flat, FLAT_FLAGS);
        buf.put_u64_le(self.generation);
        buf.put_u32_le(n as u32);
        buf.put_u32_le(dim as u32);
        for id in &self.ids {
            persist::put_instance_id(&mut buf, *id);
        }
        for &d in &self.deleted {
            buf.put_u8(d as u8);
        }
        self.rows.put_rows(&mut buf);
        buf.freeze()
    }

    /// Reconstruct an index from a snapshot produced by [`Self::to_bytes`]:
    /// the slab section decodes in one bulk pass straight into the row
    /// slab, every row checked unit.
    pub fn from_bytes(mut buf: Bytes) -> Result<FlatIndex, PersistError> {
        persist::check_header(&mut buf, SnapshotKind::Flat, FLAT_FLAGS)?;
        let generation = persist::get_u64(&mut buf)?;
        // Every entry carries at least its 9-byte id.
        let n = persist::get_count(&mut buf, 9)?;
        let dim = persist::get_u32(&mut buf)? as usize;
        let ids = get_instance_ids(&mut buf, n)?;
        let (deleted, dead) = get_tombstones(&mut buf, n)?;
        let rows = RowSlab::decode(&mut buf, n, dim)?;
        persist::finish(&buf)?;
        Ok(FlatIndex {
            ids,
            rows,
            deleted,
            dead,
            generation,
            compactions: 0,
        })
    }
}

/// Decode `n` instance ids.
fn get_instance_ids(buf: &mut Bytes, n: usize) -> Result<Vec<InstanceId>, PersistError> {
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(persist::get_instance_id(buf)?);
    }
    Ok(ids)
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

impl VectorIndex for FlatIndex {
    fn add(&mut self, id: InstanceId, mut vector: Vector) {
        vector.normalize();
        self.rows.push(vector.iter().copied());
        self.ids.push(id);
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
        let q = query.to_unit();
        let dim = self.rows.stride();
        let mut heap: BinaryHeap<MinEntry> = BinaryHeap::with_capacity(k + 1);
        let mut scored = 0u64;
        for (ord, row) in self.rows.iter().enumerate() {
            if self.deleted[ord] {
                continue;
            }
            scored += 1;
            let score = kernel::dot_unit(row, &q) as f64;
            heap.push(MinEntry {
                score,
                ord,
                id: self.ids[ord],
            });
            if heap.len() > k {
                heap.pop();
            }
        }
        meter::charge_scan(scored, scored * (dim * 4) as u64);
        let mut hits: Vec<SearchHit> = heap
            .into_iter()
            .map(|e| SearchHit::new(self.ids[e.ord], e.score))
            .collect();
        sort_hits(&mut hits);
        hits
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
    /// Candidate-list width during construction: how many nodes the
    /// search for a new node gathers before Alg. 4 ([`HnswIndex::insert_all`])
    /// selects its list from them. Default 64, the smallest of
    /// {48, 64, 80, 100} whose graphs pass the `small`-lake recall gate
    /// (`tests/semantic_recall.rs`) at seeds 42 and 7: the rule makes the
    /// graph navigable, so a wider list buys recall the gate does not need.
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
            ef_construction: 64,
            ef_search: 64,
            seed: 0x9e37,
        }
    }
}

/// Largest `m` an index accepts: edge-list lengths are stored as `u16` and
/// a layer-0 list holds `2 * m` edges. Also what bounds the adjacency
/// allocation a snapshot's `m` field can ask for.
const MAX_M: usize = 1 << 12;

/// Highest level [`HnswIndex::draw_level`] can draw.
const MAX_LEVEL: usize = 16;

/// End of an id chain in [`HnswIndex`]'s id index.
const NO_ORD: u32 = u32::MAX;

/// One directed HNSW edge: 8 bytes. The endpoint similarity is cached at
/// creation time — stored vectors are immutable (and unit), so the cache
/// is exact — and the distance every comparison uses is derived from it by
/// the same `1.0 - sim as f64` that produced it in `search_layer`, so the
/// back-link prune sorts on the very values a 16-byte `{ord, dist: f64}`
/// edge would hold. Snapshots store that derived distance; load re-derives
/// the similarity from the rows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Edge {
    ord: u32,
    sim: f32,
}

impl Edge {
    /// Cosine distance to the endpoint: lower is closer.
    #[inline]
    fn dist(self) -> f64 {
        1.0 - self.sim as f64
    }
}

/// Edge lists in fixed-stride slots: list `r` holds up to `max_conn` edges,
/// `lens[r]` of them in use. No per-list allocation, and a list is one
/// index computation away from its number.
#[derive(Debug)]
struct EdgeLists {
    max_conn: usize,
    slots: RowSlab<Edge>,
    lens: Vec<u16>,
}

impl EdgeLists {
    fn new(max_conn: usize) -> EdgeLists {
        EdgeLists {
            max_conn,
            slots: RowSlab::default(),
            lens: Vec::new(),
        }
    }

    /// Append an empty list.
    fn push_list(&mut self) {
        self.slots
            .push(std::iter::repeat_n(Edge::default(), self.max_conn));
        self.lens.push(0);
    }

    /// The edges of list `r`.
    #[inline]
    fn edges(&self, r: usize) -> &[Edge] {
        &self.slots.row(r)[..self.lens[r] as usize]
    }

    /// The edges of list `r`, writable.
    fn edges_mut(&mut self, r: usize) -> &mut [Edge] {
        &mut self.slots.row_mut(r)[..self.lens[r] as usize]
    }

    /// Replace list `r` with `edges` (at most `max_conn` of them are taken).
    fn set(&mut self, r: usize, edges: impl Iterator<Item = Edge>) {
        let mut len = 0;
        for (slot, edge) in self.slots.row_mut(r).iter_mut().zip(edges) {
            *slot = edge;
            len += 1;
        }
        self.lens[r] = len;
    }

    /// Leave in `out` what list `r` holds once the back-links `new` (in node
    /// order) join it; the list itself is not touched. While everything
    /// fits, that is the list followed by `new`. Past `max_conn`, the
    /// merged list is pruned once with [`select_diverse`] — a stable sort
    /// by distance over (list order, then `new`), through `spill` — so a
    /// full list keeps the edges that reach different directions, not the
    /// `max_conn` closest ones.
    fn link(
        &self,
        r: usize,
        new: impl Iterator<Item = Edge>,
        between: impl Fn(u32, u32) -> f64,
        spill: &mut Vec<Edge>,
        out: &mut Vec<Edge>,
    ) {
        out.clear();
        out.extend_from_slice(self.edges(r));
        out.extend(new);
        if out.len() <= self.max_conn {
            return;
        }
        std::mem::swap(spill, out);
        spill.sort_by(|a, b| a.dist().partial_cmp(&b.dist()).unwrap_or(Ordering::Equal));
        select_diverse(spill, self.max_conn, between, out);
    }

    fn heap_bytes(&self) -> usize {
        self.slots.heap_bytes() + self.lens.capacity() * size_of::<u16>()
    }
}

/// Malkov & Yashunin's neighbour selection (HNSW, Alg. 4, without its
/// optional extensions): walk `cands` closest first and keep an edge only
/// when its endpoint is closer to the owner than to every endpoint already
/// kept, until `max` are kept. A candidate that a kept edge is at least as
/// close to is covered by that edge, so the kept edges point in different
/// directions and a walk can leave a dense cluster through them.
///
/// `cands` must be sorted closest first (ties in any fixed order, which
/// decides among them); `between(a, b)` is the distance between two
/// endpoints. An endpoint already kept is skipped.
fn select_diverse(
    cands: &[Edge],
    max: usize,
    between: impl Fn(u32, u32) -> f64,
    out: &mut Vec<Edge>,
) {
    out.clear();
    for &c in cands {
        if out.len() >= max {
            break;
        }
        let to_owner = c.dist();
        if out
            .iter()
            .all(|k| k.ord != c.ord && to_owner < between(c.ord, k.ord))
        {
            out.push(c);
        }
    }
}

/// The graph's shape: each node's level and its edges on every layer up to
/// it. Layer 0 is flat — node `ord`'s edges are list `ord` of `layer0`,
/// `2 * m` slots each. Only one node in `m` is drawn above layer 0, so the
/// upper layers are sparse: such a node's layer-`l` edges are list
/// `tower[ord] + l - 1` of `upper`, `m` slots each.
#[derive(Debug)]
struct Graph {
    levels: Vec<u8>,
    layer0: EdgeLists,
    upper: EdgeLists,
    /// First `upper` list of each node; unread for level-0 nodes.
    tower: Vec<u32>,
}

impl Graph {
    fn new(m: usize) -> Graph {
        Graph {
            levels: Vec::new(),
            layer0: EdgeLists::new(m * 2),
            upper: EdgeLists::new(m),
            tower: Vec::new(),
        }
    }

    /// Node `ord`'s level.
    fn level(&self, ord: u32) -> usize {
        self.levels[ord as usize] as usize
    }

    /// Append a node with empty edge lists on layers `0..=level`.
    fn push_node(&mut self, level: usize) {
        self.levels.push(level as u8);
        self.layer0.push_list();
        self.tower.push(self.upper.lens.len() as u32);
        for _ in 0..level {
            self.upper.push_list();
        }
    }

    /// Where node `ord`'s edges at `layer` (at most its level) live.
    #[inline]
    fn list_of(&self, ord: u32, layer: usize) -> usize {
        match layer {
            0 => ord as usize,
            _ => self.tower[ord as usize] as usize + layer - 1,
        }
    }

    /// Node `ord`'s edges at `layer` (at most its level).
    #[inline]
    fn edges(&self, ord: u32, layer: usize) -> &[Edge] {
        let r = self.list_of(ord, layer);
        match layer {
            0 => self.layer0.edges(r),
            _ => self.upper.edges(r),
        }
    }

    /// The lists of `layer`.
    fn lists(&self, layer: usize) -> &EdgeLists {
        match layer {
            0 => &self.layer0,
            _ => &self.upper,
        }
    }

    /// The lists of `layer` and node `ord`'s list among them.
    fn list_mut(&mut self, ord: u32, layer: usize) -> (&mut EdgeLists, usize) {
        let r = self.list_of(ord, layer);
        match layer {
            0 => (&mut self.layer0, r),
            _ => (&mut self.upper, r),
        }
    }

    /// Encode node `ord`'s edge lists, layer 0 upward: layer count, then
    /// per layer a length and the endpoint ordinals, each with its
    /// distance.
    fn put_node(&self, buf: &mut BytesMut, ord: u32) {
        let layers = self.level(ord) + 1;
        buf.put_u32_le(layers as u32);
        for layer in 0..layers {
            let edges = self.edges(ord, layer);
            buf.put_u32_le(edges.len() as u32);
            for e in edges {
                buf.put_u32_le(e.ord);
                buf.put_f64_le(e.dist());
            }
        }
    }

    /// Decode one node's edge lists as [`Self::put_node`] wrote them,
    /// appending the node; `n` is the snapshot's node count. The stored
    /// distances are skipped: similarities are left zero for
    /// [`HnswIndex::derive_edge_sims`].
    fn get_node(&mut self, buf: &mut Bytes, n: usize) -> Result<(), PersistError> {
        let layers = persist::get_u32(buf)? as usize;
        if layers == 0 || layers > MAX_LEVEL + 1 {
            return Err(PersistError::BadTag(layers as u8));
        }
        let ord = self.levels.len() as u32;
        self.push_node(layers - 1);
        for layer in 0..layers {
            let (lists, r) = self.list_mut(ord, layer);
            let len = persist::get_u32(buf)? as usize;
            if len > lists.max_conn {
                return Err(PersistError::BadTag(len as u8));
            }
            lists.lens[r] = len as u16;
            for slot in lists.edges_mut(r) {
                let to = persist::get_u32(buf)?;
                if to as usize >= n {
                    return Err(PersistError::BadTag(to as u8));
                }
                persist::get_f64(buf)?;
                *slot = Edge { ord: to, sim: 0.0 };
            }
        }
        Ok(())
    }

    /// Reject a decoded graph a walk could step out of: an edge at a layer
    /// its endpoint does not reach, or an entry point below the top layer.
    fn check(&self, entry: Option<u32>, max_level: usize) -> Result<(), PersistError> {
        let n = self.levels.len();
        match entry {
            Some(e) if (e as usize) < n && self.level(e) >= max_level => {}
            None if n == 0 => {}
            _ => return Err(PersistError::BadTag(max_level as u8)),
        }
        for ord in 0..n as u32 {
            for layer in 1..=self.level(ord) {
                if self
                    .edges(ord, layer)
                    .iter()
                    .any(|e| self.level(e.ord) < layer)
                {
                    return Err(PersistError::BadTag(layer as u8));
                }
            }
        }
        Ok(())
    }

    fn heap_bytes(&self) -> usize {
        self.layer0.heap_bytes()
            + self.upper.heap_bytes()
            + self.levels.capacity()
            + self.tower.capacity() * size_of::<u32>()
    }
}

/// Hierarchical Navigable Small World graph over cosine similarity.
///
/// Insertion is one batch step ([`HnswIndex::insert_all`] feeds it growing
/// batches; `add` is a batch of one), and every list is selected with Alg.
/// 4 of Malkov & Yashunin. Deletion is tombstoning — removed nodes keep
/// their edges and keep routing searches, they just cannot be returned. A
/// tombstone is scored and expanded like any node but never takes a result
/// slot, so a search holds `max(ef_search, k)` *live* results without
/// widening its list as tombstones accumulate. An explicit [`HnswIndex::compact`] rebuilds the
/// graph from the live nodes when the caller decides the dead weight is
/// worth shedding.
///
/// A node is an ordinal into parallel arrays, not an allocation: its unit
/// row in `rows`, its id and tombstone, its level and edges in `graph`.
#[derive(Debug)]
pub struct HnswIndex {
    config: HnswConfig,
    rows: RowSlab<f32>,
    ids: Vec<InstanceId>,
    deleted: Vec<bool>,
    /// The id index `remove` walks instead of scanning `ids`: a live id's
    /// newest ordinal, and per ordinal the next older live ordinal of the
    /// same id (`NO_ORD` ends the chain), so a document's chunks form one
    /// chain. Dead ordinals keep stale links no chain reaches. Not
    /// persisted: rebuilt from `ids` and `deleted`.
    newest: HashMap<InstanceId, u32>,
    older: Vec<u32>,
    graph: Graph,
    entry: Option<u32>,
    max_level: usize,
    dead: usize,
    generation: u64,
    compactions: u64,
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
    #[inline]
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

/// A scored node: what the search heaps and `search_layer`'s output hold.
/// Ordered by `(dist, ord)`; the similarity rides along so a result can
/// become an [`Edge`].
#[derive(Debug, Clone, Copy)]
struct Scored {
    dist: f64,
    ord: u32,
    sim: f32,
}

impl PartialEq for Scored {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.ord == other.ord
    }
}
impl Eq for Scored {}
impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.ord.cmp(&other.ord))
    }
}

/// Which reached nodes a graph walk may return. Construction links a new
/// node to whatever is closest, tombstones included; a search returns live
/// nodes only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    Every,
    Live,
}

/// Everything a graph walk needs besides the graph, kept per thread so
/// concurrent searches share nothing and a steady-state search allocates
/// only its result. The visited stamps serve every index the thread
/// searches: an epoch is never reused, so another index's stale stamps
/// read as unvisited.
#[derive(Default)]
struct Scratch {
    visited: VisitedSet,
    /// Closest first.
    candidates: BinaryHeap<Reverse<Scored>>,
    /// Farthest first, so the worst can be evicted.
    results: BinaryHeap<Scored>,
    /// The popped candidate's not-yet-visited neighbours, in edge order.
    unvisited: Vec<u32>,
    /// `search_layer`'s output, ascending by distance.
    found: Vec<Scored>,
    /// The candidates a list is selected from: `found` as edges, or a
    /// merged list being pruned.
    spill: Vec<Edge>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Hint every cache line of a row toward L1 ahead of the dot that will
/// read it — graph walks touch rows the hardware stride prefetcher cannot
/// predict. No-op off x86_64.
#[inline(always)]
fn prefetch_row(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    for line in row.chunks(16) {
        // SAFETY: a prefetch is a hint with no architectural effect — it
        // cannot fault — and the address is inside `row` regardless.
        unsafe {
            std::arch::x86_64::_mm_prefetch(
                line.as_ptr() as *const i8,
                std::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// A construction batch holds at most `⌈len / BATCH_FRACTION⌉` nodes of
/// an index of `len` (and at least one).
const BATCH_FRACTION: usize = 50;

/// Slots a construction worker takes at a time.
const GRAIN: usize = 8;

/// One node of a construction batch, as its search left it.
#[derive(Default)]
struct Placed {
    /// Its id and unit row.
    node: Option<(InstanceId, Vector)>,
    level: usize,
    /// The list it selected on each layer `0..=level`.
    lists: Vec<Vec<Edge>>,
}

/// The back-links of one batch that land in one list.
#[derive(Default)]
struct Link {
    layer: usize,
    target: u32,
    /// Its new edges: `Batch::backs[from..to]`.
    from: usize,
    to: usize,
    /// What the list holds after the batch.
    out: Vec<Edge>,
}

/// The batch step's buffers, which the caller owns across batches. Each
/// worker writes only its own slots.
#[derive(Default)]
struct Batch {
    placed: Vec<Placed>,
    /// Every back-link of the batch: layer, target, the edge to the node.
    backs: Vec<(usize, u32, Edge)>,
    links: Vec<Link>,
}

/// Run `work(i, &mut slots[i])` for every slot over up to `threads` scoped
/// workers, the calling thread among them. Workers take runs of [`GRAIN`]
/// slots in turn. What a slot ends up holding must depend only on `i`,
/// never on which worker filled it or when.
fn for_each_slot<S: Send>(threads: usize, slots: &mut [S], work: impl Fn(usize, &mut S) + Sync) {
    let workers = threads.min(slots.len().div_ceil(GRAIN));
    if workers <= 1 {
        slots.iter_mut().enumerate().for_each(|(i, s)| work(i, s));
        return;
    }
    let runs = Mutex::new(slots.chunks_mut(GRAIN).enumerate());
    let drain = || loop {
        let next = runs
            .lock()
            .expect("no worker panics holding the runs")
            .next();
        let Some((run, chunk)) = next else {
            return;
        };
        for (j, slot) in chunk.iter_mut().enumerate() {
            work(run * GRAIN + j, slot);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(drain);
        }
        drain();
    });
}

impl HnswIndex {
    /// Empty index with the given parameters. Panics when `config.m`
    /// exceeds 4096.
    pub fn new(config: HnswConfig) -> HnswIndex {
        assert!(config.m <= MAX_M, "hnsw m {} exceeds {MAX_M}", config.m);
        HnswIndex {
            config,
            rows: RowSlab::default(),
            ids: Vec::new(),
            deleted: Vec::new(),
            newest: HashMap::new(),
            older: Vec::new(),
            graph: Graph::new(config.m),
            entry: None,
            max_level: 0,
            dead: 0,
            generation: 0,
            compactions: 0,
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

    /// Mutation generation: bumped on every add/remove, persisted in
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

    /// Bytes of heap the index holds (rows, edge lists, ids, tombstones,
    /// levels, the id index), spare capacity included. The per-thread
    /// search scratch belongs to the searching threads, not the index, and
    /// is not counted.
    pub fn heap_bytes(&self) -> usize {
        // A hash table's buckets hold an entry and a control byte each, at
        // most 7/8 of them full.
        let newest = self.newest.capacity().div_ceil(7) * 8 * (size_of::<(InstanceId, u32)>() + 1);
        self.rows.heap_bytes()
            + self.graph.heap_bytes()
            + self.ids.capacity() * size_of::<InstanceId>()
            + self.deleted.capacity()
            + newest
            + self.older.capacity() * size_of::<u32>()
    }

    /// Chain `ord`, just stored under `id`, into the id index.
    fn index_id(&mut self, id: InstanceId, ord: u32) {
        self.older
            .push(self.newest.insert(id, ord).unwrap_or(NO_ORD));
    }

    /// Rebuild the graph from the live nodes (insertion order preserved)
    /// through [`HnswIndex::insert_all`] on `threads` workers, shedding
    /// tombstones. Unlike the flat index this is not triggered
    /// automatically: a rebuild re-runs construction, so the caller (the
    /// live compaction, an operator) decides when it pays. The rebuilt
    /// graph is the same for every `threads`.
    pub fn compact(&mut self, threads: usize) {
        if self.dead == 0 {
            return;
        }
        let live: Vec<usize> = (0..self.ids.len()).filter(|&o| !self.deleted[o]).collect();
        let mut fresh = HnswIndex::new(self.config);
        fresh.insert_all(&live, threads, |&ord| {
            (self.ids[ord], Vector::from_vec(self.rows.row(ord).to_vec()))
        });
        fresh.generation = self.generation;
        fresh.compactions = self.compactions + 1;
        *self = fresh;
    }

    /// Insert every item, in order, as the node `vector_of` makes of it:
    /// the bulk entry point. The items go in as a sequence of batch steps
    /// (`HnswIndex::insert_batch`) whose searches and back-link merges
    /// spread over `threads` workers, and each batch is made into vectors
    /// only when its turn comes, by the workers that search it.
    ///
    /// The batches grow with the graph, in the style of ParlayANN's
    /// prefix-doubling build (Manohar et al., PPoPP 2024): one holds at
    /// most `⌈len / 50⌉` nodes (at least one) of an index of `len`, so no
    /// batch is searched against a graph much smaller than itself, and a
    /// node whose level would raise the top layer goes in alone. The
    /// schedule is a function of the index length and the level draws, and
    /// no step depends on which worker ran what, so the graph — every
    /// snapshot byte — is the same for every `threads`.
    pub fn insert_all<T: Sync>(
        &mut self,
        items: &[T],
        threads: usize,
        vector_of: impl Fn(&T) -> (InstanceId, Vector) + Sync,
    ) {
        let mut batch = Batch::default();
        let mut at = 0;
        while at < items.len() {
            let n = self.batch_len(items.len() - at);
            self.insert_batch(&items[at..at + n], threads, &vector_of, &mut batch);
            at += n;
        }
    }

    /// Nodes in the next batch, of `remaining` still to insert.
    fn batch_len(&self, remaining: usize) -> usize {
        let len = self.ids.len();
        let cap = len.div_ceil(BATCH_FRACTION).clamp(1, remaining);
        let stays_below_top =
            |i: usize| self.entry.is_some() && self.draw_level(len + i) <= self.max_level;
        if !stays_below_top(0) {
            return 1;
        }
        (1..cap).find(|&i| !stays_below_top(i)).unwrap_or(cap)
    }

    /// The one insertion step: append `items` as nodes, linked as a batch.
    ///
    /// 1. Each node is made into its unit vector and searched against the
    ///    graph as it stood when the batch began, and selects its list on
    ///    every layer with [`select_diverse`]. The searches only read the
    ///    graph, so they run in parallel, each worker writing only its own
    ///    slots of `batch`; the nodes of one batch do not see each other.
    /// 2. The nodes are appended in order, with their lists.
    /// 3. Each back-link (new node → endpoint) is grouped by the list it
    ///    lands in. Each such list takes its new edges in node order and is
    ///    pruned once, with the same rule, if they overflow it. The merged
    ///    lists are computed in parallel from the lists as they stand, then
    ///    written.
    ///
    /// The caller sees to it that at most a batch of one raises the top
    /// layer ([`HnswIndex::batch_len`]).
    fn insert_batch<T: Sync>(
        &mut self,
        items: &[T],
        threads: usize,
        vector_of: &(impl Fn(&T) -> (InstanceId, Vector) + Sync),
        batch: &mut Batch,
    ) {
        let base = self.ids.len();
        if batch.placed.len() < items.len() {
            batch.placed.resize_with(items.len(), Placed::default);
        }
        let placed = &mut batch.placed[..items.len()];
        let this = &*self;
        for_each_slot(threads, placed, |i, slot| {
            let (id, mut row) = vector_of(&items[i]);
            // Checked before the search dots it with the stored rows.
            let stride = this.rows.stride();
            assert!(
                stride == 0 || row.len() == stride,
                "row slab holds one stride"
            );
            row.normalize();
            slot.level = this.draw_level(base + i);
            SCRATCH
                .with_borrow_mut(|scratch| this.place(&row, slot.level, scratch, &mut slot.lists));
            slot.node = Some((id, row));
        });

        batch.backs.clear();
        for (i, slot) in placed.iter_mut().enumerate() {
            let ord = (base + i) as u32;
            let (id, row) = slot.node.take().expect("every slot was placed");
            self.rows.push(row.iter().copied());
            self.ids.push(id);
            self.deleted.push(false);
            self.index_id(id, ord);
            self.graph.push_node(slot.level);
            self.generation += 1;
            for (layer, list) in slot.lists.iter().enumerate() {
                let (lists, r) = self.graph.list_mut(ord, layer);
                lists.set(r, list.iter().copied());
                batch.backs.extend(list.iter().map(|e| {
                    let back = Edge { ord, sim: e.sim };
                    (layer, e.ord, back)
                }));
            }
        }

        // Stable: within a list's group, back-links stay in node order.
        batch
            .backs
            .sort_by_key(|&(layer, target, _)| (layer, target));
        let mut groups = 0;
        let mut from = 0;
        for run in batch.backs.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            if groups == batch.links.len() {
                batch.links.push(Link::default());
            }
            let link = &mut batch.links[groups];
            (link.layer, link.target, link.from) = (run[0].0, run[0].1, from);
            from += run.len();
            link.to = from;
            groups += 1;
        }
        let backs = &batch.backs;
        let this = &*self;
        for_each_slot(threads, &mut batch.links[..groups], |_, link| {
            let new = backs[link.from..link.to].iter().map(|&(_, _, e)| e);
            SCRATCH.with_borrow_mut(|scratch| {
                this.graph.lists(link.layer).link(
                    this.graph.list_of(link.target, link.layer),
                    new,
                    |a, b| this.between(a, b),
                    &mut scratch.spill,
                    &mut link.out,
                )
            });
        });
        for link in &batch.links[..groups] {
            let (lists, r) = self.graph.list_mut(link.target, link.layer);
            lists.set(r, link.out.iter().copied());
        }

        // Only a batch of one can raise the top layer, or start the graph.
        let first = base as u32;
        let level = self.graph.level(first);
        if self.entry.is_none() || level > self.max_level {
            debug_assert_eq!(items.len(), 1, "a batch raised the top layer");
            self.entry = Some(first);
            self.max_level = level;
        }
    }

    /// Search the graph as it stands for a node of `level` with unit row
    /// `q`, and leave in `lists[l]` the list it selects on each layer
    /// `l <= level` (empty above the graph's top layer).
    fn place(&self, q: &[f32], level: usize, scratch: &mut Scratch, lists: &mut Vec<Vec<Edge>>) {
        lists.resize_with(level + 1, Vec::new);
        lists.iter_mut().for_each(Vec::clear);
        let Some(mut entry) = self.entry else {
            return;
        };
        for l in ((level + 1)..=self.max_level).rev() {
            entry = self.greedy_at_layer(entry, q, l);
        }
        for l in (0..=level.min(self.max_level)).rev() {
            self.search_layer(
                scratch,
                entry,
                q,
                l,
                self.config.ef_construction,
                Admit::Every,
            );
            scratch.spill.clear();
            scratch.spill.extend(scratch.found.iter().map(|f| Edge {
                ord: f.ord,
                sim: f.sim,
            }));
            let max = self.graph.lists(l).max_conn;
            select_diverse(
                &scratch.spill,
                max,
                |a, b| self.between(a, b),
                &mut lists[l],
            );
            if let Some(best) = scratch.found.first() {
                entry = best.ord;
            }
        }
    }

    /// Cosine distance between two stored nodes.
    #[inline]
    fn between(&self, a: u32, b: u32) -> f64 {
        1.0 - kernel::dot_unit(self.rows.row(a as usize), self.rows.row(b as usize)) as f64
    }

    /// The node's similarity to `q` and the cosine *distance*
    /// (1 - similarity, lower is closer) every ordering uses. A single
    /// fused dot — both operands are unit by the index invariant (`q` must
    /// be pre-normalized by the caller, which `add`/`search` guarantee).
    #[inline]
    fn score(&self, ord: u32, q: &[f32]) -> Scored {
        let sim = kernel::dot_unit(self.rows.row(ord as usize), q);
        Scored {
            dist: 1.0 - sim as f64,
            ord,
            sim,
        }
    }

    /// Deterministic geometric level for the `ord`-th insertion.
    fn draw_level(&self, ord: usize) -> usize {
        // P(level >= l) = (1/m)^l, derived from a hash of (seed, ord).
        let mut h = verifai_embed::hashing::splitmix64(self.config.seed ^ (ord as u64) << 1);
        let mut level = 0usize;
        let threshold = u64::MAX / self.config.m.max(2) as u64;
        while h < threshold && level < MAX_LEVEL {
            level += 1;
            h = verifai_embed::hashing::splitmix64(h);
        }
        level
    }

    /// Greedy descent from the entry point to the closest node at `layer`.
    /// A node's neighbours are all prefetched before the first is scored,
    /// hiding the row misses behind one another.
    fn greedy_at_layer(&self, start: u32, q: &[f32], layer: usize) -> u32 {
        let mut cur = self.score(start, q);
        let mut evals = 1u64;
        loop {
            let mut improved = false;
            let edges = self.graph.edges(cur.ord, layer);
            evals += edges.len() as u64;
            for e in edges {
                prefetch_row(self.rows.row(e.ord as usize));
            }
            for e in edges {
                let next = self.score(e.ord, q);
                if next.dist < cur.dist {
                    cur = next;
                    improved = true;
                }
            }
            if !improved {
                meter::charge_scan(evals, evals * (q.len() * 4) as u64);
                return cur.ord;
            }
        }
    }

    /// Best-first search at one layer, leaving up to `ef` closest admitted
    /// nodes in `scratch.found`, ascending by distance.
    ///
    /// Every reached node is scored, becomes a candidate and is expanded;
    /// `admit` decides only which ones may take a result slot. "Results
    /// full" and "worst result" count admitted nodes alone, so a walk that
    /// holds fewer than `ef` of them admits every neighbour as a candidate.
    /// On a graph without tombstones both rules make the same pushes and
    /// pops.
    ///
    /// Each popped candidate's unvisited neighbours are gathered (and
    /// marked) first, every cache line of their rows prefetched, and only
    /// then scored — in edge order, so the heaps see exactly the sequence
    /// of pushes and pops a score-as-you-go walk makes, and ties fall the
    /// same way.
    fn search_layer(
        &self,
        scratch: &mut Scratch,
        entry: u32,
        q: &[f32],
        layer: usize,
        ef: usize,
        admit: Admit,
    ) {
        let admits = |ord: u32| admit == Admit::Every || !self.deleted[ord as usize];
        let Scratch {
            visited,
            candidates,
            results,
            unvisited,
            found,
            ..
        } = scratch;
        visited.begin(self.ids.len());
        visited.insert(entry);
        candidates.clear();
        results.clear();
        let first = self.score(entry, q);
        let mut evals = 1u64;
        candidates.push(Reverse(first));
        if admits(entry) {
            results.push(first);
        }

        while let Some(Reverse(c)) = candidates.pop() {
            let worst = results.peek().map_or(f64::INFINITY, |r| r.dist);
            if c.dist > worst && results.len() >= ef {
                break;
            }
            unvisited.clear();
            for e in self.graph.edges(c.ord, layer) {
                if visited.insert(e.ord) {
                    prefetch_row(self.rows.row(e.ord as usize));
                    unvisited.push(e.ord);
                }
            }
            evals += unvisited.len() as u64;
            for &ord in unvisited.iter() {
                let next = self.score(ord, q);
                let worst = results.peek().map_or(f64::INFINITY, |r| r.dist);
                if results.len() < ef || next.dist < worst {
                    candidates.push(Reverse(next));
                    if admits(ord) {
                        results.push(next);
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
        }
        meter::charge_scan(evals, evals * (q.len() * 4) as u64);
        // The sort is stable over the heap's internal order, which the
        // push/pop sequence above determines: distance ties keep it.
        found.clear();
        found.extend(results.drain());
        found.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap_or(Ordering::Equal));
    }
}

impl HnswIndex {
    /// Serialize the graph into a binary snapshot: generation, config, top
    /// level, entry point, counts, ids, tombstones, adjacency **with cached
    /// edge distances**, then every vector's components as one contiguous
    /// `f32` slab.
    pub fn to_bytes(&self) -> Bytes {
        let dim = self.rows.stride();
        let n = self.ids.len();
        let per_node = 22 + dim * 4 + self.graph.layer0.max_conn * 12;
        let mut buf = BytesMut::with_capacity(64 + n * per_node);
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
        buf.put_u32_le(n as u32);
        buf.put_u32_le(dim as u32);
        for id in &self.ids {
            persist::put_instance_id(&mut buf, *id);
        }
        for &d in &self.deleted {
            buf.put_u8(d as u8);
        }
        for ord in 0..n as u32 {
            self.graph.put_node(&mut buf, ord);
        }
        self.rows.put_rows(&mut buf);
        buf.freeze()
    }

    /// Fill every edge's cached similarity from the (unit) rows — the same
    /// dot that scored the edge when it was created, so the derived
    /// distances are the ones the snapshot stored.
    fn derive_edge_sims(&mut self) {
        for ord in 0..self.ids.len() as u32 {
            let row = self.rows.row(ord as usize);
            for layer in 0..=self.graph.level(ord) {
                let (lists, r) = self.graph.list_mut(ord, layer);
                for e in lists.edges_mut(r) {
                    e.sim = kernel::dot_unit(row, self.rows.row(e.ord as usize));
                }
            }
        }
    }

    /// Reconstruct the graph from a snapshot produced by [`Self::to_bytes`]:
    /// the adjacency decodes straight into the edge slots (every endpoint
    /// and layer checked) and the slab section in one bulk pass into the row
    /// slab (every row checked unit), then the cached edge similarities are
    /// derived from the rows.
    pub fn from_bytes(mut buf: Bytes) -> Result<HnswIndex, PersistError> {
        persist::check_header(&mut buf, SnapshotKind::Hnsw, FLAG_UNIT_NORM)?;
        let generation = persist::get_u64(&mut buf)?;
        let m = persist::get_u32(&mut buf)? as usize;
        if m > MAX_M {
            return Err(PersistError::BadTag(m as u8));
        }
        let config = HnswConfig {
            m,
            ef_construction: persist::get_u32(&mut buf)? as usize,
            ef_search: persist::get_u32(&mut buf)? as usize,
            seed: persist::get_u64(&mut buf)?,
        };
        let mut idx = HnswIndex::new(config);
        idx.generation = generation;
        idx.max_level = persist::get_u32(&mut buf)? as usize;
        idx.entry = match persist::get_u8(&mut buf)? {
            0 => None,
            1 => Some(persist::get_u32(&mut buf)?),
            other => return Err(PersistError::BadTag(other)),
        };
        // Every node carries at least its 9-byte id.
        let n = persist::get_count(&mut buf, 9)?;
        let dim = persist::get_u32(&mut buf)? as usize;
        idx.ids = get_instance_ids(&mut buf, n)?;
        (idx.deleted, idx.dead) = get_tombstones(&mut buf, n)?;
        for ord in 0..n {
            if idx.deleted[ord] {
                idx.older.push(NO_ORD);
            } else {
                idx.index_id(idx.ids[ord], ord as u32);
            }
        }
        for _ in 0..n {
            idx.graph.get_node(&mut buf, n)?;
        }
        idx.rows = RowSlab::decode(&mut buf, n, dim)?;
        persist::finish(&buf)?;
        idx.graph.check(idx.entry, idx.max_level)?;
        idx.derive_edge_sims();
        Ok(idx)
    }
}

impl VectorIndex for HnswIndex {
    /// The batch step with a batch of one.
    fn add(&mut self, id: InstanceId, vector: Vector) {
        let node = (id, vector);
        self.insert_batch(
            std::slice::from_ref(&node),
            1,
            &|(id, v): &(InstanceId, Vector)| (*id, v.clone()),
            &mut Batch::default(),
        );
    }

    /// Tombstone every live ordinal of `id` by walking its chain in the id
    /// index: the cost is the id's chunk count, not the index size.
    fn remove(&mut self, id: InstanceId) -> bool {
        let Some(mut ord) = self.newest.remove(&id) else {
            return false;
        };
        while ord != NO_ORD {
            debug_assert!(!self.deleted[ord as usize] && self.ids[ord as usize] == id);
            self.deleted[ord as usize] = true;
            self.dead += 1;
            ord = self.older[ord as usize];
        }
        self.generation += 1;
        true
    }

    fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit> {
        let Some(mut entry) = self.entry else {
            return Vec::new();
        };
        if k == 0 || self.dead == self.ids.len() {
            return Vec::new();
        }
        let q = query.to_unit();
        for l in (1..=self.max_level).rev() {
            entry = self.greedy_at_layer(entry, &q, l);
        }
        // Tombstones route (their edges are intact) but take no result
        // slot: the walk holds up to `ef` live results at any dead count.
        let ef = self.config.ef_search.max(k);
        let mut hits: Vec<SearchHit> = SCRATCH.with_borrow_mut(|scratch| {
            self.search_layer(scratch, entry, &q, 0, ef, Admit::Live);
            debug_assert!(scratch.found.iter().all(|f| !self.deleted[f.ord as usize]));
            scratch
                .found
                .iter()
                .take(k)
                .map(|f| SearchHit::new(self.ids[f.ord as usize], 1.0 - f.dist))
                .collect()
        });
        sort_hits(&mut hits);
        hits
    }

    fn len(&self) -> usize {
        self.ids.len() - self.dead
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
    /// Approximate HNSW graph (boxed: it is more than twice a flat
    /// index's size).
    Hnsw(Box<HnswIndex>),
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

    /// Bytes of heap the wrapped index holds.
    pub fn heap_bytes(&self) -> usize {
        match self {
            AnyVectorIndex::Flat(i) => i.heap_bytes(),
            AnyVectorIndex::Hnsw(i) => i.heap_bytes(),
        }
    }

    /// Force a compaction of the wrapped index; an HNSW rebuild runs on
    /// `threads` workers.
    pub fn compact(&mut self, threads: usize) {
        match self {
            AnyVectorIndex::Flat(i) => i.compact(),
            AnyVectorIndex::Hnsw(i) => i.compact(threads),
        }
    }

    /// Insert every item, in order, as the vector `vector_of` makes of it:
    /// [`HnswIndex::insert_all`] on `threads` workers, or one flat `add`
    /// after another.
    pub fn insert_all<T: Sync>(
        &mut self,
        items: &[T],
        threads: usize,
        vector_of: impl Fn(&T) -> (InstanceId, Vector) + Sync,
    ) {
        match self {
            AnyVectorIndex::Flat(i) => {
                for item in items {
                    let (id, vector) = vector_of(item);
                    i.add(id, vector);
                }
            }
            AnyVectorIndex::Hnsw(i) => i.insert_all(items, threads, vector_of),
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
                Ok(AnyVectorIndex::Hnsw(Box::new(HnswIndex::from_bytes(buf)?)))
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
            AnyVectorIndex::Hnsw(i) => VectorIndex::remove(&mut **i, id),
        }
    }

    fn search(&self, query: &Vector, k: usize) -> Vec<SearchHit> {
        match self {
            AnyVectorIndex::Flat(i) => i.search(query, k),
            AnyVectorIndex::Hnsw(i) => i.search(query, k),
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
        // One unit row [1, 0]; its first float sits after the 7-byte header,
        // generation, counts, id and tombstone byte.
        let mut flat = FlatIndex::new();
        flat.add(tid(0), Vector::from_vec(vec![1.0, 0.0]));
        let good = flat.to_bytes().to_vec();
        let mut scaled = good.clone();
        scaled[33..37].copy_from_slice(&2.0f32.to_le_bytes());
        assert!(matches!(
            FlatIndex::from_bytes(Bytes::from(scaled)),
            Err(PersistError::Corrupt(_))
        ));
        // A dimension of 0 (at byte 19) decodes empty rows and leaves the
        // body unread; accepted, every search would dot rows of length 0
        // against a query of length 2.
        let mut flat_rows = good;
        flat_rows[19..23].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            FlatIndex::from_bytes(Bytes::from(flat_rows)),
            Err(PersistError::Corrupt(_))
        ));
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
    fn snapshot_load_allocates_per_chunk_not_per_vector_and_keeps_state() {
        // Enough rows to span chunks, with a ragged last one.
        let e = TextEmbedder::with_seed(11);
        let n = 2 * ROWS_PER_CHUNK + 44;
        let mut flat = FlatIndex::new();
        let mut hnsw = HnswIndex::with_defaults();
        for i in 0..n as u64 {
            let v = e.embed(&format!(
                "entity {} topic {} attribute {}",
                i,
                i % 17,
                i % 7
            ));
            flat.add(tid(i), v.clone());
            hnsw.add(tid(i), v);
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
        // The rows decoded into ⌈n / rows-per-chunk⌉ allocations, each of
        // exactly one chunk — as they stand in the index that was saved.
        for rows in [&flat2.rows, &hnsw2.rows, &flat.rows, &hnsw.rows] {
            assert_eq!(rows.len, n);
            assert_eq!(rows.chunks.len(), n.div_ceil(ROWS_PER_CHUNK));
            assert!(rows
                .chunks
                .iter()
                .all(|c| c.capacity() == ROWS_PER_CHUNK * rows.stride()));
        }
        // The reloaded graph is the saved graph, cached similarities
        // included: it snapshots to the same bytes.
        assert_eq!(hnsw2.to_bytes(), hnsw.to_bytes());
        assert_eq!(flat2.to_bytes(), flat.to_bytes());
        // And the tombstone survives the round-trip.
        let q = e.embed("entity 3 topic 3 attribute 3");
        assert!(flat2.search(&q, 8).iter().all(|h| h.id != tid(3)));
        assert!(hnsw2.search(&q, 8).iter().all(|h| h.id != tid(3)));
        assert_eq!(hnsw2.search(&q, 8), hnsw.search(&q, 8));
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
    fn hnsw_tombstone_routes_but_takes_no_result_slot() {
        // Delete half the corpus and narrow the list to k: the walk still
        // routes through the tombstones, and k=4 live results fill the 4
        // slots without any widening.
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
        idx.set_ef_search(1);
        let hits = idx.search(&e.embed("entity 25 topic 0"), 4);
        assert_eq!(hits.len(), 4, "k live results past the tombstones");
        assert!(hits.iter().all(|h| h.id >= tid(20)));
        // Compaction rebuilds from the live nodes and keeps answering.
        idx.compact(1);
        assert_eq!(idx.tombstones(), 0);
        assert_eq!(idx.compactions(), 1);
        assert_eq!(idx.len(), 20);
        let hits2 = idx.search(&e.embed("entity 25 topic 0"), 4);
        assert_eq!(hits2.len(), 4);
        assert!(hits2.iter().all(|h| h.id >= tid(20)));
    }

    #[test]
    fn hnsw_tombstoned_entry_point_still_routes() {
        let e = TextEmbedder::with_seed(5);
        let mut idx = HnswIndex::with_defaults();
        let mut flat = FlatIndex::new();
        for i in 0..60u64 {
            let v = e.embed(&format!("entity {} topic {}", i, i % 7));
            idx.add(tid(i), v.clone());
            flat.add(tid(i), v);
        }
        let entry = idx.ids[idx.entry.unwrap() as usize];
        assert!(idx.remove(entry));
        assert!(flat.remove(entry));
        let qv = Vector::from_vec(idx.rows.row(idx.entry.unwrap() as usize).to_vec());
        let hits = idx.search(&qv, 5);
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|h| h.id != entry));
        // Fewer live nodes than `ef`: the walk covers the whole component,
        // so the answer is the exact one.
        let ids = |hits: Vec<SearchHit>| hits.into_iter().map(|h| h.id).collect::<Vec<_>>();
        assert_eq!(ids(hits), ids(flat.search(&qv, 5)));
    }

    /// Removing a document stored as several chunks tombstones every chunk
    /// through the id index, here and after a snapshot round-trip (which
    /// rebuilds the index); an id removed and added again is one chunk
    /// long; an unknown id changes nothing, generation included.
    #[test]
    fn hnsw_remove_tombstones_every_chunk_of_an_id() {
        let e = TextEmbedder::with_seed(5);
        let mut idx = HnswIndex::with_defaults();
        for i in 0..40u64 {
            for chunk in 0..=(i % 3) {
                idx.add(tid(i), e.embed(&format!("document {i} chunk {chunk}")));
            }
        }
        let chunks = |idx: &HnswIndex, id: InstanceId| {
            (0..idx.ids.len())
                .filter(|&ord| idx.ids[ord] == id && !idx.deleted[ord])
                .count()
        };
        assert_eq!(chunks(&idx, tid(5)), 3);
        let generation = idx.generation();
        assert!(!idx.remove(tid(999)));
        assert_eq!(idx.generation(), generation);
        assert!(idx.remove(tid(5)));
        assert_eq!((chunks(&idx, tid(5)), idx.tombstones()), (0, 3));
        assert_eq!(idx.generation(), generation + 1);
        assert!(!idx.remove(tid(5)));
        assert_eq!(idx.generation(), generation + 1);

        let mut back = HnswIndex::from_bytes(idx.to_bytes()).unwrap();
        assert_eq!(chunks(&back, tid(8)), 3);
        assert!(back.remove(tid(8)));
        assert_eq!((chunks(&back, tid(8)), back.tombstones()), (0, 6));
        assert!(!back.remove(tid(5)));
        back.add(tid(5), e.embed("document 5 again"));
        assert!(back.remove(tid(5)));
        assert_eq!(back.tombstones(), 7);
        assert!(back
            .search(&e.embed("document 5 chunk 1"), 10)
            .iter()
            .all(|h| h.id != tid(5)));

        back.compact(2);
        assert_eq!(chunks(&back, tid(11)), 3);
        assert!(back.remove(tid(11)));
        assert_eq!(back.tombstones(), 3);
    }

    #[test]
    fn hnsw_exactly_k_live_among_many_dead_all_come_back() {
        let e = TextEmbedder::with_seed(7);
        let mut idx = HnswIndex::with_defaults();
        for i in 0..200u64 {
            idx.add(tid(i), e.embed(&format!("entity {} topic {}", i, i % 11)));
        }
        let live: HashSet<InstanceId> = (0..200u64).filter(|i| i % 40 == 7).map(tid).collect();
        for i in 0..200u64 {
            if !live.contains(&tid(i)) {
                assert!(idx.remove(tid(i)));
            }
        }
        assert_eq!(idx.len(), 5);
        idx.set_ef_search(1);
        let hits = idx.search(&e.embed("entity 100 topic 1"), 5);
        let got: HashSet<InstanceId> = hits.iter().map(|h| h.id).collect();
        assert_eq!(got, live);
    }

    #[test]
    fn hnsw_all_removed_returns_nothing() {
        let e = TextEmbedder::with_seed(9);
        let mut idx = HnswIndex::with_defaults();
        for i in 0..30u64 {
            idx.add(tid(i), e.embed(&format!("entity {i}")));
        }
        for i in 0..30u64 {
            assert!(idx.remove(tid(i)));
        }
        assert!(idx.is_empty());
        assert!(idx.search(&e.embed("entity 3"), 5).is_empty());
        // One fresh node among thirty tombstones, the entry point among
        // them: the search routes to it and returns it alone.
        idx.add(tid(99), e.embed("entity 99"));
        assert!(idx.deleted[idx.entry.unwrap() as usize]);
        let hits = idx.search(&e.embed("entity 3"), 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, tid(99));
    }

    #[test]
    fn any_vector_index_dispatches_and_roundtrips() {
        let e = TextEmbedder::with_seed(11);
        let mut any = AnyVectorIndex::Hnsw(Box::new(HnswIndex::with_defaults()));
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
    fn truncated_snapshots_rejected_not_garbled() {
        // Chop a valid snapshot at every prefix length; the decoder must
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
            PersistError::BadFlags(FLAT_FLAGS | 0x40)
        );
        bad[5] = SnapshotKind::Hnsw as u8;
        assert_eq!(
            HnswIndex::from_bytes(Bytes::from(bad)).unwrap_err(),
            PersistError::BadFlags(FLAT_FLAGS | 0x40)
        );
    }

    #[test]
    fn flat_snapshot_with_a_code_sidecar_is_rejected_by_flags() {
        // A version-4 flat snapshot as the int8 scan's writer laid it out:
        // flags 0x03 (unit rows + code sidecar), a scan-mode byte and a
        // shortlist-factor u64 after the generation, then per-row scales
        // and codes after the f32 slab. It never loads: read past its
        // header, the extra nine bytes would shift the counts and the
        // sidecar would decode as rows.
        let mut buf = BytesMut::new();
        persist::put_header(&mut buf, SnapshotKind::Flat, FLAG_UNIT_NORM | 0x02);
        buf.put_u64_le(1); // generation
        buf.put_u8(1); // scan mode
        buf.put_u64_le(4); // shortlist factor
        buf.put_u32_le(1); // n
        buf.put_u32_le(2); // dim
        persist::put_instance_id(&mut buf, tid(0));
        buf.put_u8(0); // tombstone
        buf.put_f32_le(1.0);
        buf.put_f32_le(0.0);
        buf.put_f32_le(1.0 / 127.0); // scale
        buf.put_slice(&[127, 0]); // codes
        let old = buf.freeze();
        assert_eq!(
            FlatIndex::from_bytes(old.clone()).unwrap_err(),
            PersistError::BadFlags(3)
        );
        assert_eq!(
            AnyVectorIndex::from_bytes(old).unwrap_err(),
            PersistError::BadFlags(3)
        );
    }

    /// `bytes` with its version byte set to `version`.
    fn with_version(bytes: &Bytes, version: u8) -> Bytes {
        let mut raw = bytes.to_vec();
        raw[4] = version;
        Bytes::from(raw)
    }

    #[test]
    fn v1_flat_snapshot_rejected_and_current_one_scores_a_cosine() {
        // A hand-encoded version-1 Flat snapshot (no flags byte) holding a
        // non-unit vector, as the pre-invariant encoder wrote one. It is
        // rejected by version, not normalized and not misscored.
        let mut buf = BytesMut::new();
        buf.put_slice(b"VFAI\x01");
        buf.put_u8(SnapshotKind::Flat as u8);
        buf.put_u32_le(1);
        persist::put_instance_id(&mut buf, tid(7));
        buf.put_u32_le(2);
        buf.put_f32_le(3.0);
        buf.put_f32_le(4.0);
        assert_eq!(
            FlatIndex::from_bytes(buf.freeze()).unwrap_err(),
            PersistError::BadVersion(1)
        );
        // The current snapshot holds the vector normalized at add:
        // cosine([3,4],[1,0]) = 0.6, where a raw dot would score 3.0.
        let mut flat = FlatIndex::new();
        flat.add(tid(7), Vector::from_vec(vec![3.0, 4.0]));
        let back = FlatIndex::from_bytes(flat.to_bytes()).unwrap();
        let hits = back.search(&Vector::from_vec(vec![1.0, 0.0]), 1);
        assert_eq!(hits[0].id, tid(7));
        assert!(
            (hits[0].score - 0.6).abs() < 1e-6,
            "score {}",
            hits[0].score
        );
    }

    #[test]
    fn v1_hnsw_snapshot_rejected_and_current_one_scores_a_cosine() {
        // Minimal version-1 graph: one level-0 node with a non-unit vector.
        // It is rejected by version.
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
        buf.put_u32_le(3);
        for x in [0.0f32, 3.0, 4.0] {
            buf.put_f32_le(x);
        }
        buf.put_u32_le(1); // one layer
        buf.put_u32_le(0); // no neighbours
        assert_eq!(
            HnswIndex::from_bytes(buf.freeze()).unwrap_err(),
            PersistError::BadVersion(1)
        );
        // The current snapshot of the same node scores it as a cosine.
        let mut hnsw = HnswIndex::with_defaults();
        hnsw.add(tid(5), Vector::from_vec(vec![0.0, 3.0, 4.0]));
        let back = HnswIndex::from_bytes(hnsw.to_bytes()).unwrap();
        let hits = back.search(&Vector::from_vec(vec![0.0, 1.0, 0.0]), 1);
        assert_eq!(hits[0].id, tid(5));
        assert!(
            (hits[0].score - 0.6).abs() < 1e-6,
            "score {}",
            hits[0].score
        );
    }

    #[test]
    fn v1_hnsw_snapshot_body_decodes_identically() {
        // A current graph under a version-1 header (no flags byte) is
        // rejected by version; under its own header it reloads to a graph
        // that answers identically.
        let e = TextEmbedder::with_seed(11);
        let mut hnsw = HnswIndex::with_defaults();
        for (id, v) in corpus() {
            hnsw.add(id, v);
        }
        let current = hnsw.to_bytes();
        let mut v1 = BytesMut::new();
        v1.put_slice(b"VFAI\x01");
        v1.put_u8(current[5]); // kind
        v1.put_slice(&current[7..]); // body, minus the flags byte
        assert_eq!(
            HnswIndex::from_bytes(v1.freeze()).unwrap_err(),
            PersistError::BadVersion(1)
        );
        let back = HnswIndex::from_bytes(current).unwrap();
        let q = e.embed("championship season");
        assert_eq!(back.search(&q, 4), hnsw.search(&q, 4));
    }

    #[test]
    fn v2_snapshots_rejected_and_current_ones_reload_equivalent() {
        // Version-2 snapshots are rejected by version; current ones reload
        // to indexes that keep their generation and answer identically.
        let e = TextEmbedder::with_seed(11);
        let mut flat = FlatIndex::new();
        let mut hnsw = HnswIndex::with_defaults();
        for (id, v) in corpus() {
            flat.add(id, v.clone());
            hnsw.add(id, v);
        }
        let (fb, hb) = (flat.to_bytes(), hnsw.to_bytes());
        assert_eq!(
            FlatIndex::from_bytes(with_version(&fb, 2)).unwrap_err(),
            PersistError::BadVersion(2)
        );
        assert_eq!(
            HnswIndex::from_bytes(with_version(&hb, 2)).unwrap_err(),
            PersistError::BadVersion(2)
        );
        let flat2 = FlatIndex::from_bytes(fb).unwrap();
        let hnsw2 = HnswIndex::from_bytes(hb).unwrap();
        assert_eq!(flat2.generation(), flat.generation());
        assert_eq!(hnsw2.generation(), hnsw.generation());
        for q in ["jordan basketball", "election district new york"] {
            let qv = e.embed(q);
            assert_eq!(flat.search(&qv, 4), flat2.search(&qv, 4), "flat {q}");
            assert_eq!(hnsw.search(&qv, 4), hnsw2.search(&qv, 4), "hnsw {q}");
        }
    }

    #[test]
    fn v3_flat_snapshot_rejected_and_current_one_keeps_generation_and_tombstones() {
        // A version-3 snapshot is rejected by version; the current one
        // reloads with its generation and tombstones.
        let mut idx = FlatIndex::new();
        for (id, v) in corpus() {
            idx.add(id, v);
        }
        idx.remove(tid(1));
        let gen = idx.generation();
        let bytes = idx.to_bytes();
        assert_eq!(
            FlatIndex::from_bytes(with_version(&bytes, 3)).unwrap_err(),
            PersistError::BadVersion(3)
        );
        let back = FlatIndex::from_bytes(bytes).unwrap();
        assert_eq!(back.generation(), gen);
        assert_eq!(back.tombstones(), 1);
    }

    #[test]
    fn scratch_reuse_is_stable_across_searches_and_growth() {
        // Repeated searches reuse the thread's scratch; results must not
        // drift between the cold (allocating) first search and warm reuse,
        // nor when another index's searches and this index's growth
        // (stamps resized) come in between.
        let e = TextEmbedder::with_seed(3);
        let mut idx = HnswIndex::with_defaults();
        let mut other = HnswIndex::with_defaults();
        for i in 0..60u64 {
            idx.add(tid(i), e.embed(&format!("entity {} topic {}", i, i % 5)));
        }
        for i in 0..200u64 {
            other.add(tid(i), e.embed(&format!("other {} topic {}", i, i % 9)));
        }
        let q = e.embed("entity 31 topic 1");
        let first = idx.search(&q, 5);
        for _ in 0..50 {
            other.search(&q, 7);
            assert_eq!(idx.search(&q, 5), first);
        }
        // A fresh thread (fresh scratch) answers the same.
        let fresh = std::thread::scope(|s| s.spawn(|| idx.search(&q, 5)).join().unwrap());
        assert_eq!(fresh, first);
        // Grow past every stamp the scratch has seen for this index.
        for i in 60..400u64 {
            idx.add(tid(i), e.embed(&format!("entity {} topic {}", i, i % 5)));
        }
        idx.add(tid(1000), e.embed("entity 31 topic 1 duplicate"));
        let after = idx.search(&q, 5);
        assert_eq!(after.len(), 5);
        assert_eq!(idx.search(&q, 5), after);
        let fresh = std::thread::scope(|s| s.spawn(|| idx.search(&q, 5)).join().unwrap());
        assert_eq!(fresh, after);
    }

    #[test]
    fn concurrent_searches_return_the_sequential_answers() {
        // 4 threads x 200 searches over one shared index, all started
        // together: every thread walks on its own scratch, so each answer
        // is exactly the one a lone caller gets.
        let e = TextEmbedder::with_seed(3);
        let mut idx = HnswIndex::with_defaults();
        for i in 0..500u64 {
            idx.add(tid(i), e.embed(&format!("entity {} topic {}", i, i % 11)));
        }
        for i in (0..500u64).step_by(9) {
            idx.remove(tid(i));
        }
        let queries: Vec<Vector> = (0..200u64)
            .map(|i| e.embed(&format!("entity {} topic {}", i * 7 % 500, i % 11)))
            .collect();
        let want: Vec<Vec<SearchHit>> = queries.iter().map(|q| idx.search(q, 10)).collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let (idx, queries, want, start) = (&idx, &queries, &want, &start);
                    s.spawn(move || {
                        start.wait();
                        // Each thread starts at a different query so the
                        // four are never in step.
                        for i in 0..queries.len() {
                            let at = (i + t * 50) % queries.len();
                            assert_eq!(idx.search(&queries[at], 10), want[at], "query {at}");
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("search thread panicked");
            }
        });
    }

    #[test]
    fn row_slab_grows_by_whole_chunks_without_moving_rows() {
        let mut slab: RowSlab<f32> = RowSlab::default();
        let row = |i: usize| [i as f32, -(i as f32), 0.5];
        slab.push(row(0).into_iter());
        let first = slab.row(0).as_ptr();
        for i in 1..ROWS_PER_CHUNK * 3 + 1 {
            slab.push(row(i).into_iter());
        }
        assert_eq!(slab.stride(), 3);
        assert_eq!(slab.len, ROWS_PER_CHUNK * 3 + 1);
        assert_eq!(slab.chunks.len(), 4);
        assert_eq!(slab.row(0).as_ptr(), first, "growth must not move rows");
        for i in [0, 1, ROWS_PER_CHUNK - 1, ROWS_PER_CHUNK, ROWS_PER_CHUNK * 3] {
            assert_eq!(slab.row(i), row(i));
        }
        assert_eq!(
            slab.heap_bytes(),
            4 * ROWS_PER_CHUNK * 3 * 4 + slab.chunks.capacity() * size_of::<Vec<f32>>()
        );
    }

    #[test]
    #[should_panic(expected = "row slab holds one stride")]
    fn mixed_dimensions_are_rejected_not_misindexed() {
        let mut idx = HnswIndex::with_defaults();
        idx.add(tid(0), Vector::from_vec(vec![1.0, 0.0, 0.0]));
        idx.add(tid(1), Vector::from_vec(vec![1.0, 0.0]));
    }

    #[test]
    fn malformed_graph_snapshots_are_rejected() {
        let mut hnsw = HnswIndex::with_defaults();
        for (id, v) in corpus() {
            hnsw.add(id, v);
        }
        let good = hnsw.to_bytes().to_vec();
        assert!(HnswIndex::from_bytes(Bytes::from(good.clone())).is_ok());
        // Body: header 7, generation 8, then m at byte 15.
        let mut huge_m = good.clone();
        huge_m[15..19].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(HnswIndex::from_bytes(Bytes::from(huge_m)).is_err());
        // An m smaller than the lists the body holds.
        let mut small_m = good.clone();
        small_m[15..19].copy_from_slice(&1u32.to_le_bytes());
        assert!(HnswIndex::from_bytes(Bytes::from(small_m)).is_err());
        // max_level (byte 35) above every node's level.
        let mut tall = good.clone();
        tall[35..39].copy_from_slice(&9u32.to_le_bytes());
        assert!(HnswIndex::from_bytes(Bytes::from(tall)).is_err());
        // Entry ordinal (byte 40) past the node count.
        let mut lost = good;
        lost[40..44].copy_from_slice(&1000u32.to_le_bytes());
        assert!(HnswIndex::from_bytes(Bytes::from(lost)).is_err());
    }

    /// The bulk entry point builds the same graph, byte for byte, on any
    /// number of workers: enough nodes that batches run in parallel, with
    /// exact duplicates among them so distance ties meet the selection.
    #[test]
    fn bulk_build_is_identical_for_every_thread_count() {
        let e = TextEmbedder::with_seed(3);
        let items: Vec<u64> = (0..1_500).collect();
        let build = |threads: usize| {
            let mut idx = HnswIndex::with_defaults();
            idx.insert_all(&items, threads, |&i| {
                let i = if i % 16 == 15 { i - 7 } else { i };
                let text = format!("entity {} topic {} attribute {}", i, i % 17, i % 7);
                (tid(i), e.embed(&text))
            });
            assert_eq!(idx.len(), items.len());
            idx.to_bytes()
        };
        let one = build(1);
        for threads in [2, 3, 4] {
            assert!(build(threads) == one, "bytes differ at {threads} threads");
        }
    }

    /// A bulk-built graph answers like a sequentially built one: each
    /// recalls the exact scan's top 10.
    #[test]
    fn bulk_and_sequential_builds_both_recall_the_exact_scan() {
        let e = TextEmbedder::with_seed(3);
        let text = |i: u64| format!("entity {} topic {} attribute {}", i, i % 17, i % 7);
        let items: Vec<u64> = (0..600).collect();
        let mut flat = FlatIndex::new();
        let mut sequential = HnswIndex::with_defaults();
        for &i in &items {
            flat.add(tid(i), e.embed(&text(i)));
            sequential.add(tid(i), e.embed(&text(i)));
        }
        let mut bulk = HnswIndex::with_defaults();
        bulk.insert_all(&items, 2, |&i| (tid(i), e.embed(&text(i))));
        for graph in [&sequential, &bulk] {
            let mut hit = 0;
            for q in 0..30u64 {
                let qv = e.embed(&format!("entity {} topic {}", q * 19 % 600, q % 17));
                let floor = flat.search(&qv, 10)[9].score - 1e-9;
                hit += graph
                    .search(&qv, 10)
                    .iter()
                    .filter(|h| h.score >= floor)
                    .count();
            }
            let recall = hit as f64 / 300.0;
            assert!(recall >= 0.95, "recall@10 {recall}");
        }
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

    /// Alg. 4 as the paper states it: take the nearest remaining candidate
    /// (the first of equals), and keep it when it is closer to the owner
    /// than to every element kept so far, until `max` are kept or no
    /// candidate remains. A second edge to a kept endpoint is not kept.
    fn textbook(cands: &[Edge], max: usize, between: &dyn Fn(u32, u32) -> f64) -> Vec<Edge> {
        let mut remaining = cands.to_vec();
        let mut kept: Vec<Edge> = Vec::new();
        while !remaining.is_empty() && kept.len() < max {
            let mut nearest = 0;
            for i in 1..remaining.len() {
                if remaining[i].dist() < remaining[nearest].dist() {
                    nearest = i;
                }
            }
            let e = remaining.remove(nearest);
            if kept.iter().any(|k| k.ord == e.ord) {
                continue;
            }
            if kept.iter().all(|k| e.dist() < between(e.ord, k.ord)) {
                kept.push(e);
            }
        }
        kept
    }

    /// Endpoints among the owner's candidates.
    const POINTS: usize = 12;

    /// Candidate edges over [`POINTS`] endpoints, endpoints repeating; the
    /// distances to the owner and between endpoints drawn from eight levels,
    /// so ties are common; and a list capacity.
    fn instance() -> impl Strategy<Value = (Vec<Edge>, Vec<Vec<f64>>, usize)> {
        (
            proptest::collection::vec((0..POINTS as u32, 0u8..8), 0..30),
            proptest::collection::vec(
                proptest::collection::vec(0u8..8, POINTS..POINTS + 1),
                POINTS..POINTS + 1,
            ),
            1usize..10,
        )
            .prop_map(|(cands, raw, max)| {
                let edges = cands
                    .into_iter()
                    .map(|(ord, level)| Edge {
                        ord,
                        sim: 1.0 - f32::from(level) / 8.0,
                    })
                    .collect();
                let between = (0..POINTS)
                    .map(|a| {
                        (0..POINTS)
                            .map(|b| f64::from(raw[a.min(b)][a.max(b)]) / 8.0)
                            .collect()
                    })
                    .collect();
                (edges, between, max)
            })
    }

    proptest! {
        /// A new node's list: `select_diverse` over the search's output
        /// (sorted closest first, ties in arrival order) keeps exactly the
        /// textbook selection.
        #[test]
        fn new_node_selection_is_alg_4((cands, between, max) in instance()) {
            let between = |a: u32, b: u32| between[a as usize][b as usize];
            let mut sorted = cands.clone();
            sorted.sort_by(|a, b| a.dist().partial_cmp(&b.dist()).unwrap());
            let mut out = Vec::new();
            select_diverse(&sorted, max, between, &mut out);
            prop_assert_eq!(out, textbook(&cands, max, &between));
        }

        /// A list that back-links overflow is pruned to the textbook
        /// selection over the list followed by its new edges; one they fit
        /// in just takes them, in order.
        #[test]
        fn full_list_prune_is_alg_4((cands, between, max) in instance(), split in 0usize..30) {
            let between = |a: u32, b: u32| between[a as usize][b as usize];
            let held = split.min(cands.len()).min(max);
            let (list, new) = cands.split_at(held);
            let mut lists = EdgeLists::new(max);
            lists.push_list();
            lists.set(0, list.iter().copied());
            let (mut spill, mut out) = (Vec::new(), Vec::new());
            lists.link(0, new.iter().copied(), between, &mut spill, &mut out);
            if cands.len() <= max {
                prop_assert_eq!(out, cands);
            } else {
                prop_assert_eq!(out, textbook(&cands, max, &between));
            }
        }
    }
}
