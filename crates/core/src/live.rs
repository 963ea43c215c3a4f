//! The live mutation layer: streaming changes through the lake and into the
//! standing indexes.
//!
//! [`VerifAi::build`](crate::VerifAi::build) stands the system up over
//! **shared, lockable** indexes — a [`SegmentedInvertedIndex`] per modality
//! for content retrieval and an [`AnyVectorIndex`] per modality for semantic
//! retrieval — wrapped in [`LiveContentSource`] / [`LiveSemanticSource`] so
//! the staged pipeline reads them through the ordinary
//! [`EvidenceSource`] trait while [`VerifAi::apply`](crate::VerifAi::apply)
//! mutates them in place.
//!
//! A [`LakeMutation`] is applied in three steps:
//!
//! 1. serialize the *old* text of every affected instance (the segmented
//!    index subtracts a removed document's statistics by re-analyzing its
//!    exact original text);
//! 2. mutate the [`DataLake`], which bumps the generation counter and
//!    records tombstones;
//! 3. translate the change into index operations — remove + add on the
//!    content index, tombstone + re-embed + insert on the semantic index
//!    of a modality that has one (text, tables, knowledge graph; tuples
//!    are BM25-only, see [`has_semantic_member`]).
//!
//! Tuple mutations also refresh the *owning table's* entries: the table's
//! serialized form includes every row, so adding, updating, or removing a
//! row changes the table document too. Text documents embed as overlapping
//! sentence chunks under the document's id (mirroring the batch build), and
//! a single `remove` tombstones every chunk.
//!
//! A sharded system (`verifai-cluster`) holds one [`LiveIndexes`] per shard.
//! Each op goes to the shard that owns its instance ([`shard_of`]), and the
//! BM25 statistics of every touched modality are re-merged across shards
//! ([`share_corpus_stats`]), so shard-local scores stay whole-corpus scores.

use std::sync::Arc;

use parking_lot::RwLock;
use verifai_embed::TextEmbedder;
use verifai_index::{
    AnyVectorIndex, CorpusStats, EvidenceSource, SearchHit, SegmentedInvertedIndex, SourceQuery,
    VectorIndex,
};
use verifai_lake::{
    DataLake, DocId, InstanceId, LakeError, Table, TableId, TextDocument, TupleId, Value,
};

use crate::config::VerifAiConfig;
use crate::corpus::has_semantic_member;
use crate::partition::shard_of;
use crate::stages::slot;

/// A shared handle to one modality's content index.
pub type SharedContent = Arc<RwLock<SegmentedInvertedIndex>>;
/// A shared handle to one modality's semantic index.
pub type SharedSemantic = Arc<RwLock<AnyVectorIndex>>;

/// One streaming change to the lake. Applied through
/// [`VerifAi::apply`](crate::VerifAi::apply), which keeps the standing
/// indexes consistent with the lake.
#[derive(Debug, Clone, PartialEq)]
pub enum LakeMutation {
    /// Insert a new text document.
    AddDoc(TextDocument),
    /// Replace the title and body of an existing document.
    UpdateDoc {
        /// The document to rewrite.
        id: DocId,
        /// New title.
        title: String,
        /// New body.
        body: String,
    },
    /// Remove a document.
    RemoveDoc(DocId),
    /// Insert a new table (its rows register as tuples).
    AddTable(Table),
    /// Remove a table and all its tuples.
    RemoveTable(TableId),
    /// Append one row to an existing table.
    AddTuple {
        /// The owning table.
        table: TableId,
        /// Row values, matching the table's arity.
        values: Vec<Value>,
    },
    /// Replace an existing tuple's values in place.
    UpdateTuple {
        /// The tuple to rewrite.
        id: TupleId,
        /// New values, matching the table's arity.
        values: Vec<Value>,
    },
    /// Remove one tuple (physically deleting its row).
    RemoveTuple(TupleId),
}

/// What applying one [`LakeMutation`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationOutcome {
    /// The lake's generation after the mutation.
    pub generation: u64,
    /// Content-index operations performed (adds + removes).
    pub content_ops: usize,
    /// Semantic entries embedded and inserted.
    pub embedded: usize,
}

/// Why a mutation could not be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationError {
    /// The lake rejected the change (missing id, arity mismatch, duplicate).
    Lake(LakeError),
}

impl From<LakeError> for MutationError {
    fn from(e: LakeError) -> MutationError {
        MutationError::Lake(e)
    }
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let MutationError::Lake(e) = self;
        write!(f, "lake rejected mutation: {e:?}")
    }
}

impl std::error::Error for MutationError {}

/// Aggregate health of the live lake + indexes, surfaced through the
/// service stats endpoint and the `verifai_lake_*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveLakeStats {
    /// The lake's mutation generation.
    pub generation: u64,
    /// Mutations applied through [`VerifAi::apply`](crate::VerifAi::apply).
    pub mutations: u64,
    /// Lake-level tombstones (instances removed and not re-added).
    pub lake_tombstones: usize,
    /// Live documents across the content indexes.
    pub content_docs: usize,
    /// Uncompacted content tombstones.
    pub content_tombstones: usize,
    /// Segments (sealed + memtable) across the content indexes.
    pub content_segments: usize,
    /// Content compaction merges performed.
    pub content_compactions: u64,
    /// Live vectors across the semantic indexes.
    pub semantic_vectors: usize,
    /// Uncompacted semantic tombstones.
    pub semantic_tombstones: usize,
    /// Semantic compactions performed.
    pub semantic_compactions: u64,
    /// Bytes of heap the semantic indexes hold (rows, adjacency or code
    /// sidecar, ids), tombstoned entries and spare capacity included.
    pub semantic_bytes: usize,
    /// Instances with prepared rerank features (every tuple, table,
    /// document and knowledge-graph entity; 0 with the reranker off).
    pub prepared_instances: usize,
    /// Bytes those prepared features hold, the store's own table included.
    pub prepared_bytes: usize,
}

/// The mutable indexes standing behind a live system — or behind one shard
/// of a sharded one — one slot per modality (0 = tuples, 1 = tables,
/// 2 = texts, 3 = knowledge graph). The pipeline's retrieval sources hold
/// clones of the same `Arc`s, so a write here is visible to the next search.
#[derive(Clone)]
pub struct LiveIndexes {
    /// Content (BM25) indexes. Always present: the content corpus is built
    /// even when content retrieval is disabled in fusion.
    pub content: [SharedContent; 4],
    /// Semantic indexes; `None` when semantic retrieval is disabled.
    pub semantic: [Option<SharedSemantic>; 4],
}

impl LiveIndexes {
    /// Sum index health over every modality into one stats block (lake and
    /// prepared-feature fields are left zeroed; the caller stamps them).
    pub fn stats(&self) -> LiveLakeStats {
        index_stats(std::slice::from_ref(self))
    }
}

/// [`LiveIndexes::stats`] summed over every shard.
pub(crate) fn index_stats(shards: &[LiveIndexes]) -> LiveLakeStats {
    let mut s = LiveLakeStats::default();
    for shard in shards {
        for content in &shard.content {
            let c = content.read();
            s.content_docs += c.len();
            s.content_tombstones += c.tombstones();
            s.content_segments += c.segments();
            s.content_compactions += c.compactions();
        }
        for semantic in shard.semantic.iter().flatten() {
            let v = semantic.read();
            s.semantic_vectors += VectorIndex::len(&*v);
            s.semantic_tombstones += v.tombstones();
            s.semantic_compactions += v.compactions();
            s.semantic_bytes += v.heap_bytes();
        }
    }
    s
}

/// Force-compact every index of every shard: merge the content segments
/// into one, drop tombstoned vectors. One job per index, fanned out over
/// [`crate::exec::run_scoped`]. Compaction leaves a content index's shared
/// statistics installed; they stay exact, since removals already
/// subtracted what compaction drops.
pub(crate) fn compact_indexes(shards: &[LiveIndexes], threads: usize) {
    let mut jobs: Vec<Box<dyn FnOnce() + Send>> = Vec::with_capacity(8 * shards.len());
    for shard in shards {
        for content in &shard.content {
            let content = Arc::clone(content);
            jobs.push(Box::new(move || content.write().compact()));
        }
        for semantic in shard.semantic.iter().flatten() {
            let semantic = Arc::clone(semantic);
            jobs.push(Box::new(move || semantic.write().compact()));
        }
    }
    crate::exec::run_scoped(threads, jobs);
}

/// Merge every shard's BM25 corpus statistics for modality `slot` and
/// install the sum on each shard's content index, so shard-local scoring
/// uses whole-corpus idf and average length — per-shard scores then equal
/// the single-index scores exactly. Only sharded systems call this; a
/// single index scores with its own statistics.
pub fn share_corpus_stats(shards: &[LiveIndexes], slot: usize) {
    let mut merged = CorpusStats::default();
    for shard in shards {
        merged.merge(&shard.content[slot].read().corpus_stats());
    }
    let merged = Arc::new(merged);
    for shard in shards {
        shard.content[slot]
            .write()
            .set_shared_stats(Arc::clone(&merged));
    }
}

/// An [`EvidenceSource`] reading a shared live content index.
pub struct LiveContentSource(SharedContent);

impl LiveContentSource {
    /// Wrap a shared content index as a retrieval source.
    pub fn new(index: SharedContent) -> LiveContentSource {
        LiveContentSource(index)
    }
}

impl EvidenceSource for LiveContentSource {
    fn name(&self) -> &'static str {
        // Same ranking function as the monolithic index; see
        // `SegmentedInvertedIndex`'s score-equivalence contract.
        "bm25"
    }

    fn search(&self, query: SourceQuery<'_>, k: usize) -> Vec<SearchHit> {
        self.0.read().search(query.text, k)
    }
}

/// An [`EvidenceSource`] reading a shared live semantic index.
pub struct LiveSemanticSource {
    index: SharedSemantic,
    name: &'static str,
}

impl LiveSemanticSource {
    /// Wrap a shared semantic index as a retrieval source.
    pub fn new(index: SharedSemantic) -> LiveSemanticSource {
        let name = index.read().backend_name();
        LiveSemanticSource { index, name }
    }
}

impl EvidenceSource for LiveSemanticSource {
    fn name(&self) -> &'static str {
        self.name
    }

    fn search(&self, query: SourceQuery<'_>, k: usize) -> Vec<SearchHit> {
        match query.vector {
            Some(vector) => VectorIndex::search(&*self.index.read(), vector, k),
            None => Vec::new(),
        }
    }
}

/// The semantic entry texts for one instance: overlapping sentence chunks
/// for text documents (mirroring the batch build's chunking), the
/// serialized text itself for tables and knowledge-graph entities.
fn semantic_texts(id: InstanceId, text: &str) -> Vec<String> {
    match id {
        InstanceId::Text(_) => verifai_text::chunk_sentences(text, 3, 1)
            .into_iter()
            .map(|c| c.text)
            .collect(),
        _ => vec![text.to_string()],
    }
}

/// One index-level consequence of a lake mutation: retire the old text of
/// `id` (if any) and index the new text (if any). `remove` must be the
/// exact text the instance was last indexed with — the segmented index
/// re-analyzes it to subtract the document's statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexOp {
    /// The affected instance.
    pub id: InstanceId,
    /// Exact text the instance was last indexed with, when it must be
    /// retired.
    pub remove: Option<String>,
    /// New text to index, when the instance is (re)born.
    pub add: Option<String>,
}

impl IndexOp {
    /// Index `text` under a fresh `id`.
    pub fn add(id: InstanceId, text: String) -> IndexOp {
        IndexOp {
            id,
            remove: None,
            add: Some(text),
        }
    }

    /// Retire `id`, last indexed as `old`.
    pub fn remove(id: InstanceId, old: String) -> IndexOp {
        IndexOp {
            id,
            remove: Some(old),
            add: None,
        }
    }

    /// Replace `id`'s indexed text `old` with `new`.
    pub fn update(id: InstanceId, old: String, new: String) -> IndexOp {
        IndexOp {
            id,
            remove: Some(old),
            add: Some(new),
        }
    }
}

/// Route one mutation's index ops to the shards that own them
/// ([`shard_of`]), apply each shard's share in order, and — on a sharded
/// system — re-merge the BM25 statistics of every modality the ops
/// touched. Returns (content ops, semantic entries embedded).
pub(crate) fn route_ops(
    shards: &[LiveIndexes],
    config: &VerifAiConfig,
    embedder: Option<&TextEmbedder>,
    ops: Vec<IndexOp>,
) -> (usize, usize) {
    let n = shards.len();
    let mut touched = [false; 4];
    let mut per_shard: Vec<Vec<IndexOp>> = (0..n).map(|_| Vec::new()).collect();
    for op in ops {
        touched[slot(op.id.kind())] = true;
        per_shard[shard_of(op.id, n)].push(op);
    }
    let (mut content_ops, mut embedded) = (0, 0);
    for (shard, ops) in shards.iter().zip(per_shard) {
        let (c, e) = apply_ops(shard, config, embedder, ops);
        content_ops += c;
        embedded += e;
    }
    if n > 1 {
        for slot in (0..4).filter(|&slot| touched[slot]) {
            share_corpus_stats(shards, slot);
        }
    }
    (content_ops, embedded)
}

/// Apply a batch of index ops to one set of live indexes, embedding new
/// semantic entries with `embedder` for the modalities that have a
/// semantic member ([`has_semantic_member`]); a tuple op embeds nothing.
/// Returns (content ops, semantic entries embedded).
fn apply_ops(
    live: &LiveIndexes,
    config: &VerifAiConfig,
    embedder: Option<&TextEmbedder>,
    ops: Vec<IndexOp>,
) -> (usize, usize) {
    let mut content_ops = 0;
    let mut embedded = 0;
    for op in ops {
        let slot = slot(op.id.kind());
        {
            let mut content = live.content[slot].write();
            if let Some(old) = &op.remove {
                content.remove(op.id, old);
                content_ops += 1;
            }
            if let Some(new) = &op.add {
                content.add(op.id, new);
                content_ops += 1;
            }
        }
        if !has_semantic_member(config, slot) {
            continue;
        }
        if let (Some(semantic), Some(embedder)) = (&live.semantic[slot], embedder) {
            let mut index = semantic.write();
            if op.remove.is_some() {
                index.remove(op.id);
            }
            if let Some(new) = &op.add {
                for text in semantic_texts(op.id, new) {
                    index.add(op.id, embedder.embed(&text));
                    embedded += 1;
                }
            }
        }
    }
    (content_ops, embedded)
}

/// Translate one [`LakeMutation`] into lake changes plus the index ops that
/// keep the standing indexes consistent. The lake is mutated here; the
/// returned ops are applied by the caller (who owns the index handles),
/// [`VerifAi::apply`](crate::VerifAi::apply).
pub fn mutate_lake(lake: &mut DataLake, mutation: LakeMutation) -> Result<Vec<IndexOp>, LakeError> {
    use verifai_text::{serialize_table, serialize_tuple};
    let table_text = |lake: &DataLake, id: TableId| -> Result<String, LakeError> {
        Ok(serialize_table(lake.table(id)?))
    };
    match mutation {
        LakeMutation::AddDoc(doc) => {
            let id = doc.id;
            let text = doc.full_text();
            lake.add_doc(doc)?;
            Ok(vec![IndexOp::add(InstanceId::Text(id), text)])
        }
        LakeMutation::UpdateDoc { id, title, body } => {
            let old = lake.doc(id)?.full_text();
            lake.update_doc(id, title, body)?;
            let new = lake.doc(id)?.full_text();
            Ok(vec![IndexOp::update(InstanceId::Text(id), old, new)])
        }
        LakeMutation::RemoveDoc(id) => {
            let doc = lake.remove_doc(id)?;
            Ok(vec![IndexOp::remove(InstanceId::Text(id), doc.full_text())])
        }
        LakeMutation::AddTable(table) => {
            let id = table.id;
            let range = lake.add_table(table)?;
            let mut ops = vec![IndexOp::add(InstanceId::Table(id), table_text(lake, id)?)];
            for tuple_id in range {
                ops.push(IndexOp::add(
                    InstanceId::Tuple(tuple_id),
                    serialize_tuple(lake.tuple_view(tuple_id)?),
                ));
            }
            Ok(ops)
        }
        LakeMutation::RemoveTable(id) => {
            let old_table = table_text(lake, id)?;
            let old_tuples: Vec<(TupleId, String)> = lake
                .tuples_of_table(id)
                .into_iter()
                .map(|t| {
                    let tuple = lake.tuple_view(t).expect("directory-listed tuple resolves");
                    (t, serialize_tuple(tuple))
                })
                .collect();
            lake.remove_table(id)?;
            let mut ops = vec![IndexOp::remove(InstanceId::Table(id), old_table)];
            for (tuple_id, text) in old_tuples {
                ops.push(IndexOp::remove(InstanceId::Tuple(tuple_id), text));
            }
            Ok(ops)
        }
        LakeMutation::AddTuple { table, values } => {
            let old_table = table_text(lake, table)?;
            let tuple_id = lake.add_tuple(table, values)?;
            let tuple = serialize_tuple(lake.tuple_view(tuple_id)?);
            Ok(vec![
                IndexOp::add(InstanceId::Tuple(tuple_id), tuple),
                IndexOp::update(
                    InstanceId::Table(table),
                    old_table,
                    table_text(lake, table)?,
                ),
            ])
        }
        LakeMutation::UpdateTuple { id, values } => {
            let before = lake.tuple_view(id)?;
            let (old, owner) = (serialize_tuple(before), before.table);
            let old_table = table_text(lake, owner)?;
            let tuple = lake.update_tuple(id, values)?;
            Ok(vec![
                IndexOp::update(InstanceId::Tuple(id), old, serialize_tuple(&tuple)),
                IndexOp::update(
                    InstanceId::Table(owner),
                    old_table,
                    table_text(lake, owner)?,
                ),
            ])
        }
        LakeMutation::RemoveTuple(id) => {
            let owner = lake.tuple_view(id)?.table;
            let old_table = table_text(lake, owner)?;
            let tuple = lake.remove_tuple(id)?;
            Ok(vec![
                IndexOp::remove(InstanceId::Tuple(id), serialize_tuple(&tuple)),
                IndexOp::update(
                    InstanceId::Table(owner),
                    old_table,
                    table_text(lake, owner)?,
                ),
            ])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VerifAi, VerifAiConfig};
    use verifai_datagen::{build, LakeSpec};
    use verifai_lake::InstanceKind;

    fn live_system(seed: u64) -> VerifAi {
        VerifAi::build(build(&LakeSpec::tiny(seed)), VerifAiConfig::default())
    }

    #[test]
    fn added_doc_is_retrievable_and_removal_forgets_it() {
        let mut sys = live_system(11);
        let gen_before = sys.lake().generation();
        let doc = TextDocument::new(
            9001,
            "Zanzibar spice auction",
            "The Zanzibar spice auction of 1964 set clove price records.",
            0,
        );
        let outcome = sys.apply(LakeMutation::AddDoc(doc)).expect("add applies");
        assert!(outcome.generation > gen_before);
        assert!(outcome.content_ops >= 1);
        assert!(outcome.embedded >= 1, "doc chunks must embed");
        let hits = sys.retrieve("Zanzibar spice auction clove", InstanceKind::Text, 3);
        assert_eq!(hits.first().map(|h| h.id), Some(InstanceId::Text(9001)));

        sys.apply(LakeMutation::RemoveDoc(9001))
            .expect("remove applies");
        let hits = sys.retrieve("Zanzibar spice auction clove", InstanceKind::Text, 3);
        assert!(
            hits.iter().all(|h| h.id != InstanceId::Text(9001)),
            "removed doc still retrieved: {hits:?}"
        );
        assert!(sys.lake().doc(9001).is_err());
        let stats = sys.live_stats();
        assert_eq!(stats.mutations, 2);
        assert!(stats.lake_tombstones >= 1);
    }

    #[test]
    fn updated_doc_ranks_under_its_new_text() {
        let mut sys = live_system(13);
        sys.apply(LakeMutation::AddDoc(TextDocument::new(
            9002,
            "Original title",
            "A plain paragraph about nothing in particular.",
            0,
        )))
        .expect("add");
        sys.apply(LakeMutation::UpdateDoc {
            id: 9002,
            title: "Quokka census".into(),
            body: "The Rottnest Island quokka census counted marsupials.".into(),
        })
        .expect("update");
        let hits = sys.retrieve("Rottnest quokka census marsupials", InstanceKind::Text, 3);
        assert_eq!(hits.first().map(|h| h.id), Some(InstanceId::Text(9002)));
        // The old text no longer matches anywhere near the top.
        let stale = sys.retrieve("plain paragraph about nothing", InstanceKind::Text, 50);
        assert!(
            stale.iter().all(|h| h.id != InstanceId::Text(9002))
                || stale.first().map(|h| h.id) != Some(InstanceId::Text(9002))
        );
    }

    #[test]
    fn tuple_mutations_refresh_owning_table() {
        let mut sys = live_system(17);
        let table_id = sys.lake().tables().next().expect("lake has tables").id;
        let arity = sys.lake().table(table_id).unwrap().schema.arity();
        let values: Vec<Value> = (0..arity)
            .map(|c| Value::text(format!("xylophone{c}")))
            .collect();
        let outcome = sys
            .apply(LakeMutation::AddTuple {
                table: table_id,
                values,
            })
            .expect("tuple add applies");
        // Tuple insert + table refresh: at least three content ops
        // (tuple add, table remove, table add).
        assert!(outcome.content_ops >= 3);
        let new_id = sys
            .lake()
            .tuples_of_table(table_id)
            .into_iter()
            .next_back()
            .expect("table has tuples");
        // Rank-fusion with the hash embedder shuffles exact positions, so
        // assert membership, not rank 1.
        let hits = sys.retrieve("xylophone0 xylophone1", InstanceKind::Tuple, 10);
        assert!(
            hits.iter().any(|h| h.id == InstanceId::Tuple(new_id)),
            "new tuple {new_id} missing from {hits:?}"
        );

        sys.apply(LakeMutation::RemoveTuple(new_id))
            .expect("remove");
        let hits = sys.retrieve("xylophone0 xylophone1", InstanceKind::Tuple, 10);
        assert!(hits.iter().all(|h| h.id != InstanceId::Tuple(new_id)));
    }

    #[test]
    fn compaction_drops_tombstones_and_keeps_results() {
        let mut sys = live_system(23);
        for i in 0..20 {
            sys.apply(LakeMutation::AddDoc(TextDocument::new(
                8000 + i,
                format!("ephemeral {i}"),
                format!("short-lived document number {i} about wombats"),
                0,
            )))
            .expect("add");
        }
        for i in 0..20 {
            sys.apply(LakeMutation::RemoveDoc(8000 + i))
                .expect("remove");
        }
        let before = sys.retrieve("wombats", InstanceKind::Text, 5);
        sys.compact_live(2);
        let stats = sys.live_stats();
        assert_eq!(stats.content_tombstones, 0, "compaction clears tombstones");
        assert_eq!(stats.semantic_tombstones, 0);
        let after = sys.retrieve("wombats", InstanceKind::Text, 5);
        assert_eq!(before, after, "compaction must not change results");
        assert!(after
            .iter()
            .all(|h| !matches!(h.id, InstanceId::Text(d) if d >= 8000)));
    }
}
