//! Corpus enumeration and index construction shared by the single-lake
//! build and shard builders.
//!
//! [`VerifAi::build`](crate::VerifAi::build) and the `verifai-cluster`
//! shard builder must serialize the lake *identically* — same instance
//! order, same text, same chunking — and build every index the same way,
//! or the sharded indexes would diverge from the single-lake ones and break
//! the scatter/gather identity invariant. This module is the single
//! definition of both.

use verifai_embed::{TextEmbedder, TextEmbedderConfig};
use verifai_index::{
    AnyVectorIndex, Bm25Params, FlatIndex, HnswConfig, HnswIndex, SegmentedInvertedIndex,
};
use verifai_lake::{DataLake, InstanceId};
use verifai_text::Analyzer;

use crate::config::{SemanticBackend, VerifAiConfig};

/// One serialized index entry: the instance and its text.
pub type Entry = (InstanceId, String);

/// The slot of the tuple modality in the staged pipeline's order (0 =
/// tuples, 1 = tables, 2 = texts, 3 = knowledge graph).
pub const TUPLE_MODALITY: usize = 0;

/// The slot of the text modality in the staged pipeline's order.
pub const TEXT_MODALITY: usize = 2;

/// Whether `modality` has a semantic member in a system built from
/// `config` — the one rule that the build, the shard builder,
/// [`modality_corpus`] and live mutation all read. Text, tables and the
/// knowledge graph have one when `use_semantic_index` is on. Tuples never
/// do: BM25 alone finds an imputed cell's counterpart tuple (the paper's §4
/// Indexer), so nothing embeds a tuple, stores its vector or searches a
/// tuple graph.
pub fn has_semantic_member(config: &VerifAiConfig, modality: usize) -> bool {
    config.use_semantic_index && modality != TUPLE_MODALITY
}

/// One modality's serialized corpus, in lake iteration order.
#[derive(Debug, Clone, Default)]
pub struct ModalityCorpus {
    /// Entries for the content (BM25) index: one per instance.
    pub content: Vec<Entry>,
    /// Entries for the semantic index. For text documents these are
    /// overlapping sentence chunks (paper §3.1: "chunked text files"), each
    /// under the *document's* id; for tables and the knowledge graph they
    /// mirror `content`. Empty for a modality without a semantic member
    /// ([`has_semantic_member`]).
    pub semantic: Vec<Entry>,
}

/// Serialize one modality of the lake (0 = tuples, 1 = tables, 2 = texts,
/// 3 = knowledge graph — the staged pipeline's slot order) into its content
/// entries and, where `config` gives it a semantic member, its semantic
/// entries.
pub fn modality_corpus(lake: &DataLake, modality: usize, config: &VerifAiConfig) -> ModalityCorpus {
    let content = content_entries(lake, modality);
    let semantic = match (has_semantic_member(config, modality), modality) {
        (false, _) => Vec::new(),
        (true, TEXT_MODALITY) => text_chunks(lake),
        (true, _) => content.clone(),
    };
    ModalityCorpus { content, semantic }
}

/// One modality's content entries — one per instance, in lake order. For
/// tables and the knowledge graph these are their semantic entries too.
pub fn content_entries(lake: &DataLake, modality: usize) -> Vec<Entry> {
    match modality {
        0 => lake
            .tuple_ids()
            .map(|tuple_id| {
                let tuple = lake.tuple_view(tuple_id).expect("registered tuple");
                (
                    InstanceId::Tuple(tuple_id),
                    verifai_text::serialize_tuple(tuple),
                )
            })
            .collect(),
        1 => lake
            .tables()
            .map(|table| {
                (
                    InstanceId::Table(table.id),
                    verifai_text::serialize_table(table),
                )
            })
            .collect(),
        // The content index sees each whole document.
        TEXT_MODALITY => lake
            .docs()
            .map(|doc| (InstanceId::Text(doc.id), doc.full_text()))
            .collect(),
        _ => lake
            .kg_entities()
            .map(|entity| {
                (
                    InstanceId::Kg(entity.id),
                    verifai_text::serialize_kg(entity),
                )
            })
            .collect(),
    }
}

/// The text modality's semantic entries: every document's overlapping
/// sentence chunks, each under the document's id — the Combiner's dedup
/// collapses multi-chunk hits.
pub fn text_chunks(lake: &DataLake) -> Vec<Entry> {
    let mut chunks = Vec::new();
    for doc in lake.docs() {
        for chunk in verifai_text::chunk_sentences(&doc.full_text(), 3, 1) {
            chunks.push((InstanceId::Text(doc.id), chunk.text));
        }
    }
    chunks
}

/// The content (BM25) index over `entries`. Every entry streams through
/// `SegmentedInvertedIndex::add` — bulk ingest and live mutation share one
/// code path — and one `compact` leaves a fresh index one sealed segment.
pub fn content_index(entries: &[Entry]) -> SegmentedInvertedIndex {
    let mut index = SegmentedInvertedIndex::new(Analyzer::standard(), Bm25Params::default());
    for (id, text) in entries {
        index.add(*id, text);
    }
    index.compact();
    index
}

/// The semantic index over `entries`, built on `threads` workers through
/// [`AnyVectorIndex::insert_all`]: each batch of entries is embedded when
/// its turn comes, by the workers that insert it, never the whole corpus up
/// front. Embeddings are pure functions of their text and the graph is the
/// same for every thread count, so the index is a function of the entry
/// list alone.
pub fn semantic_index(
    config: &VerifAiConfig,
    embedder: &TextEmbedder,
    entries: &[Entry],
    threads: usize,
) -> AnyVectorIndex {
    let mut index = empty_semantic(config);
    index.insert_all(entries, threads, |(id, text)| (*id, embedder.embed(text)));
    index
}

/// One build chain for `modality`: the content index over `content`, then
/// — where the modality has a semantic member — the semantic index over
/// `semantic`, on the chain's own thread. A modality without one gets
/// `None`, never an empty index.
pub fn index_chain(
    config: &VerifAiConfig,
    embedder: &TextEmbedder,
    modality: usize,
    content: &[Entry],
    semantic: &[Entry],
) -> (SegmentedInvertedIndex, Option<AnyVectorIndex>) {
    let content = content_index(content);
    let semantic = has_semantic_member(config, modality)
        .then(|| semantic_index(config, embedder, semantic, 1));
    (content, semantic)
}

/// The empty semantic backend for one modality, per the configured backend.
fn empty_semantic(config: &VerifAiConfig) -> AnyVectorIndex {
    match config.semantic_backend {
        SemanticBackend::Hnsw => AnyVectorIndex::Hnsw(Box::new(HnswIndex::new(HnswConfig {
            seed: config.seed ^ 0x45a1,
            ..HnswConfig::default()
        }))),
        SemanticBackend::Flat => AnyVectorIndex::Flat(FlatIndex::new()),
    }
}

/// The text embedder a system built from `config` uses — for queries and
/// for semantic index entries. Shard builders call this so per-shard
/// vectors are bit-identical to the single-lake build's.
pub fn embedder_for(config: &VerifAiConfig) -> TextEmbedder {
    TextEmbedder::new(TextEmbedderConfig {
        dim: config.embed_dim,
        seed: config.seed ^ 0xe3bd,
        ..TextEmbedderConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_datagen::{build, LakeSpec};
    use verifai_lake::InstanceKind;

    #[test]
    fn modalities_partition_the_lake() {
        let generated = build(&LakeSpec::tiny(7));
        let lake = &generated.lake;
        let kinds = [
            InstanceKind::Tuple,
            InstanceKind::Table,
            InstanceKind::Text,
            InstanceKind::Kg,
        ];
        let config = VerifAiConfig::default();
        for (modality, kind) in kinds.iter().enumerate() {
            let corpus = modality_corpus(lake, modality, &config);
            assert!(!corpus.content.is_empty(), "modality {modality} empty");
            assert!(corpus.content.iter().all(|(id, _)| id.kind() == *kind));
            assert!(corpus.semantic.iter().all(|(id, _)| id.kind() == *kind));
            // Text chunks outnumber documents; tables and the knowledge
            // graph mirror 1:1; tuples have no semantic member.
            match kind {
                InstanceKind::Text => assert!(corpus.semantic.len() >= corpus.content.len()),
                InstanceKind::Tuple => assert!(corpus.semantic.is_empty()),
                _ => assert_eq!(corpus.semantic.len(), corpus.content.len()),
            }
        }
        let no_semantic = modality_corpus(lake, 1, &VerifAiConfig::paper_setting());
        assert!(no_semantic.semantic.is_empty());
        assert_eq!(no_semantic.content.len(), lake.num_tables());
    }
}
