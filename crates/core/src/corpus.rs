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
    VectorIndex,
};
use verifai_lake::{DataLake, InstanceId};
use verifai_text::Analyzer;

use crate::config::{SemanticBackend, VerifAiConfig};

/// One serialized index entry: the instance and its text.
pub type Entry = (InstanceId, String);

/// The slot of the text modality in the staged pipeline's order (0 =
/// tuples, 1 = tables, 2 = texts, 3 = knowledge graph).
pub const TEXT_MODALITY: usize = 2;

/// One modality's serialized corpus, in lake iteration order.
#[derive(Debug, Clone, Default)]
pub struct ModalityCorpus {
    /// Entries for the content (BM25) index: one per instance.
    pub content: Vec<Entry>,
    /// Entries for the semantic index. For text documents these are
    /// overlapping sentence chunks (paper §3.1: "chunked text files"), each
    /// under the *document's* id; for every other modality they mirror
    /// `content`. Empty when semantic indexing is disabled.
    pub semantic: Vec<Entry>,
}

/// Serialize one modality of the lake (0 = tuples, 1 = tables, 2 = texts,
/// 3 = knowledge graph — the staged pipeline's slot order) into both its
/// content and its semantic entries.
pub fn modality_corpus(lake: &DataLake, modality: usize, want_semantic: bool) -> ModalityCorpus {
    let content = content_entries(lake, modality);
    let semantic = match (want_semantic, modality) {
        (false, _) => Vec::new(),
        (true, TEXT_MODALITY) => text_chunks(lake),
        (true, _) => content.clone(),
    };
    ModalityCorpus { content, semantic }
}

/// One modality's content entries — one per instance, in lake order. For
/// every modality but text these are its semantic entries too.
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

/// The semantic index over `entries`: each one embedded and inserted in
/// entry order, through the incremental `VectorIndex::add`. Graph
/// construction is order-sensitive and embeddings are pure functions of
/// their text, so the index is a function of the entry list alone.
pub fn semantic_index(
    config: &VerifAiConfig,
    embedder: &TextEmbedder,
    entries: &[Entry],
) -> AnyVectorIndex {
    let mut index = empty_semantic(config);
    for (id, text) in entries {
        index.add(*id, embedder.embed(text));
    }
    index
}

/// One build chain: the content index over `content`, then — when the
/// semantic index is enabled — the semantic index over `semantic`.
pub fn index_chain(
    config: &VerifAiConfig,
    embedder: &TextEmbedder,
    content: &[Entry],
    semantic: &[Entry],
) -> (SegmentedInvertedIndex, Option<AnyVectorIndex>) {
    let content = content_index(content);
    let semantic = config
        .use_semantic_index
        .then(|| semantic_index(config, embedder, semantic));
    (content, semantic)
}

/// The empty semantic backend for one modality, per the configured backend
/// and scan mode (flat backends honor `quantized` / `rescore_factor`; HNSW
/// has no quantized path).
fn empty_semantic(config: &VerifAiConfig) -> AnyVectorIndex {
    match config.semantic_backend {
        SemanticBackend::Hnsw => AnyVectorIndex::Hnsw(Box::new(HnswIndex::new(HnswConfig {
            seed: config.seed ^ 0x45a1,
            ..HnswConfig::default()
        }))),
        SemanticBackend::Flat if config.quantized => {
            AnyVectorIndex::Flat(FlatIndex::new_quantized(config.rescore_factor))
        }
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
        for (modality, kind) in kinds.iter().enumerate() {
            let corpus = modality_corpus(lake, modality, true);
            assert!(!corpus.content.is_empty(), "modality {modality} empty");
            assert!(corpus.content.iter().all(|(id, _)| id.kind() == *kind));
            assert!(corpus.semantic.iter().all(|(id, _)| id.kind() == *kind));
            // Text chunks outnumber documents; other modalities mirror 1:1.
            if *kind == InstanceKind::Text {
                assert!(corpus.semantic.len() >= corpus.content.len());
            } else {
                assert_eq!(corpus.semantic.len(), corpus.content.len());
            }
        }
        let no_semantic = modality_corpus(lake, 0, false);
        assert!(no_semantic.semantic.is_empty());
        assert_eq!(no_semantic.content.len(), lake.num_tuples());
    }
}
