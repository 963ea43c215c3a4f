//! Corpus enumeration shared by the single-lake build and shard builders.
//!
//! [`VerifAi::build`](crate::VerifAi::build) and the `verifai-cluster`
//! shard builder must serialize the lake *identically* — same instance
//! order, same text, same chunking — or the sharded indexes would diverge
//! from the single-lake ones and break the scatter/gather identity
//! invariant. This module is the single definition of that enumeration.

use verifai_embed::{TextEmbedder, TextEmbedderConfig};
use verifai_lake::{DataLake, InstanceId};

use crate::config::VerifAiConfig;

/// One modality's serialized corpus, in lake iteration order.
#[derive(Debug, Clone, Default)]
pub struct ModalityCorpus {
    /// Entries for the content (BM25) index: one per instance.
    pub content: Vec<(InstanceId, String)>,
    /// Entries for the semantic index. For text documents these are
    /// overlapping sentence chunks (paper §3.1: "chunked text files"), each
    /// under the *document's* id; for every other modality they mirror
    /// `content`. Empty when semantic indexing is disabled.
    pub semantic: Vec<(InstanceId, String)>,
}

/// Serialize one modality of the lake (0 = tuples, 1 = tables, 2 = texts,
/// 3 = knowledge graph — the staged pipeline's slot order).
pub fn modality_corpus(lake: &DataLake, modality: usize, want_semantic: bool) -> ModalityCorpus {
    let mut corpus = ModalityCorpus::default();
    {
        let mut add = |id: InstanceId, text: String| {
            if want_semantic {
                corpus.semantic.push((id, text.clone()));
            }
            corpus.content.push((id, text));
        };
        match modality {
            0 => {
                for tuple_id in lake.tuple_ids() {
                    let tuple = lake.tuple_view(tuple_id).expect("registered tuple");
                    add(
                        InstanceId::Tuple(tuple_id),
                        verifai_text::serialize_tuple(tuple),
                    );
                }
            }
            1 => {
                for table in lake.tables() {
                    add(
                        InstanceId::Table(table.id),
                        verifai_text::serialize_table(table),
                    );
                }
            }
            2 => {
                for doc in lake.docs() {
                    // The content index sees the whole document; the
                    // semantic index embeds overlapping sentence chunks,
                    // each under the document's id — the Combiner's dedup
                    // collapses multi-chunk hits.
                    let full = doc.full_text();
                    if want_semantic {
                        for chunk in verifai_text::chunk_sentences(&full, 3, 1) {
                            corpus.semantic.push((InstanceId::Text(doc.id), chunk.text));
                        }
                    }
                    corpus.content.push((InstanceId::Text(doc.id), full));
                }
            }
            _ => {
                for entity in lake.kg_entities() {
                    add(
                        InstanceId::Kg(entity.id),
                        verifai_text::serialize_kg(entity),
                    );
                }
            }
        }
    }
    corpus
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
