//! Framework configuration.

use verifai_index::FusionStrategy;
use verifai_llm::SimLlmConfig;
use verifai_verify::AgentPolicy;

/// Which structure backs the per-modality semantic index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemanticBackend {
    /// HNSW approximate graph — what a real deployment runs at the paper's
    /// corpus scale.
    Hnsw,
    /// Exact flat scan — the recall reference, and the backend sharded
    /// serving uses: HNSW results depend on the graph's insertion history,
    /// so only an exact backend keeps N-shard scatter/gather results
    /// identical to the single-lake build.
    Flat,
}

/// Configuration of a [`crate::VerifAi`] instance.
///
/// Defaults follow the paper's §4 setting: top-3 tuples and top-3 text files
/// per imputed tuple, top-5 tables per textual claim, retrieved by the
/// content index (plus the semantic index, combined by reciprocal-rank
/// fusion), refined by the task-specific rerankers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifAiConfig {
    /// Coarse top-k fetched from each index before combining. Task-agnostic
    /// indexes need a generous k (paper remark: hundreds to thousands at full
    /// scale) so the reranker has something to find.
    pub coarse_k: usize,
    /// Final evidence count per modality for tuple objects (paper: 3 tuples,
    /// 3 text files).
    pub k_tuples: usize,
    /// Final text-file count for tuple objects.
    pub k_texts: usize,
    /// Final table count for claim objects (paper: 5).
    pub k_tables: usize,
    /// Final knowledge-graph-entity count for tuple objects. The paper's §4
    /// evaluation has no KG modality (it is §5 future work), so the default is
    /// 0 (disabled); set > 0 to add KG evidence to the plan.
    pub k_kg: usize,
    /// Enable the content (BM25) index.
    pub use_content_index: bool,
    /// Enable the semantic (vector) index alongside the content index.
    pub use_semantic_index: bool,
    /// Structure backing the semantic index (ignored when it is disabled).
    pub semantic_backend: SemanticBackend,
    /// Enable the task-specific reranking stage. When disabled, the combined
    /// coarse ranking feeds the verifier directly (paper's §4 setting reports
    /// Elasticsearch-only retrieval).
    pub use_reranker: bool,
    /// Fusion strategy of the Combiner.
    pub fusion: FusionStrategy,
    /// Verifier-selection policy of the Agent.
    pub agent_policy: AgentPolicy,
    /// Behaviour of the simulated LLM (generator + generic verifier).
    pub llm: SimLlmConfig,
    /// Weight each evidence verdict by its source's current trust in the
    /// system's [`verifai_verify::TrustModel`] when deciding. That trust is
    /// the source's fixed prior (`SourceMeta::trust`, its `SourceOrigin`
    /// default) unless [`crate::VerifAi::recalibrate_trust`] re-estimated
    /// it; no estimation runs while deciding. `false` decides by unweighted
    /// majority.
    pub use_trust_weighting: bool,
    /// Embedding dimension of the semantic index.
    pub embed_dim: usize,
    /// Master seed for index/embedding determinism.
    pub seed: u64,
    /// Worker threads for the lake indexing of [`crate::VerifAi::build`]
    /// (`0` = one per available core). The built indexes are byte-identical
    /// for every thread count: each index is built by one job, in entry
    /// order, and jobs share nothing but the lake they read.
    pub build_threads: usize,
}

impl Default for VerifAiConfig {
    fn default() -> Self {
        VerifAiConfig {
            coarse_k: 50,
            k_tuples: 3,
            k_texts: 3,
            k_tables: 5,
            k_kg: 0,
            use_content_index: true,
            use_semantic_index: true,
            semantic_backend: SemanticBackend::Hnsw,
            use_reranker: true,
            fusion: FusionStrategy::ReciprocalRank { k0: 60.0 },
            agent_policy: AgentPolicy::LlmOnly,
            llm: SimLlmConfig::default(),
            use_trust_weighting: true,
            embed_dim: 128,
            seed: 0xfa1,
            build_threads: 0,
        }
    }
}

impl VerifAiConfig {
    /// `build_threads` resolved: the configured count, or one per available
    /// core for `0`.
    pub fn build_workers(&self) -> usize {
        match self.build_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// The paper's §4 retrieval setting: content index only ("we simply
    /// utilized Elasticsearch as the Indexer"), no reranker.
    pub fn paper_setting() -> VerifAiConfig {
        VerifAiConfig {
            use_semantic_index: false,
            use_reranker: false,
            ..VerifAiConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_ks() {
        let c = VerifAiConfig::default();
        assert_eq!(c.k_tuples, 3);
        assert_eq!(c.k_texts, 3);
        assert_eq!(c.k_tables, 5);
        assert!(c.coarse_k >= c.k_tables);
    }

    #[test]
    fn paper_setting_disables_extras() {
        let c = VerifAiConfig::paper_setting();
        assert!(!c.use_semantic_index);
        assert!(!c.use_reranker);
    }
}
