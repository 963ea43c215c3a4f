//! Partition a generated lake into shards and assemble the routed system.

use std::sync::Arc;

use parking_lot::RwLock;
use verifai::corpus::{embedder_for, index_chain, modality_corpus, ModalityCorpus};
use verifai::live::share_corpus_stats;
use verifai::{shard_of, BuildStats, LiveIndexes, SharedSemantic, VerifAi, VerifAiConfig};
use verifai_datagen::GeneratedLake;
use verifai_index::{AnyVectorIndex, Combiner, EvidenceSource, SegmentedInvertedIndex};
use verifai_lake::InstanceKind;
use verifai_obs::{ns_between, Clock, SystemClock};

use crate::router::{RoutedSource, Router};

/// Shape of the in-process cluster: how many shards. Each shard's pool
/// has one worker behind a 64-deep queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of shards the lake is partitioned into (min 1).
    pub shards: usize,
}

impl ClusterConfig {
    /// An `n`-shard cluster.
    pub fn with_shards(n: usize) -> ClusterConfig {
        ClusterConfig { shards: n.max(1) }
    }
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig::with_shards(4)
    }
}

/// A built cluster: the assembled [`VerifAi`] system, which owns the
/// shards' live indexes and retrieves through the router, plus the router
/// itself for shard-level introspection.
pub struct ClusterBuild {
    /// The system; drop-in for a single-lake build everywhere (including
    /// behind `verifai_service::VerificationService`). Mutations go through
    /// its [`VerifAi::apply`], which routes them to the owning shards.
    pub system: VerifAi,
    /// The scatter/gather front end (shared with the system's sources).
    pub router: Arc<Router>,
}

/// Build a sharded system over `generated`: enumerate the corpus exactly as
/// [`VerifAi::build`] does, hash-partition every instance with
/// [`shard_of`], build per-shard content + semantic indexes in parallel,
/// install the merged [`verifai_index::CorpusStats`] so shard-local BM25
/// scores globally (N > 1), and assemble a [`VerifAi`] that owns the shards'
/// live indexes and whose four modality sources scatter/gather through a
/// [`Router`] over the same handles.
///
/// The semantic backend follows `config.semantic_backend`. With
/// [`SemanticBackend::Flat`] (exact scan) the routed results are
/// *byte-identical* to a single-lake flat reference. With HNSW the per-shard
/// graphs have their own insertion histories, so sharded results match the
/// single-lake build only in recall terms — prefer flat when asserting
/// identity, HNSW when throughput matters.
pub fn build_cluster(
    generated: GeneratedLake,
    config: VerifAiConfig,
    cluster: ClusterConfig,
) -> ClusterBuild {
    build_cluster_with_clock(generated, config, cluster, Arc::new(SystemClock))
}

/// [`build_cluster`] with an explicit clock for build timings, stage
/// timings, and the router's SLO evaluation.
pub fn build_cluster_with_clock(
    generated: GeneratedLake,
    config: VerifAiConfig,
    cluster: ClusterConfig,
    clock: Arc<dyn Clock>,
) -> ClusterBuild {
    let build_start = clock.now();
    let n = cluster.shards.max(1);
    let threads = config.build_workers();
    let embedder = embedder_for(&config);
    let index_start = clock.now();

    // Enumerate each modality once (identical to the single-lake build) and
    // partition its entries by instance id. Partitioning is stable: within
    // a shard, entries keep lake order, so per-shard indexes insert in the
    // same relative order the single-lake index would.
    let lake = &generated.lake;
    let mut partitions: Vec<ModalityCorpus> = Vec::with_capacity(4 * n);
    for modality in 0..4 {
        let corpus = modality_corpus(lake, modality, &config);
        let mut per_shard: Vec<ModalityCorpus> = vec![ModalityCorpus::default(); n];
        for (id, text) in corpus.content {
            per_shard[shard_of(id, n)].content.push((id, text));
        }
        for (id, text) in corpus.semantic {
            per_shard[shard_of(id, n)].semantic.push((id, text));
        }
        partitions.extend(per_shard);
    }
    let embedded: usize = partitions.iter().map(|p| p.semantic.len()).sum();

    // Build every (modality, shard) index pair in parallel, one chain job
    // each — the single-lake build's chain, so a shard's slot for a
    // modality without a semantic member is `None`, as the single lake's is.
    type BuiltPair = (SegmentedInvertedIndex, Option<AnyVectorIndex>);
    let mut built: Vec<Option<BuiltPair>> = (0..4 * n).map(|_| None).collect();
    {
        let (config, embedder) = (&config, &embedder);
        let jobs: Vec<Box<dyn FnOnce() + Send>> = built
            .iter_mut()
            .zip(partitions)
            .enumerate()
            .map(|(i, (slot, corpus))| {
                let job: Box<dyn FnOnce() + Send> = Box::new(move || {
                    *slot = Some(index_chain(
                        config,
                        embedder,
                        i / n,
                        &corpus.content,
                        &corpus.semantic,
                    ));
                });
                job
            })
            .collect();
        verifai::exec::run_scoped(threads, jobs);
    }

    // Regroup per shard into the system's live indexes. Every shard holds
    // a content index, as the single lake does; the router searches it only
    // when the config enables content retrieval.
    let shards: Vec<LiveIndexes> = (0..n)
        .map(|s| {
            let mut semantic: [Option<SharedSemantic>; 4] = Default::default();
            let content = std::array::from_fn(|modality| {
                let (content, vectors) = built[modality * n + s]
                    .take()
                    .expect("every shard job filled its slot");
                semantic[modality] = vectors.map(|i| Arc::new(RwLock::new(i)));
                Arc::new(RwLock::new(content))
            });
            LiveIndexes { content, semantic }
        })
        .collect();
    // Merge per-modality corpus statistics and install them on every shard:
    // shard-local BM25 then scores with global idf and average length,
    // making per-shard scores exactly the single-index scores.
    if n > 1 {
        for modality in 0..4 {
            share_corpus_stats(&shards, modality);
        }
    }
    let index_ns = ns_between(index_start, clock.now());

    let router = Arc::new(Router::new(
        shards.clone(),
        Combiner::new(config.fusion),
        config.use_content_index,
        clock.clone(),
    ));
    let sources: [Box<dyn EvidenceSource>; 4] = [
        Box::new(RoutedSource::new(router.clone(), InstanceKind::Tuple)),
        Box::new(RoutedSource::new(router.clone(), InstanceKind::Table)),
        Box::new(RoutedSource::new(router.clone(), InstanceKind::Text)),
        Box::new(RoutedSource::new(router.clone(), InstanceKind::Kg)),
    ];
    let build_stats = BuildStats {
        wall_ns: ns_between(build_start, clock.now()),
        index_ns,
        embedded,
        threads,
    };
    let system = VerifAi::from_shards(generated, config, shards, sources, build_stats, clock);
    ClusterBuild { system, router }
}
