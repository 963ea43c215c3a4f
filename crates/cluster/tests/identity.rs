//! The cluster's headline invariant: for any shard count N, the routed
//! scatter/gather system returns results *identical* to a single-lake
//! build — same hits, same order under the total tie-break, and
//! byte-for-byte equal verification reports.
//!
//! The single-lake reference is built with the exact (flat) semantic
//! backend, since HNSW results depend on insertion history and no sharded
//! layout can reproduce them.

use verifai::{DataObject, SemanticBackend, VerifAi, VerifAiConfig};
use verifai_claims::ClaimGenConfig;
use verifai_cluster::{build_cluster, ClusterConfig};
use verifai_datagen::{build, claim_workload, completion_workload, LakeSpec};
use verifai_lake::InstanceKind;

fn flat_config() -> VerifAiConfig {
    VerifAiConfig {
        semantic_backend: SemanticBackend::Flat,
        ..VerifAiConfig::default()
    }
}

/// Workload objects plus free-text queries covering every modality slot.
fn probes(sys: &VerifAi) -> (Vec<DataObject>, Vec<String>) {
    let tasks = completion_workload(sys.generated(), 6, 3);
    let claims = claim_workload(sys.generated(), 6, ClaimGenConfig::default());
    let mut objects: Vec<DataObject> = tasks.iter().map(|t| sys.impute(t)).collect();
    objects.extend(claims.iter().map(|c| sys.claim_object(c)));
    let queries = objects.iter().map(VerifAi::query_of).collect();
    (objects, queries)
}

/// Every retrieval and report of `cluster` equals `reference`'s: the probe
/// queries plus `extra` over every modality, and the probe objects plus
/// `extra_objects`.
fn assert_identical(
    cluster: &VerifAi,
    reference: &VerifAi,
    extra: &[&str],
    extra_objects: &[DataObject],
    when: &str,
) {
    let (mut objects, queries) = probes(reference);
    let kinds = [
        InstanceKind::Tuple,
        InstanceKind::Table,
        InstanceKind::Text,
        InstanceKind::Kg,
    ];
    for query in queries
        .iter()
        .map(String::as_str)
        .chain(extra.iter().copied())
    {
        for kind in kinds {
            let want = reference.retrieve(query, kind, 12);
            let got = cluster.retrieve(query, kind, 12);
            assert_eq!(
                got, want,
                "retrieve diverged {when}: kind={kind:?} query={query:?}"
            );
        }
    }
    objects.extend_from_slice(extra_objects);
    for object in &objects {
        assert_eq!(
            cluster.verify_object(object),
            reference.verify_object(object),
            "report diverged {when} for object {}",
            object.id()
        );
    }
}

#[test]
fn routed_results_identical_to_single_lake_for_all_shard_counts() {
    let spec = LakeSpec::tiny(31);
    let reference = VerifAi::build(build(&spec), flat_config());
    for shards in 1..=8 {
        let cluster = build_cluster(
            build(&spec),
            flat_config(),
            ClusterConfig::with_shards(shards),
        );
        // Raw per-modality retrieval: same hits, same scores, same order.
        // End-to-end verification: rerank, verify, decide over routed
        // evidence must produce the same (timing-excluded) report.
        assert_identical(
            &cluster.system,
            &reference,
            &[],
            &[],
            &format!("at shards={shards}"),
        );
        // Sanity: for N > 1 the work was actually spread out.
        if shards > 1 {
            let active = cluster
                .router
                .searches_per_shard()
                .iter()
                .filter(|&&c| c > 0)
                .count();
            assert!(active > 1, "all searches landed on one shard");
        }
    }
}

#[test]
fn shard_sizes_cover_the_lake() {
    let spec = LakeSpec::tiny(7);
    let single = build_cluster(build(&spec), flat_config(), ClusterConfig::with_shards(1));
    let total: usize = single.router.shard_sizes().iter().sum();
    for shards in 2..=5 {
        let cluster = build_cluster(
            build(&spec),
            flat_config(),
            ClusterConfig::with_shards(shards),
        );
        let sizes = cluster.router.shard_sizes();
        assert_eq!(sizes.len(), shards);
        assert_eq!(
            sizes.iter().sum::<usize>(),
            total,
            "instances lost or duplicated"
        );
    }
}

/// HNSW shards are *exercised* (not just flat): per-shard graphs have
/// their own insertion histories, so byte-identity cannot hold — the
/// invariant weakens to recall against the exact flat reference. This is
/// deliberately recall-based, not order-based.
#[test]
fn hnsw_shards_recall_the_flat_reference() {
    let spec = LakeSpec::tiny(31);
    let reference = VerifAi::build(build(&spec), flat_config());
    let (_, queries) = probes(&reference);
    // Default config keeps the HNSW backend — previously the builder forced
    // Flat, leaving sharded HNSW untested.
    let cluster = build_cluster(
        build(&spec),
        VerifAiConfig::default(),
        ClusterConfig::with_shards(3),
    );
    let kinds = [
        InstanceKind::Tuple,
        InstanceKind::Table,
        InstanceKind::Text,
        InstanceKind::Kg,
    ];
    let (mut found, mut wanted) = (0usize, 0usize);
    for query in &queries {
        for kind in kinds {
            let want = reference.retrieve(query, kind, 8);
            let got = cluster.system.retrieve(query, kind, 8);
            wanted += want.len();
            found += want
                .iter()
                .filter(|w| got.iter().any(|g| g.id == w.id))
                .count();
        }
    }
    assert!(wanted > 0, "reference returned nothing");
    let recall = found as f64 / wanted as f64;
    assert!(
        recall >= 0.7,
        "sharded HNSW recall vs flat reference too low: {recall:.3} ({found}/{wanted})"
    );
}

/// Live mutations routed through the cluster keep the byte-identity
/// invariant: a single-lake live system fed the same mutation stream
/// retrieves identically (flat backend on both sides), reports the same
/// partition-independent live-lake counts, and both still agree after
/// compacting every index.
#[test]
fn routed_mutations_match_single_lake_live_system() {
    use verifai::LakeMutation;
    use verifai_lake::TextDocument;

    let spec = LakeSpec::tiny(43);
    let mut reference = VerifAi::build(build(&spec), flat_config());
    let mut cluster = build_cluster(build(&spec), flat_config(), ClusterConfig::with_shards(3));

    // A mutation stream touching every op family: doc add/update/remove,
    // tuple add/remove.
    let table_id = reference
        .lake()
        .tables()
        .next()
        .expect("lake has tables")
        .id;
    let arity = reference.lake().table(table_id).unwrap().schema.arity();
    let victim_doc = reference.lake().docs().next().expect("lake has docs").id;
    let mutations = vec![
        LakeMutation::AddDoc(TextDocument::new(
            7700,
            "Breaking update",
            "A freshly streamed document about district incumbents.",
            0,
        )),
        LakeMutation::UpdateDoc {
            id: 7700,
            title: "Corrected update".into(),
            body: "The corrected streamed document names a different incumbent.".into(),
        },
        LakeMutation::AddTuple {
            table: table_id,
            values: (0..arity)
                .map(|c| verifai_lake::Value::text(format!("streamed{c}")))
                .collect(),
        },
        LakeMutation::RemoveDoc(victim_doc),
    ];
    for m in mutations {
        let want = reference.apply(m.clone()).expect("reference applies");
        let got = cluster.system.apply(m).expect("cluster applies");
        assert_eq!(got, want, "mutation outcomes diverged");
    }
    // Remove one tuple (the freshly streamed one) on both sides.
    let new_tuple = reference
        .lake()
        .tuples_of_table(table_id)
        .into_iter()
        .next_back()
        .expect("table has tuples");
    reference
        .apply(LakeMutation::RemoveTuple(new_tuple))
        .expect("reference removes");
    cluster
        .system
        .apply(LakeMutation::RemoveTuple(new_tuple))
        .expect("cluster removes");

    // The counts that do not depend on how the lake is partitioned: the
    // cluster owns its shards' indexes, so its live-lake stats are real.
    let (got, want) = (cluster.system.live_stats(), reference.live_stats());
    assert_eq!(got.generation, want.generation);
    assert_eq!(got.mutations, want.mutations);
    assert_eq!(got.lake_tombstones, want.lake_tombstones);
    assert_eq!(got.content_docs, want.content_docs);
    assert_eq!(got.semantic_vectors, want.semantic_vectors);
    assert!(got.content_docs > 0 && got.semantic_vectors > 0);
    assert!(
        got.content_tombstones > 0 && got.semantic_tombstones > 0,
        "the stream left tombstones to compact: {got:?}"
    );
    // Rerank sits behind retrieval on both sides, scoring against prepared
    // evidence features that `VerifAi::apply` kept current through the
    // same stream: same entries, same reports — including a claim aimed at
    // the table whose row was added and removed again.
    assert_eq!(got.prepared_instances, want.prepared_instances);
    let claim = DataObject::TextClaim(verifai::TextClaim {
        id: 770_001,
        text: format!(
            "in the {}, streamed0 is streamed1",
            reference.lake().table(table_id).unwrap().caption()
        ),
        expr: None,
        scope: None,
    });
    let extra = [
        "freshly streamed document incumbents",
        "streamed0 streamed1",
    ];
    let extra_objects = [claim];
    assert_identical(
        &cluster.system,
        &reference,
        &extra,
        &extra_objects,
        "after mutation",
    );

    // Compaction reaches every shard: no tombstone survives on either side,
    // and nothing it drops was visible to a search.
    for system in [&cluster.system, &reference] {
        system.compact_live(2);
        let stats = system.live_stats();
        assert_eq!(stats.content_tombstones, 0, "content tombstones survive");
        assert_eq!(stats.semantic_tombstones, 0, "semantic tombstones survive");
    }
    assert_identical(
        &cluster.system,
        &reference,
        &extra,
        &extra_objects,
        "after compaction",
    );
}

/// The batched scatter path returns exactly what per-query scatters would,
/// for the exact flat shard backend.
#[test]
fn routed_batch_search_matches_per_query_search() {
    use verifai_embed::TextEmbedder;
    use verifai_index::SourceQuery;
    let spec = LakeSpec::tiny(31);
    let cluster = build_cluster(build(&spec), flat_config(), ClusterConfig::with_shards(3));
    let (_, texts) = probes(&cluster.system);
    let embedder = TextEmbedder::with_seed(9);
    let vectors: Vec<_> = texts.iter().map(|t| embedder.embed(t)).collect();
    // Every fourth query goes vector-less (semantic member disabled).
    let queries: Vec<SourceQuery<'_>> = texts
        .iter()
        .zip(&vectors)
        .enumerate()
        .map(|(i, (text, vector))| SourceQuery {
            text,
            vector: (i % 4 != 3).then_some(vector),
            ctx: verifai_obs::SpanContext::none(),
        })
        .collect();
    for kind in [InstanceKind::Tuple, InstanceKind::Table, InstanceKind::Text] {
        let want: Vec<_> = queries
            .iter()
            .map(|q| cluster.router.search(kind, *q, 10))
            .collect();
        assert_eq!(
            cluster.router.search_batch(kind, &queries, 10),
            want,
            "batched scatter diverged: kind={kind:?}"
        );
    }
}

#[test]
fn router_snapshot_carries_shard_labels() {
    let spec = LakeSpec::tiny(11);
    let cluster = build_cluster(build(&spec), flat_config(), ClusterConfig::with_shards(3));
    let (_, queries) = probes(&cluster.system);
    for query in &queries {
        cluster.system.retrieve(query, InstanceKind::Tuple, 8);
    }
    let text = verifai_obs::render_prometheus(&cluster.router.snapshot());
    for shard in 0..3 {
        assert!(
            text.contains(&format!(
                "verifai_shard_searches_total{{shard=\"{shard}\"}}"
            )),
            "missing shard {shard} series in:\n{text}"
        );
        // The per-shard latency histogram a burn rate is queried from.
        assert!(
            text.contains(&format!(
                "verifai_shard_latency_seconds{{shard=\"{shard}\",quantile=\"0.99\"}}"
            )),
            "missing shard {shard} latency series in:\n{text}"
        );
    }
    let json = verifai_obs::render_json(&cluster.router.snapshot()).to_string();
    assert!(
        json.contains("verifai_shard_searches_total{shard=\\\"2\\\"}"),
        "labeled series key missing from JSON export: {json}"
    );
}
