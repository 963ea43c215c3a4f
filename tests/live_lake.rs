//! Satellite: the live lake's headline equivalence property.
//!
//! Any interleaved ingest/update/delete/query history applied to a live
//! system must leave it retrieving — and verifying — exactly as a fresh
//! batch build over the *surviving* corpus would. Exercised three ways:
//!
//! * content-only (`paper_setting`) — isolates the segmented inverted
//!   index against its monolithic-equivalent batch build;
//! * flat semantic backend — byte-identity across fused retrieval and
//!   full verification reports;
//! * HNSW backend — insertion-history dependent, so equivalence weakens
//!   to recall against its own fresh batch build.
//!
//! The rerank stage scores against *prepared* evidence features kept
//! current by the same mutations (DESIGN.md §18, §20), so the property
//! extends to it: after any history, the staged rerank equals a store-less
//! oracle over the same candidates and the rerank of a fresh batch build —
//! for document, table and tuple evidence alike.

use proptest::prelude::*;
use verifai::{DataObject, LakeMutation, SemanticBackend, TextClaim, VerifAi, VerifAiConfig};
use verifai_claims::ClaimGenConfig;
use verifai_datagen::{build, claim_workload, completion_workload, LakeSpec};
use verifai_index::SegmentedInvertedIndex;
use verifai_lake::{
    Column, DataInstance, DataType, InstanceId, InstanceKind, Schema, Table, TextDocument, Value,
};
use verifai_rerank::composite::CompositeReranker;

/// `script` menus: document and tuple ops; those plus whole tables; tuple
/// and table ops only (the tuple-evidence history).
const DOC_AND_TUPLE_OPS: [usize; 7] = [0, 1, 2, 3, 4, 5, 6];
const ALL_OPS: [usize; 9] = [0, 1, 2, 3, 4, 5, 6, 7, 8];
const TUPLE_AND_TABLE_OPS: [usize; 6] = [3, 4, 5, 7, 8, 9];

const KINDS: [InstanceKind; 4] = [
    InstanceKind::Tuple,
    InstanceKind::Table,
    InstanceKind::Text,
    InstanceKind::Kg,
];

fn flat_config() -> VerifAiConfig {
    VerifAiConfig {
        semantic_backend: SemanticBackend::Flat,
        ..VerifAiConfig::default()
    }
}

/// xorshift64* — enough randomness for op selection, fully deterministic.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn doc_body(tag: u64) -> String {
    format!(
        "Streamed bulletin {tag}: the district incumbent filed report {tag} with the commission."
    )
}

/// Generate a valid interleaved mutation script by replaying each candidate
/// op against a scratch copy of the lake — so updates and removals can
/// target instances created earlier in the same history (including re-adds
/// of tombstoned doc ids), and every op is legal when the test replays it.
///
/// Each op is drawn from `menu` (see the `*_OPS` menus). Whole tables are
/// streamed in and out by ops 7 and 8 (only tables the script itself added
/// are removed, so workloads generated from the original lake keep their
/// source tables); op 9 removes the *first* row of a table that has more,
/// so every later row of it shifts down one index under its unchanged id.
fn script(spec: &LakeSpec, seed: u64, len: usize, menu: &[usize]) -> Vec<LakeMutation> {
    let mut scratch = build(spec).lake;
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(len);
    let mut next_doc: u64 = 9_000; // clear of every generated doc id
    let mut next_table: u64 = 9_000; // likewise for tables
    let mut streamed_tables: Vec<u64> = Vec::new();
    while out.len() < len {
        let tables: Vec<_> = scratch.tables().map(|t| (t.id, t.schema.arity())).collect();
        let docs: Vec<_> = scratch.docs().map(|d| d.id).collect();
        let tuples: Vec<_> = scratch.tuple_ids().collect();
        let mutation = match menu[rng.below(menu.len())] {
            9 if tables
                .iter()
                .any(|&(t, _)| scratch.tuples_of_table(t).len() > 1) =>
            {
                let shiftable: Vec<_> = tables
                    .iter()
                    .map(|&(t, _)| scratch.tuples_of_table(t))
                    .filter(|rows| rows.len() > 1)
                    .collect();
                LakeMutation::RemoveTuple(shiftable[rng.below(shiftable.len())][0])
            }
            7 => {
                let id = next_table;
                next_table += 1;
                streamed_tables.push(id);
                let mut table = Table::new(
                    id,
                    format!("Streamed district ledger {id}"),
                    Schema::new(vec![
                        Column::key("district", DataType::Text),
                        Column::new("incumbent", DataType::Text),
                    ]),
                    0,
                );
                for row in 0..1 + rng.below(3) {
                    table
                        .push_row(vec![
                            Value::text(format!("ledger{id}r{row}")),
                            Value::text(format!("incumbent{}", rng.next() % 40)),
                        ])
                        .expect("row matches the schema");
                }
                LakeMutation::AddTable(table)
            }
            8 if !streamed_tables.is_empty() => LakeMutation::RemoveTable(
                streamed_tables.swap_remove(rng.below(streamed_tables.len())),
            ),
            0 => {
                let id = next_doc;
                next_doc += 1;
                LakeMutation::AddDoc(TextDocument::new(
                    id,
                    format!("Bulletin {id}"),
                    doc_body(id),
                    0,
                ))
            }
            1 if !docs.is_empty() => {
                let id = docs[rng.below(docs.len())];
                let tag = rng.next() % 50;
                LakeMutation::UpdateDoc {
                    id,
                    title: format!("Revised bulletin {tag}"),
                    body: doc_body(tag),
                }
            }
            2 if docs.len() > 2 => LakeMutation::RemoveDoc(docs[rng.below(docs.len())]),
            3 => {
                let (table, arity) = tables[rng.below(tables.len())];
                let tag = rng.next() % 40;
                LakeMutation::AddTuple {
                    table,
                    values: (0..arity)
                        .map(|c| Value::text(format!("streamed{tag}c{c}")))
                        .collect(),
                }
            }
            4 if !tuples.is_empty() => {
                let id = tuples[rng.below(tuples.len())];
                let arity = scratch.tuple(id).expect("live tuple").values.len();
                let tag = rng.next() % 40;
                LakeMutation::UpdateTuple {
                    id,
                    values: (0..arity)
                        .map(|c| Value::text(format!("revised{tag}c{c}")))
                        .collect(),
                }
            }
            5 if tuples.len() > 4 => LakeMutation::RemoveTuple(tuples[rng.below(tuples.len())]),
            _ => {
                let id = next_doc;
                next_doc += 1;
                LakeMutation::AddDoc(TextDocument::new(
                    id,
                    format!("Bulletin {id}"),
                    doc_body(id),
                    0,
                ))
            }
        };
        verifai::mutate_lake(&mut scratch, mutation.clone()).expect("script op is valid");
        out.push(mutation);
    }
    out
}

/// The batch reference: apply the same history to a freshly generated lake
/// *before* indexing, so the build only ever sees the surviving corpus.
fn batch_reference(spec: &LakeSpec, history: &[LakeMutation], config: VerifAiConfig) -> VerifAi {
    let mut generated = build(spec);
    for mutation in history {
        verifai::mutate_lake(&mut generated.lake, mutation.clone()).expect("replay is valid");
    }
    VerifAi::build(generated, config)
}

/// The live system: batch-build the original corpus, then stream the
/// history through `apply`, interleaving queries to exercise concurrent
/// read paths mid-history.
fn live_system(spec: &LakeSpec, history: &[LakeMutation], config: VerifAiConfig) -> VerifAi {
    let mut sys = VerifAi::build(build(spec), config);
    for (i, mutation) in history.iter().enumerate() {
        sys.apply(mutation.clone()).expect("live apply succeeds");
        if i % 3 == 0 {
            // Interleaved query: must not panic or observe torn state.
            let hits = sys.retrieve("district incumbent report", InstanceKind::Text, 5);
            assert!(hits.len() <= 5);
        }
    }
    sys
}

/// Probe queries: claim texts over surviving tables plus synthetic queries
/// that only match streamed-in documents.
fn probe_queries(reference: &VerifAi) -> Vec<String> {
    let claims = claim_workload(reference.generated(), 6, ClaimGenConfig::default());
    let mut queries: Vec<String> = claims
        .iter()
        .map(|c| VerifAi::query_of(&reference.claim_object(c)))
        .collect();
    queries.push("Bulletin 9000 district incumbent report".into());
    queries.push("streamed bulletin commission filing".into());
    queries
}

fn assert_identical(live: &VerifAi, reference: &VerifAi, label: &str) {
    for query in probe_queries(reference) {
        for kind in KINDS {
            let want = reference.retrieve(&query, kind, 10);
            let got = live.retrieve(&query, kind, 10);
            assert_eq!(
                got, want,
                "[{label}] retrieve diverged: kind={kind:?} query={query:?}"
            );
        }
    }
    // Full verification reports over the surviving tables must match too.
    for claim in claim_workload(reference.generated(), 6, ClaimGenConfig::default()) {
        let object = reference.claim_object(&claim);
        let want = reference.verify_object(&object);
        let got = live.verify_object(&object);
        assert_eq!(
            got, want,
            "[{label}] report diverged for claim: {}",
            claim.text
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Interleaved history ≡ fresh batch build of the surviving corpus —
    /// byte-identical retrieval and verification for the exact backends
    /// (segmented inverted index alone, then fused with the flat vector
    /// index).
    #[test]
    fn interleaved_history_equals_batch_build_of_survivors(seed in 0u64..1000) {
        let spec = LakeSpec::tiny(seed % 97);
        let history = script(&spec, seed, 24, &DOC_AND_TUPLE_OPS);

        for (config, label) in [
            (VerifAiConfig::paper_setting(), "content-only"),
            (flat_config(), "flat-fused"),
        ] {
            let live = live_system(&spec, &history, config);
            let reference = batch_reference(&spec, &history, config);
            prop_assert_eq!(
                live.lake().generation(),
                reference.lake().generation(),
                "generations diverged for {}", label
            );
            assert_identical(&live, &reference, label);
        }
    }
}

/// What `script` never guarantees, in one tail: a streamed document whose
/// title and body are then replaced (its fact sentence changes its value),
/// one added and removed again, a table streamed in and out, and tuple
/// writes — all on ids clear of anything `script` uses.
fn tail_of_every_kind(lake_table: u64, arity: usize) -> Vec<LakeMutation> {
    let fact = |tag: u64| {
        format!("Bulletin 9500 was filed by the district. The incumbent of bulletin 9500 is filer {tag}.")
    };
    let ledger = |id: u64| {
        let mut table = Table::new(
            id,
            format!("Ledger {id}: the districts (revised)"),
            Schema::new(vec![
                Column::key("district", DataType::Text),
                Column::new("incumbent", DataType::Text),
            ]),
            0,
        );
        table
            .push_row(vec![Value::text("bulletin 9500"), Value::text("filer 1")])
            .expect("row matches the schema");
        table
    };
    vec![
        LakeMutation::AddDoc(TextDocument::new(9_500, "Bulletin 9500", fact(1), 0)),
        LakeMutation::AddDoc(TextDocument::new(9_501, "Bulletin 9501", fact(2), 0)),
        LakeMutation::AddTable(ledger(9_500)),
        LakeMutation::AddTable(ledger(9_501)),
        LakeMutation::UpdateDoc {
            id: 9_500,
            title: "Bulletin 9500, revised".into(),
            body: fact(3),
        },
        LakeMutation::RemoveDoc(9_501),
        LakeMutation::RemoveTable(9_501),
        LakeMutation::AddTuple {
            table: lake_table,
            values: (0..arity)
                .map(|c| Value::text(format!("tail{c}")))
                .collect(),
        },
    ]
}

/// `view` rebuilt from its raw fields alone, so whatever it prepares is
/// prepared fresh: a document from its title and body, a table from its
/// caption and rows.
fn rebuilt(view: verifai_lake::InstanceRef<'_>) -> DataInstance {
    use verifai_lake::InstanceRef;
    match view {
        InstanceRef::Text(doc) => DataInstance::Text(
            TextDocument::new(doc.id, doc.title(), doc.body(), doc.source)
                .with_entities(doc.entities.clone()),
        ),
        InstanceRef::Table(table) => {
            let mut fresh = Table::new(
                table.id,
                table.caption(),
                table.schema.clone(),
                table.source,
            );
            for row in table.rows() {
                fresh
                    .push_row(row.clone())
                    .expect("row matches its own schema");
            }
            DataInstance::Table(fresh)
        }
        other => other.to_owned(),
    }
}

/// Prepared evidence follows the live lake. After histories of document
/// adds, updates and removals, tables streamed in and out, and tuple
/// writes: every live document and table holds the prepared form a fresh
/// build of its raw fields would (normalized text and sentence cuts,
/// normalized caption); the verifier judges the lake's copies exactly as it
/// judges rebuilt ones; and the live system's reports — for claims, for
/// workload cells, and for a cell aimed at the document whose text was
/// replaced — equal a fresh batch build's.
#[test]
fn prepared_evidence_follows_the_live_lake() {
    use verifai::RequestTrace;
    use verifai_lake::value::normalize_str;
    let config = flat_config();
    for seed in [3u64, 58, 911] {
        let spec = LakeSpec::tiny(seed % 97);
        let mut history = script(&spec, seed, 24, &ALL_OPS);
        let mut scratch = build(&spec).lake;
        for mutation in &history {
            verifai::mutate_lake(&mut scratch, mutation.clone()).expect("script op is valid");
        }
        let (table, arity) = scratch
            .tables()
            .map(|t| (t.id, t.schema.arity()))
            .next()
            .expect("a table survives");
        history.extend(tail_of_every_kind(table, arity));
        let live = live_system(&spec, &history, config);
        let reference = batch_reference(&spec, &history, config);

        for doc in live.lake().docs() {
            let fresh = TextDocument::new(doc.id, doc.title(), doc.body(), doc.source);
            assert_eq!(
                doc.normalized(),
                fresh.normalized(),
                "seed {seed}: doc {}",
                doc.id
            );
        }
        for table in live.lake().tables() {
            assert_eq!(table.normalized_caption(), normalize_str(table.caption()));
        }

        let mut objects: Vec<DataObject> = completion_workload(reference.generated(), 4, 5)
            .iter()
            .map(|t| reference.impute(t))
            .collect();
        objects.extend(
            claim_workload(reference.generated(), 4, ClaimGenConfig::default())
                .iter()
                .map(|c| reference.claim_object(c)),
        );
        let schema = Schema::new(vec![
            Column::key("district", DataType::Text),
            Column::new("incumbent", DataType::Text),
        ]);
        for (id, value) in [(900_200, "filer 3"), (900_201, "filer 1")] {
            objects.push(DataObject::ImputedCell(verifai::ImputedCell {
                id,
                tuple: verifai_lake::Tuple {
                    id: 0,
                    table: 0,
                    row_index: 0,
                    schema: schema.clone(),
                    values: vec![Value::text("Bulletin 9500"), Value::Null],
                    source: 0,
                },
                column: "incumbent".into(),
                value: Value::text(value),
            }));
        }
        let mut judged_updated_doc = false;
        for object in &objects {
            let want = reference.verify_object(object);
            assert_eq!(
                live.verify_object(object),
                want,
                "seed {seed}: object {}",
                object.id()
            );
            let (views, timing) = live.discover(object, &mut RequestTrace::disabled());
            judged_updated_doc |= views.iter().any(|(v, _)| v.id() == InstanceId::Text(9_500));
            let in_place = live.judge(
                object,
                &views,
                None,
                timing,
                None,
                &mut RequestTrace::disabled(),
            );
            let copies = views.iter().map(|&(v, s)| (rebuilt(v), s)).collect();
            assert_eq!(
                live.verify_with_evidence(object, copies),
                in_place,
                "seed {seed}: object {} judged differently against rebuilt evidence",
                object.id()
            );
            assert_eq!(in_place, want);
        }
        assert!(
            judged_updated_doc,
            "seed {seed}: the replaced document was never judged"
        );
    }
}

/// Per-modality content segment counts of a live system.
fn content_segments(sys: &VerifAi) -> Vec<usize> {
    let live = sys.live().expect("a built system is live");
    live.content.iter().map(|c| c.read().segments()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The same equivalence over a history long enough, at a seal threshold
    /// small enough, to cross the segment fan-out cap: tail merges run on
    /// the `apply` path mid-history, every modality stays within the
    /// segment bound after every step, and the survivors still retrieve and
    /// verify bit-identically to a fresh batch build.
    #[test]
    fn long_history_merges_tails_and_equals_batch_build(seed in 0u64..1000) {
        let spec = LakeSpec::tiny(seed % 97);
        let history = script(&spec, seed, 96, &DOC_AND_TUPLE_OPS);
        let config = VerifAiConfig::paper_setting();
        let mut live = VerifAi::build(build(&spec), config);
        for content in &live.live().expect("a built system is live").content {
            let mut index = content.write();
            *index = std::mem::take(&mut *index).with_seal_threshold(2);
        }
        let mut tail_merges = 0;
        for mutation in &history {
            let before = (content_segments(&live), live.live_stats().content_compactions);
            live.apply(mutation.clone()).expect("live apply succeeds");
            let after = (content_segments(&live), live.live_stats().content_compactions);
            prop_assert!(
                after.0.iter().all(|&s| s <= SegmentedInvertedIndex::MAX_SEGMENTS),
                "segment bound exceeded: {:?}", after.0
            );
            // Fewer segments without a full compaction: a tail merge.
            if after.1 == before.1 && after.0.iter().zip(&before.0).any(|(a, b)| a < b) {
                tail_merges += 1;
            }
        }
        prop_assert!(tail_merges > 0, "the history never crossed the fan-out cap");
        let reference = batch_reference(&spec, &history, config);
        assert_identical(&live, &reference, "long-history");
    }
}

/// A fresh build — single lake or sharded — stands on one sealed content
/// segment per non-empty modality (per shard), however many seal
/// thresholds' worth of instances streamed through it.
#[test]
fn fresh_builds_stand_on_one_segment_per_modality() {
    // The tiny lake, with enough film tuples to seal the tuple memtable
    // several times over during the build — on every shard.
    let spec = LakeSpec {
        film_tables: 12,
        films_per_table: 100,
        ..LakeSpec::tiny(41)
    };
    let generated = build(&spec);
    let lake = &generated.lake;
    assert!(lake.num_tuples() > 4 * 256);
    assert!(lake.num_tables() > 0 && lake.num_docs() > 0 && lake.num_kg_entities() > 0);
    let sys = VerifAi::build(generated, VerifAiConfig::paper_setting());
    assert_eq!(sys.live_stats().content_segments, 4);

    let cluster = verifai_cluster::build_cluster(
        build(&spec),
        VerifAiConfig::paper_setting(),
        verifai_cluster::ClusterConfig::with_shards(2),
    );
    assert_eq!(cluster.router.content_segments(), vec![4, 4]);
}

/// HNSW is insertion-history dependent: streaming inserts grow the graph
/// incrementally, a batch build inserts in corpus order — so equivalence
/// weakens from byte-identity to recall against the fresh batch build.
#[test]
fn hnsw_live_history_recalls_its_batch_build() {
    let spec = LakeSpec::tiny(17);
    let history = script(&spec, 17, 24, &DOC_AND_TUPLE_OPS);
    let live = live_system(&spec, &history, VerifAiConfig::default());
    let reference = batch_reference(&spec, &history, VerifAiConfig::default());

    let (mut found, mut wanted) = (0usize, 0usize);
    for query in probe_queries(&reference) {
        for kind in KINDS {
            let want = reference.retrieve(&query, kind, 8);
            let got = live.retrieve(&query, kind, 8);
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
        "live HNSW recall vs batch build too low: {recall:.3} ({found}/{wanted})"
    );
}

/// Tuples are retrieved by BM25 alone: the build embeds every text chunk,
/// table and knowledge-graph entity and no tuple, and a tuple write embeds
/// only its owning table's refreshed entry, while a document still embeds
/// its chunks.
#[test]
fn tuples_are_bm25_only() {
    let mut sys = VerifAi::build(build(&LakeSpec::tiny(41)), VerifAiConfig::default());
    let live = sys.live().expect("a built system owns its indexes");
    assert!(live.semantic[0].is_none(), "a tuple semantic index");
    assert!(live.semantic[1..].iter().all(Option::is_some));
    let lake = sys.lake();
    let entries =
        verifai::corpus::text_chunks(lake).len() + lake.num_tables() + lake.num_kg_entities();
    assert_eq!(sys.build_stats().embedded, entries);
    assert_eq!(sys.live_stats().semantic_vectors, entries);

    let table = lake.tables().next().expect("a table");
    let (table, arity) = (table.id, table.schema.arity());
    let row = |tag: &str| {
        (0..arity)
            .map(|c| Value::text(format!("{tag}{c}")))
            .collect()
    };
    let tuple = lake.tuples_of_table(table)[0];
    let vectors = sys.live_stats().semantic_vectors;
    for mutation in [
        LakeMutation::AddTuple {
            table,
            values: row("added"),
        },
        LakeMutation::UpdateTuple {
            id: tuple,
            values: row("updated"),
        },
    ] {
        let outcome = sys.apply(mutation).expect("tuple write applies");
        assert_eq!(outcome.embedded, 1, "only the owning table re-embeds");
        assert_eq!(sys.live_stats().semantic_vectors, vectors);
    }

    let doc = TextDocument::new(9_700, "Bulletin 9700", doc_body(9_700), 0);
    let chunks = verifai_text::chunk_sentences(&doc.full_text(), 3, 1).len();
    assert!(chunks > 0);
    let outcome = sys
        .apply(LakeMutation::AddDoc(doc))
        .expect("doc add applies");
    assert_eq!(outcome.embedded, chunks, "a document embeds its chunks");
    assert_eq!(sys.live_stats().semantic_vectors, vectors + chunks);
}

/// The modalities (coarse k, final k) the pipeline consults for `object`.
fn rerank_plan(object: &DataObject, config: &VerifAiConfig) -> Vec<(InstanceKind, usize, usize)> {
    let finals = match object {
        DataObject::ImputedCell(_) => vec![
            (InstanceKind::Tuple, config.k_tuples),
            (InstanceKind::Text, config.k_texts),
        ],
        DataObject::TextClaim(_) => vec![(InstanceKind::Table, config.k_tables)],
    };
    finals
        .into_iter()
        .map(|(kind, k)| (kind, config.coarse_k.max(k), k))
        .collect()
}

/// One modality's staged rerank for `object` — through the system's rerank
/// stage and its prepared-feature store — checked bit for bit against
/// `verifai_rerank::rerank` over the same resolved candidates with a fresh
/// reranker, which prepares everything on the spot and has no store.
fn staged_rerank_checked(
    sys: &VerifAi,
    object: &DataObject,
    (kind, coarse_k, final_k): (InstanceKind, usize, usize),
    label: &str,
) -> Vec<(InstanceId, u64)> {
    let hits = sys.retrieve(&VerifAi::query_of(object), kind, coarse_k);
    let ids: Vec<(InstanceId, f64)> = hits.iter().map(|h| (h.id, h.score)).collect();
    let resolved = sys
        .try_resolve_evidence(&ids)
        .expect("fresh hits resolve against the lake they came from");
    let instances: Vec<DataInstance> = resolved.iter().map(|(i, _)| i.clone()).collect();
    let staged = sys
        .stages()
        .rerank_stage()
        .rerank(object, resolved, final_k);
    let oracle = verifai_rerank::rerank(
        &CompositeReranker::with_defaults(),
        object,
        instances,
        final_k,
    );
    let bits = |ranked: &[(DataInstance, f64)]| -> Vec<(InstanceId, u64)> {
        ranked.iter().map(|(i, s)| (i.id(), s.to_bits())).collect()
    };
    assert_eq!(
        bits(&staged),
        bits(&oracle),
        "[{label}] staged rerank diverged from the store-less oracle: kind={kind:?} object={}",
        object.id()
    );
    bits(&staged)
}

/// A sample of objects for rerank probes: imputed cells and claims from the
/// reference's workloads, plus claims aimed at what the history streamed in.
fn rerank_probe_objects(reference: &VerifAi) -> Vec<DataObject> {
    let mut objects: Vec<DataObject> = completion_workload(reference.generated(), 4, 5)
        .iter()
        .map(|t| reference.impute(t))
        .collect();
    objects.extend(
        claim_workload(reference.generated(), 4, ClaimGenConfig::default())
            .iter()
            .map(|c| reference.claim_object(c)),
    );
    for (id, text) in [
        (
            900_001,
            "in the streamed district ledger 9000, the incumbent of ledger9000r0 is incumbent7",
        ),
        (900_002, "streamed3c0 revised5c1 district incumbent"),
    ] {
        objects.push(DataObject::TextClaim(TextClaim {
            id,
            text: text.into(),
            expr: None,
            scope: None,
        }));
    }
    objects
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// After an interleaved history of document, tuple *and table* adds,
    /// updates and removals, the rerank stage — scoring against prepared
    /// features that `apply` kept current — returns, for every probe object
    /// and modality, exactly what (a) a store-less reranker returns over
    /// the same candidates and (b) a fresh batch build of the survivors
    /// returns. Nothing stale, nothing missing, not one bit of score.
    #[test]
    fn rerank_after_interleaved_history_equals_oracle_and_batch_build(seed in 0u64..1000) {
        let spec = LakeSpec::tiny(seed % 97);
        let history = script(&spec, seed, 32, &ALL_OPS);
        let config = flat_config();
        let live = live_system(&spec, &history, config);
        let reference = batch_reference(&spec, &history, config);
        // Every surviving instance has prepared features — and nothing
        // that was removed still does.
        let featured = live_instances(&live);
        prop_assert_eq!(live.live_stats().prepared_instances, featured);
        prop_assert_eq!(reference.live_stats().prepared_instances, featured);
        for object in rerank_probe_objects(&reference) {
            for plan in rerank_plan(&object, &config) {
                let got = staged_rerank_checked(&live, &object, plan, "live");
                let want = staged_rerank_checked(&reference, &object, plan, "batch");
                prop_assert_eq!(
                    got, want,
                    "live rerank diverged from the batch build: kind={:?} object={}",
                    plan.0, object.id()
                );
            }
        }
    }
}

/// How many instances `sys`' lake holds: what the feature store must cover.
fn live_instances(sys: &VerifAi) -> usize {
    let lake = sys.lake();
    lake.num_tuples() + lake.num_tables() + lake.num_docs() + lake.num_kg_entities()
}

/// An imputed-cell object aimed at tuple `id` as `sys` holds it now: the
/// tuple itself with its last cell masked and offered back as the
/// imputation, so that very tuple is the best evidence there is.
fn cell_aimed_at(sys: &VerifAi, id: u64, object_id: u64) -> DataObject {
    let mut tuple = sys.lake().tuple(id).expect("live tuple");
    let column = tuple.schema.arity() - 1;
    let value = std::mem::replace(&mut tuple.values[column], Value::Null);
    DataObject::ImputedCell(verifai::ImputedCell {
        id: object_id,
        column: tuple.schema.columns()[column].name.clone(),
        tuple,
        value,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Tuple evidence, step by step. Through a history of tuple adds,
    /// updates and removals (including the removal of an *earlier* row, so
    /// later rows of the table shift index under their ids) and whole
    /// tables streamed in and out, after **every** step: the feature store
    /// covers exactly the lake's live instances (a removed table leaves no
    /// tuple entry behind); and for cell and claim objects — among them a
    /// cell aimed at the tuple the step just wrote, whose stale features
    /// would score differently — the store-backed rerank equals the
    /// store-less oracle and a fresh batch build of the survivors, bit for
    /// bit.
    #[test]
    fn tuple_rerank_tracks_every_step_of_a_tuple_and_table_history(seed in 0u64..1000) {
        let spec = LakeSpec::tiny(seed % 97);
        let history = script(&spec, seed, 10, &TUPLE_AND_TABLE_OPS);
        prop_assert!(
            history.iter().any(|m| matches!(m, LakeMutation::RemoveTuple(_))),
            "the history never removed a tuple"
        );
        let config = flat_config();
        let mut live = VerifAi::build(build(&spec), config);
        // Probes come from the untouched lake: they are only queries, valid
        // against whatever the history leaves.
        let probes = rerank_probe_objects(&live);
        for (step, mutation) in history.iter().enumerate() {
            let next_tuple = live.lake().tuple_ids().last().map_or(0, |id| id + 1);
            live.apply(mutation.clone()).expect("live apply succeeds");
            let reference = batch_reference(&spec, &history[..=step], config);
            let featured = live_instances(&live);
            prop_assert_eq!(live.live_stats().prepared_instances, featured, "step {}", step);
            prop_assert_eq!(reference.live_stats().prepared_instances, featured, "step {}", step);

            let written = match mutation {
                LakeMutation::UpdateTuple { id, .. } => Some(*id),
                LakeMutation::AddTuple { .. } | LakeMutation::AddTable(_) => Some(next_tuple),
                _ => None,
            };
            let aimed = written.map(|id| cell_aimed_at(&live, id, 900_100 + step as u64));
            if let (Some(id), Some(object)) = (written, &aimed) {
                let hits = live.retrieve(&VerifAi::query_of(object), InstanceKind::Tuple, 10);
                prop_assert!(
                    hits.iter().any(|h| h.id == InstanceId::Tuple(id)),
                    "step {}: the tuple just written is not a candidate of its own query", step
                );
            }
            for object in probes.iter().chain(&aimed) {
                for plan in rerank_plan(object, &config) {
                    let got = staged_rerank_checked(&live, object, plan, "live");
                    let want = staged_rerank_checked(&reference, object, plan, "batch");
                    prop_assert_eq!(
                        got, want,
                        "step {}: live rerank diverged from the batch build: kind={:?} object={}",
                        step, plan.0, object.id()
                    );
                }
            }
        }
    }
}

/// A tuple added to a table that is *already* a rerank candidate changes
/// that table's prepared features — its cell terms and its dense vector —
/// at `apply` time: the next request sees the new row, scores the table
/// higher for a claim that names it, and still agrees with the oracle.
#[test]
fn added_tuple_refreshes_a_candidate_tables_prepared_features() {
    let config = flat_config();
    let mut sys = VerifAi::build(build(&LakeSpec::tiny(29)), config);
    let claim = &claim_workload(sys.generated(), 1, ClaimGenConfig::default())[0];
    let table = claim.table;
    let caption = sys
        .lake()
        .table(table)
        .expect("source table")
        .caption()
        .to_string();
    let object = DataObject::TextClaim(TextClaim {
        id: 900_003,
        text: format!("in the {caption}, the quokkaville marsupial census"),
        expr: None,
        scope: None,
    });
    let plan = rerank_plan(&object, &config)[0];
    let score_of = |ranked: &[(InstanceId, u64)]| {
        ranked
            .iter()
            .find(|(id, _)| *id == InstanceId::Table(table))
            .map(|(_, bits)| f64::from_bits(*bits))
            .expect("the claim's source table is a surviving rerank candidate")
    };
    let before = score_of(&staged_rerank_checked(&sys, &object, plan, "before"));

    let arity = sys
        .lake()
        .table(table)
        .expect("source table")
        .schema
        .arity();
    let prepared_before = sys.live_stats().prepared_instances;
    sys.apply(LakeMutation::AddTuple {
        table,
        values: (0..arity)
            .map(|c| Value::text(format!("quokkaville marsupial {c}")))
            .collect(),
    })
    .expect("tuple add applies");
    assert_eq!(
        sys.live_stats().prepared_instances,
        prepared_before + 1,
        "a refreshed table replaces its entry; the new tuple adds its own"
    );

    let after = score_of(&staged_rerank_checked(&sys, &object, plan, "after"));
    assert!(
        after > before,
        "the new row's terms and vector must reach the rerank: {before} -> {after}"
    );
}
