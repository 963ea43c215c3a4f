//! The rerank stage at work size equals the textbook rerankers, bit for bit.
//!
//! The request path reranks from prepared features: ColBERT numbers a
//! request's document tokens and computes their similarity columns in one
//! blocked pass, and the tuple reranker compares prepared match keys and
//! replays prepared feature records. None of that may move a score. Here the
//! first 200 cold objects of the `small` lake at seed 42 — the benchmark's
//! object order: imputed tuples and text claims alternating, duplicate
//! queries dropped — each retrieve their tuple and text candidates, and the
//! stage's `select` over every candidate must equal the ranking of the
//! references in `crates/rerank/src/reference.rs`: embed-everything MaxSim
//! and the per-pair tuple formulas, same scores to the bit, same order.
//!
//! The same system pins what the prepared features cost per tuple.
//! `scripts/check.sh` runs the identity test by name.

// Included whole; this test uses the references it compares against.
#[allow(dead_code)]
#[path = "../crates/rerank/src/reference.rs"]
mod reference;

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use verifai::{DataObject, VerifAi, VerifAiConfig};
use verifai_claims::ClaimGenConfig;
use verifai_datagen::{build, claim_workload, completion_workload, LakeSpec};
use verifai_embed::Vector;
use verifai_index::SourceQuery;
use verifai_lake::{InstanceId, InstanceKind, InstanceRef};
use verifai_obs::SpanContext;

const SEED: u64 = 42;
const OBJECTS: usize = 200;

/// One `small` system for every test of this file.
fn system() -> &'static VerifAi {
    static SYSTEM: OnceLock<VerifAi> = OnceLock::new();
    // Candidates come from the content index alone: the semantic member's
    // graph build and scans would be most of this test's time (minutes in a
    // debug run), and what is checked is the rerank of what was retrieved.
    let config = VerifAiConfig {
        use_semantic_index: false,
        ..VerifAiConfig::default()
    };
    SYSTEM.get_or_init(|| VerifAi::build(build(&LakeSpec::small(SEED)), config))
}

/// The first `n` objects of the benchmark's cold pool: imputed tuples and
/// text claims alternating, an object whose query repeats an earlier one's
/// dropped.
fn cold_objects(system: &VerifAi, n: usize) -> Vec<DataObject> {
    let half = n.div_ceil(2);
    let tasks = completion_workload(system.generated(), half, SEED);
    let claims = claim_workload(
        system.generated(),
        half + half / 4 + 8,
        ClaimGenConfig {
            seed: SEED,
            ..ClaimGenConfig::default()
        },
    );
    let mut tuples = tasks.iter().map(|task| system.impute(task));
    let mut texts = claims.iter().map(|claim| system.claim_object(claim));
    let mut seen = HashSet::new();
    let mut objects = Vec::with_capacity(n);
    while objects.len() < n {
        let next = if objects.len() % 2 == 0 {
            tuples.next().or_else(|| texts.next())
        } else {
            texts.next().or_else(|| tuples.next())
        };
        let Some(object) = next else { break };
        let kind = matches!(object, DataObject::TextClaim(_));
        if seen.insert((kind, VerifAi::query_of(&object))) {
            objects.push(object);
        }
    }
    objects
}

/// `(candidate index, score)` of every candidate, by descending score with
/// ascending id breaking ties — the order `select` promises.
fn ranked(candidates: &[(InstanceRef<'_>, f64)], scores: Vec<f64>) -> Vec<(usize, u64)> {
    let mut ranked: Vec<(usize, f64)> = scores.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| candidates[a.0].0.id().cmp(&candidates[b.0].0.id()))
    });
    ranked.into_iter().map(|(i, s)| (i, s.to_bits())).collect()
}

#[test]
fn small_lake_rerank_equals_the_textbook_references() {
    let system = system();
    let config = system.config();
    let prepared = system.stages().rerank_stage().feature_stats();
    let lake = system.lake().stats();
    assert_eq!(
        prepared.instances,
        lake.tuples + lake.tables + lake.docs + lake.kg_entities,
        "every instance is reranked from prepared features"
    );
    // Embed-everything documents, every token embedded on its own — once
    // per distinct token string, since a token's embedding is a pure
    // function of the string and embedding is most of this test's time.
    let mut embedded: HashMap<String, Vector> = HashMap::new();
    let mut docs: HashMap<InstanceId, Vec<Vector>> = HashMap::new();
    let objects = cold_objects(system, OBJECTS);
    assert_eq!(objects.len(), OBJECTS);
    let mut compared = [0usize; 2];
    for object in &objects {
        let query = VerifAi::query_of(object);
        for (slot, kind) in [InstanceKind::Tuple, InstanceKind::Text]
            .into_iter()
            .enumerate()
        {
            let hits = system.stages().source(kind).search(
                SourceQuery {
                    text: &query,
                    vector: None,
                    ctx: SpanContext::none(),
                },
                config.coarse_k,
            );
            let candidates: Vec<(InstanceRef<'_>, f64)> = hits
                .iter()
                .map(|hit| {
                    let view = system.lake().view(hit.id).expect("fresh hits resolve");
                    (view, hit.score)
                })
                .collect();
            let want: Vec<f64> = match kind {
                InstanceKind::Text => {
                    let query = reference::colbert_query(object);
                    candidates
                        .iter()
                        .map(|&(view, _)| {
                            let doc = docs.entry(view.id()).or_insert_with(|| {
                                let tokens = reference::colbert_doc_tokens(view);
                                let mut embed = |token: String| {
                                    embedded
                                        .entry(token)
                                        .or_insert_with_key(|t| reference::colbert_embed_token(t))
                                        .clone()
                                };
                                tokens.into_iter().map(&mut embed).collect()
                            });
                            reference::maxsim(&query, doc)
                        })
                        .collect()
                }
                _ => candidates
                    .iter()
                    .map(|&(view, _)| {
                        let InstanceRef::Tuple(candidate) = view else {
                            panic!("tuple retrieval returned {}", view.id())
                        };
                        let candidate = candidate.to_owned();
                        match object {
                            DataObject::ImputedCell(cell) => {
                                reference::tuple::score(&cell.tuple, &candidate)
                            }
                            DataObject::TextClaim(claim) => {
                                reference::tuple_claim_score(&claim.text, &candidate)
                            }
                        }
                    })
                    .collect(),
            };
            let got: Vec<(usize, u64)> = system
                .stages()
                .rerank_stage()
                .select(object, &candidates, candidates.len())
                .into_iter()
                .map(|(i, s)| (i, s.to_bits()))
                .collect();
            assert_eq!(
                got,
                ranked(&candidates, want),
                "object {} ({kind} candidates)",
                object.id()
            );
            compared[slot] += candidates.len();
        }
    }
    // Every object retrieved a full candidate list of each kind.
    assert!(
        compared.iter().all(|&n| n >= OBJECTS * config.coarse_k / 2),
        "candidates compared (tuple, text): {compared:?}"
    );
}

/// What the prepared features of a tuple cost at `small`, seed 42: 243 B
/// per tuple before match keys were kept (feature records of nine bytes,
/// a hash and a kind), plus at most the keys, nine bytes per non-null cell.
#[test]
fn prepared_tuple_bytes_stay_within_the_match_key_budget() {
    const BEFORE_KEYS: usize = 243;
    let system = system();
    let prepared = system.stages().rerank_stage().feature_stats();
    let lake = system.lake();
    let non_null: usize = lake
        .tuple_ids()
        .map(|id| match lake.view(InstanceId::Tuple(id)) {
            Ok(InstanceRef::Tuple(tuple)) => tuple.values.iter().filter(|v| !v.is_null()).count(),
            _ => 0,
        })
        .sum();
    assert_eq!(prepared.tuples, lake.num_tuples());
    let per_tuple = prepared.tuple_bytes / prepared.tuples;
    let keys_per_tuple = (9 * non_null).div_ceil(prepared.tuples);
    println!(
        "prepared bytes per tuple: {per_tuple} ({BEFORE_KEYS} before keys, keys at most \
         {keys_per_tuple}: {non_null} non-null cells over {} tuples)",
        prepared.tuples
    );
    assert!(
        per_tuple <= BEFORE_KEYS + keys_per_tuple,
        "{per_tuple} B per tuple exceed {BEFORE_KEYS} + {keys_per_tuple}"
    );
}
