//! Seeded inputs: the lake, the object pools and the mutation script.
//!
//! Everything here is a pure function of `--seed` (and `--smoke`): the same
//! seed gives the same lake, the same objects in the same order and the
//! same mutations. The program under test receives only these generated
//! inputs, never the seed.

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verifai::{DataObject, LakeMutation, Verdict, VerifAi, VerifAiConfig};
use verifai_claims::ClaimGenConfig;
use verifai_datagen::{build, claim_workload, completion_workload, LakeSpec};
use verifai_lake::{DocId, TableId, TextDocument, TupleId, Value};

/// Frozen sizes of one benchmark scale. `FULL` is what `BENCHMARK.json`
/// describes; `SMOKE` is every count divided by 50 over the tiny lake, for
/// testing the harness itself in seconds (its numbers are never compared).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Label written into every result file.
    pub name: &'static str,
    /// Distinct cold objects generated for cold-verify / open-rate /
    /// live-ingest: three times the 1024-entry evidence cache, so a request
    /// stream that wraps around still misses on every request.
    pub cold_pool: usize,
    /// Distinct objects hot-verify draws from; fits the evidence cache.
    pub hot_pool: usize,
    /// Requests (in submission order) whose decisions are scored and
    /// digested, per workload: `[cold, hot, open, live]`.
    pub scored: [usize; 4],
    /// Objects in the service-equals-direct output check.
    pub check_sample: usize,
    /// Cold objects the per-layer probes time.
    pub layer_sample: usize,
    /// Requests per side of one obs on/off pair.
    pub obs_batch: usize,
    /// Live-ingest rounds the per-layer probe runs when the traced workload
    /// is not live-ingest itself.
    pub live_probe_rounds: usize,
    /// Objects timed against the flat single lake and the 2-shard cluster.
    pub cluster_sample: usize,
}

/// The benchmark proper.
pub const FULL: Scale = Scale {
    name: "small",
    cold_pool: 3000,
    hot_pool: 256,
    scored: [500, 2000, 500, 300],
    check_sample: 100,
    layer_sample: 160,
    obs_batch: 1000,
    live_probe_rounds: 30,
    cluster_sample: 60,
};

/// Harness self-test scale.
pub const SMOKE: Scale = Scale {
    name: "smoke",
    cold_pool: 60,
    hot_pool: 6,
    scored: [10, 40, 8, 4],
    check_sample: 4,
    layer_sample: 6,
    obs_batch: 40,
    live_probe_rounds: 2,
    cluster_sample: 4,
};

impl Scale {
    /// The lake this scale runs over.
    pub fn spec(&self, seed: u64) -> LakeSpec {
        if *self == SMOKE {
            LakeSpec::tiny(seed)
        } else {
            LakeSpec::small(seed)
        }
    }
}

/// Wall time of the two halves of standing a system up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `verifai_datagen::build`.
    pub datagen_s: f64,
    /// `VerifAi::build`.
    pub build_s: f64,
}

/// Generate the lake and build the system over it at `config`.
pub fn build_system(scale: &Scale, seed: u64, config: VerifAiConfig) -> (VerifAi, SetupTimes) {
    let started = Instant::now();
    let generated = build(&scale.spec(seed));
    let datagen_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let system = VerifAi::build(generated, config);
    let build_s = started.elapsed().as_secs_f64();
    (system, SetupTimes { datagen_s, build_s })
}

/// Distinct generated objects with the decision ground truth says each
/// should get.
#[derive(Debug, Clone, PartialEq)]
pub struct Pool {
    /// The objects, alternating imputed-tuple / text-claim.
    pub objects: Vec<DataObject>,
    /// `Verified` when the object is right by construction, else `Refuted`.
    pub expected: Vec<Verdict>,
}

impl Pool {
    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// The last `n` objects — a region the measured phase has not touched
    /// (it consumes from the front), so they are still cold for the service.
    pub fn tail(&self, n: usize) -> &[DataObject] {
        &self.objects[self.len().saturating_sub(n)..]
    }
}

/// The evidence-cache key the service would file `object` under.
pub fn cache_key(object: &DataObject) -> (u8, String) {
    let kind = match object {
        DataObject::ImputedCell(_) => 0,
        DataObject::TextClaim(_) => 1,
    };
    (kind, VerifAi::query_of(object))
}

/// Up to `n` objects with pairwise distinct cache keys, alternating imputed
/// tuples (from `completion_workload`) and text claims (from
/// `claim_workload`). Ground truth comes from `task.truth` / `claim.label`.
pub fn object_pool(system: &VerifAi, n: usize, seed: u64) -> Pool {
    let half = n.div_ceil(2);
    let tasks = completion_workload(system.generated(), half, seed);
    let claims = claim_workload(
        system.generated(),
        // Claims can repeat across tables of one caption family; ask for
        // spares so dropping duplicates still leaves enough.
        half + half / 4 + 8,
        ClaimGenConfig {
            seed,
            ..ClaimGenConfig::default()
        },
    );
    let mut tuples = tasks.iter().map(|task| {
        let object = system.impute(task);
        let DataObject::ImputedCell(cell) = &object else {
            unreachable!("impute returns an imputed cell")
        };
        let expected = truth_verdict(cell.value.matches(&task.truth));
        (object, expected)
    });
    let mut texts = claims
        .iter()
        .map(|claim| (system.claim_object(claim), truth_verdict(claim.label)));
    let mut pool = Pool {
        objects: Vec::with_capacity(n),
        expected: Vec::with_capacity(n),
    };
    let mut seen: HashSet<(u8, String)> = HashSet::new();
    while pool.len() < n {
        // Strict alternation while both kinds last; a dropped duplicate
        // leaves the parity unchanged, so the same kind is drawn again.
        let next = if pool.len().is_multiple_of(2) {
            tuples.next().or_else(|| texts.next())
        } else {
            texts.next().or_else(|| tuples.next())
        };
        let Some((object, expected)) = next else {
            break;
        };
        if seen.insert(cache_key(&object)) {
            pool.objects.push(object);
            pool.expected.push(expected);
        }
    }
    pool
}

fn truth_verdict(correct: bool) -> Verdict {
    if correct {
        Verdict::Verified
    } else {
        Verdict::Refuted
    }
}

/// Mutations per live-ingest round, in the order they are applied.
pub const ROUND_ADD_DOCS: usize = 8;
/// See [`ROUND_ADD_DOCS`].
pub const ROUND_ADD_TUPLES: usize = 4;
/// See [`ROUND_ADD_DOCS`].
pub const ROUND_UPDATE_TUPLES: usize = 2;
/// Mutations in one round (8 + 4 + 2 + 1 RemoveDoc + 1 RemoveTuple).
pub const ROUND_MUTATIONS: usize = ROUND_ADD_DOCS + ROUND_ADD_TUPLES + ROUND_UPDATE_TUPLES + 2;

/// Which `apply` a planned mutation exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// `LakeMutation::AddDoc`.
    AddDoc,
    /// `LakeMutation::AddTuple`.
    AddTuple,
    /// `LakeMutation::UpdateTuple`.
    UpdateTuple,
    /// `LakeMutation::RemoveDoc`.
    RemoveDoc,
    /// `LakeMutation::RemoveTuple`.
    RemoveTuple,
}

impl MutationKind {
    /// Lake generations one such mutation advances: the lake stamps every
    /// instance it writes, and a tuple write also rewrites its table.
    pub fn generations(self) -> u64 {
        match self {
            MutationKind::AddDoc | MutationKind::RemoveDoc => 1,
            MutationKind::AddTuple | MutationKind::UpdateTuple | MutationKind::RemoveTuple => 2,
        }
    }
}

const VOCAB: [&str; 16] = [
    "commission",
    "district",
    "incumbent",
    "ledger",
    "harbour",
    "festival",
    "archive",
    "council",
    "survey",
    "railway",
    "observatory",
    "quarterly",
    "tribunal",
    "almanac",
    "regatta",
    "charter",
];

/// First document id the script assigns — clear of every generated doc.
const FIRST_STREAMED_DOC: DocId = 50_000_000;

/// Seeded generator of live-ingest rounds. Updates and removals target
/// instances an earlier step of the same script added, so every mutation is
/// valid when applied in order.
pub struct LiveScript {
    rng: StdRng,
    tables: Vec<(TableId, usize)>,
    next_doc: DocId,
    /// Tuple ids are dense after a batch build and never reused, so the id
    /// the lake will assign to the next added row is known in advance.
    next_tuple: TupleId,
    /// Streamed documents still in the lake, oldest first.
    pub live_docs: VecDeque<DocId>,
    /// Streamed documents since removed.
    pub removed_docs: Vec<DocId>,
    /// Streamed tuples still in the lake (with their arity), oldest first.
    pub live_tuples: VecDeque<(TupleId, usize)>,
    /// Generations the mutations planned so far must have advanced.
    pub expected_generations: u64,
}

impl LiveScript {
    /// A script over the tables of `system`'s lake.
    pub fn new(system: &VerifAi, seed: u64) -> LiveScript {
        LiveScript {
            rng: StdRng::seed_from_u64(seed ^ 0x11fe_1a6e),
            tables: system
                .lake()
                .tables()
                .map(|t| (t.id, t.schema.arity()))
                .collect(),
            next_doc: FIRST_STREAMED_DOC,
            next_tuple: system.lake().tuple_ids().last().map_or(0, |id| id + 1),
            live_docs: VecDeque::new(),
            removed_docs: Vec::new(),
            live_tuples: VecDeque::new(),
            expected_generations: 0,
        }
    }

    /// Title and body of a streamed document. The `zq<n>` token is unique to
    /// it, so the title is also the query that must find it again.
    pub fn doc_text(id: DocId) -> (String, String) {
        let tag = id - FIRST_STREAMED_DOC;
        let word = |k: u64| VOCAB[((tag.wrapping_mul(2_654_435_761) >> (4 * k)) % 16) as usize];
        let title = format!("Streamed bulletin zq{tag}");
        let body = format!(
            "The {} of {} filed bulletin zq{tag} with the {}. \
             Its {} was entered in the {} that season. \
             A later {} cited bulletin zq{tag} alongside the {} returns. \
             The {} keeps the original of bulletin zq{tag}.",
            word(0),
            word(1),
            word(2),
            word(3),
            word(4),
            word(5),
            word(6),
            word(7),
        );
        (title, body)
    }

    /// The next mutation of kind `kind`, valid against the lake as the
    /// script's earlier mutations left it.
    pub fn plan(&mut self, kind: MutationKind) -> LakeMutation {
        self.expected_generations += kind.generations();
        match kind {
            MutationKind::AddDoc => {
                let id = self.next_doc;
                self.next_doc += 1;
                self.live_docs.push_back(id);
                let (title, body) = LiveScript::doc_text(id);
                LakeMutation::AddDoc(TextDocument::new(id, title, body, 0))
            }
            MutationKind::AddTuple => {
                let (table, arity) = self.tables[self.rng.gen_range(0..self.tables.len())];
                self.live_tuples.push_back((self.next_tuple, arity));
                self.next_tuple += 1;
                LakeMutation::AddTuple {
                    table,
                    values: self.row_values("streamed", arity),
                }
            }
            MutationKind::UpdateTuple => {
                let pick = self.rng.gen_range(0..self.live_tuples.len());
                let (id, arity) = self.live_tuples[pick];
                LakeMutation::UpdateTuple {
                    id,
                    values: self.row_values("revised", arity),
                }
            }
            MutationKind::RemoveDoc => {
                let id = self.live_docs.pop_front().expect("a streamed doc is live");
                self.removed_docs.push(id);
                LakeMutation::RemoveDoc(id)
            }
            MutationKind::RemoveTuple => {
                let (id, _) = self
                    .live_tuples
                    .pop_front()
                    .expect("a streamed tuple is live");
                LakeMutation::RemoveTuple(id)
            }
        }
    }

    /// One round's mutations, in application order.
    pub fn round(&mut self) -> Vec<(MutationKind, LakeMutation)> {
        let kinds = std::iter::repeat_n(MutationKind::AddDoc, ROUND_ADD_DOCS)
            .chain(std::iter::repeat_n(
                MutationKind::AddTuple,
                ROUND_ADD_TUPLES,
            ))
            .chain(std::iter::repeat_n(
                MutationKind::UpdateTuple,
                ROUND_UPDATE_TUPLES,
            ))
            .chain([MutationKind::RemoveDoc, MutationKind::RemoveTuple]);
        kinds.map(|kind| (kind, self.plan(kind))).collect()
    }

    fn row_values(&mut self, word: &str, arity: usize) -> Vec<Value> {
        let tag: u32 = self.rng.gen_range(0..1_000_000);
        (0..arity)
            .map(|c| Value::text(format!("{word}{tag}c{c}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> VerifAi {
        build_system(&SMOKE, seed, VerifAiConfig::default()).0
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        let (a, b) = (tiny(5), tiny(5));
        let (pa, pb) = (object_pool(&a, 40, 5), object_pool(&b, 40, 5));
        assert_eq!(pa, pb);
        assert!(pa.len() >= 20, "tiny lake yields a usable pool");
        let other = object_pool(&tiny(6), 40, 6);
        assert_ne!(pa, other, "another seed gives other inputs");
    }

    #[test]
    fn same_seed_gives_the_same_mutation_script() {
        let system = tiny(5);
        let (mut a, mut b) = (LiveScript::new(&system, 5), LiveScript::new(&system, 5));
        for _ in 0..3 {
            let round = a.round();
            assert_eq!(round, b.round());
            assert_eq!(round.len(), ROUND_MUTATIONS);
        }
        assert_eq!(a.expected_generations, 3 * 23);
        assert_eq!(a.removed_docs.len(), 3);
        let mut c = LiveScript::new(&system, 6);
        a = LiveScript::new(&system, 5);
        assert_ne!(a.round(), c.round());
    }

    #[test]
    fn pool_objects_have_distinct_cache_keys_and_alternate() {
        let system = tiny(9);
        let pool = object_pool(&system, 30, 9);
        let keys: HashSet<_> = pool.objects.iter().map(cache_key).collect();
        assert_eq!(keys.len(), pool.len());
        assert!(matches!(pool.objects[0], DataObject::ImputedCell(_)));
        assert!(matches!(pool.objects[1], DataObject::TextClaim(_)));
        assert_eq!(pool.expected.len(), pool.len());
    }
}
