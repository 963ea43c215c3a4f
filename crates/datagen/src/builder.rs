//! Lake assembly: generates the tables, registers facts, and tracks relevance.

use crate::docs::generate_docs;
use crate::domains::{Domain, EntityRecord};
use crate::names;
use crate::spec::LakeSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use verifai_lake::value::normalize_str;
use verifai_lake::{
    Column, DataLake, DataType, DocId, KgEntity, KgEntityId, Schema, SourceId, SourceOrigin, Table,
    TableId, TupleId, Value,
};
use verifai_llm::WorldModel;

/// The registered sources of the generated lake, mirroring the paper's corpus
/// composition (TabFact tables, WikiTable-TURL tables, Wikipedia text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LakeSources {
    /// Curated benchmark tables.
    pub tabfact: SourceId,
    /// Uncurated web tables.
    pub turl: SourceId,
    /// Encyclopedia text pages.
    pub wiki: SourceId,
    /// Curated knowledge-graph triples (the §5 extension modality).
    pub wikidata: SourceId,
    /// Generative-model output that leaked into the lake (only registered when
    /// [`LakeSpec::corrupted_docs`] > 0).
    pub genai: Option<SourceId>,
}

/// A lake tuple eligible for the tuple-completion workload: its subject entity
/// has stable facts (and possibly a text page).
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionCandidate {
    /// The lake tuple.
    pub tuple_id: TupleId,
    /// Subject entity name (raw surface form).
    pub entity: String,
    /// Columns whose values are stable facts and may be masked.
    pub maskable: Vec<String>,
}

/// The generated multi-modal lake plus all ground-truth bookkeeping.
#[derive(Debug)]
pub struct GeneratedLake {
    /// The data lake itself.
    pub lake: DataLake,
    /// Every stable fact, for the simulated LLM's parametric knowledge.
    pub world: WorldModel,
    /// Subject entities with their facts.
    pub entities: Vec<EntityRecord>,
    /// Normalized entity name → its text page (relevance ground truth for the
    /// (tuple → text) retrieval of Table 1).
    pub entity_docs: HashMap<String, DocId>,
    /// Corrupted (generative-source) documents, per entity.
    pub corrupted_docs: Vec<(String, DocId)>,
    /// Normalized entity name → its knowledge-graph subgraph.
    pub entity_kg: HashMap<String, KgEntityId>,
    /// Tuples usable in the completion workload.
    pub completion_candidates: Vec<CompletionCandidate>,
    /// Tables usable as claim sources.
    pub claim_tables: Vec<TableId>,
    /// Registered sources.
    pub sources: LakeSources,
    /// The spec this lake was built from.
    pub spec: LakeSpec,
}

/// Internal builder state shared by the domain generators.
pub(crate) struct Builder {
    pub lake: DataLake,
    pub world: WorldModel,
    pub entities: Vec<EntityRecord>,
    pub completion_candidates: Vec<CompletionCandidate>,
    pub claim_tables: Vec<TableId>,
    pub sources: LakeSources,
    next_table: TableId,
    used_names: HashSet<String>,
}

impl Builder {
    fn next_table_id(&mut self) -> TableId {
        let id = self.next_table;
        self.next_table += 1;
        id
    }

    /// Make a name globally unique (normalized comparison) by suffixing a
    /// counter — the deterministic equivalent of disambiguation pages.
    fn unique(&mut self, base: String) -> String {
        if self.used_names.insert(normalize_str(&base)) {
            return base;
        }
        for n in 2.. {
            let candidate = format!("{base} {n}");
            if self.used_names.insert(normalize_str(&candidate)) {
                return candidate;
            }
        }
        unreachable!()
    }

    /// Insert a finished table; alternates the two table sources like the
    /// paper's TabFact/TURL mix.
    fn insert_table(&mut self, table: Table) -> std::ops::Range<TupleId> {
        let id = table.id;
        let range = self
            .lake
            .add_table(table)
            .expect("builder assigns unique table ids");
        self.claim_tables.push(id);
        range
    }

    fn table_source(&self, parity: u64) -> SourceId {
        if parity.is_multiple_of(2) {
            self.sources.tabfact
        } else {
            self.sources.turl
        }
    }

    /// Register an entity's facts into the world model and the registry.
    fn register_entity(&mut self, record: EntityRecord) {
        for (attr, value) in &record.facts {
            self.world.add_fact(&record.name, attr, value.clone());
        }
        self.entities.push(record);
    }
}

/// Build a lake from a spec. Fully deterministic per seed.
pub fn build(spec: &LakeSpec) -> GeneratedLake {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut lake = DataLake::new();
    let tabfact = lake.add_source("tabfact", SourceOrigin::CuratedCorpus);
    let turl = lake.add_source("wikitable-turl", SourceOrigin::WebTables);
    let wiki = lake.add_source("wikipedia", SourceOrigin::Encyclopedia);
    let wikidata = lake.add_source("wikidata", SourceOrigin::CuratedCorpus);
    let genai = (spec.corrupted_docs > 0)
        .then(|| lake.add_source("genai-leak", SourceOrigin::GenerativeModel));

    let mut b = Builder {
        lake,
        world: WorldModel::new(),
        entities: Vec::new(),
        completion_candidates: Vec::new(),
        claim_tables: Vec::new(),
        sources: LakeSources {
            tabfact,
            turl,
            wiki,
            wikidata,
            genai,
        },
        next_table: 0,
        used_names: HashSet::new(),
    };

    elections(&mut b, spec, &mut rng);
    championships(&mut b, spec, &mut rng);
    films(&mut b, spec, &mut rng);
    players(&mut b, spec, &mut rng);
    cities(&mut b, spec, &mut rng);

    let (entity_docs, corrupted_docs) = generate_docs(&mut b, spec, &mut rng);
    let entity_kg = generate_kg(&mut b, spec, &mut rng);

    GeneratedLake {
        lake: b.lake,
        world: b.world,
        entities: b.entities,
        entity_docs,
        corrupted_docs,
        entity_kg,
        completion_candidates: b.completion_candidates,
        claim_tables: b.claim_tables,
        sources: b.sources,
        spec: *spec,
    }
}

/// Election families: one caption family per state, one table per year. The
/// per-district facts (incumbent, party, first elected) are stable across
/// years, so they are functional and maskable; the votes column varies per
/// year, giving each table in the family a distinct body.
fn elections(b: &mut Builder, spec: &LakeSpec, rng: &mut StdRng) {
    let schema = || {
        Schema::new(vec![
            Column::key("district", DataType::Text),
            Column::new("incumbent", DataType::Text),
            Column::new("party", DataType::Text),
            Column::new("first elected", DataType::Int),
            Column::new("votes", DataType::Int),
        ])
    };
    for s in 0..spec.election_states {
        let state = names::STATES[s % names::STATES.len()];
        // District registry with stable facts.
        let mut districts = Vec::with_capacity(spec.districts_per_state);
        for d in 0..spec.districts_per_state {
            let district = format!("{state} {}", d + 1);
            let incumbent = b.unique(names::person(rng));
            let party = names::pick(rng, names::PARTIES).to_string();
            let first_elected = 1936 + rng.gen_range(0..20) as i64;
            b.register_entity(EntityRecord {
                name: district.clone(),
                domain: Domain::Elections,
                facts: vec![
                    ("incumbent".into(), Value::text(incumbent.clone())),
                    ("party".into(), Value::text(party.clone())),
                    ("first elected".into(), Value::Int(first_elected)),
                ],
            });
            districts.push((district, incumbent, party, first_elected));
        }
        for y in 0..spec.election_years {
            let year = 1952 + 2 * y;
            let id = b.next_table_id();
            let caption =
                format!("{year} United States House of Representatives elections in {state}");
            let mut table = Table::new(id, caption, schema(), b.table_source(id));
            for (district, incumbent, party, first_elected) in &districts {
                table
                    .push_row(vec![
                        Value::text(district.clone()),
                        Value::text(incumbent.clone()),
                        Value::text(party.clone()),
                        Value::Int(*first_elected),
                        Value::Int(rng.gen_range(40_000..180_000)),
                    ])
                    .expect("schema arity");
            }
            let range = b.insert_table(table);
            for (i, tuple_id) in range.enumerate() {
                b.completion_candidates.push(CompletionCandidate {
                    tuple_id,
                    entity: districts[i].0.clone(),
                    maskable: vec!["incumbent".into(), "party".into(), "first elected".into()],
                });
            }
        }
    }
}

/// Championship families (Figure 4's genre): fixed team roster per series,
/// year-varying points. Claims only — points are not stable facts.
fn championships(b: &mut Builder, spec: &LakeSpec, rng: &mut StdRng) {
    // Real web tables are schema-heterogeneous: half the series call the
    // column "points", the other half "score". A claim about "points" cannot
    // bind against a "score" table — the Figure 4 not-related mechanism.
    let schema = |score_col: &str| {
        Schema::new(vec![
            Column::key("team", DataType::Text),
            Column::new(score_col, DataType::Int),
            Column::new("rank", DataType::Int),
        ])
    };
    for s in 0..spec.championship_series {
        let series = names::SERIES[s % names::SERIES.len()];
        let score_col = if s % 2 == 0 { "points" } else { "score" };
        let teams: Vec<&str> = (0..spec.teams_per_championship)
            .map(|i| names::COLLEGES[(s * 7 + i) % names::COLLEGES.len()])
            .collect();
        for y in 0..spec.championship_years {
            let year = 1948 + y;
            let id = b.next_table_id();
            let caption = format!("{year} {series} Championships");
            let mut table = Table::new(id, caption, schema(score_col), b.table_source(id));
            // Year-specific points; small values make count/aggregate claims
            // natural (several teams share low scores, as in Figure 4).
            let mut scored: Vec<(&str, i64)> =
                teams.iter().map(|t| (*t, rng.gen_range(0..50))).collect();
            scored.sort_by_key(|&(_, points)| std::cmp::Reverse(points));
            for (rank, (team, points)) in scored.iter().enumerate() {
                table
                    .push_row(vec![
                        Value::text(*team),
                        Value::Int(*points),
                        Value::Int(rank as i64 + 1),
                    ])
                    .expect("schema arity");
            }
            b.insert_table(table);
        }
    }
}

/// Film tables: one per (genre, year); films are globally unique entities with
/// stable facts.
fn films(b: &mut Builder, spec: &LakeSpec, rng: &mut StdRng) {
    let schema = || {
        Schema::new(vec![
            Column::key("film", DataType::Text),
            Column::new("director", DataType::Text),
            Column::new("lead actor", DataType::Text),
            Column::new("running time", DataType::Int),
            Column::new("year", DataType::Int),
        ])
    };
    for t in 0..spec.film_tables {
        let genre = names::GENRES[t % names::GENRES.len()];
        let year = 1950 + (t / names::GENRES.len()) % 72;
        let id = b.next_table_id();
        let caption = format!("List of {genre} films of {year}");
        let mut table = Table::new(id, caption, schema(), b.table_source(id));
        let mut rows = Vec::with_capacity(spec.films_per_table);
        for _ in 0..spec.films_per_table {
            let film = b.unique(names::film_title(rng));
            let director = names::person(rng);
            let actor = names::person(rng);
            let runtime = rng.gen_range(80..160) as i64;
            b.register_entity(EntityRecord {
                name: film.clone(),
                domain: Domain::Films,
                facts: vec![
                    ("director".into(), Value::text(director.clone())),
                    ("lead actor".into(), Value::text(actor.clone())),
                    ("running time".into(), Value::Int(runtime)),
                ],
            });
            rows.push((film, director, actor, runtime));
        }
        for (film, director, actor, runtime) in &rows {
            table
                .push_row(vec![
                    Value::text(film.clone()),
                    Value::text(director.clone()),
                    Value::text(actor.clone()),
                    Value::Int(*runtime),
                    Value::Int(year as i64),
                ])
                .expect("schema arity");
        }
        let range = b.insert_table(table);
        for (i, tuple_id) in range.enumerate() {
            b.completion_candidates.push(CompletionCandidate {
                tuple_id,
                entity: rows[i].0.clone(),
                maskable: vec![
                    "director".into(),
                    "lead actor".into(),
                    "running time".into(),
                ],
            });
        }
    }
}

/// Athlete career tables: players are unique entities with stable facts.
fn players(b: &mut Builder, spec: &LakeSpec, rng: &mut StdRng) {
    let schema = || {
        Schema::new(vec![
            Column::key("player", DataType::Text),
            Column::new("team", DataType::Text),
            Column::new("career points", DataType::Int),
            Column::new("position", DataType::Text),
        ])
    };
    for t in 0..spec.player_tables {
        let league = names::LEAGUES[t % names::LEAGUES.len()];
        let edition = t / names::LEAGUES.len() + 1;
        let id = b.next_table_id();
        let caption = format!("List of {league} career scoring leaders (list {edition})");
        let mut table = Table::new(id, caption, schema(), b.table_source(id));
        let mut rows = Vec::with_capacity(spec.players_per_table);
        for _ in 0..spec.players_per_table {
            let player = b.unique(names::person(rng));
            let team = names::pick(rng, names::COLLEGES).to_string();
            let points = rng.gen_range(2_000..40_000) as i64;
            let position = names::pick(rng, names::POSITIONS).to_string();
            b.register_entity(EntityRecord {
                name: player.clone(),
                domain: Domain::Players,
                facts: vec![
                    ("team".into(), Value::text(team.clone())),
                    ("career points".into(), Value::Int(points)),
                    ("position".into(), Value::text(position.clone())),
                ],
            });
            rows.push((player, team, points, position));
        }
        for (player, team, points, position) in &rows {
            table
                .push_row(vec![
                    Value::text(player.clone()),
                    Value::text(team.clone()),
                    Value::Int(*points),
                    Value::text(position.clone()),
                ])
                .expect("schema arity");
        }
        let range = b.insert_table(table);
        for (i, tuple_id) in range.enumerate() {
            b.completion_candidates.push(CompletionCandidate {
                tuple_id,
                entity: rows[i].0.clone(),
                maskable: vec!["team".into(), "career points".into(), "position".into()],
            });
        }
    }
}

/// City tables: cities are unique entities with stable facts.
fn cities(b: &mut Builder, spec: &LakeSpec, rng: &mut StdRng) {
    let schema = || {
        Schema::new(vec![
            Column::key("city", DataType::Text),
            Column::new("county", DataType::Text),
            Column::new("population", DataType::Int),
            Column::new("founded", DataType::Int),
        ])
    };
    for t in 0..spec.city_tables {
        let region = names::STATES[t % names::STATES.len()];
        let part = t / names::STATES.len() + 1;
        let id = b.next_table_id();
        let caption = format!("List of cities in {region} (part {part})");
        let mut table = Table::new(id, caption, schema(), b.table_source(id));
        let mut rows = Vec::with_capacity(spec.cities_per_table);
        for _ in 0..spec.cities_per_table {
            let city = b.unique(names::city(rng));
            let county = format!("{} County", names::pick(rng, names::LAST_NAMES));
            let population = rng.gen_range(5_000..2_000_000) as i64;
            let founded = 1700 + rng.gen_range(0..280) as i64;
            b.register_entity(EntityRecord {
                name: city.clone(),
                domain: Domain::Cities,
                facts: vec![
                    ("county".into(), Value::text(county.clone())),
                    ("population".into(), Value::Int(population)),
                    ("founded".into(), Value::Int(founded)),
                ],
            });
            rows.push((city, county, population, founded));
        }
        for (city, county, population, founded) in &rows {
            table
                .push_row(vec![
                    Value::text(city.clone()),
                    Value::text(county.clone()),
                    Value::Int(*population),
                    Value::Int(*founded),
                ])
                .expect("schema arity");
        }
        let range = b.insert_table(table);
        for (i, tuple_id) in range.enumerate() {
            b.completion_candidates.push(CompletionCandidate {
                tuple_id,
                entity: rows[i].0.clone(),
                maskable: vec!["county".into(), "population".into(), "founded".into()],
            });
        }
    }
}

/// Knowledge-graph subgraphs (§5 extension): a coverage-sampled subset of
/// subject entities gets a [`KgEntity`] asserting its stable facts as triples,
/// plus a couple of cross-reference edges to other entities for realism.
fn generate_kg(b: &mut Builder, spec: &LakeSpec, rng: &mut StdRng) -> HashMap<String, KgEntityId> {
    let mut entity_kg = HashMap::new();
    if spec.kg_coverage <= 0.0 {
        return entity_kg;
    }
    let names: Vec<String> = b.entities.iter().map(|e| e.name.clone()).collect();
    let mut next_id: KgEntityId = 0;
    let records = b.entities.clone();
    for record in &records {
        if !rng.gen_bool(spec.kg_coverage) {
            continue;
        }
        let mut entity = KgEntity::new(next_id, record.name.clone(), b.sources.wikidata);
        for (attr, value) in &record.facts {
            entity.assert_fact(attr, value.clone());
        }
        // Cross-reference edges: the subgraph mentions nearby entities, like
        // real KG neighbourhoods do.
        for _ in 0..2 {
            let other = &names[rng.gen_range(0..names.len())];
            if normalize_str(other) != normalize_str(&record.name) {
                entity.triples.push(verifai_lake::Triple::new(
                    record.name.clone(),
                    "related to",
                    Value::text(other.clone()),
                ));
            }
        }
        b.lake.add_kg_entity(entity).expect("kg ids unique");
        entity_kg.insert(normalize_str(&record.name), next_id);
        next_id += 1;
    }
    entity_kg
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_llm::entity_key;

    #[test]
    fn tiny_lake_counts_match_spec() {
        let spec = LakeSpec::tiny(42);
        let lake = build(&spec);
        assert_eq!(lake.lake.num_tables(), spec.expected_tables());
        assert!(lake.lake.num_tuples() > 100);
        assert!(lake.lake.num_docs() > 30, "docs: {}", lake.lake.num_docs());
        assert!(!lake.completion_candidates.is_empty());
        assert_eq!(lake.claim_tables.len(), lake.lake.num_tables());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build(&LakeSpec::tiny(1));
        let b = build(&LakeSpec::tiny(1));
        assert_eq!(a.lake.num_tuples(), b.lake.num_tuples());
        assert_eq!(a.lake.stats(), b.lake.stats());
        let ta = a.lake.table(3).unwrap();
        let tb = b.lake.table(3).unwrap();
        assert_eq!(ta, tb);
        let c = build(&LakeSpec::tiny(2));
        assert_ne!(a.lake.table(3).unwrap(), c.lake.table(3).unwrap());
    }

    #[test]
    fn world_model_agrees_with_lake_tuples() {
        let lake = build(&LakeSpec::tiny(7));
        let mut checked = 0;
        for cand in lake.completion_candidates.iter().take(50) {
            let tuple = lake.lake.tuple(cand.tuple_id).unwrap();
            let entity = entity_key(&tuple);
            for col in &cand.maskable {
                let lake_value = tuple.get_fuzzy(col).unwrap();
                let world_value = lake
                    .world
                    .truth(&entity, col)
                    .unwrap_or_else(|| panic!("world missing fact ({entity}, {col})"));
                assert!(
                    lake_value.matches(world_value),
                    "({entity}, {col}): lake {lake_value:?} vs world {world_value:?}"
                );
                checked += 1;
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn entity_names_are_unique() {
        let lake = build(&LakeSpec::tiny(3));
        let mut names: Vec<String> = lake
            .entities
            .iter()
            .map(|e| normalize_str(&e.name))
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate entity names");
    }

    #[test]
    fn caption_families_exist() {
        // Claim retrieval difficulty depends on caption-sharing families.
        let lake = build(&LakeSpec::tiny(5));
        let mut by_family: HashMap<String, usize> = HashMap::new();
        for t in lake.lake.tables() {
            // Family key: caption with digits stripped.
            let family: String = t
                .caption()
                .chars()
                .filter(|c| !c.is_ascii_digit())
                .collect();
            *by_family.entry(family).or_insert(0) += 1;
        }
        let max_family = by_family.values().max().copied().unwrap_or(0);
        assert!(
            max_family >= 3,
            "no caption families (max size {max_family})"
        );
    }

    #[test]
    fn championship_rank_consistent_with_points() {
        let lake = build(&LakeSpec::tiny(9));
        // Find a championship table (captions end with "Championships").
        let table = lake
            .lake
            .tables()
            .find(|t| t.caption().ends_with("Championships"))
            .expect("championship tables exist");
        let points: Vec<i64> = table
            .column_values(1)
            .map(|v| v.as_i64().unwrap())
            .collect();
        let ranks: Vec<i64> = table
            .column_values(2)
            .map(|v| v.as_i64().unwrap())
            .collect();
        for w in points.windows(2) {
            assert!(w[0] >= w[1], "points not sorted descending");
        }
        assert_eq!(ranks, (1..=points.len() as i64).collect::<Vec<_>>());
    }

    #[test]
    fn kg_subgraphs_assert_world_facts() {
        let lake = build(&LakeSpec::tiny(15));
        assert!(
            lake.lake.num_kg_entities() > 20,
            "kg: {}",
            lake.lake.num_kg_entities()
        );
        let mut checked = 0;
        for record in &lake.entities {
            let Some(&kg_id) = lake.entity_kg.get(&normalize_str(&record.name)) else {
                continue;
            };
            let entity = lake.lake.kg_entity(kg_id).unwrap();
            assert!(entity.is_about(&record.name));
            assert_eq!(entity.source, lake.sources.wikidata);
            for (attr, value) in &record.facts {
                let object = entity
                    .object_of(attr)
                    .unwrap_or_else(|| panic!("kg for {} lacks {attr}", record.name));
                assert!(
                    object.matches(value),
                    "kg fact mismatch for {}",
                    record.name
                );
                checked += 1;
            }
        }
        assert!(checked > 50, "too few kg facts checked: {checked}");
    }

    #[test]
    fn sources_partition_tables() {
        let lake = build(&LakeSpec::tiny(11));
        let mut counts = HashMap::new();
        for t in lake.lake.tables() {
            *counts.entry(t.source).or_insert(0usize) += 1;
        }
        assert!(counts[&lake.sources.tabfact] > 0);
        assert!(counts[&lake.sources.turl] > 0);
    }
}
