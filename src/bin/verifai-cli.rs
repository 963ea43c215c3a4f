//! `verifai-cli` — command-line access to the framework.
//!
//! ```text
//! verifai-cli lake [tiny|small|paper]          build a lake and print stats
//! verifai-cli search <kind> <query...>         ad-hoc retrieval over a tiny lake
//! verifai-cli check <table.csv> <claim...>     verify a claim against your own CSV table
//! verifai-cli experiments [tiny|small|paper]   run the paper's evaluation at seeds 42 and 7:
//!                                              tables to stderr, JSON (EVAL.json) to stdout
//! verifai-cli live [tiny|small|paper]          live-lake smoke: feature budget, ingest, delete,
//!                                              compact, snapshot, reload, query
//! ```
//!
//! The scale defaults to `tiny`; any other word is a usage error (exit 1).
//!
//! `check` is the adoption flow: bring a CSV table, state a claim in the
//! canonical grammar (`in the {caption}, the {column} of {key} is {value}` /
//! `... the total {column} is {n}` / `... {subject} has the highest {column}
//! of any {subject column}`), and get a verdict with an explanation.

use std::process::ExitCode;
use verifai::experiments::{evaluate, Scale};
use verifai::{DataObject, VerifAi, VerifAiConfig};
use verifai_datagen::LakeSpec;
use verifai_lake::{table_from_csv, DataInstance, InstanceKind};
use verifai_llm::{SimLlm, SimLlmConfig, TextClaim, WorldModel};

/// The lake seed of `lake`, `search` and `live`.
const SEED: u64 = 42;

/// The seeds every `experiments` run evaluates: a shape that holds at one
/// seed only fails the run.
const EVAL_SEEDS: [u64; 2] = [42, 7];

fn cmd_lake(scale: Scale) -> ExitCode {
    let t0 = std::time::Instant::now();
    let generated = verifai_datagen::build(&scale.spec(SEED));
    println!("built in {:?}", t0.elapsed());
    println!("{}", generated.lake.stats());
    println!(
        "{} subject entities; {} with text pages; {} with KG subgraphs",
        generated.entities.len(),
        generated.entity_docs.len(),
        generated.entity_kg.len()
    );
    ExitCode::SUCCESS
}

fn cmd_search(kind: &str, query: &str) -> ExitCode {
    let kind = match kind {
        "tuple" => InstanceKind::Tuple,
        "table" => InstanceKind::Table,
        "text" => InstanceKind::Text,
        "kg" => InstanceKind::Kg,
        other => {
            eprintln!("unknown modality '{other}' (use tuple|table|text|kg)");
            return ExitCode::FAILURE;
        }
    };
    let system = VerifAi::build(
        verifai_datagen::build(&LakeSpec::tiny(SEED)),
        VerifAiConfig::default(),
    );
    for hit in system.retrieve(query, kind, 5) {
        let preview = system
            .lake()
            .resolve(hit.id)
            .map(|i| {
                verifai_text::serialize_instance(&i)
                    .chars()
                    .take(90)
                    .collect::<String>()
            })
            .unwrap_or_default();
        println!("{:<12} {:>8.4}  {preview}", hit.id.to_string(), hit.score);
    }
    ExitCode::SUCCESS
}

fn cmd_check(path: &str, claim_text: &str) -> ExitCode {
    let csv = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let caption = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("table")
        .replace(['_', '-'], " ");
    let table = match table_from_csv(0, caption, &csv, 0) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "loaded '{}' ({} rows, {} columns)",
        table.caption(),
        table.num_rows(),
        table.schema.arity()
    );

    let expr = verifai_claims::parse_claim(claim_text);
    if expr.is_none() {
        eprintln!(
            "note: the claim is outside the canonical grammar; falling back to the\n\
             generic verifier's reading (may abstain)"
        );
    }
    let object = DataObject::TextClaim(TextClaim {
        id: 0,
        text: claim_text.to_string(),
        expr,
        // The user handed us this exact table: scope the claim to it, so a
        // false claim is refuted rather than existentially abstained on.
        scope: Some(table.caption().to_string()),
    });
    // A standalone check has no lake: use the LLM verifier directly over the
    // supplied table.
    let llm = SimLlm::new(SimLlmConfig::oracle(42), WorldModel::new());
    let out = llm.verify(&object, &DataInstance::Table(table));
    println!("\nclaim: {claim_text}");
    println!("verdict: {}", out.verdict);
    println!("explanation: {}", out.explanation);
    ExitCode::SUCCESS
}

/// The paper's evaluation at both seeds: rendered tables to stderr, one
/// JSON document (no wall-clock values, so byte-reproducible) to stdout.
/// Exits nonzero when a paper shape fails at either seed.
fn cmd_experiments(scale: Scale) -> ExitCode {
    let mut runs = Vec::new();
    let mut failed = false;
    for seed in EVAL_SEEDS {
        let (spec, tasks, claims) = scale.evaluation(seed);
        let eval = evaluate(&spec, tasks, claims);
        eprintln!(
            "\n=== {} scale, seed {seed}: {tasks} tasks, {claims} claims ===\n{}",
            scale.name(),
            verifai::report::render(&eval)
        );
        for failure in eval.shape_failures() {
            eprintln!("shape FAILED at seed {seed}: {failure}");
            failed = true;
        }
        runs.push(verifai::report::to_json(&eval));
    }
    let document = serde_json::json!({ "scale": scale.name(), "runs": runs });
    println!(
        "{}",
        serde_json::to_string_pretty(&document).unwrap_or_default()
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Gating live-lake smoke (used by `scripts/check.sh`): build a live
/// system, report what its prepared rerank features weigh (per tuple,
/// against the budget) and what its semantic indexes weigh (per stored
/// vector, against theirs), stream documents in, check every modality's
/// content index is within its segment bound, delete half, compact,
/// snapshot the standing text indexes, reload them, and check the reloaded
/// indexes search identically. Any violated expectation exits nonzero.
fn cmd_live(scale: Scale) -> ExitCode {
    use verifai::LakeMutation;
    use verifai_index::{save_atomic, AnyVectorIndex, SegmentedInvertedIndex, VectorIndex};
    use verifai_lake::{InstanceId, TextDocument};

    fn fail(step: &str, detail: String) -> ExitCode {
        eprintln!("live smoke FAILED at {step}: {detail}");
        ExitCode::FAILURE
    }

    let config = VerifAiConfig::default();
    let t0 = std::time::Instant::now();
    let mut system = VerifAi::build(verifai_datagen::build(&scale.spec(SEED)), config);
    println!("built in {:?}: {}", t0.elapsed(), system.lake().stats());

    // What the rerank stage keeps per instance — and per tuple, the one
    // modality numerous enough to be held to a budget (DESIGN.md §20).
    const TUPLE_BUDGET_BYTES: usize = 300;
    let prepared = system.stages().rerank_stage().feature_stats();
    println!(
        "prepared_instances {} prepared_bytes {}",
        prepared.instances, prepared.bytes
    );
    let per_tuple = prepared.tuple_bytes / prepared.tuples.max(1);
    println!(
        "prepared bytes per tuple: {per_tuple} over {} tuples (budget {TUPLE_BUDGET_BYTES})",
        prepared.tuples
    );
    if prepared.tuples != system.lake().num_tuples() || per_tuple > TUPLE_BUDGET_BYTES {
        return fail(
            "prepare",
            format!(
                "{} of {} tuples prepared at {per_tuple} B each",
                prepared.tuples,
                system.lake().num_tuples()
            ),
        );
    }

    // What the semantic indexes keep per stored vector: its f32 row plus
    // 400 bytes for edges, id, tombstone and level (DESIGN.md §21). Each
    // index may also hold one chunk of rows it has not filled yet — noise
    // at `small`, most of the figure at `tiny`.
    let semantic_budget = 4 * config.embed_dim + 400;
    let stats = system.live_stats();
    let stored = stats.semantic_vectors + stats.semantic_tombstones;
    let unfilled = system.live().map_or(0, |live| {
        live.semantic.iter().flatten().count() * verifai_index::vector::ROWS_PER_CHUNK
    });
    let per_vector = stats.semantic_bytes / stored.max(1);
    println!(
        "semantic bytes per vector: {per_vector} over {stored} vectors (budget {semantic_budget})"
    );
    if stats.semantic_bytes > (stored + unfilled) * semantic_budget {
        return fail(
            "semantic budget",
            format!(
                "{} B over {stored} stored vectors (+{unfilled} unfilled chunk rows) exceed {semantic_budget} each",
                stats.semantic_bytes
            ),
        );
    }

    // Ingest: stream documents with per-doc marker tokens.
    let base: u64 = 80_000;
    let n: u64 = 40;
    for i in 0..n {
        let outcome = system.apply(LakeMutation::AddDoc(TextDocument::new(
            base + i,
            format!("Streamed bulletin {i}"),
            format!("Streamed bulletin bulletintoken{i}: filed with the commission."),
            0,
        )));
        if let Err(e) = outcome {
            return fail("ingest", format!("doc {i}: {e}"));
        }
    }
    let hits = system.retrieve("streamed bulletin commission", InstanceKind::Text, 5);
    if !hits
        .iter()
        .any(|h| matches!(h.id, InstanceId::Text(d) if d >= base))
    {
        return fail("ingest", "no streamed doc in top-5".into());
    }
    println!(
        "ingested {n} docs, generation {}",
        system.lake().generation()
    );
    // The segment bound holds on the build and the add path alike: a fresh
    // build stands on one segment per modality, ingest adds a memtable.
    let Some(live) = system.live() else {
        return fail("ingest", "system is not live".into());
    };
    let segments: Vec<usize> = live.content.iter().map(|c| c.read().segments()).collect();
    println!("content segments per modality after ingest: {segments:?}");
    if segments
        .iter()
        .any(|&s| s > SegmentedInvertedIndex::MAX_SEGMENTS)
    {
        return fail(
            "ingest",
            format!(
                "content segments {segments:?} exceed the bound {}",
                SegmentedInvertedIndex::MAX_SEGMENTS
            ),
        );
    }

    // Delete half, then verify a deleted doc is unreachable by its marker.
    for i in 0..n / 2 {
        if let Err(e) = system.apply(LakeMutation::RemoveDoc(base + i)) {
            return fail("delete", format!("doc {i}: {e}"));
        }
    }
    let gone = system.retrieve("bulletintoken3", InstanceKind::Text, 5);
    if gone.iter().any(|h| h.id == InstanceId::Text(base + 3)) {
        return fail("delete", "removed doc still retrievable".into());
    }

    // Compact: every tombstone must drain.
    system.compact_live(2);
    let stats = system.live_stats();
    if stats.content_tombstones != 0 || stats.semantic_tombstones != 0 {
        return fail(
            "compact",
            format!(
                "tombstones remain: content {} semantic {}",
                stats.content_tombstones, stats.semantic_tombstones
            ),
        );
    }
    println!(
        "deleted {} docs, compacted ({} content + {} semantic compactions)",
        n / 2,
        stats.content_compactions,
        stats.semantic_compactions
    );

    // Snapshot the standing text-modality indexes (slot 2) and reload.
    let Some(live) = system.live() else {
        return fail("snapshot", "system is not live".into());
    };
    let dir = std::env::temp_dir();
    let content_path = dir.join("verifai_live_smoke_content.snap");
    let content_bytes = live.content[2].read().to_bytes();
    if let Err(e) = save_atomic(&content_path, &content_bytes) {
        return fail("snapshot", format!("content save: {e}"));
    }
    let reloaded = match std::fs::read(&content_path)
        .map_err(|e| e.to_string())
        .and_then(|b| SegmentedInvertedIndex::from_bytes(b.into()).map_err(|e| e.to_string()))
    {
        Ok(idx) => idx,
        Err(e) => return fail("reload", format!("content: {e}")),
    };
    let _ = std::fs::remove_file(&content_path);
    let probe = "streamed bulletin commission filing";
    let want = live.content[2].read().search(probe, 5);
    let got = reloaded.search(probe, 5);
    if got != want {
        return fail("query", format!("content diverged: {got:?} vs {want:?}"));
    }

    if let Some(semantic) = &live.semantic[2] {
        let semantic_path = dir.join("verifai_live_smoke_semantic.snap");
        let bytes = semantic.read().to_bytes();
        if let Err(e) = save_atomic(&semantic_path, &bytes) {
            return fail("snapshot", format!("semantic save: {e}"));
        }
        let reloaded = match std::fs::read(&semantic_path)
            .map_err(|e| e.to_string())
            .and_then(|b| AnyVectorIndex::from_bytes(b.into()).map_err(|e| e.to_string()))
        {
            Ok(idx) => idx,
            Err(e) => return fail("reload", format!("semantic: {e}")),
        };
        let _ = std::fs::remove_file(&semantic_path);
        let vector = verifai::corpus::embedder_for(&VerifAiConfig::default()).embed(probe);
        let want = VectorIndex::search(&*semantic.read(), &vector, 5);
        let got = VectorIndex::search(&reloaded, &vector, 5);
        if got != want {
            return fail("query", format!("semantic diverged: {got:?} vs {want:?}"));
        }
    }
    println!("snapshot + reload verified; live smoke OK");
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n\
         \x20 verifai-cli lake [tiny|small|paper]\n\
         \x20 verifai-cli search <tuple|table|text|kg> <query...>\n\
         \x20 verifai-cli check <table.csv> <claim...>\n\
         \x20 verifai-cli experiments [tiny|small|paper]\n\
         \x20 verifai-cli live [tiny|small|paper]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match args.get(1).map(String::as_str) {
        None => Some(Scale::Tiny),
        Some(name) => Scale::parse(name),
    };
    match (args.first().map(String::as_str), scale) {
        (Some("search"), _) if args.len() >= 3 => cmd_search(&args[1], &args[2..].join(" ")),
        (Some("check"), _) if args.len() >= 3 => cmd_check(&args[1], &args[2..].join(" ")),
        (Some("lake"), Some(scale)) => cmd_lake(scale),
        (Some("experiments"), Some(scale)) => cmd_experiments(scale),
        (Some("live"), Some(scale)) => cmd_live(scale),
        (Some("lake" | "experiments" | "live"), None) => {
            eprintln!("unknown scale '{}'", args[1]);
            usage()
        }
        _ => usage(),
    }
}
