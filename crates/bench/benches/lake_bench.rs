//! Live-lake benchmarks: streaming ingest throughput, delete + compaction
//! cost, and cold (v2 per-entry decode) vs warm (v3 bulk slab decode) snapshot
//! load.
//!
//! ```text
//! VERIFAI_BENCH_SCALE=tiny cargo bench -p verifai-bench --bench lake_bench
//! ```
//!
//! Writes `BENCH_lake.json` to the repository root (see
//! `scripts/bench_smoke.sh`). The snapshot comparison is the acceptance
//! number for the v3 format: the same flat index is serialized as v2
//! (per-entry length-prefixed vector payloads) and v3 (one slab section,
//! decoded in bulk into the index's row chunks), saved with `save_atomic`,
//! and timed through a full read-from-disk + decode cycle. (The
//! `v3_zero_copy_ms` key keeps its name from when the slab was viewed, not
//! decoded, so the trajectory in `BENCH_lake.json` stays one series.)

use std::time::Instant;

use verifai::{LakeMutation, SemanticBackend, VerifAi, VerifAiConfig};
use verifai_bench::BenchScale;
use verifai_datagen::build;
use verifai_embed::TextEmbedder;
use verifai_index::{save_atomic, FlatIndex, VectorIndex};
use verifai_lake::TextDocument;

/// Best-of-`reps` wall time of `f`, in nanoseconds.
fn best_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

fn main() {
    let scale = BenchScale::from_env();
    let (ingest_docs, n_vectors) = match scale {
        BenchScale::Tiny => (300usize, 2_000usize),
        BenchScale::Small => (2_000, 20_000),
        BenchScale::Paper => (10_000, 100_000),
    };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // --- Streaming ingest: docs/s through the live mutation path ---------
    let config = VerifAiConfig {
        semantic_backend: SemanticBackend::Flat,
        ..VerifAiConfig::default()
    };
    let mut sys = VerifAi::build(build(&scale.spec(42)), config);
    let base: u64 = 50_000; // clear of every generated doc id
    let start = Instant::now();
    for i in 0..ingest_docs as u64 {
        sys.apply(LakeMutation::AddDoc(TextDocument::new(
            base + i,
            format!("Streamed bulletin {i}"),
            format!(
                "Streamed bulletin {i}: the district incumbent filed report {} with the commission on day {}.",
                i % 97,
                i % 31
            ),
            0,
        )))
        .expect("live ingest");
    }
    let ingest_ns = start.elapsed().as_nanos() as u64;
    let ingest_docs_per_s = ingest_docs as f64 / (ingest_ns as f64 / 1e9);
    eprintln!(
        "live_ingest: {ingest_docs} docs in {:.1} ms ({ingest_docs_per_s:.0} docs/s)",
        ingest_ns as f64 / 1e6
    );

    // --- Delete + compaction cost ----------------------------------------
    let start = Instant::now();
    for i in 0..ingest_docs as u64 {
        sys.apply(LakeMutation::RemoveDoc(base + i))
            .expect("live delete");
    }
    let delete_ns = start.elapsed().as_nanos() as u64;
    let tombstones_before = sys.live_stats();
    let start = Instant::now();
    sys.compact_live(host_cores);
    let compact_ns = start.elapsed().as_nanos() as u64;
    let after = sys.live_stats();
    eprintln!(
        "delete+compact: {ingest_docs} deletes in {:.1} ms, compaction {:.1} ms \
         (content tombstones {} -> {}, semantic {} -> {})",
        delete_ns as f64 / 1e6,
        compact_ns as f64 / 1e6,
        tombstones_before.content_tombstones,
        after.content_tombstones,
        tombstones_before.semantic_tombstones,
        after.semantic_tombstones,
    );

    // --- Cold (v2 per-entry) vs warm (v3 bulk) snapshot load -------------
    let embedder = TextEmbedder::with_seed(7);
    let mut flat = FlatIndex::new();
    for i in 0..n_vectors {
        flat.add(
            verifai_lake::InstanceId::Text(i as u64),
            embedder.embed(&format!(
                "entity {} topic {} attribute {}",
                i,
                i % 31,
                i % 7
            )),
        );
    }
    let dir = std::env::temp_dir();
    let v2_path = dir.join("verifai_lake_bench_v2.snap");
    let v3_path = dir.join("verifai_lake_bench_v3.snap");
    save_atomic(&v2_path, &flat.to_bytes_v2()).expect("write v2 snapshot");
    save_atomic(&v3_path, &flat.to_bytes()).expect("write v3 snapshot");
    let cold_ns = best_ns(5, || {
        let bytes = std::fs::read(&v2_path).expect("read v2");
        let idx = FlatIndex::from_bytes(bytes.into()).expect("decode v2");
        std::hint::black_box(VectorIndex::len(&idx));
    });
    let warm_ns = best_ns(5, || {
        let bytes = std::fs::read(&v3_path).expect("read v3");
        let idx = FlatIndex::from_bytes(bytes.into()).expect("decode v3");
        std::hint::black_box(VectorIndex::len(&idx));
    });
    let _ = std::fs::remove_file(&v2_path);
    let _ = std::fs::remove_file(&v3_path);
    let load_speedup = cold_ns as f64 / warm_ns.max(1) as f64;
    eprintln!(
        "snapshot_load ({n_vectors} vectors): v2 per-entry {:.2} ms, v3 bulk {:.2} ms ({load_speedup:.2}x)",
        cold_ns as f64 / 1e6,
        warm_ns as f64 / 1e6
    );

    // --- Artifact ---------------------------------------------------------
    let artifact = serde_json::json!({
        "scale": scale.label(),
        "host_cores": host_cores,
        "live_ingest": {
            "docs": ingest_docs,
            "wall_ms": ingest_ns as f64 / 1e6,
            "docs_per_s": ingest_docs_per_s,
        },
        "delete_and_compaction": {
            "deletes": ingest_docs,
            "delete_ms": delete_ns as f64 / 1e6,
            "compaction_ms": compact_ns as f64 / 1e6,
            "content_tombstones_before": tombstones_before.content_tombstones,
            "content_tombstones_after": after.content_tombstones,
            "compactions": after.content_compactions + after.semantic_compactions,
        },
        "snapshot_load": {
            "vectors": n_vectors,
            "v2_eager_ms": cold_ns as f64 / 1e6,
            "v3_zero_copy_ms": warm_ns as f64 / 1e6,
            "speedup": load_speedup,
        },
    });
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_lake.json");
    let rendered = serde_json::to_string_pretty(&artifact).unwrap_or_default();
    match std::fs::write(&path, format!("{rendered}\n")) {
        Ok(()) => eprintln!("artifact written: {}", path.display()),
        Err(e) => eprintln!("artifact write failed at {}: {e}", path.display()),
    }
}
