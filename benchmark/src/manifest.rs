//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound.
//!
//! `BENCHMARK.json` at the repository root states the same tables for the
//! driver; a unit test here fails when the two disagree.

use crate::stats::Better;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// An end-to-end metric: reported by every workload's untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in print order.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "decision_accuracy",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by every workload's traced run; no bound.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// `<crate>.<what>`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// The per-layer metrics, in print order (layer = crate name).
pub const PER_LAYER: [Layer; 44] = [
    layer("datagen.build_s", "s", Better::Lower),
    layer("core.index_build_s", "s", Better::Lower),
    layer("core.embedded_entries", "count", Better::Lower),
    layer("embed.text_us", "us", Better::Lower),
    layer("embed.embeds_per_req", "count", Better::Lower),
    layer("index.bm25_us", "us", Better::Lower),
    layer("index.vector_us", "us", Better::Lower),
    layer("index.retrieve_tuple_us", "us", Better::Lower),
    layer("index.retrieve_text_us", "us", Better::Lower),
    layer("index.retrieve_table_us", "us", Better::Lower),
    layer("index.retrieve_flat_us", "us", Better::Lower),
    layer("index.vectors_scanned_per_req", "count", Better::Lower),
    layer("index.postings_per_req", "count", Better::Lower),
    layer("lake.resolve_us", "us", Better::Lower),
    layer("rerank.tuple_us", "us", Better::Lower),
    layer("rerank.text_us", "us", Better::Lower),
    layer("rerank.table_us", "us", Better::Lower),
    layer("rerank.pair_us", "us", Better::Lower),
    layer("rerank.candidates_in_per_req", "count", Better::Lower),
    layer("verify.judge_us", "us", Better::Lower),
    layer("verify.pairs_per_req", "count", Better::Lower),
    layer("core.verify_tuple_ms", "ms", Better::Lower),
    layer("core.verify_claim_ms", "ms", Better::Lower),
    layer("core.self_us", "us", Better::Lower),
    layer("core.provenance_records_per_req", "count", Better::Lower),
    layer("core.apply_add_doc_us", "us", Better::Lower),
    layer("core.apply_add_tuple_us", "us", Better::Lower),
    layer("core.apply_update_us", "us", Better::Lower),
    layer("core.apply_remove_us", "us", Better::Lower),
    layer("core.mutations_per_s", "1/s", Better::Higher),
    layer("core.compact_ms", "ms", Better::Lower),
    layer("core.live_tombstones_end", "count", Better::Lower),
    layer("core.live_segments_end", "count", Better::Lower),
    layer("service.overhead_us", "us", Better::Lower),
    layer("service.hit_path_us", "us", Better::Lower),
    layer("service.queue_wait_ms", "ms", Better::Lower),
    layer("service.cache_hit_ratio", "ratio", Better::Higher),
    layer("obs.overhead_pct", "%", Better::Lower),
    layer("obs.overhead_iqr_pct", "%", Better::Lower),
    layer("cluster.retrieve_us", "us", Better::Lower),
    layer("cluster.overhead_ratio", "ratio", Better::Lower),
    layer("bench.trace_overhead_pct", "%", Better::Lower),
    layer("bench.replay_self_us", "us", Better::Lower),
    layer("bench.gen_lag_p99_ms", "ms", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn better_label(better: Better) -> &'static str {
        match better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(manifest["run_seconds"].as_u64(), Some(RUN_SECONDS));

        let workloads = manifest["workloads"].as_array().expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w["name"].as_str())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);

        let e2e = manifest["end_to_end"].as_array().expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (theirs, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(theirs["name"].as_str(), Some(ours.name));
            assert_eq!(theirs["unit"].as_str(), Some(ours.unit));
            assert_eq!(theirs["better"].as_str(), Some(better_label(ours.better)));
            assert_eq!(theirs["bound"].as_f64(), Some(ours.bound), "{}", ours.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let layers = manifest["per_layer"].as_array().expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (theirs, ours) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(theirs["name"].as_str(), Some(ours.name));
            assert_eq!(theirs["unit"].as_str(), Some(ours.unit));
            assert_eq!(theirs["better"].as_str(), Some(better_label(ours.better)));
        }
    }
}
