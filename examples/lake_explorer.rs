//! Explore the synthetic multi-modal data lake and its indexes directly:
//! corpus statistics, content (BM25) vs semantic (HNSW) retrieval, and the
//! Combiner's fusion of the two — the paper's Indexer layer in isolation.
//!
//! Run with:
//! ```text
//! cargo run --release --example lake_explorer [tiny|small|paper]
//! ```

use verifai::{VerifAi, VerifAiConfig};
use verifai_datagen::{build, LakeSpec};
use verifai_lake::InstanceKind;

fn main() {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "tiny".into());
    let spec = match scale.as_str() {
        "paper" => LakeSpec::paper_scale(42),
        "small" => LakeSpec::small(42),
        _ => LakeSpec::tiny(42),
    };
    let t0 = std::time::Instant::now();
    let generated = build(&spec);
    println!("built {} lake in {:?}", scale, t0.elapsed());
    println!("  {}", generated.lake.stats());
    println!(
        "  {} subject entities, {} with text pages",
        generated.entities.len(),
        generated.entity_docs.len()
    );
    println!(
        "  {} tuple-completion candidates",
        generated.completion_candidates.len()
    );

    // Peek at one table of each caption family genre.
    println!("\nsample captions:");
    let mut seen = std::collections::HashSet::new();
    for table in generated.lake.tables() {
        let family: String = table
            .caption()
            .chars()
            .filter(|c| !c.is_ascii_digit())
            .collect();
        if seen.insert(family) {
            println!("  [{} rows] {}", table.num_rows(), table.caption());
        }
        if seen.len() >= 6 {
            break;
        }
    }

    let t1 = std::time::Instant::now();
    let system = VerifAi::build(generated, VerifAiConfig::default());
    println!("\nindexed all modalities in {:?}", t1.elapsed());

    // Ad-hoc retrieval across the three modalities.
    for query in [
        "incumbent elections New York",
        "championships points 1959",
        "drama film director",
    ] {
        println!("\nquery: \"{query}\"");
        for kind in [InstanceKind::Tuple, InstanceKind::Table, InstanceKind::Text] {
            let hits = system.retrieve(query, kind, 3);
            println!("  top {kind} hits:");
            for h in hits {
                let preview = system
                    .lake()
                    .resolve(h.id)
                    .map(|i| {
                        let s = verifai_text::serialize_instance(&i);
                        s.chars().take(80).collect::<String>()
                    })
                    .unwrap_or_default();
                println!(
                    "    {:<12} score {:>7.4}  {preview}",
                    h.id.to_string(),
                    h.score
                );
            }
        }
    }
}
