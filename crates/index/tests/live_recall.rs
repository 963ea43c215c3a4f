//! Recall and cost of an HNSW graph that has lived through churn.
//!
//! A tombstone keeps its edges and routes searches but takes no result
//! slot. This gate builds a clustered corpus, replaces 40 % of its rows
//! (remove, then add under a new id), and holds the churned graph to the
//! same answers and the same work as a compacted copy of itself: recall@10
//! against an exact flat scan, and distance evaluations per query as the
//! meter counts them. A search whose cost grows with the tombstone count
//! fails the cost bound long before recall moves.

use verifai_embed::hashing::{splitmix64, unit_float};
use verifai_embed::Vector;
use verifai_index::{FlatIndex, HnswIndex, VectorIndex};
use verifai_lake::InstanceId;
use verifai_obs::meter;

const DIM: usize = 128;
const N: u64 = 2_000;
const CLUSTERS: u64 = 200;
/// Rows replaced by a remove plus an add under a fresh id.
const REPLACED: u64 = N * 2 / 5;
const QUERIES: u64 = 50;
const K: usize = 10;

fn component(seed: u64, row: u64, i: usize) -> f32 {
    let h = splitmix64(seed ^ (row << 20) ^ ((i as u64) << 4));
    (unit_float(h) * 2.0 - 1.0) as f32
}

/// A unit vector in cluster `cluster`: its centre plus 0.3 noise drawn
/// from `draw`.
fn clustered(cluster: u64, draw: u64) -> Vector {
    let mut v = Vector::from_vec(
        (0..DIM)
            .map(|i| component(0xc0ffee, cluster, i) + 0.3 * component(0xfeed, draw, i))
            .collect(),
    );
    v.normalize();
    v
}

fn cluster_of(row: u64) -> u64 {
    splitmix64(row) % CLUSTERS
}

/// Query `qi`: a perturbed corpus row.
fn query_vector(qi: u64) -> Vector {
    let base = clustered(cluster_of(qi * 37 % N), qi * 37 % N);
    Vector::from_vec(
        (0..DIM)
            .map(|i| base[i] + 0.1 * component(0xabcd, qi, i))
            .collect(),
    )
}

fn id(row: u64) -> InstanceId {
    InstanceId::Text(row)
}

/// Build every row, then replace `REPLACED` distinct rows (3 is coprime to
/// 2000): the old id is removed and a fresh draw from the same cluster is
/// added under a new id, the way an update lands in a live lake.
fn churn(index: &mut dyn VectorIndex) {
    for row in 0..N {
        index.add(id(row), clustered(cluster_of(row), row));
    }
    for j in 0..REPLACED {
        let row = j * 3 % N;
        assert!(index.remove(id(row)));
        index.add(id(N + j), clustered(cluster_of(row), N + j));
    }
}

/// Tie-aware recall@K against the exact scan, and the mean distance
/// evaluations per query.
fn recall_and_cost(index: &HnswIndex, exact: &FlatIndex) -> (f64, f64) {
    let mut hit = 0usize;
    let mut scanned = 0u64;
    for qi in 0..QUERIES {
        let q = query_vector(qi);
        let truth = exact.search(&q, K);
        let floor = truth[K - 1].score - 1e-9;
        let (got, cost) = meter::scoped(|| index.search(&q, K));
        hit += got.iter().filter(|h| h.score >= floor).count();
        scanned += cost.vectors_scanned;
    }
    (
        hit as f64 / (QUERIES as usize * K) as f64,
        scanned as f64 / QUERIES as f64,
    )
}

#[test]
fn churned_graph_recalls_and_costs_what_its_compacted_copy_does() {
    let mut exact = FlatIndex::new();
    churn(&mut exact);
    let mut churned = HnswIndex::with_defaults();
    churn(&mut churned);
    assert_eq!(churned.tombstones(), REPLACED as usize);
    let mut compacted = HnswIndex::from_bytes(churned.to_bytes()).unwrap();
    compacted.compact(2);
    assert_eq!(compacted.tombstones(), 0);
    assert_eq!(compacted.len(), churned.len());

    let (recall, cost) = recall_and_cost(&churned, &exact);
    let (fresh_recall, fresh_cost) = recall_and_cost(&compacted, &exact);
    let report = format!(
        "churned: recall@{K} {recall:.3}, {cost:.0} evals/query; \
         compacted: recall@{K} {fresh_recall:.3}, {fresh_cost:.0} evals/query"
    );
    assert!(recall >= 0.95, "{report}");
    assert!(recall >= fresh_recall - 0.03, "{report}");
    assert!(cost <= 1.5 * fresh_cost, "{report}");
}
