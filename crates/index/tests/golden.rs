//! Golden fingerprints of the semantic and content indexes.
//!
//! The flat constants below were captured at the commit *before* the
//! vector indexes moved onto the row slab, from the boxed-`Vector`
//! implementation and the autovectorized dot kernel; the HNSW constants
//! when construction became a batch step (see `HNSW_GOLDEN`). One FNV-64
//! over `to_bytes()` pins the graph (levels, every edge, edge order), the
//! cached distances, the tombstones and the snapshot wire format at once;
//! one FNV-64 over the `(id, score bits)` of the top-50 of 64 queries pins
//! what searches return. The segmented BM25 index is pinned the same way:
//! its snapshot (every segment, tombstone and statistic) and the top-20 of
//! 64 queries. A layout or kernel change that moves any of them has changed
//! behaviour, not just speed.

use verifai_embed::hashing::{fnv1a, splitmix64, unit_float};
use verifai_embed::Vector;
use verifai_index::{FlatIndex, HnswIndex, SearchHit, SegmentedInvertedIndex, VectorIndex};
use verifai_lake::InstanceId;

const DIM: usize = 128;
const N: u64 = 2_048;
const CLUSTERS: u64 = 40;

fn component(seed: u64, row: u64, i: usize) -> f32 {
    let h = splitmix64(seed ^ (row << 20) ^ ((i as u64) << 4));
    (unit_float(h) * 2.0 - 1.0) as f32
}

/// Row `row` of the corpus: a cluster centre plus noise, unit length. Every
/// 16th row repeats the row seven before it exactly, so the build, the
/// back-link prune and the result heaps all meet exact distance ties.
fn corpus_vector(row: u64) -> Vector {
    let row = if row % 16 == 15 { row - 7 } else { row };
    let cluster = splitmix64(row) % CLUSTERS;
    let mut v = Vector::from_vec(
        (0..DIM)
            .map(|i| component(0xc0ffee, cluster, i) + 0.5 * component(0xfeed, row, i))
            .collect(),
    );
    v.normalize();
    v
}

/// Query `qi`: a perturbed corpus row, deliberately *not* unit — `search`
/// owns the normalization.
fn query_vector(qi: u64) -> Vector {
    let base = corpus_vector(qi * 31 % N);
    Vector::from_vec(
        (0..DIM)
            .map(|i| 1.5 * base[i] + 0.2 * component(0xabcd, qi, i))
            .collect(),
    )
}

fn id(row: u64) -> InstanceId {
    InstanceId::Text(row)
}

fn bytes_fp(bytes: &[u8]) -> u64 {
    fnv1a(bytes, 0)
}

fn hits_fp(index: &dyn VectorIndex) -> u64 {
    let mut buf = Vec::new();
    for qi in 0..64 {
        let hits: Vec<SearchHit> = index.search(&query_vector(qi), 50);
        buf.extend_from_slice(&(hits.len() as u32).to_le_bytes());
        for h in hits {
            let InstanceId::Text(doc) = h.id else {
                panic!("corpus holds text ids only");
            };
            buf.extend_from_slice(&doc.to_le_bytes());
            buf.extend_from_slice(&h.score.to_bits().to_le_bytes());
        }
    }
    fnv1a(&buf, 0)
}

fn build(index: &mut dyn VectorIndex) {
    for row in 0..N {
        index.add(id(row), corpus_vector(row));
    }
}

/// 150 removes of distinct standing ids (13 is coprime to 2048) with an add
/// after every third one — 50 adds, landing among the tombstones.
fn mutate(index: &mut dyn VectorIndex) {
    for j in 0..150u64 {
        assert!(index.remove(id(j * 13 % N)));
        if j % 3 == 2 {
            let fresh = N + j / 3;
            index.add(id(fresh), corpus_vector(fresh));
        }
    }
}

/// `[bytes, hits]` after the build, after the mutations, after `compact`.
fn fingerprints<I: VectorIndex>(
    mut index: I,
    to_bytes: impl Fn(&I) -> bytes::Bytes,
    compact: impl Fn(&mut I),
) -> [[u64; 2]; 3] {
    let fp = |index: &I| [bytes_fp(&to_bytes(index)), hits_fp(index)];
    build(&mut index);
    let built = fp(&index);
    mutate(&mut index);
    let mutated = fp(&index);
    compact(&mut index);
    [built, mutated, fp(&index)]
}

fn show(name: &str, got: &[[u64; 2]; 3]) -> String {
    let rows: Vec<String> = got
        .iter()
        .map(|[b, h]| format!("    [{b:#018x}, {h:#018x}],"))
        .collect();
    format!("{name}:\n{}", rows.join("\n"))
}

/// Every constant was re-captured when construction became one batch step
/// with Alg. 4 neighbour selection and `ef_construction` 64: the built and
/// mutated rows come from `add` (a batch of one), the compacted row from the
/// batched rebuild, and each graph — its edges and so its snapshot and its
/// hits — differs from the keep-the-closest graph's.
const HNSW_GOLDEN: [[u64; 2]; 3] = [
    [0xaf94609c68c41b0d, 0xdf17ba0c2794a939],
    [0x3da3498499d088b2, 0xf158946185af5c2c],
    [0x4dc73a0c65c101af, 0x60e0ee00fd5e03f9],
];
/// The byte digests (`[_][0]`) were re-captured when the flat snapshot lost
/// its int8 code sidecar, scan-mode byte and shortlist factor; the hits
/// predate that change.
const FLAT_EXACT_GOLDEN: [[u64; 2]; 3] = [
    [0x181d3107d11a176a, 0x7a13e02e41582a07],
    [0x7bd6dd2a699e5337, 0x7ecde0f6d6275431],
    [0xf94362bf95abb9d9, 0x7ecde0f6d6275431],
];
#[test]
fn hnsw_graph_snapshot_and_hits_match_the_golden_build() {
    let got = fingerprints(HnswIndex::with_defaults(), HnswIndex::to_bytes, |index| {
        index.compact(2)
    });
    assert_eq!(got, HNSW_GOLDEN, "{}", show("hnsw", &got));
}

#[test]
fn flat_exact_snapshot_and_hits_match_the_golden_build() {
    let got = fingerprints(FlatIndex::new(), FlatIndex::to_bytes, FlatIndex::compact);
    assert_eq!(got, FLAT_EXACT_GOLDEN, "{}", show("flat exact", &got));
}

const DOCS: u64 = 1_024;

/// Document `row` of the content corpus: 4 to 27 terms from a 500-term
/// vocabulary, skewed toward its low end so postings lists differ widely
/// in length. Every 16th row repeats the row seven before it, so scores tie
/// exactly within and across segments.
fn doc_text(row: u64) -> String {
    let row = if row % 16 == 15 { row - 7 } else { row };
    let len = 4 + splitmix64(row ^ 0x5eed) % 24;
    let terms: Vec<String> = (0..len)
        .map(|i| {
            let u = unit_float(splitmix64((row << 8) ^ i));
            format!("term{}", (u * u * 500.0) as u64)
        })
        .collect();
    terms.join(" ")
}

/// Query `qi`: 1 to 4 terms from the same vocabulary.
fn query_text(qi: u64) -> String {
    let text = doc_text(DOCS * 4 + qi);
    let terms: Vec<&str> = text.split(' ').take(1 + (qi % 4) as usize).collect();
    terms.join(" ")
}

fn content_hits_fp(index: &SegmentedInvertedIndex) -> u64 {
    let mut buf = Vec::new();
    for qi in 0..64 {
        let hits = index.search(&query_text(qi), 20);
        buf.extend_from_slice(&(hits.len() as u32).to_le_bytes());
        for h in hits {
            let InstanceId::Text(doc) = h.id else {
                panic!("corpus holds text ids only");
            };
            buf.extend_from_slice(&doc.to_le_bytes());
            buf.extend_from_slice(&h.score.to_bits().to_le_bytes());
        }
    }
    fnv1a(&buf, 0)
}

/// `[bytes, hits]` of a segmented BM25 index after an add-only build (a seal
/// every 24 documents, tail merges past the fan-out cap), after 300 removes
/// with an add after every third, and after a full `compact`.
fn content_fingerprints() -> [[u64; 2]; 3] {
    let fp = |index: &SegmentedInvertedIndex| [bytes_fp(&index.to_bytes()), content_hits_fp(index)];
    let mut index = SegmentedInvertedIndex::default().with_seal_threshold(24);
    for row in 0..DOCS {
        index.add(id(row), &doc_text(row));
    }
    let built = fp(&index);
    for j in 0..300u64 {
        let row = j * 13 % DOCS;
        assert!(index.remove(id(row), &doc_text(row)));
        if j % 3 == 2 {
            let fresh = DOCS + j / 3;
            index.add(id(fresh), &doc_text(fresh));
        }
    }
    let mutated = fp(&index);
    index.compact();
    [built, mutated, fp(&index)]
}

/// Captured before the content index shrank to one segment type.
const SEGMENTED_GOLDEN: [[u64; 2]; 3] = [
    [0x2f4c3401ed97cea9, 0x2885f5fd2238796e],
    [0xb2294a79b5ec82d9, 0x710bdcaa00fdaf29],
    [0xcd0ec4daf2499646, 0x710bdcaa00fdaf29],
];

#[test]
fn segmented_snapshot_and_hits_match_the_golden_build() {
    let got = content_fingerprints();
    assert_eq!(got, SEGMENTED_GOLDEN, "{}", show("segmented", &got));
}
