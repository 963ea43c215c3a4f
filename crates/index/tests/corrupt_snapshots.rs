//! Damaged and foreign snapshots: every reader returns a typed error or an
//! index that searches without panicking, whatever bytes are overwritten,
//! and accepts only the current version with exactly its writer's flags.

use bytes::Bytes;
use proptest::prelude::*;
use std::sync::OnceLock;
use verifai_embed::hashing::{splitmix64, unit_float};
use verifai_embed::Vector;
use verifai_index::{
    FlatIndex, HnswConfig, HnswIndex, PersistError, SegmentedInvertedIndex, VectorIndex,
};
use verifai_lake::InstanceId;

const DIM: usize = 8;

fn vector(row: u64) -> Vector {
    Vector::from_vec(
        (0..DIM)
            .map(|i| (unit_float(splitmix64((row << 8) ^ i as u64)) * 2.0 - 1.0) as f32)
            .collect(),
    )
}

fn id(row: u64) -> InstanceId {
    InstanceId::Text(row)
}

fn fill(index: &mut impl VectorIndex) {
    for row in 0..24 {
        index.add(id(row), vector(row));
    }
    for row in [3, 11] {
        index.remove(id(row));
    }
}

/// One small snapshot of each shape a reader accepts, tombstones included.
fn snapshots() -> &'static [(&'static str, Bytes); 3] {
    static SNAPSHOTS: OnceLock<[(&str, Bytes); 3]> = OnceLock::new();
    SNAPSHOTS.get_or_init(|| {
        let mut flat = FlatIndex::new();
        fill(&mut flat);
        let mut hnsw = HnswIndex::new(HnswConfig {
            m: 4,
            ..HnswConfig::default()
        });
        fill(&mut hnsw);
        let mut content = SegmentedInvertedIndex::default().with_seal_threshold(4);
        let text = |row: u64| format!("alpha term{} beta{}", row % 5, row % 3);
        for row in 0..12 {
            content.add(id(row), &text(row));
        }
        content.remove(id(2), &text(2));
        [
            ("flat", flat.to_bytes()),
            ("hnsw", hnsw.to_bytes()),
            ("segmented", content.to_bytes()),
        ]
    })
}

/// Load `bytes` as `kind` and, when it loads, search it.
fn load_and_search(kind: &str, bytes: Bytes) -> Result<(), PersistError> {
    match kind {
        "segmented" => {
            SegmentedInvertedIndex::from_bytes(bytes)?.search("alpha term3 beta1", 5);
        }
        "hnsw" => {
            HnswIndex::from_bytes(bytes)?.search(&vector(99), 5);
        }
        _ => {
            FlatIndex::from_bytes(bytes)?.search(&vector(99), 5);
        }
    }
    Ok(())
}

/// A current snapshot loads; the same snapshot with an older version byte,
/// or with a flag taken away or added, is rejected: one version, and each
/// reader accepts only the flags byte its own writer writes.
#[test]
fn older_versions_and_foreign_flags_are_rejected() {
    for (kind, bytes) in snapshots() {
        assert_eq!(load_and_search(kind, bytes.clone()), Ok(()), "{kind}");
        for version in 1..=3u8 {
            let mut raw = bytes.to_vec();
            raw[4] = version;
            assert_eq!(
                load_and_search(kind, Bytes::from(raw)),
                Err(PersistError::BadVersion(version)),
                "{kind} v{version}"
            );
        }
        for bit in 0..8 {
            let mut raw = bytes.to_vec();
            raw[6] ^= 1 << bit;
            let flags = raw[6];
            assert_eq!(
                load_and_search(kind, Bytes::from(raw)),
                Err(PersistError::BadFlags(flags)),
                "{kind} flag bit {bit}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Overwrite one byte anywhere, or one aligned `u32` with `u32::MAX` or
    /// a random word: the reader returns an error or an index whose search
    /// completes.
    #[test]
    fn damaged_snapshots_are_errors_or_searchable(
        which in 0usize..3,
        at in any::<u64>(),
        mode in 0u8..3,
        value in any::<u32>(),
    ) {
        let (kind, bytes) = &snapshots()[which];
        let mut raw = bytes.to_vec();
        if mode == 0 {
            let i = at as usize % raw.len();
            raw[i] = value as u8;
        } else {
            let i = at as usize % (raw.len() / 4) * 4;
            let word = if mode == 1 { u32::MAX } else { value };
            raw[i..i + 4].copy_from_slice(&word.to_le_bytes());
        }
        let _ = load_and_search(kind, Bytes::from(raw));
    }
}
