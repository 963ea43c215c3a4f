//! Deterministic hash partitioning of lake instances across shards.

use verifai_embed::hashing::splitmix64;
use verifai_lake::InstanceId;

/// The shard owning `id` in an `shards`-way partition.
///
/// The placement is a pure function of the id — no registry, no rebalance
/// state — so the cluster build, [`VerifAi::apply`](crate::VerifAi::apply)
/// and tests agree on ownership without coordination. Partitioning is by *id*, not by entry:
/// a text document's sentence chunks all carry the document's id and
/// therefore co-locate, which keeps duplicate-id hits intact under
/// scatter/gather.
pub fn shard_of(id: InstanceId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    // Tag the modality into the high bits so Tuple(7) and Table(7) hash
    // independently, then mix through splitmix64 for uniform spread.
    let (tag, raw) = match id {
        InstanceId::Tuple(t) => (0u64, t),
        InstanceId::Table(t) => (1, t),
        InstanceId::Text(d) => (2, d),
        InstanceId::Kg(k) => (3, k),
    };
    (splitmix64(raw ^ (tag << 61) ^ 0x5eed_c1d5) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_owns_everything() {
        for i in 0..100 {
            assert_eq!(shard_of(InstanceId::Tuple(i), 1), 0);
        }
    }

    #[test]
    fn placement_is_stable_and_in_range() {
        for shards in 1..=8 {
            for i in 0..200u64 {
                let id = InstanceId::Text(i);
                let s = shard_of(id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(id, shards), "placement must be pure");
            }
        }
    }

    #[test]
    fn modalities_hash_independently() {
        // The same raw id in different modalities should not always land
        // on the same shard (they are distinct instances).
        let differs = (0..64u64)
            .any(|i| shard_of(InstanceId::Tuple(i), 4) != shard_of(InstanceId::Table(i), 4));
        assert!(differs);
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let mut counts = [0usize; 4];
        for i in 0..4000u64 {
            counts[shard_of(InstanceId::Tuple(i), 4)] += 1;
        }
        for &c in &counts {
            assert!((600..=1400).contains(&c), "skewed partition: {counts:?}");
        }
    }
}
