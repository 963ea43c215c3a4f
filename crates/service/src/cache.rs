//! Sharded LRU cache of discovered evidence and the judgment made over it.
//!
//! Keyed by the normalized retrieval query (plus the object-kind
//! discriminant, since tuple cells and text claims have different evidence
//! plans). Each entry holds the post-rerank `(InstanceId, score)` list —
//! instance *ids*, not resolved instances, so a hit looks the ids up in the
//! lake and yields byte-identical reports to the uncached path — stamped
//! with the lake generation it was discovered at, and the verdicts the
//! object that filled it was judged with, which an equal object's request
//! replays instead of calling the verifier (DESIGN.md §26).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use verifai::{DataObject, EvidenceVerdict};
use verifai_lake::InstanceId;

/// One cache entry: a discovery, and the judgment made over it.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedEvidence {
    /// The post-rerank evidence list, best first.
    pub evidence: Vec<(InstanceId, f64)>,
    /// The lake generation the evidence was discovered at. A lookup at any
    /// other generation misses.
    pub generation: u64,
    /// The object whose request filled the entry, with the verdicts its
    /// complete judgment over `evidence` produced; `None` when that
    /// judgment hit its deadline.
    pub judged: Option<(DataObject, Vec<EvidenceVerdict>)>,
}

impl CachedEvidence {
    /// The verdicts to replay for `object`: the stored judgment's, when it
    /// was made for an equal object. Another object under the same key —
    /// the same claim text under another id — is judged afresh.
    pub fn verdicts_for(&self, object: &DataObject) -> Option<&[EvidenceVerdict]> {
        match &self.judged {
            Some((owner, verdicts)) if owner == object => Some(verdicts),
            _ => None,
        }
    }
}

/// What evidence is cached under: the object kind and the retrieval query,
/// with their hash taken once. A request builds its key when it is dequeued
/// and every lookup it makes — shard choice, map probe, the insert — reuses
/// that hash; the query is read again only to confirm a probe that landed.
#[derive(Debug, Clone)]
pub struct EvidenceKey {
    kind: u8,
    query: String,
    hash: u64,
}

impl EvidenceKey {
    /// The key for an object kind's retrieval query.
    pub fn new(kind: u8, query: String) -> EvidenceKey {
        let mut hasher = DefaultHasher::new();
        kind.hash(&mut hasher);
        query.hash(&mut hasher);
        EvidenceKey {
            kind,
            query,
            hash: hasher.finish(),
        }
    }
}

impl PartialEq for EvidenceKey {
    fn eq(&self, other: &EvidenceKey) -> bool {
        self.hash == other.hash && self.kind == other.kind && self.query == other.query
    }
}

impl Eq for EvidenceKey {}

/// Equal keys have equal `(kind, query)` and so equal hashes; two different
/// keys that share a hash are told apart by `Eq`, as in any hash map.
impl Hash for EvidenceKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

struct Entry {
    cached: Arc<CachedEvidence>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<EvidenceKey, Entry>,
    tick: u64,
}

/// Sharded LRU evidence cache with hit/miss/eviction counters.
pub struct EvidenceCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Counter snapshot for an [`EvidenceCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over lookups (zero when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

impl EvidenceCache {
    /// A cache of `capacity` total entries split across `shards` shards.
    /// Each shard holds at least one entry, so tiny capacities still cache.
    pub fn new(shards: usize, capacity: usize) -> EvidenceCache {
        let shards = shards.max(1);
        EvidenceCache {
            shard_capacity: (capacity / shards).max(1),
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &EvidenceKey) -> &Mutex<Shard> {
        &self.shards[(key.hash as usize) % self.shards.len()]
    }

    /// Look up the entry discovered at lake `generation`, refreshing its
    /// recency on hit. An entry from another generation is a miss (the
    /// request rediscovers, and its insert replaces the entry). The entry
    /// is shared, not copied.
    pub fn get(&self, key: &EvidenceKey, generation: u64) -> Option<Arc<CachedEvidence>> {
        let mut shard = self.shard(key).lock();
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(entry) if entry.cached.generation == generation => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.cached))
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or replace) an entry, evicting the least recently used
    /// entry of the shard when it is full.
    pub fn insert(&self, key: EvidenceKey, cached: CachedEvidence) {
        let mut shard = self.shard(&key).lock();
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.shard_capacity {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            key,
            Entry {
                cached: Arc::new(cached),
                last_used: tick,
            },
        );
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64) -> CachedEvidence {
        CachedEvidence {
            evidence: vec![(InstanceId::Tuple(id), 0.5)],
            generation: 0,
            judged: None,
        }
    }

    /// A lookup at generation 0, copied out for comparison.
    fn get(cache: &EvidenceCache, key: &EvidenceKey) -> Option<CachedEvidence> {
        cache.get(key, 0).map(|cached| (*cached).clone())
    }

    fn key(kind: u8, query: &str) -> EvidenceKey {
        EvidenceKey::new(kind, query.into())
    }

    #[test]
    fn hit_miss_counters() {
        let cache = EvidenceCache::new(4, 64);
        assert_eq!(get(&cache, &key(0, "q")), None);
        cache.insert(key(0, "q"), ev(1));
        assert_eq!(get(&cache, &key(0, "q")), Some(ev(1)));
        // Same query under a different object kind is a different entry.
        assert_eq!(get(&cache, &key(1, "q")), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        // Every lookup counts: looking both keys up again finds the entry
        // under kind 0 only and moves each counter by one.
        assert!(get(&cache, &key(0, "q")).is_some());
        assert!(get(&cache, &key(1, "q")).is_none());
        let again = cache.stats();
        assert_eq!((again.hits, again.misses, again.entries), (2, 3, 1));
    }

    #[test]
    fn lru_eviction_per_shard() {
        // One shard of capacity 2 makes recency observable.
        let cache = EvidenceCache::new(1, 2);
        cache.insert(key(0, "a"), ev(1));
        cache.insert(key(0, "b"), ev(2));
        assert!(get(&cache, &key(0, "a")).is_some()); // refresh "a"
        cache.insert(key(0, "c"), ev(3)); // evicts "b"
        assert!(get(&cache, &key(0, "a")).is_some());
        assert!(get(&cache, &key(0, "b")).is_none());
        assert!(get(&cache, &key(0, "c")).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let cache = EvidenceCache::new(1, 2);
        cache.insert(key(0, "a"), ev(1));
        cache.insert(key(0, "b"), ev(2));
        cache.insert(key(0, "a"), ev(9));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(get(&cache, &key(0, "a")), Some(ev(9)));
        assert!(get(&cache, &key(0, "b")).is_some());
    }

    /// Two different keys with one hash land in one shard and one bucket
    /// chain; each still finds its own entry and neither displaces the
    /// other.
    #[test]
    fn colliding_keys_both_round_trip() {
        let collide = |kind: u8, query: &str| EvidenceKey {
            kind,
            query: query.into(),
            hash: 42,
        };
        let cache = EvidenceCache::new(4, 64);
        cache.insert(collide(0, "a"), ev(1));
        cache.insert(collide(0, "b"), ev(2));
        cache.insert(collide(1, "a"), ev(3));
        assert_eq!(get(&cache, &collide(0, "a")), Some(ev(1)));
        assert_eq!(get(&cache, &collide(0, "b")), Some(ev(2)));
        assert_eq!(get(&cache, &collide(1, "a")), Some(ev(3)));
        assert_eq!(get(&cache, &collide(1, "b")), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (3, 1, 3));
    }

    /// An entry from another lake generation is a counted miss, while a
    /// lookup at its own generation still hits; the next insert replaces
    /// it.
    #[test]
    fn another_generation_misses() {
        let cache = EvidenceCache::new(1, 4);
        cache.insert(key(0, "q"), ev(1));
        assert!(cache.get(&key(0, "q"), 1).is_none());
        assert!(cache.get(&key(0, "q"), 0).is_some());
        cache.insert(
            key(0, "q"),
            CachedEvidence {
                generation: 1,
                ..ev(2)
            },
        );
        assert_eq!(
            cache.get(&key(0, "q"), 1).map(|c| c.evidence[0].0),
            Some(InstanceId::Tuple(2))
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
    }

    /// Only the object that filled an entry replays its verdicts.
    #[test]
    fn verdicts_replay_for_the_equal_object_only() {
        use verifai::{TextClaim, Verdict};
        let claim = |id: u64| {
            DataObject::TextClaim(TextClaim {
                id,
                text: "the points of alpha is 1".into(),
                expr: None,
                scope: None,
            })
        };
        let verdicts = vec![EvidenceVerdict {
            instance: InstanceId::Table(3),
            source: 0,
            score: 0.5,
            verdict: Verdict::Verified,
            explanation: "row matches".into(),
            verifier: "llm",
        }];
        let judged = CachedEvidence {
            judged: Some((claim(1), verdicts.clone())),
            ..ev(1)
        };
        assert_eq!(judged.verdicts_for(&claim(1)), Some(&verdicts[..]));
        assert_eq!(judged.verdicts_for(&claim(2)), None);
        assert_eq!(ev(1).verdicts_for(&claim(1)), None);
    }
}
