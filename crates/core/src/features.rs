//! The prepared-feature store: the evidence side of reranking, kept beside
//! the lake (DESIGN.md §18, §20).
//!
//! Rerank is most of a cold request, and most of rerank used to be work that
//! does not depend on the request at all — tokenizing and embedding a
//! candidate document, analyzing and embedding a candidate table, analyzing
//! and hashing a candidate tuple. That work now happens once per instance
//! *version*: [`FeatureStore::sync`] runs [`Reranker::prepare`] when an
//! instance enters the lake (build) or changes (`apply`), stamps the result
//! with the instance's [`DataLake::instance_generation`], and the rerank
//! stage looks it up per candidate.
//!
//! Preparation is eager, never on first touch: what a request does — and
//! charges to its cost vector — must not depend on which requests ran
//! before it.

use std::collections::HashMap;

use parking_lot::{RwLock, RwLockReadGuard};
use verifai_lake::{DataLake, InstanceId};
use verifai_rerank::{Prepared, Reranker};

/// An instance whose prepared features must follow the lake, with its
/// serialized text when the caller already holds it (see
/// [`Reranker::prepare`]).
pub type Touched<'a> = (InstanceId, Option<&'a str>);

/// Every id of `lake`, for the initial fill: each modality has a reranker
/// that prepares it. No text is at hand; each is serialized where needed.
pub fn featured_ids(lake: &DataLake) -> Vec<Touched<'static>> {
    let tuples = lake.tuple_ids().map(InstanceId::Tuple);
    let tables = lake.tables().map(|t| InstanceId::Table(t.id));
    let docs = lake.docs().map(|d| InstanceId::Text(d.id));
    let kg = lake.kg_entities().map(|e| InstanceId::Kg(e.id));
    let ids = tuples.chain(tables).chain(docs).chain(kg);
    ids.map(|id| (id, None)).collect()
}

#[derive(Debug)]
struct Entry {
    /// [`DataLake::instance_generation`] of the version `features` describes.
    generation: u64,
    features: Prepared,
}

type Entries = HashMap<InstanceId, Entry>;

/// Prepared rerank features by instance, each stamped with the lake
/// generation of the instance version it was computed from.
#[derive(Debug, Default)]
pub struct FeatureStore {
    entries: RwLock<Entries>,
}

/// Size of a [`FeatureStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeatureStats {
    /// Instances with prepared features.
    pub instances: usize,
    /// Bytes the store holds for them: the features' heap payload plus the
    /// map's own table (excluding the rerankers' shared vocabularies).
    pub bytes: usize,
    /// How many of `instances` are tuples — the one modality numerous
    /// enough for its per-instance footprint to be budgeted (§20).
    pub tuples: usize,
    /// The tuples' share of `bytes`: their features plus their map slots.
    pub tuple_bytes: usize,
}

/// Shared read access to a [`FeatureStore`] for one rerank call.
pub struct FeatureView<'a>(RwLockReadGuard<'a, Entries>);

impl FeatureView<'_> {
    /// The prepared features of `id`, if it keeps any.
    pub fn get(&self, id: InstanceId) -> Option<&Prepared> {
        self.0.get(&id).map(|e| &e.features)
    }
}

impl FeatureStore {
    /// Read access for the duration of one rerank call.
    pub fn read(&self) -> FeatureView<'_> {
        FeatureView(self.entries.read())
    }

    /// Instance counts and bytes held.
    pub fn stats(&self) -> FeatureStats {
        let entries = self.entries.read();
        // One control byte per bucket beside the (key, entry) pair.
        let table = entries.capacity() * (std::mem::size_of::<(InstanceId, Entry)>() + 1);
        let slot = table / entries.len().max(1);
        let mut stats = FeatureStats {
            instances: entries.len(),
            bytes: table,
            ..FeatureStats::default()
        };
        for (id, entry) in entries.iter() {
            let heap = entry.features.heap_bytes();
            stats.bytes += heap;
            if matches!(id, InstanceId::Tuple(_)) {
                stats.tuples += 1;
                stats.tuple_bytes += heap + slot;
            }
        }
        stats
    }

    /// Bring the entries of `touched` ids in line with `lake`: an id the
    /// lake no longer holds loses its entry, an id whose entry already
    /// carries the lake's current generation is left alone, and every other
    /// id is (re)prepared by `reranker` and stamped. Idempotent, so callers
    /// may pass every id a mutation touched. Each id comes with its
    /// serialized text when the caller holds it (a mutation's index op
    /// does), handed to [`Reranker::prepare`] so the table reranker embeds
    /// it instead of serializing the table once more.
    ///
    /// Reads each instance in place ([`DataLake::view`]): nothing is copied
    /// out of the lake to be prepared.
    ///
    /// Runs on the calling thread, also for the initial fill of a whole
    /// lake, which [`crate::VerifAi::build`] runs while its workers index
    /// the lake: 0.3 s alone at `small`, about 0.5 s beside two workers on
    /// a 2-core host, off the build's critical path. The calling thread
    /// matters.
    /// Fanning the fill out over the build's worker threads was measured
    /// and dropped: the features and vocabularies it leaves behind are
    /// small, long-lived allocations, and placed in the workers' malloc
    /// arenas they pin the arenas' freed index-build scratch — +9 MB
    /// resident for 2.5 MB of features.
    pub fn sync(&self, reranker: &dyn Reranker, lake: &DataLake, touched: &[Touched<'_>]) {
        // Exclusive for the whole pass: callers hold the system `&mut`
        // (or are still assembling it), so no request is waiting.
        let mut entries = self.entries.write();
        for &(id, serialized) in touched {
            let generation = lake.instance_generation(id);
            if entries.get(&id).map(|e| e.generation) == generation {
                continue;
            }
            let entry = generation.and_then(|generation| {
                let features = reranker.prepare(lake.view(id).ok()?, serialized)?;
                Some(Entry {
                    generation,
                    features,
                })
            });
            match entry {
                Some(entry) => entries.insert(id, entry),
                None => entries.remove(&id),
            };
        }
    }
}
