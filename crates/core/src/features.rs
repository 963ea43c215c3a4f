//! The prepared-feature store: the evidence side of reranking, kept beside
//! the lake (DESIGN.md §18).
//!
//! Rerank is most of a cold request, and most of rerank used to be work that
//! does not depend on the request at all — tokenizing and embedding a
//! candidate document, analyzing and embedding a candidate table. That work
//! now happens once per instance *version*: [`FeatureStore::sync`] runs
//! [`Reranker::prepare`] when an instance enters the lake (build) or changes
//! (`apply`), stamps the result with the instance's
//! [`DataLake::instance_generation`], and the rerank stage looks it up per
//! candidate.
//!
//! Preparation is eager, never on first touch: what a request does — and
//! charges to its cost vector — must not depend on which requests ran
//! before it.

use std::collections::HashMap;

use parking_lot::{RwLock, RwLockReadGuard};
use verifai_lake::{DataLake, InstanceId};
use verifai_rerank::{Prepared, Reranker};

/// Every id of `lake` worth asking the reranker about, for the initial fill.
/// Tuples are left out: the tuple reranker prepares nothing
/// ([`Reranker::prepare`] returns `None` — its only query-independent
/// feature is a 256-dim vector, and one per tuple, 12 k × 1 KB at `small`,
/// would outweigh every other stored feature several times over), so
/// listing them would only materialize every tuple of the lake to learn
/// that.
pub fn featured_ids(lake: &DataLake) -> Vec<InstanceId> {
    let tables = lake.tables().map(|t| InstanceId::Table(t.id));
    let docs = lake.docs().map(|d| InstanceId::Text(d.id));
    let kg = lake.kg_entities().map(|e| InstanceId::Kg(e.id));
    tables.chain(docs).chain(kg).collect()
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
    /// Heap bytes those features hold (excluding the rerankers' shared
    /// vocabularies and the map itself).
    pub bytes: usize,
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

    /// Instance count and heap bytes.
    pub fn stats(&self) -> FeatureStats {
        let entries = self.entries.read();
        FeatureStats {
            instances: entries.len(),
            bytes: entries.values().map(|e| e.features.heap_bytes()).sum(),
        }
    }

    /// Bring the entries of `ids` in line with `lake`: an id the lake no
    /// longer holds loses its entry, an id whose entry already carries the
    /// lake's current generation is left alone, and every other id is
    /// (re)prepared by `reranker` and stamped. Idempotent, so callers may
    /// pass every id a mutation touched.
    ///
    /// Runs on the calling thread, also for the initial fill of a whole
    /// lake (~0.2 s at `small`, against ~5 s of index build). Fanning the
    /// fill out over the build's worker threads was measured and dropped:
    /// the features and vocabularies it leaves behind are small, long-lived
    /// allocations, and placed in the workers' malloc arenas they pin the
    /// arenas' freed index-build scratch — +9 MB resident for 2.5 MB of
    /// features.
    pub fn sync(&self, reranker: &dyn Reranker, lake: &DataLake, ids: &[InstanceId]) {
        // Exclusive for the whole pass: callers hold the system `&mut`
        // (or are still assembling it), so no request is waiting.
        let mut entries = self.entries.write();
        for &id in ids {
            let generation = lake.instance_generation(id);
            if entries.get(&id).map(|e| e.generation) == generation {
                continue;
            }
            let entry = generation.and_then(|generation| {
                let features = reranker.prepare(&lake.resolve(id).ok()?)?;
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
