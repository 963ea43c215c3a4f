//! The [`DataLake`] store.
//!
//! A single repository owning tables, text documents, and source metadata, with
//! id-based lookup and a *tuple directory* so individual tuples are addressable —
//! the paper's Indexer indexes tuples as first-class instances.
//!
//! The lake is **live**: instances can be added, updated, and removed after the
//! initial batch load. Every structural mutation bumps a monotone *generation*
//! counter; each live instance remembers the generation at which it was last
//! written, and removed instances leave a *tombstone* recording the generation
//! of their removal. Downstream index layers use these to decide what changed
//! since a snapshot was cut. Batch insertion ([`DataLake::add_table`]) is a
//! thin wrapper replaying rows through the incremental per-tuple path, so both
//! entry points share one set of invariants.

use crate::error::LakeError;
use crate::instance::{DataInstance, InstanceId, InstanceRef};
use crate::kg::{KgEntity, KgEntityId};
use crate::source::{SourceId, SourceMeta, SourceOrigin};
use crate::stats::LakeStats;
use crate::table::{Table, TableId};
use crate::text_doc::{DocId, TextDocument};
use crate::tuple::{Tuple, TupleId, TupleRef};
use crate::value::Value;
use std::collections::HashMap;

/// Location of a tuple: which table and row it lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TupleLoc {
    table: TableId,
    row: usize,
}

/// A multi-modal data lake holding tables, tuples, and text documents.
#[derive(Debug, Default)]
pub struct DataLake {
    tables: HashMap<TableId, Table>,
    docs: HashMap<DocId, TextDocument>,
    kg: HashMap<KgEntityId, KgEntity>,
    sources: HashMap<SourceId, SourceMeta>,
    /// Directory from tuple id to (table, row). Tuple ids are assigned densely
    /// at registration time; removals leave holes that are never reused.
    tuple_dir: HashMap<TupleId, TupleLoc>,
    next_tuple_id: TupleId,
    /// Insertion order, for deterministic iteration.
    table_order: Vec<TableId>,
    doc_order: Vec<DocId>,
    kg_order: Vec<KgEntityId>,
    /// Monotone mutation counter, bumped on every structural write or removal.
    generation: u64,
    /// Generation at which each live instance was last written.
    gens: HashMap<InstanceId, u64>,
    /// Removed instances, mapped to the generation of their removal. Re-adding
    /// an id clears its tombstone.
    tombstones: HashMap<InstanceId, u64>,
}

impl DataLake {
    /// Create an empty lake.
    pub fn new() -> DataLake {
        DataLake::default()
    }

    /// Register a data source and return its id.
    pub fn add_source(&mut self, name: impl Into<String>, origin: SourceOrigin) -> SourceId {
        let id = self.sources.len() as SourceId;
        self.sources.insert(id, SourceMeta::new(id, name, origin));
        id
    }

    /// Metadata of a source.
    pub fn source(&self, id: SourceId) -> Result<&SourceMeta, LakeError> {
        self.sources.get(&id).ok_or(LakeError::SourceNotFound(id))
    }

    /// Mutable metadata of a source (trust updates).
    pub fn source_mut(&mut self, id: SourceId) -> Result<&mut SourceMeta, LakeError> {
        self.sources
            .get_mut(&id)
            .ok_or(LakeError::SourceNotFound(id))
    }

    /// All registered sources, in id order.
    pub fn sources(&self) -> Vec<&SourceMeta> {
        let mut v: Vec<&SourceMeta> = self.sources.values().collect();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Record a live write of `id`: bump the generation, stamp the instance,
    /// and clear any tombstone (an id can be re-born after removal).
    fn record_write(&mut self, id: InstanceId) {
        self.generation += 1;
        self.tombstones.remove(&id);
        self.gens.insert(id, self.generation);
    }

    /// Record the removal of `id`: bump the generation and leave a tombstone.
    fn record_remove(&mut self, id: InstanceId) {
        self.generation += 1;
        self.gens.remove(&id);
        self.tombstones.insert(id, self.generation);
    }

    /// Insert a table, registering each of its rows in the tuple directory.
    /// Returns the range of tuple ids assigned to its rows.
    ///
    /// This is the batch entry point, implemented as a thin wrapper that
    /// replays every row through the incremental [`DataLake::add_tuple`] path,
    /// so batch and streaming ingest share one set of invariants.
    pub fn add_table(&mut self, mut table: Table) -> Result<std::ops::Range<TupleId>, LakeError> {
        if self.tables.contains_key(&table.id) {
            return Err(LakeError::DuplicateId(table.id));
        }
        let id = table.id;
        let rows = table.take_rows();
        self.table_order.push(id);
        self.tables.insert(id, table);
        self.record_write(InstanceId::Table(id));
        let start = self.next_tuple_id;
        for row in rows {
            // Rows were arity-checked when pushed into the table, so replay
            // through the incremental path cannot fail mid-batch.
            self.add_tuple(id, row)?;
        }
        Ok(start..self.next_tuple_id)
    }

    /// Remove a table and all of its registered tuples, leaving tombstones
    /// for the table and each tuple. Returns the removed table and the tuple
    /// ids it owned, in row order.
    pub fn remove_table(&mut self, id: TableId) -> Result<(Table, Vec<TupleId>), LakeError> {
        let table = self
            .tables
            .remove(&id)
            .ok_or(LakeError::TableNotFound(id))?;
        self.table_order.retain(|t| *t != id);
        let tuples = self.tuples_of_table(id);
        for t in &tuples {
            self.tuple_dir.remove(t);
            self.record_remove(InstanceId::Tuple(*t));
        }
        self.record_remove(InstanceId::Table(id));
        Ok((table, tuples))
    }

    /// Append a single row to an existing table, registering it in the tuple
    /// directory. This is the incremental ingest path; the batch
    /// [`DataLake::add_table`] wrapper replays its rows through here.
    pub fn add_tuple(&mut self, table: TableId, values: Vec<Value>) -> Result<TupleId, LakeError> {
        let t = self
            .tables
            .get_mut(&table)
            .ok_or(LakeError::TableNotFound(table))?;
        let row = t.num_rows();
        t.push_row(values)?;
        let id = self.next_tuple_id;
        self.next_tuple_id += 1;
        self.tuple_dir.insert(id, TupleLoc { table, row });
        self.record_write(InstanceId::Tuple(id));
        // The owning table's serialized form now includes the new row.
        self.record_write(InstanceId::Table(table));
        Ok(id)
    }

    /// Replace the values of an existing tuple in place. Returns the updated
    /// tuple. The tuple keeps its id and row position; both the tuple and its
    /// owning table are stamped with a fresh generation.
    pub fn update_tuple(&mut self, id: TupleId, values: Vec<Value>) -> Result<Tuple, LakeError> {
        let loc = *self
            .tuple_dir
            .get(&id)
            .ok_or(LakeError::TupleNotFound(id))?;
        let table = self
            .tables
            .get_mut(&loc.table)
            .ok_or(LakeError::TableNotFound(loc.table))?;
        if values.len() != table.schema.arity() {
            return Err(LakeError::ArityMismatch {
                expected: table.schema.arity(),
                got: values.len(),
            });
        }
        for (col, v) in values.into_iter().enumerate() {
            if let Some(cell) = table.cell_mut(loc.row, col) {
                *cell = v;
            }
        }
        self.record_write(InstanceId::Tuple(id));
        self.record_write(InstanceId::Table(loc.table));
        self.tuple(id)
    }

    /// Remove a single tuple, physically deleting its row and leaving a
    /// tombstone under its id. Returns the tuple as it was just before
    /// removal. Later rows of the same table shift down one index; the tuple
    /// directory is fixed up so their ids keep resolving.
    pub fn remove_tuple(&mut self, id: TupleId) -> Result<Tuple, LakeError> {
        let tuple = self.tuple(id)?;
        let loc = self
            .tuple_dir
            .remove(&id)
            .ok_or(LakeError::TupleNotFound(id))?;
        let table = self
            .tables
            .get_mut(&loc.table)
            .ok_or(LakeError::TableNotFound(loc.table))?;
        table.remove_row(loc.row);
        for l in self.tuple_dir.values_mut() {
            if l.table == loc.table && l.row > loc.row {
                l.row -= 1;
            }
        }
        self.record_remove(InstanceId::Tuple(id));
        self.record_write(InstanceId::Table(loc.table));
        Ok(tuple)
    }

    /// Insert a knowledge-graph entity.
    pub fn add_kg_entity(&mut self, entity: KgEntity) -> Result<(), LakeError> {
        if self.kg.contains_key(&entity.id) {
            return Err(LakeError::DuplicateId(entity.id));
        }
        self.kg_order.push(entity.id);
        self.record_write(InstanceId::Kg(entity.id));
        self.kg.insert(entity.id, entity);
        Ok(())
    }

    /// Fetch a knowledge-graph entity.
    pub fn kg_entity(&self, id: KgEntityId) -> Result<&KgEntity, LakeError> {
        self.kg.get(&id).ok_or(LakeError::KgEntityNotFound(id))
    }

    /// Iterate knowledge-graph entities in insertion order.
    pub fn kg_entities(&self) -> impl Iterator<Item = &KgEntity> {
        self.kg_order.iter().filter_map(move |id| self.kg.get(id))
    }

    /// Number of knowledge-graph entities.
    pub fn num_kg_entities(&self) -> usize {
        self.kg.len()
    }

    /// Insert a text document.
    pub fn add_doc(&mut self, doc: TextDocument) -> Result<(), LakeError> {
        if self.docs.contains_key(&doc.id) {
            return Err(LakeError::DuplicateId(doc.id));
        }
        self.doc_order.push(doc.id);
        self.record_write(InstanceId::Text(doc.id));
        self.docs.insert(doc.id, doc);
        Ok(())
    }

    /// Replace the title and body of an existing document, keeping its id,
    /// source, and linked entities. The document's normalized text is
    /// prepared anew here, with the write ([`TextDocument::normalized`]).
    pub fn update_doc(
        &mut self,
        id: DocId,
        title: impl Into<String>,
        body: impl Into<String>,
    ) -> Result<(), LakeError> {
        let doc = self.docs.get_mut(&id).ok_or(LakeError::DocNotFound(id))?;
        doc.set_text(title, body);
        self.record_write(InstanceId::Text(id));
        Ok(())
    }

    /// Remove a document, leaving a tombstone under its id. Returns the
    /// removed document.
    pub fn remove_doc(&mut self, id: DocId) -> Result<TextDocument, LakeError> {
        let doc = self.docs.remove(&id).ok_or(LakeError::DocNotFound(id))?;
        self.doc_order.retain(|d| *d != id);
        self.record_remove(InstanceId::Text(id));
        Ok(doc)
    }

    /// Fetch a table.
    pub fn table(&self, id: TableId) -> Result<&Table, LakeError> {
        self.tables.get(&id).ok_or(LakeError::TableNotFound(id))
    }

    /// Fetch a document.
    pub fn doc(&self, id: DocId) -> Result<&TextDocument, LakeError> {
        self.docs.get(&id).ok_or(LakeError::DocNotFound(id))
    }

    /// A tuple read in place: its table's schema and its row, borrowed.
    pub fn tuple_view(&self, id: TupleId) -> Result<TupleRef<'_>, LakeError> {
        let loc = self
            .tuple_dir
            .get(&id)
            .ok_or(LakeError::TupleNotFound(id))?;
        let table = self.table(loc.table)?;
        table
            .tuple_ref_at(loc.row, id)
            .ok_or(LakeError::TupleNotFound(id))
    }

    /// Materialize a tuple from the directory.
    pub fn tuple(&self, id: TupleId) -> Result<Tuple, LakeError> {
        self.tuple_view(id).map(TupleRef::to_owned)
    }

    /// Any instance read in place. The one lookup path: [`DataLake::resolve`]
    /// is this plus a copy.
    pub fn view(&self, id: InstanceId) -> Result<InstanceRef<'_>, LakeError> {
        match id {
            InstanceId::Tuple(t) => self.tuple_view(t).map(InstanceRef::Tuple),
            InstanceId::Table(t) => self.table(t).map(InstanceRef::Table),
            InstanceId::Text(d) => self.doc(d).map(InstanceRef::Text),
            InstanceId::Kg(e) => self.kg_entity(e).map(InstanceRef::Kg),
        }
    }

    /// Resolve any instance id to an owned [`DataInstance`].
    pub fn resolve(&self, id: InstanceId) -> Result<DataInstance, LakeError> {
        self.view(id).map(InstanceRef::to_owned)
    }

    /// Iterate tables in insertion order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.table_order
            .iter()
            .filter_map(move |id| self.tables.get(id))
    }

    /// Iterate documents in insertion order.
    pub fn docs(&self) -> impl Iterator<Item = &TextDocument> {
        self.doc_order
            .iter()
            .filter_map(move |id| self.docs.get(id))
    }

    /// Iterate all live tuple ids, in id order. Dense after a pure batch
    /// build; removals leave holes that are never reused.
    pub fn tuple_ids(&self) -> impl Iterator<Item = TupleId> {
        let mut ids: Vec<TupleId> = self.tuple_dir.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// The tuple ids belonging to one table, in row order.
    pub fn tuples_of_table(&self, table: TableId) -> Vec<TupleId> {
        let mut ids: Vec<TupleId> = self
            .tuple_dir
            .iter()
            .filter(|(_, loc)| loc.table == table)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Number of registered tuples.
    pub fn num_tuples(&self) -> usize {
        self.tuple_dir.len()
    }

    /// The lake's current mutation generation. Starts at 0 and bumps on every
    /// structural write or removal; never decreases.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The generation at which a live instance was last written, or `None`
    /// for ids the lake has never held (or has removed).
    pub fn instance_generation(&self, id: InstanceId) -> Option<u64> {
        self.gens.get(&id).copied()
    }

    /// The generation at which `id` was removed, or `None` if it was never
    /// removed (or was re-added since).
    pub fn tombstone_generation(&self, id: InstanceId) -> Option<u64> {
        self.tombstones.get(&id).copied()
    }

    /// Number of live tombstones (instances removed and not re-added).
    pub fn num_tombstones(&self) -> usize {
        self.tombstones.len()
    }

    /// Iterate all tombstoned instance ids with their removal generations,
    /// in unspecified order.
    pub fn tombstones(&self) -> impl Iterator<Item = (InstanceId, u64)> + '_ {
        self.tombstones.iter().map(|(id, gen)| (*id, *gen))
    }

    /// Corpus statistics.
    pub fn stats(&self) -> LakeStats {
        let mut stats = LakeStats {
            tables: self.num_tables(),
            tuples: self.num_tuples(),
            docs: self.num_docs(),
            kg_entities: self.num_kg_entities(),
            sources: self.sources.len(),
            tombstones: self.num_tombstones(),
            generation: self.generation,
            ..LakeStats::default()
        };
        for t in self.tables() {
            stats.total_cells += t.num_rows() * t.schema.arity();
            stats.max_table_rows = stats.max_table_rows.max(t.num_rows());
        }
        for d in self.docs() {
            stats.total_text_bytes += d.body().len() + d.title().len();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, DataType, Schema};
    use crate::value::Value;

    fn lake_with_table() -> (DataLake, std::ops::Range<TupleId>) {
        let mut lake = DataLake::new();
        let src = lake.add_source("tabfact", SourceOrigin::CuratedCorpus);
        let mut t = Table::new(
            0,
            "elections",
            Schema::new(vec![
                Column::key("district", DataType::Text),
                Column::new("incumbent", DataType::Text),
            ]),
            src,
        );
        t.push_row(vec![Value::text("NY-1"), Value::text("Otis Pike")])
            .unwrap();
        t.push_row(vec![Value::text("NY-2"), Value::text("James Grover")])
            .unwrap();
        let range = lake.add_table(t).unwrap();
        (lake, range)
    }

    #[test]
    fn tuples_get_dense_ids() {
        let (lake, range) = lake_with_table();
        assert_eq!(range, 0..2);
        assert_eq!(lake.num_tuples(), 2);
        let t1 = lake.tuple(1).unwrap();
        assert_eq!(t1.values[0], Value::text("NY-2"));
        assert_eq!(t1.row_index, 1);
    }

    #[test]
    fn duplicate_table_id_rejected() {
        let (mut lake, _) = lake_with_table();
        let t = Table::new(0, "dup", Schema::default(), 0);
        assert_eq!(lake.add_table(t).unwrap_err(), LakeError::DuplicateId(0));
    }

    #[test]
    fn duplicate_doc_id_rejected() {
        let mut lake = DataLake::new();
        lake.add_doc(TextDocument::new(5, "a", "b", 0)).unwrap();
        let err = lake.add_doc(TextDocument::new(5, "c", "d", 0)).unwrap_err();
        assert_eq!(err, LakeError::DuplicateId(5));
    }

    #[test]
    fn resolve_every_modality() {
        let (mut lake, _) = lake_with_table();
        lake.add_doc(TextDocument::new(10, "Otis Pike", "A politician.", 0))
            .unwrap();
        assert!(matches!(
            lake.resolve(InstanceId::Tuple(0)),
            Ok(DataInstance::Tuple(_))
        ));
        assert!(matches!(
            lake.resolve(InstanceId::Table(0)),
            Ok(DataInstance::Table(_))
        ));
        assert!(matches!(
            lake.resolve(InstanceId::Text(10)),
            Ok(DataInstance::Text(_))
        ));
        assert!(lake.resolve(InstanceId::Text(99)).is_err());
    }

    /// `view` and `resolve` are one lookup: equal for every id of a lake of
    /// all four modalities, and the same error for every dangling one.
    #[test]
    fn view_to_owned_equals_resolve_for_every_id() {
        let (mut lake, tuples) = lake_with_table();
        lake.add_doc(TextDocument::new(10, "Otis Pike", "A politician.", 0))
            .unwrap();
        lake.add_kg_entity(KgEntity::new(3, "Otis Pike", 0))
            .unwrap();
        lake.remove_tuple(tuples.start).unwrap();
        let live = [
            InstanceId::Tuple(tuples.start + 1),
            InstanceId::Table(0),
            InstanceId::Text(10),
            InstanceId::Kg(3),
        ];
        for id in live {
            let view = lake.view(id).unwrap();
            assert_eq!(view.id(), id);
            assert_eq!(view.to_owned(), lake.resolve(id).unwrap());
            assert_eq!(view.to_owned().view(), view);
        }
        // The shifted row resolves to its own values at its new index.
        let survivor = lake.tuple_view(tuples.start + 1).unwrap();
        assert_eq!(survivor.row_index, 0);
        assert_eq!(survivor.values[0], Value::text("NY-2"));
        let dangling = [
            InstanceId::Tuple(tuples.start),
            InstanceId::Tuple(99),
            InstanceId::Table(7),
            InstanceId::Text(99),
            InstanceId::Kg(99),
        ];
        for id in dangling {
            assert_eq!(lake.view(id).unwrap_err(), lake.resolve(id).unwrap_err());
        }
        assert_eq!(
            lake.view(InstanceId::Tuple(99)).unwrap_err(),
            LakeError::TupleNotFound(99)
        );
    }

    #[test]
    fn tuples_of_table_in_row_order() {
        let (lake, _) = lake_with_table();
        assert_eq!(lake.tuples_of_table(0), vec![0, 1]);
        assert!(lake.tuples_of_table(77).is_empty());
    }

    #[test]
    fn stats_aggregate() {
        let (mut lake, _) = lake_with_table();
        lake.add_doc(TextDocument::new(10, "T", "Body text", 0))
            .unwrap();
        let s = lake.stats();
        assert_eq!(s.tables, 1);
        assert_eq!(s.tuples, 2);
        assert_eq!(s.docs, 1);
        assert_eq!(s.total_cells, 4);
        assert_eq!(s.max_table_rows, 2);
        assert!(s.total_text_bytes > 0);
    }

    #[test]
    fn source_trust_mutation() {
        let (mut lake, _) = lake_with_table();
        lake.source_mut(0).unwrap().set_trust(0.2);
        assert_eq!(lake.source(0).unwrap().trust, 0.2);
        assert!(lake.source(9).is_err());
    }

    #[test]
    fn incremental_tuple_add_extends_table() {
        let (mut lake, range) = lake_with_table();
        let gen_before = lake.generation();
        let id = lake
            .add_tuple(0, vec![Value::text("NY-3"), Value::text("Carlton")])
            .unwrap();
        assert_eq!(id, range.end);
        assert_eq!(lake.num_tuples(), 3);
        assert_eq!(lake.tuple(id).unwrap().row_index, 2);
        assert!(lake.generation() > gen_before);
        // Both the tuple and its owning table carry fresh generations.
        assert_eq!(
            lake.instance_generation(InstanceId::Table(0)),
            Some(lake.generation())
        );
        assert!(lake.add_tuple(7, vec![]).is_err());
        assert!(lake.add_tuple(0, vec![Value::text("short")]).is_err());
    }

    #[test]
    fn remove_tuple_shifts_rows_and_leaves_tombstone() {
        let (mut lake, _) = lake_with_table();
        let removed = lake.remove_tuple(0).unwrap();
        assert_eq!(removed.values[0], Value::text("NY-1"));
        assert_eq!(lake.num_tuples(), 1);
        assert_eq!(lake.num_tombstones(), 1);
        assert!(lake.tuple(0).is_err());
        // Tuple 1 survives the row shift: same values, new physical row.
        let t1 = lake.tuple(1).unwrap();
        assert_eq!(t1.values[0], Value::text("NY-2"));
        assert_eq!(t1.row_index, 0);
        assert_eq!(lake.table(0).unwrap().num_rows(), 1);
        assert_eq!(
            lake.tombstone_generation(InstanceId::Tuple(0)),
            Some(lake.generation() - 1)
        );
        // Ids are never reused: the next tuple gets a fresh id.
        let id = lake
            .add_tuple(0, vec![Value::text("NY-3"), Value::text("Carlton")])
            .unwrap();
        assert_eq!(id, 2);
        assert_eq!(lake.tuple_ids().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn update_tuple_keeps_id_and_row() {
        let (mut lake, _) = lake_with_table();
        let updated = lake
            .update_tuple(1, vec![Value::text("NY-2"), Value::text("Replacement")])
            .unwrap();
        assert_eq!(updated.id, 1);
        assert_eq!(updated.row_index, 1);
        assert_eq!(updated.values[1], Value::text("Replacement"));
        assert_eq!(lake.num_tuples(), 2);
        assert_eq!(lake.num_tombstones(), 0);
        assert!(lake.update_tuple(9, vec![]).is_err());
        assert!(lake.update_tuple(1, vec![Value::text("short")]).is_err());
    }

    #[test]
    fn remove_table_tombstones_all_tuples() {
        let (mut lake, _) = lake_with_table();
        let (table, tuples) = lake.remove_table(0).unwrap();
        assert_eq!(table.id, 0);
        assert_eq!(tuples, vec![0, 1]);
        assert_eq!(lake.num_tables(), 0);
        assert_eq!(lake.num_tuples(), 0);
        assert_eq!(lake.num_tombstones(), 3);
        assert!(lake.table(0).is_err());
        assert!(lake.tuple(0).is_err());
        assert!(lake.remove_table(0).is_err());
        assert!(lake.tables().next().is_none());
    }

    #[test]
    fn doc_update_and_remove() {
        let mut lake = DataLake::new();
        lake.add_doc(TextDocument::new(5, "Title", "Body", 0))
            .unwrap();
        lake.update_doc(5, "Title", "New body").unwrap();
        assert_eq!(lake.doc(5).unwrap().body(), "New body");
        let removed = lake.remove_doc(5).unwrap();
        assert_eq!(removed.body(), "New body");
        assert!(lake.doc(5).is_err());
        assert_eq!(lake.num_tombstones(), 1);
        assert!(lake.update_doc(5, "t", "b").is_err());
        assert!(lake.remove_doc(5).is_err());
        // Re-adding the id clears its tombstone.
        lake.add_doc(TextDocument::new(5, "Back", "Again", 0))
            .unwrap();
        assert_eq!(lake.num_tombstones(), 0);
        assert_eq!(lake.docs().count(), 1);
    }

    /// An updated document reads as a freshly built one: its prepared
    /// normalized text and sentence cuts are those of the new text.
    #[test]
    fn update_doc_prepares_the_new_text() {
        let mut lake = DataLake::new();
        lake.add_doc(TextDocument::new(
            5,
            "Brown",
            "The points of Brown is 1.",
            0,
        ))
        .unwrap();
        let (title, body) = (
            "New York 1",
            "A district. The incumbent of New. York 1 is Otis Pike",
        );
        lake.update_doc(5, title, body).unwrap();
        let doc = lake.doc(5).unwrap();
        let mut fresh = crate::text_doc::NormalizedText::default();
        fresh.read(&[&doc.full_text()]);
        assert_eq!(doc.normalized(), &fresh);
        assert_eq!(doc, &TextDocument::new(5, title, body, 0));
        assert_eq!(
            doc.normalized().sentences().collect::<Vec<_>>(),
            [
                "new york 1",
                "a district",
                "the incumbent of new",
                "york 1 is otis pike"
            ]
        );
    }

    #[test]
    fn batch_add_table_matches_incremental_builds() {
        // The batch wrapper and the per-tuple path must yield identical lakes.
        let (batch, range) = lake_with_table();
        let mut inc = DataLake::new();
        let src = inc.add_source("tabfact", SourceOrigin::CuratedCorpus);
        let schema = Schema::new(vec![
            Column::key("district", DataType::Text),
            Column::new("incumbent", DataType::Text),
        ]);
        inc.add_table(Table::new(0, "elections", schema, src))
            .unwrap();
        inc.add_tuple(0, vec![Value::text("NY-1"), Value::text("Otis Pike")])
            .unwrap();
        inc.add_tuple(0, vec![Value::text("NY-2"), Value::text("James Grover")])
            .unwrap();
        assert_eq!(range, 0..2);
        for id in batch.tuple_ids() {
            assert_eq!(batch.tuple(id).unwrap(), inc.tuple(id).unwrap());
        }
        assert_eq!(batch.table(0).unwrap(), inc.table(0).unwrap());
    }

    #[test]
    fn stats_carry_generation_and_tombstones() {
        let (mut lake, _) = lake_with_table();
        lake.remove_tuple(0).unwrap();
        let s = lake.stats();
        assert_eq!(s.tombstones, 1);
        assert_eq!(s.generation, lake.generation());
        assert!(s.generation > 0);
    }
}
