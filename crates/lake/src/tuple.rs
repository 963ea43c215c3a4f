//! Standalone tuples.
//!
//! Although tuples always originate from some table, the paper treats the tuple
//! as a first-class data instance: the Indexer indexes individual tuples, and the
//! (tuple, tuple) Verifier reasons over pairs of them. [`Tuple`] therefore carries
//! its table's (shared) schema so it can travel independently of its table;
//! [`TupleRef`] is the same tuple read in place, for the stages that look at
//! many candidates and keep few.

use crate::source::SourceId;
use crate::table::{Schema, TableId};
use crate::value::Value;

/// Lake-wide tuple identifier.
pub type TupleId = u64;

/// A single tuple (row) together with its schema and provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Lake-wide identifier.
    pub id: TupleId,
    /// Table this tuple came from.
    pub table: TableId,
    /// Row index within the source table.
    pub row_index: usize,
    /// Schema of the source table.
    pub schema: Schema,
    /// Cell values, aligned with `schema`.
    pub values: Vec<Value>,
    /// Source that contributed the tuple.
    pub source: SourceId,
}

impl Tuple {
    /// Value of the column with the given (exact) header.
    pub fn get(&self, column: &str) -> Option<&Value> {
        self.schema
            .index_of(column)
            .and_then(|i| self.values.get(i))
    }

    /// Value of the column with the given header, using fuzzy header matching.
    pub fn get_fuzzy(&self, column: &str) -> Option<&Value> {
        self.view().get_fuzzy(column)
    }

    /// Key values (the paper's workloads mask only non-key cells, so keys always
    /// survive and identify the entity the tuple describes).
    pub fn key_values(&self) -> Vec<&Value> {
        self.schema
            .key_indices()
            .into_iter()
            .filter_map(|i| self.values.get(i))
            .collect()
    }

    /// Indices of cells that are currently `Null` (e.g. masked for completion).
    pub fn null_indices(&self) -> Vec<usize> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_null())
            .map(|(i, _)| i)
            .collect()
    }

    /// This tuple, borrowed.
    pub fn view(&self) -> TupleRef<'_> {
        TupleRef {
            id: self.id,
            table: self.table,
            row_index: self.row_index,
            schema: &self.schema,
            values: &self.values,
            source: self.source,
        }
    }
}

/// A tuple read where it lies: the owning table's schema and row, borrowed.
/// What [`crate::DataLake::view`] hands out for a tuple id, and what an owned
/// [`Tuple`] lends through [`Tuple::view`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleRef<'a> {
    /// Lake-wide identifier.
    pub id: TupleId,
    /// Table this tuple came from.
    pub table: TableId,
    /// Row index within the source table.
    pub row_index: usize,
    /// Schema of the source table.
    pub schema: &'a Schema,
    /// Cell values, aligned with `schema`.
    pub values: &'a [Value],
    /// Source that contributed the tuple.
    pub source: SourceId,
}

impl<'a> TupleRef<'a> {
    /// Value of the column with the given header, using fuzzy header matching.
    pub fn get_fuzzy(self, column: &str) -> Option<&'a Value> {
        self.schema
            .fuzzy_index_of(column)
            .and_then(|i| self.values.get(i))
    }

    /// Materialize: the schema is shared, the values are copied.
    pub fn to_owned(self) -> Tuple {
        Tuple {
            id: self.id,
            table: self.table,
            row_index: self.row_index,
            schema: self.schema.clone(),
            values: self.values.to_vec(),
            source: self.source,
        }
    }
}

impl<'a> From<&'a Tuple> for TupleRef<'a> {
    fn from(tuple: &'a Tuple) -> TupleRef<'a> {
        tuple.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, DataType};

    fn tup(vals: Vec<Value>) -> Tuple {
        Tuple {
            id: 1,
            table: 1,
            row_index: 0,
            schema: Schema::new(vec![
                Column::key("district", DataType::Text),
                Column::new("incumbent", DataType::Text),
                Column::new("first elected", DataType::Int),
            ]),
            values: vals,
            source: 0,
        }
    }

    #[test]
    fn column_access() {
        let t = tup(vec![
            Value::text("NY-1"),
            Value::text("Otis Pike"),
            Value::Int(1960),
        ]);
        assert_eq!(t.get("incumbent"), Some(&Value::text("Otis Pike")));
        assert_eq!(t.get_fuzzy("First Elected"), Some(&Value::Int(1960)));
        assert_eq!(t.get("missing"), None);
    }

    #[test]
    fn key_and_null_tracking() {
        let t = tup(vec![Value::text("NY-1"), Value::Null, Value::Int(1960)]);
        assert_eq!(t.key_values(), vec![&Value::text("NY-1")]);
        assert_eq!(t.null_indices(), vec![1]);
    }

    #[test]
    fn view_round_trips() {
        let t = tup(vec![Value::text("NY-1"), Value::Null, Value::Int(1960)]);
        assert_eq!(t.view().to_owned(), t);
        assert!(t.view().to_owned().schema.is_same(&t.schema));
    }
}
