//! Relational tables: schemas, columns, and row storage.

use crate::error::LakeError;
use crate::source::SourceId;
use crate::tuple::{Tuple, TupleId, TupleRef};
use crate::value::{normalize_str, Value};
use std::fmt;
use std::sync::Arc;

/// Identifier of a table within a [`crate::DataLake`].
pub type TableId = u64;

/// Logical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Signed integers.
    Int,
    /// Floats.
    Float,
    /// Booleans.
    Bool,
    /// Free text / categorical.
    Text,
    /// Calendar dates.
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Bool => "bool",
            DataType::Text => "text",
            DataType::Date => "date",
        };
        f.write_str(s)
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Human-readable header (e.g. `incumbent`).
    pub name: String,
    /// Logical type.
    pub dtype: DataType,
    /// Whether this column is part of the table's (informal) key. The paper's
    /// tuple-completion workload masks only *non-key* attributes.
    pub is_key: bool,
}

impl Column {
    /// Non-key column of the given type.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Column {
        Column {
            name: name.into(),
            dtype,
            is_key: false,
        }
    }

    /// Key column of the given type.
    pub fn key(name: impl Into<String>, dtype: DataType) -> Column {
        Column {
            name: name.into(),
            dtype,
            is_key: true,
        }
    }
}

/// An ordered set of columns.
///
/// A schema is shared, not copied: the columns and their normalized header
/// names sit behind one `Arc`, so the tuples materialized from a table (and
/// the clones handed to downstream modules) all point at the table's own
/// schema, and header normalization happens once per schema instead of once
/// per fuzzy lookup.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    inner: Arc<SchemaInner>,
}

#[derive(Debug, Default)]
struct SchemaInner {
    columns: Vec<Column>,
    /// `normalize_str` of each column's header, in column order.
    normalized: Vec<String>,
}

/// The normalized names are a function of the columns.
impl PartialEq for SchemaInner {
    fn eq(&self, other: &SchemaInner) -> bool {
        self.columns == other.columns
    }
}

impl Eq for SchemaInner {}

impl Schema {
    /// Build a schema from columns.
    pub fn new(columns: Vec<Column>) -> Schema {
        let normalized = columns.iter().map(|c| normalize_str(&c.name)).collect();
        Schema {
            inner: Arc::new(SchemaInner {
                columns,
                normalized,
            }),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.inner.columns.len()
    }

    /// Column definitions in order.
    pub fn columns(&self) -> &[Column] {
        &self.inner.columns
    }

    /// Column headers in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.inner.columns.iter().map(|c| c.name.as_str())
    }

    /// The normalized (case/punctuation-insensitive) header of each column,
    /// in column order — computed once, when the schema was built.
    pub fn normalized_names(&self) -> &[String] {
        &self.inner.normalized
    }

    /// Whether `other` is this very schema (one allocation), not merely an
    /// equal one. Tuples of one table share their table's schema, which lets
    /// per-schema work be done once per distinct schema of a candidate set.
    pub fn is_same(&self, other: &Schema) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Index of the column with exactly this header.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.inner.columns.iter().position(|c| c.name == name)
    }

    /// Index of the column whose *normalized* header matches (case/punctuation
    /// insensitive). This is how rerankers and PASTA bind claim fields to headers.
    pub fn fuzzy_index_of(&self, name: &str) -> Option<usize> {
        self.fuzzy_index_of_normalized(&normalize_str(name))
    }

    /// [`Schema::fuzzy_index_of`] for a header that is already normalized
    /// (another schema's [`Schema::normalized_names`], say).
    pub fn fuzzy_index_of_normalized(&self, want: &str) -> Option<usize> {
        if want.is_empty() {
            return None;
        }
        // Exact normalized match first, then containment either way.
        let names = &self.inner.normalized;
        names.iter().position(|have| have == want).or_else(|| {
            names
                .iter()
                .position(|have| have.contains(want) || want.contains(have.as_str()))
        })
    }

    /// Indices of key columns.
    pub fn key_indices(&self) -> Vec<usize> {
        self.inner
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_key)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of non-key columns.
    pub fn non_key_indices(&self) -> Vec<usize> {
        self.inner
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_key)
            .map(|(i, _)| i)
            .collect()
    }
}

/// A relational table in the lake.
///
/// Tables carry a caption (web tables almost always do, and both the content
/// index and the (text, table) reranker lean on it) and a back-reference to the
/// source that contributed them, which feeds the trust model. The caption is
/// set once, at construction, which is also when its normalized form — what
/// a claim's scope is checked against — is prepared.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Lake-wide identifier.
    pub id: TableId,
    /// Caption / title (e.g. `"1959 NCAA track and field championships"`).
    caption: String,
    /// `normalize_str` of the caption.
    normalized_caption: String,
    /// Column definitions.
    pub schema: Schema,
    /// Row values, each of arity `schema.arity()`.
    rows: Vec<Vec<Value>>,
    /// Source that contributed this table.
    pub source: SourceId,
}

impl Table {
    /// Create an empty table.
    pub fn new(id: TableId, caption: impl Into<String>, schema: Schema, source: SourceId) -> Table {
        let caption = caption.into();
        Table {
            id,
            normalized_caption: normalize_str(&caption),
            caption,
            schema,
            rows: Vec::new(),
            source,
        }
    }

    /// Caption / title (e.g. `"1959 NCAA track and field championships"`).
    pub fn caption(&self) -> &str {
        &self.caption
    }

    /// The caption normalized (case/punctuation-insensitive, single spaces)
    /// — computed once, when the table was built.
    pub fn normalized_caption(&self) -> &str {
        &self.normalized_caption
    }

    /// Append a row, checking arity.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), LakeError> {
        if row.len() != self.schema.arity() {
            return Err(LakeError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// A single row.
    pub fn row(&self, i: usize) -> Option<&[Value]> {
        self.rows.get(i).map(|r| r.as_slice())
    }

    /// Mutable access to a cell (used by the workload generator to mask cells).
    pub fn cell_mut(&mut self, row: usize, col: usize) -> Option<&mut Value> {
        self.rows.get_mut(row).and_then(|r| r.get_mut(col))
    }

    /// A cell value.
    pub fn cell(&self, row: usize, col: usize) -> Option<&Value> {
        self.rows.get(row).and_then(|r| r.get(col))
    }

    /// All values of one column.
    pub fn column_values(&self, col: usize) -> impl Iterator<Item = &Value> {
        self.rows.iter().filter_map(move |r| r.get(col))
    }

    /// Row `i` as a borrowed tuple with the given tuple id.
    pub fn tuple_ref_at(&self, i: usize, tuple_id: TupleId) -> Option<TupleRef<'_>> {
        self.rows.get(i).map(|r| TupleRef {
            id: tuple_id,
            table: self.id,
            row_index: i,
            schema: &self.schema,
            values: r,
            source: self.source,
        })
    }

    /// Materialize row `i` as a standalone [`Tuple`] with the given tuple id.
    pub fn tuple_at(&self, i: usize, tuple_id: TupleId) -> Option<Tuple> {
        self.tuple_ref_at(i, tuple_id).map(TupleRef::to_owned)
    }

    /// Remove row `i`, shifting later rows down one index. Returns the
    /// removed values, or `None` when `i` is out of range.
    ///
    /// Callers that track row positions externally (the lake's tuple
    /// directory) must decrement every tracked index greater than `i`.
    pub fn remove_row(&mut self, i: usize) -> Option<Vec<Value>> {
        if i >= self.rows.len() {
            return None;
        }
        Some(self.rows.remove(i))
    }

    /// Take ownership of all rows, leaving the table empty. Used by the
    /// lake's batch-ingest wrapper to replay rows through the incremental
    /// per-tuple path.
    pub fn take_rows(&mut self) -> Vec<Vec<Value>> {
        std::mem::take(&mut self.rows)
    }

    /// Rows whose value in `col` matches `value` (normalized matching).
    pub fn select_eq(&self, col: usize, value: &Value) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.get(col).is_some_and(|v| v.matches(value)))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::key("district", DataType::Text),
            Column::new("incumbent", DataType::Text),
            Column::new("first elected", DataType::Int),
        ])
    }

    fn sample() -> Table {
        let mut t = Table::new(1, "United States House elections", schema(), 0);
        t.push_row(vec![
            Value::text("New York 1"),
            Value::text("Otis G. Pike"),
            Value::Int(1960),
        ])
        .unwrap();
        t.push_row(vec![
            Value::text("New York 2"),
            Value::text("James Grover"),
            Value::Int(1962),
        ])
        .unwrap();
        t
    }

    #[test]
    fn arity_checked() {
        let mut t = sample();
        let err = t.push_row(vec![Value::Null]).unwrap_err();
        assert_eq!(
            err,
            LakeError::ArityMismatch {
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn fuzzy_header_binding() {
        let s = schema();
        assert_eq!(s.fuzzy_index_of("Incumbent"), Some(1));
        assert_eq!(s.fuzzy_index_of("first-elected"), Some(2));
        assert_eq!(s.fuzzy_index_of("elected"), Some(2)); // containment
        assert_eq!(s.fuzzy_index_of("salary"), None);
    }

    #[test]
    fn key_partition() {
        let s = schema();
        assert_eq!(s.key_indices(), vec![0]);
        assert_eq!(s.non_key_indices(), vec![1, 2]);
    }

    #[test]
    fn clones_share_the_schema_and_equal_schemas_need_not() {
        let s = schema();
        assert!(s.is_same(&s.clone()));
        assert_eq!(
            s.normalized_names(),
            ["district", "incumbent", "first elected"]
        );
        let rebuilt = schema();
        assert_eq!(s, rebuilt);
        assert!(!s.is_same(&rebuilt));
        // A materialized tuple points at its table's schema.
        let t = sample();
        assert!(t.tuple_at(0, 9).unwrap().schema.is_same(&t.schema));
    }

    #[test]
    fn select_eq_normalizes() {
        let t = sample();
        assert_eq!(t.select_eq(1, &Value::text("otis g pike")), vec![0]);
        assert!(t.select_eq(1, &Value::text("nobody")).is_empty());
    }

    #[test]
    fn tuple_materialization() {
        let t = sample();
        let tup = t.tuple_at(1, 99).unwrap();
        assert_eq!(tup.id, 99);
        assert_eq!(tup.table, 1);
        assert_eq!(tup.values[2], Value::Int(1962));
        assert!(t.tuple_at(5, 100).is_none());
    }

    #[test]
    fn cell_mutation_for_masking() {
        let mut t = sample();
        *t.cell_mut(0, 1).unwrap() = Value::Null;
        assert!(t.cell(0, 1).unwrap().is_null());
    }

    /// `fuzzy_index_of` as it was before headers were normalized once per
    /// schema: every candidate header re-normalized on every lookup.
    fn normalize_every_time_fuzzy_index_of(schema: &Schema, name: &str) -> Option<usize> {
        let want = normalize_str(name);
        if want.is_empty() {
            return None;
        }
        if let Some(i) = schema
            .columns()
            .iter()
            .position(|c| normalize_str(&c.name) == want)
        {
            return Some(i);
        }
        schema.columns().iter().position(|c| {
            let have = normalize_str(&c.name);
            have.contains(&want) || want.contains(&have)
        })
    }

    proptest::proptest! {
        /// Lookups over the stored normalized names bind exactly as the
        /// normalize-per-lookup formula did: exact match first, containment
        /// either way second (an all-punctuation header contains nothing
        /// and is contained in everything), empty wants bind nothing.
        #[test]
        fn fuzzy_lookup_equals_normalize_every_time(
            headers in proptest::collection::vec("[a-cA-C _.-]{0,5}", 0..6),
            wants in proptest::collection::vec("[a-cA-C _.-]{0,5}", 1..6),
        ) {
            let schema = Schema::new(
                headers.iter().map(|h| Column::new(h.clone(), DataType::Text)).collect(),
            );
            for want in wants.iter().chain(&headers) {
                proptest::prop_assert_eq!(
                    schema.fuzzy_index_of(want),
                    normalize_every_time_fuzzy_index_of(&schema, want)
                );
                proptest::prop_assert_eq!(
                    schema.fuzzy_index_of_normalized(&normalize_str(want)),
                    schema.fuzzy_index_of(want)
                );
            }
        }
    }
}
