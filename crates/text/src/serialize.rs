//! Serialization of data instances into retrieval strings.
//!
//! The paper's content index "serializes tables or text files as strings and then
//! indexes them" (§3.1). The serialization format matters for retrieval quality:
//! we use the attribute-value verbalization common in the data-lake literature
//! (`caption . col1 is v1 . col2 is v2 ...`), which keeps header tokens adjacent
//! to their values so BM25 can exploit both.

use verifai_lake::{InstanceRef, KgEntity, Table, TextDocument, Tuple, TupleRef};

/// Serialize a tuple (owned or borrowed from the lake): caption-free
/// attribute-value verbalization.
pub fn serialize_tuple<'a>(tuple: impl Into<TupleRef<'a>>) -> String {
    let tuple = tuple.into();
    let mut s = String::new();
    for (col, val) in tuple.schema.columns().iter().zip(tuple.values.iter()) {
        if val.is_null() {
            continue;
        }
        if !s.is_empty() {
            s.push_str(" . ");
        }
        s.push_str(&col.name);
        s.push_str(" is ");
        s.push_str(&val.to_string());
    }
    s
}

/// Serialize a whole table: caption, headers, then all rows.
pub fn serialize_table(table: &Table) -> String {
    let mut s = String::with_capacity(64 + table.num_rows() * 32);
    s.push_str(table.caption());
    s.push_str(" . ");
    let headers: Vec<&str> = table.schema.names().collect();
    s.push_str(&headers.join(" , "));
    for row in table.rows() {
        s.push_str(" . ");
        let mut first = true;
        for (col, val) in headers.iter().zip(row.iter()) {
            if val.is_null() {
                continue;
            }
            if !first {
                s.push_str(" , ");
            }
            first = false;
            s.push_str(col);
            s.push(' ');
            s.push_str(&val.to_string());
        }
    }
    s
}

/// Serialize a text document (title + body).
pub fn serialize_doc(doc: &TextDocument) -> String {
    doc.full_text()
}

/// Serialize a knowledge-graph entity: the entity name followed by its
/// verbalized triples (`name . predicate object . ...`).
pub fn serialize_kg(entity: &KgEntity) -> String {
    let mut s = String::with_capacity(32 + entity.triples.len() * 24);
    s.push_str(&entity.name);
    for t in &entity.triples {
        s.push_str(" . ");
        if t.subject != entity.name {
            s.push_str(&t.subject);
            s.push(' ');
        }
        s.push_str(&t.predicate);
        s.push(' ');
        s.push_str(&t.object.to_string());
    }
    s
}

/// Serialize any data instance, owned or borrowed from the lake.
pub fn serialize_instance<'a>(instance: impl Into<InstanceRef<'a>>) -> String {
    match instance.into() {
        InstanceRef::Tuple(t) => serialize_tuple(t),
        InstanceRef::Table(t) => serialize_table(t),
        InstanceRef::Text(d) => serialize_doc(d),
        InstanceRef::Kg(e) => serialize_kg(e),
    }
}

/// Build the retrieval *query* for a tuple whose masked cells need verification.
///
/// Unlike [`serialize_tuple`] this drops header boilerplate for key columns and
/// keeps the imputed value (if provided) so that evidence containing the
/// candidate value ranks higher — mirroring how RetClean queries its lake.
pub fn tuple_query(tuple: &Tuple, imputed: Option<(&str, &str)>) -> String {
    let mut s = serialize_tuple(tuple);
    if let Some((col, val)) = imputed {
        if !s.is_empty() {
            s.push_str(" . ");
        }
        s.push_str(col);
        s.push_str(" is ");
        s.push_str(val);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_lake::{Column, DataInstance, DataType, Schema, Value};

    fn tuple() -> Tuple {
        Tuple {
            id: 0,
            table: 0,
            row_index: 0,
            schema: Schema::new(vec![
                Column::key("district", DataType::Text),
                Column::new("incumbent", DataType::Text),
            ]),
            values: vec![Value::text("New York 1"), Value::text("Otis Pike")],
            source: 0,
        }
    }

    #[test]
    fn tuple_serialization_is_attribute_value() {
        assert_eq!(
            serialize_tuple(&tuple()),
            "district is New York 1 . incumbent is Otis Pike"
        );
    }

    #[test]
    fn nulls_are_omitted() {
        let mut t = tuple();
        t.values[1] = Value::Null;
        assert_eq!(serialize_tuple(&t), "district is New York 1");
    }

    #[test]
    fn table_serialization_contains_caption_headers_cells() {
        let mut table = Table::new(
            1,
            "US House elections 1960",
            Schema::new(vec![
                Column::key("district", DataType::Text),
                Column::new("incumbent", DataType::Text),
            ]),
            0,
        );
        table
            .push_row(vec![Value::text("New York 1"), Value::text("Otis Pike")])
            .unwrap();
        let s = serialize_table(&table);
        assert!(s.contains("US House elections 1960"));
        assert!(s.contains("district , incumbent"));
        assert!(s.contains("incumbent Otis Pike"));
    }

    #[test]
    fn query_appends_imputed_value() {
        let mut t = tuple();
        t.values[1] = Value::Null;
        let q = tuple_query(&t, Some(("incumbent", "Otis Pike")));
        assert!(q.ends_with("incumbent is Otis Pike"));
        assert!(q.starts_with("district is New York 1"));
    }

    #[test]
    fn kg_serialization_verbalizes_triples() {
        let mut e = KgEntity::new(4, "New York 3", 0);
        e.assert_fact("incumbent", Value::text("James Pike"));
        e.assert_fact("party", Value::text("Democratic"));
        let s = serialize_kg(&e);
        assert_eq!(s, "New York 3 . incumbent James Pike . party Democratic");
        assert_eq!(serialize_instance(&DataInstance::Kg(e)), s);
    }

    #[test]
    fn instance_dispatch() {
        let d = TextDocument::new(3, "Title", "Body.", 0);
        assert_eq!(serialize_instance(&DataInstance::Text(d)), "Title. Body.");
    }
}
