//! The data-instance abstraction.
//!
//! Retrieval, reranking, and verification are generic over the modality of the
//! evidence; [`InstanceId`] names an instance in the lake, [`InstanceRef`] is
//! that instance read in place (what retrieval, rerank and the verifiers
//! look at), and [`DataInstance`] is a resolved (owned) copy for a caller
//! that keeps evidence of its own.

use crate::kg::{KgEntity, KgEntityId};
use crate::source::SourceId;
use crate::table::{Table, TableId};
use crate::text_doc::{DocId, TextDocument};
use crate::tuple::{Tuple, TupleId, TupleRef};
use std::fmt;

/// Modality of a data instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstanceKind {
    /// A single tuple.
    Tuple,
    /// A whole table.
    Table,
    /// A text document.
    Text,
    /// A knowledge-graph entity (small subgraph).
    Kg,
}

impl fmt::Display for InstanceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstanceKind::Tuple => "tuple",
            InstanceKind::Table => "table",
            InstanceKind::Text => "text",
            InstanceKind::Kg => "kg",
        };
        f.write_str(s)
    }
}

/// A typed reference to an instance in the lake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstanceId {
    /// Tuple reference.
    Tuple(TupleId),
    /// Table reference.
    Table(TableId),
    /// Text-document reference.
    Text(DocId),
    /// Knowledge-graph-entity reference.
    Kg(KgEntityId),
}

impl InstanceId {
    /// Modality of the referenced instance.
    pub fn kind(&self) -> InstanceKind {
        match self {
            InstanceId::Tuple(_) => InstanceKind::Tuple,
            InstanceId::Table(_) => InstanceKind::Table,
            InstanceId::Text(_) => InstanceKind::Text,
            InstanceId::Kg(_) => InstanceKind::Kg,
        }
    }

    /// The raw id irrespective of modality.
    pub fn raw(&self) -> u64 {
        match self {
            InstanceId::Tuple(id) => *id,
            InstanceId::Table(id) => *id,
            InstanceId::Text(id) => *id,
            InstanceId::Kg(id) => *id,
        }
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind(), self.raw())
    }
}

/// A resolved data instance.
#[derive(Debug, Clone, PartialEq)]
pub enum DataInstance {
    /// A tuple.
    Tuple(Tuple),
    /// A table.
    Table(Table),
    /// A text document.
    Text(TextDocument),
    /// A knowledge-graph entity.
    Kg(KgEntity),
}

impl DataInstance {
    /// Modality.
    pub fn kind(&self) -> InstanceKind {
        self.view().kind()
    }

    /// Typed id of this instance.
    pub fn id(&self) -> InstanceId {
        self.view().id()
    }

    /// Contributing source.
    pub fn source(&self) -> SourceId {
        self.view().source()
    }

    /// This instance, borrowed.
    pub fn view(&self) -> InstanceRef<'_> {
        match self {
            DataInstance::Tuple(t) => InstanceRef::Tuple(t.view()),
            DataInstance::Table(t) => InstanceRef::Table(t),
            DataInstance::Text(d) => InstanceRef::Text(d),
            DataInstance::Kg(e) => InstanceRef::Kg(e),
        }
    }

    /// Borrow as tuple, if this is one.
    pub fn as_tuple(&self) -> Option<&Tuple> {
        match self {
            DataInstance::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// Borrow as table, if this is one.
    pub fn as_table(&self) -> Option<&Table> {
        match self {
            DataInstance::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Borrow as text document, if this is one.
    pub fn as_text(&self) -> Option<&TextDocument> {
        match self {
            DataInstance::Text(d) => Some(d),
            _ => None,
        }
    }

    /// Borrow as knowledge-graph entity, if this is one.
    pub fn as_kg(&self) -> Option<&KgEntity> {
        match self {
            DataInstance::Kg(e) => Some(e),
            _ => None,
        }
    }
}

/// A data instance read where it lies: borrowed from the lake
/// ([`crate::DataLake::view`]) or from an owned [`DataInstance`]
/// ([`DataInstance::view`]). Copying one copies a pointer; only
/// [`InstanceRef::to_owned`] copies data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstanceRef<'a> {
    /// A tuple: its table's schema and row.
    Tuple(TupleRef<'a>),
    /// A table.
    Table(&'a Table),
    /// A text document.
    Text(&'a TextDocument),
    /// A knowledge-graph entity.
    Kg(&'a KgEntity),
}

impl InstanceRef<'_> {
    /// Modality.
    pub fn kind(&self) -> InstanceKind {
        self.id().kind()
    }

    /// Typed id of this instance.
    pub fn id(&self) -> InstanceId {
        match self {
            InstanceRef::Tuple(t) => InstanceId::Tuple(t.id),
            InstanceRef::Table(t) => InstanceId::Table(t.id),
            InstanceRef::Text(d) => InstanceId::Text(d.id),
            InstanceRef::Kg(e) => InstanceId::Kg(e.id),
        }
    }

    /// Contributing source.
    pub fn source(&self) -> SourceId {
        match self {
            InstanceRef::Tuple(t) => t.source,
            InstanceRef::Table(t) => t.source,
            InstanceRef::Text(d) => d.source,
            InstanceRef::Kg(e) => e.source,
        }
    }

    /// Materialize an owned copy.
    pub fn to_owned(self) -> DataInstance {
        match self {
            InstanceRef::Tuple(t) => DataInstance::Tuple(t.to_owned()),
            InstanceRef::Table(t) => DataInstance::Table(t.clone()),
            InstanceRef::Text(d) => DataInstance::Text(d.clone()),
            InstanceRef::Kg(e) => DataInstance::Kg(e.clone()),
        }
    }
}

impl<'a> From<&'a DataInstance> for InstanceRef<'a> {
    fn from(instance: &'a DataInstance) -> InstanceRef<'a> {
        instance.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Schema;

    #[test]
    fn ids_roundtrip_kind_and_raw() {
        let id = InstanceId::Table(42);
        assert_eq!(id.kind(), InstanceKind::Table);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.to_string(), "table:42");
    }

    #[test]
    fn instance_accessors_are_modality_safe() {
        let doc = TextDocument::new(7, "t", "b", 3);
        let inst = DataInstance::Text(doc);
        assert_eq!(inst.kind(), InstanceKind::Text);
        assert_eq!(inst.id(), InstanceId::Text(7));
        assert_eq!(inst.source(), 3);
        assert!(inst.as_text().is_some());
        assert!(inst.as_table().is_none());
        assert!(inst.as_tuple().is_none());
    }

    #[test]
    fn table_instance_id() {
        let t = Table::new(9, "cap", Schema::default(), 1);
        assert_eq!(DataInstance::Table(t).id(), InstanceId::Table(9));
    }
}
