#![warn(missing_docs)]
//! # verifai-lake
//!
//! Data model substrate for VerifAI: the multi-modal data lake.
//!
//! A *multi-modal data lake* (paper §2) is a single repository holding data of
//! several modalities. This crate provides the modalities the paper evaluates —
//! relational [`Table`]s (and their [`Tuple`]s) and [`TextDocument`]s — plus the
//! [`DataLake`] store that owns them, per-source metadata ([`SourceMeta`]) used by
//! the trust model, and the [`DataInstance`] abstraction that the retrieval and
//! verification layers operate on.
//!
//! Terminology follows the paper: a *data object* is something a generative model
//! produced (defined in `verifai-llm`), while a *data instance* is a unit of data
//! inside the lake — a tuple, a table, or a text document.

pub mod error;
pub mod instance;
pub mod io;
pub mod kg;
pub mod lake;
pub mod source;
pub mod stats;
pub mod table;
pub mod text_doc;
pub mod tuple;
pub mod value;

pub use error::LakeError;
pub use instance::{DataInstance, InstanceId, InstanceKind, InstanceRef};
pub use io::{table_from_csv, table_to_csv};
pub use kg::{KgEntity, KgEntityId, Triple};
pub use lake::DataLake;
pub use source::{SourceId, SourceMeta, SourceOrigin};
pub use stats::LakeStats;
pub use table::{Column, DataType, Schema, Table, TableId};
pub use text_doc::{DocId, NormalizedText, TextDocument};
pub use tuple::{Tuple, TupleId, TupleRef};
pub use value::{Date, MatchKey, Value};
