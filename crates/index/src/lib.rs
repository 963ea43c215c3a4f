#![warn(missing_docs)]
//! # verifai-index
//!
//! The Indexer substrate (paper §3.1).
//!
//! The Indexer is *task-agnostic* and supports both **content-based** and
//! **semantic-based** search:
//!
//! * [`segment::SegmentedInvertedIndex`] — the one content index: a
//!   tokenizing inverted index with BM25 ranking (the Elasticsearch
//!   substitute), live-mutable through a memtable, sealed segments and
//!   tombstones. The paper also names tries and suffix trees as content
//!   indexes; none is built;
//! * [`vector::FlatIndex`] — exact nearest-neighbour search over embeddings;
//! * [`vector::HnswIndex`] — approximate nearest-neighbour search (the
//!   Faiss/pgvector substitute);
//! * [`combiner::Combiner`] — merges the top-k lists of several indexes and
//!   removes duplicates (paper §3.1 "Combiner"), with score- or
//!   reciprocal-rank fusion;
//! * [`source::EvidenceSource`] — the object-safe retrieval-stage trait the
//!   staged pipeline drives, implemented by the content and semantic indexes
//!   and by [`source::FusedSource`] (several sources behind one Combiner).
//!
//! Each index has one snapshot writer and one reader ([`persist`]), at one
//! format version; an older snapshot is rejected with
//! [`PersistError::BadVersion`].
//!
//! All indexes key their entries by [`verifai_lake::InstanceId`], so results from
//! different modalities and index types can be combined freely.

pub mod combiner;
pub mod content;
pub mod hit;
pub mod persist;
pub mod segment;
pub mod source;
pub mod vector;

pub use combiner::{Combiner, FusionStrategy};
pub use content::{Bm25Params, CorpusStats};
pub use hit::SearchHit;
pub use persist::{save_atomic, PersistError};
pub use segment::SegmentedInvertedIndex;
pub use source::{EvidenceSource, FusedSource, SourceQuery};
pub use vector::{AnyVectorIndex, FlatIndex, HnswConfig, HnswIndex, VectorIndex};
