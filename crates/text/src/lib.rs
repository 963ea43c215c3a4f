#![warn(missing_docs)]
//! # verifai-text
//!
//! Text-processing substrate for VerifAI.
//!
//! The paper's Indexer serializes tables and text files as strings and indexes
//! them with a string-similarity engine (Elasticsearch). This crate provides the
//! pieces that pipeline needs:
//!
//! * [`tokenizer`] — Unicode word tokenization with positions;
//! * [`analyzer`] — configurable analysis chain (lowercase → stopwords → stemmer),
//!   the equivalent of an Elasticsearch analyzer;
//! * [`stem`] — a Porter-style suffix stemmer;
//! * [`intern`] — append-only string → dense id interning, the storage form of
//!   prepared rerank features;
//! * [`chunk`] — sentence-window chunking of long documents for the semantic
//!   index (the paper's §3.1 embeds "chunked text files");
//! * [`ngram`] — character and word n-grams (shingles) for fuzzy matching and
//!   feature-hashed embeddings;
//! * [`sim`] — classic string similarities (Levenshtein, Jaro-Winkler, Jaccard,
//!   TF cosine) used by rerankers and the tuple verifier;
//! * [`serialize`] — canonical serialization of tuples / tables / documents into
//!   the retrieval strings the Indexer ingests.

pub mod analyzer;
pub mod chunk;
pub mod intern;
pub mod ngram;
pub mod serialize;
pub mod sim;
pub mod stem;
pub mod stopwords;
pub mod tokenizer;

pub use analyzer::{Analyzer, AnalyzerConfig};
pub use chunk::{chunk_sentences, Chunk};
pub use intern::Interner;
pub use serialize::{
    serialize_instance, serialize_kg, serialize_table, serialize_tuple, tuple_query,
};
pub use tokenizer::{tokenize, Token};
