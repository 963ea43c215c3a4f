#![warn(missing_docs)]
//! # verifai-embed
//!
//! Embedding substrate for VerifAI's semantic index and rerankers.
//!
//! The paper embeds tuples (tuple-to-vec, RPT-style) and chunked text (BERT)
//! before indexing the vectors with Faiss/pgvector. We cannot ship a neural
//! encoder, so this crate provides **deterministic feature-hashed random-projection
//! embeddings** (see DESIGN.md §1): every string is decomposed into analyzed word
//! features and character n-gram features, each feature is hashed into a signed
//! coordinate of a `d`-dimensional vector, and the result is L2-normalized.
//!
//! Hashed random projections approximate bag-of-feature cosine similarity, which
//! is exactly the property the semantic index needs: lexically/semantically
//! overlapping instances land near each other. Everything is seeded, so runs are
//! reproducible bit-for-bit.

pub mod hashing;
pub mod kernel;
pub mod text_embed;
pub mod token_embed;
pub mod tuple_embed;
pub mod vector;
pub mod vocab;

pub use text_embed::{TextEmbedder, TextEmbedderConfig};
pub use token_embed::TokenEmbedder;
pub use tuple_embed::TupleEmbedder;
pub use vector::{NormedVector, Vector};
pub use vocab::{TokenVocab, VocabRows};
