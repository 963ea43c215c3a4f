#![warn(missing_docs)]
//! # verifai-claims
//!
//! Table-claim substrate: the formal semantics behind textual claims about
//! tables.
//!
//! The paper evaluates VerifAI on 1,300 textual claims from the TabFact
//! benchmark — statements like *"Brown university was the only team to score 1
//! point in the 1959 NCAA championships"* that a table either entails or
//! refutes. This crate provides:
//!
//! * [`ast`] — a claim expression language covering the table operations TabFact
//!   claims exercise (lookups, counts, sums/averages/min/max, superlatives);
//! * [`exec`] — an executor that evaluates a claim expression against any table,
//!   returning `True` / `False` / `Unsupported` (the table cannot bind the
//!   claim's columns — i.e. it is *not related*);
//! * [`render`] — a natural-language renderer with three paraphrase levels;
//!   `Hard` paraphrases deliberately fall outside the parser grammar, modelling
//!   the linguistic variation that defeats a trained parser;
//! * [`parse`] — the inverse of the canonical/varied renderings, used by the
//!   PASTA-style verifier to recover claim semantics from text;
//! * [`generate`] — a TabFact-style workload generator producing labelled
//!   (claim, table) pairs whose truth value is known *by construction*.

pub mod ast;
pub mod exec;
pub mod generate;
pub mod parse;
pub mod render;
pub mod scope;

pub use ast::{AggFunc, Claim, ClaimExpr, CmpOp, ParaphraseLevel, Predicate};
pub use exec::{aggregate_value, execute, ExecOutcome};
pub use generate::{ClaimGenConfig, ClaimGenerator};
pub use parse::parse_claim;
pub use render::render_claim;
pub use scope::{
    scope_matches, scope_relation, scope_relation_normalized, vague_caption, ScopeRelation,
};
