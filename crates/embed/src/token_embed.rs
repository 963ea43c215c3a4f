//! Per-token embeddings (the ColBERT encoder substitute).
//!
//! ColBERT represents queries and documents as *bags of token vectors* and
//! scores them by late interaction. Our substitute embeds each surface token
//! independently — the token identity plus its character trigrams — so that
//! exact token matches score ~1 and morphological variants score high.

use crate::hashing::{coord_and_sign, feature_hash};
use crate::vector::Vector;
use verifai_text::ngram::for_each_char_ngram;
use verifai_text::Analyzer;

/// Per-token encoder used by the (text, text) reranker.
#[derive(Debug, Clone)]
pub struct TokenEmbedder {
    dim: usize,
    seed: u64,
    analyzer: Analyzer,
}

impl TokenEmbedder {
    /// Encoder with the given dimension and seed.
    pub fn new(dim: usize, seed: u64) -> TokenEmbedder {
        // ColBERT keeps stopwords in documents; the lowercase-only analyzer
        // preserves surface forms.
        TokenEmbedder {
            dim,
            seed,
            analyzer: Analyzer::lowercase_only(),
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embed one token.
    pub fn embed_token(&self, token: &str) -> Vector {
        let mut v = Vector::zeros(self.dim);
        self.add(&mut v, token, 1.0);
        if token.len() > 3 {
            for_each_char_ngram(token, 3, |gram| self.add(&mut v, gram, 0.4));
        }
        v.normalize();
        v
    }

    /// Hand `f` the surface tokens of `text`, in order, the first `cap` of
    /// them — what [`TokenEmbedder::embed_text`] embeds one by one. The
    /// tokens stream from the analysis kernel into one buffer, so the slice
    /// costs three allocations however many tokens it holds; callers that
    /// cap or deduplicate tokens do so before paying for any embedding.
    pub fn with_tokens<R>(&self, text: &str, cap: usize, f: impl FnOnce(&[&str]) -> R) -> R {
        let mut joined = String::new();
        let mut ends = Vec::new();
        self.analyzer.for_each_term(text, |token| {
            if ends.len() < cap {
                joined.push_str(token);
                ends.push(joined.len());
            }
        });
        let mut start = 0;
        let tokens: Vec<&str> = ends
            .iter()
            .map(|&end| &joined[std::mem::replace(&mut start, end)..end])
            .collect();
        f(&tokens)
    }

    /// Tokenize text and embed every token.
    pub fn embed_text(&self, text: &str) -> Vec<Vector> {
        self.with_tokens(text, usize::MAX, |tokens| {
            tokens.iter().map(|t| self.embed_token(t)).collect()
        })
    }

    fn add(&self, v: &mut Vector, feature: &str, weight: f32) {
        for p in 0..2 {
            let h = feature_hash(feature, self.seed, p);
            let (idx, sign) = coord_and_sign(h, self.dim);
            v.as_mut_slice()[idx] += sign * weight;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_tokens_have_unit_similarity() {
        let e = TokenEmbedder::new(64, 9);
        let a = e.embed_token("yard");
        let b = e.embed_token("yard");
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn variants_score_higher_than_unrelated() {
        let e = TokenEmbedder::new(64, 9);
        let base = e.embed_token("elections");
        let variant = e.embed_token("election");
        let unrelated = e.embed_token("basketball");
        assert!(base.cosine(&variant) > base.cosine(&unrelated));
    }

    #[test]
    fn embed_text_token_count() {
        let e = TokenEmbedder::new(64, 9);
        let vs = e.embed_text("Does Meagan Good play a role");
        assert_eq!(vs.len(), 6);
        for v in &vs {
            assert!((v.norm() - 1.0).abs() < 1e-5);
        }
    }
}
