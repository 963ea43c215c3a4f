//! Text embeddings (the BERT substitute).

use crate::hashing::{coord_and_sign, feature_hash};
use crate::vector::Vector;
use verifai_text::ngram::for_each_char_ngram;
use verifai_text::Analyzer;

/// Configuration of a [`TextEmbedder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextEmbedderConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Seed defining the (fixed) random projection.
    pub seed: u64,
    /// Number of hash probes per feature; more probes = denser vectors.
    pub probes: u32,
    /// Character n-gram order added per term (0 disables char features).
    pub char_ngram: usize,
    /// Weight of char-n-gram features relative to word features.
    pub char_weight: f32,
}

impl Default for TextEmbedderConfig {
    fn default() -> Self {
        TextEmbedderConfig {
            dim: 128,
            seed: 0x5eed,
            probes: 2,
            char_ngram: 3,
            char_weight: 0.35,
        }
    }
}

/// Deterministic text-to-vector encoder.
///
/// Feature set of a string: analyzed word terms (weight 1) plus character
/// trigrams of each term (weight `char_weight`, giving robustness to typos and
/// morphological variation). Each feature contributes `probes` signed
/// coordinates; the sum is L2-normalized.
#[derive(Debug, Clone)]
pub struct TextEmbedder {
    config: TextEmbedderConfig,
    analyzer: Analyzer,
}

impl TextEmbedder {
    /// Embedder with the given configuration.
    pub fn new(config: TextEmbedderConfig) -> TextEmbedder {
        TextEmbedder {
            config,
            analyzer: Analyzer::standard(),
        }
    }

    /// Embedder with default configuration and the given seed.
    pub fn with_seed(seed: u64) -> TextEmbedder {
        TextEmbedder::new(TextEmbedderConfig {
            seed,
            ..TextEmbedderConfig::default()
        })
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Embed a string.
    pub fn embed(&self, text: &str) -> Vector {
        verifai_obs::meter::charge_embed();
        let mut v = Vector::zeros(self.config.dim);
        self.analyzer.for_each_term(text, |term| {
            self.add_feature(&mut v, term, 1.0);
            if self.config.char_ngram > 0 && term.len() > self.config.char_ngram {
                for_each_char_ngram(term, self.config.char_ngram, |gram| {
                    self.add_feature(&mut v, gram, self.config.char_weight)
                });
            }
        });
        v.normalize();
        v
    }

    fn add_feature(&self, v: &mut Vector, feature: &str, weight: f32) {
        for p in 0..self.config.probes {
            let h = feature_hash(feature, self.config.seed, p);
            let (idx, sign) = coord_and_sign(h, self.config.dim);
            v.as_mut_slice()[idx] += sign * weight;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embedder() -> TextEmbedder {
        TextEmbedder::with_seed(42)
    }

    #[test]
    fn deterministic() {
        let e = embedder();
        assert_eq!(e.embed("Meagan Good"), e.embed("Meagan Good"));
    }

    #[test]
    fn unit_norm() {
        let v = embedder().embed("the yard stomp 2007");
        assert!((v.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_is_zero() {
        let v = embedder().embed("");
        assert_eq!(v.norm(), 0.0);
    }

    #[test]
    fn similar_strings_are_closer_than_dissimilar() {
        let e = embedder();
        let a = e.embed("United States House of Representatives election in New York");
        let b = e.embed("New York House of Representatives election results");
        let c = e.embed("average points per basketball game career");
        assert!(
            a.cosine(&b) > a.cosine(&c) + 0.2,
            "{} vs {}",
            a.cosine(&b),
            a.cosine(&c)
        );
    }

    #[test]
    fn typo_robustness_from_char_ngrams() {
        let e = embedder();
        let a = e.embed("incumbent governor");
        let b = e.embed("incumbant governor"); // typo
        let c = e.embed("quarterly revenue report");
        assert!(a.cosine(&b) > a.cosine(&c));
    }

    #[test]
    fn different_seeds_give_different_projections() {
        let a = TextEmbedder::with_seed(1).embed("hello world");
        let b = TextEmbedder::with_seed(2).embed("hello world");
        assert_ne!(a, b);
    }

    #[test]
    fn case_insensitive() {
        let e = embedder();
        assert_eq!(e.embed("Otis Pike"), e.embed("otis pike"));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn norm_is_zero_or_one(s in ".{0,60}") {
            let v = TextEmbedder::with_seed(7).embed(&s);
            let n = v.norm();
            prop_assert!(n == 0.0 || (n - 1.0).abs() < 1e-4);
        }

        #[test]
        fn self_similarity_is_max(s in "[a-z ]{1,40}") {
            let e = TextEmbedder::with_seed(7);
            let v = e.embed(&s);
            prop_assert!(v.cosine(&v) <= 1.0 + 1e-5);
        }
    }
}
