//! Analysis chains.
//!
//! An [`Analyzer`] turns raw text into the normalized term stream that indexes
//! and similarity measures consume — the counterpart of an Elasticsearch
//! analyzer: tokenize → lowercase → (stopword filter) → (stemmer).
//!
//! One kernel, [`Analyzer::for_each_term`], produces that stream and hands
//! each term to a callback as a borrowed `&str`. ASCII text — nearly every
//! byte a lake holds — is scanned byte by byte into one reused per-thread
//! buffer, where lowercasing and stemming happen in place: a token costs its
//! bytes and no allocation. Text with a non-ASCII byte, or a configuration
//! that does not lowercase, takes the char path
//! ([`Analyzer::for_each_term_by_chars`]): [`tokenize`] then the same chain,
//! Unicode-aware. On ASCII text the two produce the same terms in the same
//! order (DESIGN.md §25); the char path is the oracle the tests hold the
//! byte path to.

use std::cell::Cell;
use std::collections::HashMap;

use crate::stem::{stem, stem_in_place};
use crate::stopwords::is_stopword;
use crate::tokenizer::tokenize;

thread_local! {
    /// The byte path's token buffer, reused by every call on this thread.
    /// A call takes it and puts it back, so a callback that analyzes again
    /// gets a fresh buffer instead of a conflicting borrow.
    static TOKEN: Cell<String> = const { Cell::new(String::new()) };
}

/// Configuration of an [`Analyzer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzerConfig {
    /// Lowercase tokens.
    pub lowercase: bool,
    /// Drop stopwords.
    pub remove_stopwords: bool,
    /// Apply the Porter-style stemmer.
    pub stem: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            lowercase: true,
            remove_stopwords: true,
            stem: true,
        }
    }
}

/// A configured analysis chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analyzer {
    config: AnalyzerConfig,
}

impl Analyzer {
    /// Analyzer with the given configuration.
    pub fn new(config: AnalyzerConfig) -> Analyzer {
        Analyzer { config }
    }

    /// The standard search analyzer: lowercase + stopwords + stemming.
    pub fn standard() -> Analyzer {
        Analyzer::default()
    }

    /// A keyword-ish analyzer that only lowercases — used where exact surface
    /// forms matter (e.g. ColBERT token embeddings keep stopwords).
    pub fn lowercase_only() -> Analyzer {
        Analyzer::new(AnalyzerConfig {
            lowercase: true,
            remove_stopwords: false,
            stem: false,
        })
    }

    /// The analyzer's configuration (used when persisting indexes).
    pub fn config(&self) -> AnalyzerConfig {
        self.config
    }

    /// Call `f` with every term of `text`, in order: the analysis kernel
    /// the other methods wrap. Allocates nothing per token (ASCII text with
    /// a lowercasing config: tokens are scanned, lowercased and stemmed in a
    /// reused buffer); other text takes [`Analyzer::for_each_term_by_chars`].
    pub fn for_each_term(&self, text: &str, mut f: impl FnMut(&str)) {
        if !(self.config.lowercase && text.is_ascii()) {
            return self.for_each_term_by_chars(text, f);
        }
        let mut buf = TOKEN.take();
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            // A token starts at an alphanumeric byte and runs over
            // alphanumerics and any `'` or `.` followed by one, so it also
            // ends at an alphanumeric byte — `tokenize`'s rules, with
            // nothing left for its edge trim to remove.
            if !bytes[i].is_ascii_alphanumeric() {
                i += 1;
                continue;
            }
            let start = i;
            i += 1;
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric()
                    || (matches!(bytes[i], b'\'' | b'.')
                        && bytes.get(i + 1).is_some_and(u8::is_ascii_alphanumeric)))
            {
                i += 1;
            }
            buf.clear();
            buf.push_str(&text[start..i]);
            buf.make_ascii_lowercase();
            if self.config.remove_stopwords && is_stopword(&buf) {
                continue;
            }
            if self.config.stem {
                stem_in_place(&mut buf);
            }
            f(&buf);
        }
        TOKEN.set(buf);
    }

    /// The char path of [`Analyzer::for_each_term`]: [`tokenize`], then
    /// lowercase (Unicode), stopwords and stem per token, each step a fresh
    /// `String`. The kernel takes it for text with a non-ASCII byte or a
    /// config that does not lowercase; on any other text it yields exactly
    /// what the byte path does, which is what the tests hold that path to.
    pub fn for_each_term_by_chars(&self, text: &str, mut f: impl FnMut(&str)) {
        for tok in tokenize(text) {
            let mut term = if self.config.lowercase {
                tok.text.to_lowercase()
            } else {
                tok.text
            };
            if self.config.remove_stopwords && is_stopword(&term) {
                continue;
            }
            if self.config.stem {
                term = stem(&term);
            }
            if !term.is_empty() {
                f(&term);
            }
        }
    }

    /// Analyze text into normalized terms: [`Analyzer::for_each_term`],
    /// collected.
    pub fn analyze(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_term(text, |term| out.push(term.to_string()));
        out
    }

    /// Analyze into (term, term-frequency) pairs. Allocates one `String`
    /// per distinct term.
    pub fn term_frequencies(&self, text: &str) -> HashMap<String, u32> {
        let mut tf = HashMap::new();
        self.for_each_term(text, |term| match tf.get_mut(term) {
            Some(n) => *n += 1,
            None => {
                tf.insert(term.to_string(), 1);
            }
        });
        tf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_chain_normalizes() {
        let a = Analyzer::standard();
        let terms = a.analyze("The Incumbents were elected in the elections");
        // "the", "were", "in" dropped; plurals and -ed conflated.
        assert!(terms.contains(&stem("incumbent")));
        assert!(terms.contains(&stem("elect")));
        assert!(!terms.iter().any(|t| t == "the" || t == "were"));
    }

    #[test]
    fn lowercase_only_keeps_stopwords() {
        let a = Analyzer::lowercase_only();
        assert_eq!(a.analyze("The Yard"), vec!["the", "yard"]);
    }

    #[test]
    fn term_frequencies_count() {
        let a = Analyzer::lowercase_only();
        let tf = a.term_frequencies("yard yard the yard");
        assert_eq!(tf["yard"], 3);
        assert_eq!(tf["the"], 1);
    }

    #[test]
    fn query_and_document_analyze_identically() {
        // Retrieval correctness depends on query/document analyzer symmetry.
        let a = Analyzer::standard();
        assert_eq!(
            a.analyze("Elected Officials"),
            a.analyze("elected officials")
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::stopwords::STOPWORDS;
    use proptest::prelude::*;

    /// Word-like pieces aimed at every rule the two paths must agree on:
    /// `'` and `.` inside and at the edges of tokens, numbers, mixed case,
    /// words ending in each stemmer suffix, and non-ASCII letters.
    #[rustfmt::skip]
    const PIECES: &[&str] = &[
        "o'brien", "O'Brien", "'quoted'", "don't", "rock'n'roll", "u.s.", "U.S.A.", "a.b",
        ".5", "5.", "23.5", "1997", "3.14.15", "...", "''", "'.'", "caresses", "ponies",
        "cats", "pass", "agreed", "feed", "plated", "hopped", "hopping", "running", "troubling",
        "sized", "filing", "happy", "sky", "relational", "organization", "hopefulness",
        "callousness", "decisiveness", "sensibiliti", "differentli", "famousli",
        "replacement", "settlement", "conditional", "ss", "ies", "ing", "ed", "xyz",
        "eLeCtIoNs", "PLAYED", "McDonald", "Stomp", "café", "naïve", "ÉLECTIONS", "İstanbul",
        "straße", "中文", "Ωmega",
    ];

    /// Separators, including none (pieces run together) and non-ASCII ones.
    const SEPARATORS: &[&str] = &[
        " ", "", ".", "'", "-", ", ", "\n", "!", "é", "'.", "(", "\t",
    ];

    fn piece(i: usize) -> String {
        match i.checked_sub(PIECES.len()) {
            None => PIECES[i].to_string(),
            Some(j) if j < STOPWORDS.len() => STOPWORDS[j].to_string(),
            Some(j) => STOPWORDS[j - STOPWORDS.len()].to_uppercase(),
        }
    }

    fn assembled() -> impl Strategy<Value = String> {
        let pieces = PIECES.len() + 2 * STOPWORDS.len();
        proptest::collection::vec((0..pieces, 0..SEPARATORS.len()), 0..16).prop_map(|parts| {
            parts
                .into_iter()
                .map(|(p, s)| piece(p) + SEPARATORS[s])
                .collect()
        })
    }

    fn text() -> impl Strategy<Value = String> {
        prop_oneof![
            assembled(),
            "[ -~]{0,60}",
            ".{0,40}",
            "[a-zA-Z0-9'. ]{0,40}"
        ]
    }

    fn terms(analyzer: &Analyzer, text: &str, by_chars: bool) -> Vec<String> {
        let mut out = Vec::new();
        let push = |term: &str| out.push(term.to_string());
        if by_chars {
            analyzer.for_each_term_by_chars(text, push);
        } else {
            analyzer.for_each_term(text, push);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The kernel yields the char path's terms, in its order, for every
        /// configuration that reaches the byte path.
        #[test]
        fn byte_path_equals_char_path(text in text()) {
            let no_stem = Analyzer::new(AnalyzerConfig { stem: false, ..AnalyzerConfig::default() });
            for analyzer in [Analyzer::standard(), Analyzer::lowercase_only(), no_stem] {
                prop_assert_eq!(terms(&analyzer, &text, false), terms(&analyzer, &text, true));
            }
        }
    }
}
