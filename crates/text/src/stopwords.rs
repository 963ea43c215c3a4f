//! English stopwords.

/// Defines [`STOPWORDS`] and [`is_stopword`] from one word list, so the
/// matcher cannot drift from the list.
macro_rules! stopwords {
    ($($word:literal),* $(,)?) => {
        /// Default English stopword list (the subset a search analyzer
        /// typically drops).
        pub const STOPWORDS: &[&str] = &[$($word),*];

        /// Membership test against [`STOPWORDS`]; expects lowercase input.
        /// A `match`, which compiles to a length dispatch and a few fixed-size
        /// compares instead of a scan of the list; analyzers call this once
        /// per token.
        pub fn is_stopword(word: &str) -> bool {
            matches!(word, $($word)|*)
        }
    };
}

stopwords![
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if", "in", "into", "is", "it",
    "no", "not", "of", "on", "or", "such", "that", "the", "their", "then", "there", "these",
    "they", "this", "to", "was", "will", "with", "he", "she", "his", "her", "its", "from", "has",
    "had", "have", "were", "been", "which", "who", "whom", "what", "when", "where", "also", "than",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_words_are_stopwords() {
        for w in ["the", "and", "of", "was"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
    }

    #[test]
    fn content_words_are_not() {
        for w in ["incumbent", "election", "jordan", "yard"] {
            assert!(!is_stopword(w), "{w} should not be a stopword");
        }
    }

    /// The `match` agrees with the list on every word and its near misses.
    #[test]
    fn matcher_accepts_exactly_the_list() {
        for w in STOPWORDS {
            for candidate in [
                w.to_string(),
                w.to_uppercase(),
                format!("{w}s"),
                w[1..].to_string(),
            ] {
                assert_eq!(
                    is_stopword(&candidate),
                    STOPWORDS.contains(&candidate.as_str()),
                    "{candidate:?}"
                );
            }
        }
    }
}
