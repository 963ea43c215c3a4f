//! Character and word n-grams.

use std::cell::Cell;

thread_local! {
    /// The padded buffer of [`for_each_char_ngram`], reused by every call
    /// on this thread (taken and put back, so a nested call gets its own).
    static PADDED: Cell<String> = const { Cell::new(String::new()) };
}

/// Call `f` with each character n-gram of a string (over chars, not
/// bytes), in order. The string is padded with `_` on both ends so that
/// prefixes/suffixes produce distinguishing grams, as is conventional for
/// fuzzy-matching features. Every gram is a window of one padded buffer,
/// reused per thread, so a call allocates nothing once the buffer has grown.
pub fn for_each_char_ngram(s: &str, n: usize, mut f: impl FnMut(&str)) {
    if n == 0 {
        return;
    }
    let pad = n - 1;
    let mut padded = PADDED.take();
    padded.clear();
    padded.extend(std::iter::repeat_n('_', pad));
    padded.push_str(s);
    padded.extend(std::iter::repeat_n('_', pad));
    // The gram starting at char `i` ends where char `i + n - 1` does.
    let ends = padded
        .char_indices()
        .map(|(at, c)| at + c.len_utf8())
        .skip(pad);
    for ((start, _), end) in padded.char_indices().zip(ends) {
        f(&padded[start..end]);
    }
    PADDED.set(padded);
}

/// The grams [`for_each_char_ngram`] yields, collected.
pub fn char_ngrams(s: &str, n: usize) -> Vec<String> {
    let mut grams = Vec::new();
    for_each_char_ngram(s, n, |gram| grams.push(gram.to_string()));
    grams
}

/// Word n-grams (shingles) over a term slice.
pub fn word_ngrams(terms: &[String], n: usize) -> Vec<String> {
    if n == 0 || terms.len() < n {
        return Vec::new();
    }
    (0..=terms.len() - n)
        .map(|i| terms[i..i + n].join(" "))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigram_padding() {
        let grams = char_ngrams("ab", 3);
        assert_eq!(grams, vec!["__a", "_ab", "ab_", "b__"]);
    }

    #[test]
    fn unigram_is_chars() {
        assert_eq!(char_ngrams("abc", 1), vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_cases() {
        assert!(!char_ngrams("", 3).is_empty()); // padding-only grams still emitted
        assert!(char_ngrams("abc", 0).is_empty());
        assert!(word_ngrams(&[], 2).is_empty());
    }

    #[test]
    fn shingles() {
        let terms: Vec<String> = ["stomp", "the", "yard"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(word_ngrams(&terms, 2), vec!["stomp the", "the yard"]);
        assert_eq!(word_ngrams(&terms, 3), vec!["stomp the yard"]);
        assert!(word_ngrams(&terms, 4).is_empty());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// The windowed-`Vec<char>` form `char_ngrams` had before it became a
    /// collect of the streaming one: the independent reference.
    fn reference_char_ngrams(s: &str, n: usize) -> Vec<String> {
        if n == 0 {
            return Vec::new();
        }
        let pad = std::iter::repeat_n('_', n - 1);
        let chars: Vec<char> = pad.clone().chain(s.chars()).chain(pad).collect();
        chars.windows(n).map(|w| w.iter().collect()).collect()
    }

    proptest! {
        /// Same grams in the same order over chars of one to four bytes
        /// (and the pad character itself), `n` 0..=5, empty and
        /// shorter-than-`n` strings.
        #[test]
        fn streamed_grams_equal_the_windowed_reference(s in "[ab_ éΩ中😀]{0,12}", n in 0usize..6) {
            // `char_ngrams` is the streaming form, collected.
            prop_assert_eq!(char_ngrams(&s, n), reference_char_ngrams(&s, n));
        }
    }
}
