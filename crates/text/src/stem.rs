//! A Porter-style suffix stemmer.
//!
//! Implements the high-value subset of the Porter algorithm (steps 1a/1b and the
//! common derivational suffixes) — enough to conflate the inflectional variants
//! that matter for table/text retrieval (`elections`→`elect`, `played`→`play`,
//! `running`→`run`) without the full rule table.

/// Count vowel-consonant "measure" of a word region, Porter's m().
fn measure(word: &[u8]) -> usize {
    let mut m = 0;
    let mut prev_vowel = false;
    for i in 0..word.len() {
        let v = is_vowel(word, i);
        if prev_vowel && !v {
            m += 1;
        }
        prev_vowel = v;
    }
    m
}

fn is_vowel(word: &[u8], i: usize) -> bool {
    match word[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => true,
        b'y' => i > 0 && !is_vowel(word, i - 1),
        _ => false,
    }
}

fn has_vowel(word: &[u8]) -> bool {
    (0..word.len()).any(|i| is_vowel(word, i))
}

fn ends_double_consonant(word: &[u8]) -> bool {
    let n = word.len();
    n >= 2 && word[n - 1] == word[n - 2] && !is_vowel(word, n - 1)
}

/// The last byte of every suffix a rule below rewrites: step 1's `s`,
/// `ed`/`eed`, `ing` and `y`, and each of [`DERIVATIONAL`]'s.
const SUFFIX_ENDS: &[u8] = b"sdgyilnt";

/// Derivational suffixes and their replacements (Porter steps 2-4,
/// abbreviated), tried in order; the first that matches is the only one
/// considered.
const DERIVATIONAL: [(&str, &str); 11] = [
    ("ational", "ate"),
    ("ization", "ize"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("iveness", "ive"),
    ("biliti", "ble"),
    ("entli", "ent"),
    ("ousli", "ous"),
    ("ement", ""),
    ("ment", ""),
    ("tional", "tion"),
];

/// Stem a lowercase ASCII word. Words shorter than 3 characters and words with
/// non-ASCII characters are returned unchanged.
pub fn stem(word: &str) -> String {
    let mut w = word.to_string();
    stem_in_place(&mut w);
    w
}

/// [`stem`] in place: what the analysis kernel runs on its token buffer.
pub(crate) fn stem_in_place(w: &mut String) {
    // A rule fires only on its suffix, so it changes a word only when the
    // last byte is in `SUFFIX_ENDS`; a word ending otherwise passes every
    // rule unchanged, each rule seeing the last byte the one before saw.
    if w.len() < 3 || !SUFFIX_ENDS.contains(&w.as_bytes()[w.len() - 1]) || !w.is_ascii() {
        return;
    }

    // Step 1a: plurals.
    if w.ends_with("sses") || w.ends_with("ies") {
        w.truncate(w.len() - 2);
    } else if w.ends_with("ss") {
        // keep
    } else if w.ends_with('s') && w.len() > 3 {
        w.pop();
    }

    // Step 1b: -eed / -ed / -ing.
    if w.ends_with("eed") {
        if measure(&w.as_bytes()[..w.len() - 3]) > 0 {
            w.pop();
        }
    } else if w.ends_with("ed") && has_vowel(&w.as_bytes()[..w.len() - 2]) {
        w.truncate(w.len() - 2);
        step1b_cleanup(w);
    } else if w.ends_with("ing") && w.len() > 4 && has_vowel(&w.as_bytes()[..w.len() - 3]) {
        w.truncate(w.len() - 3);
        step1b_cleanup(w);
    }

    // Step 1c: terminal y -> i after a vowel.
    if w.ends_with('y') && w.len() > 2 && has_vowel(&w.as_bytes()[..w.len() - 1]) {
        w.pop();
        w.push('i');
    }

    // A few common derivational suffixes (Porter steps 2-4, abbreviated).
    for (suffix, replacement) in DERIVATIONAL {
        if w.ends_with(suffix) {
            let stem_len = w.len() - suffix.len();
            if measure(&w.as_bytes()[..stem_len]) > 0 {
                w.truncate(stem_len);
                w.push_str(replacement);
            }
            break;
        }
    }
}

/// After removing -ed/-ing: restore e for at/bl/iz, or undouble consonants.
fn step1b_cleanup(w: &mut String) {
    if w.ends_with("at") || w.ends_with("bl") || w.ends_with("iz") {
        w.push('e');
    } else if ends_double_consonant(w.as_bytes())
        && !w.ends_with('l')
        && !w.ends_with('s')
        && !w.ends_with('z')
    {
        w.pop();
    } else if measure(w.as_bytes()) == 1 && ends_cvc(w.as_bytes()) {
        w.push('e');
    }
}

/// Porter's *o condition: ends consonant-vowel-consonant, last not w/x/y.
fn ends_cvc(w: &[u8]) -> bool {
    let n = w.len();
    if n < 3 {
        return false;
    }
    !is_vowel(w, n - 3)
        && is_vowel(w, n - 2)
        && !is_vowel(w, n - 1)
        && !matches!(w[n - 1], b'w' | b'x' | b'y')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plurals_conflate() {
        assert_eq!(stem("elections"), stem("election"));
        assert_eq!(stem("caresses"), "caress");
        assert_eq!(stem("ponies"), stem("poni"));
    }

    #[test]
    fn ed_ing_conflate() {
        assert_eq!(stem("played"), stem("play"));
        assert_eq!(stem("running"), "run");
        assert_eq!(stem("hopping"), "hop");
        assert_eq!(stem("agreed"), "agree");
    }

    #[test]
    fn restores_e_for_at_bl_iz() {
        assert_eq!(stem("conflated"), "conflate");
        assert_eq!(stem("troubling"), "trouble");
        assert_eq!(stem("sized"), "size");
    }

    #[test]
    fn short_words_untouched() {
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("as"), "as");
    }

    /// The early exit in `stem_in_place` is sound only while every rule's
    /// suffix ends in a byte of `SUFFIX_ENDS`.
    #[test]
    fn every_rule_suffix_ends_in_a_listed_byte() {
        let step1 = ["sses", "ies", "ss", "s", "eed", "ed", "ing", "y"];
        let derivational = DERIVATIONAL.iter().map(|(suffix, _)| *suffix);
        for suffix in step1.into_iter().chain(derivational) {
            let last = suffix.as_bytes()[suffix.len() - 1];
            assert!(
                SUFFIX_ENDS.contains(&last),
                "{suffix} ends outside SUFFIX_ENDS"
            );
        }
    }

    #[test]
    fn non_ascii_untouched() {
        assert_eq!(stem("café"), "café");
    }

    #[test]
    fn idempotent_on_common_vocabulary() {
        for w in [
            "incumbent",
            "district",
            "basketball",
            "championship",
            "refuted",
        ] {
            let once = stem(w);
            assert_eq!(stem(&once), once, "stem not idempotent for {w}");
        }
    }
}
