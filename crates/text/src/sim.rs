//! String and set similarity measures.
//!
//! These are the task-agnostic measures the coarse retrieval layer and the local
//! verifiers rely on. All return values are in `[0, 1]` with 1 = identical.

use std::collections::{HashMap, HashSet};

/// Levenshtein edit distance (chars).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Single-row DP.
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            let val = (prev + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev = row[j + 1];
            row[j + 1] = val;
        }
    }
    row[b.len()]
}

/// Normalized Levenshtein similarity: `1 - dist / max_len`.
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max as f64
}

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches = 0usize;
    let mut a_matched = Vec::with_capacity(a.len());
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                a_matched.push((i, j));
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Transpositions: matched pairs out of order.
    let b_seq: Vec<usize> = a_matched.iter().map(|&(_, j)| j).collect();
    let sorted = {
        let mut s = b_seq.clone();
        s.sort_unstable();
        s
    };
    let transpositions = b_seq
        .iter()
        .zip(sorted.iter())
        .filter(|(x, y)| x != y)
        .count();
    let t = transpositions as f64 / 2.0;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity with the standard prefix boost (p = 0.1, l ≤ 4).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Jaccard similarity of two term sets.
pub fn jaccard<S: std::hash::BuildHasher>(a: &HashSet<String, S>, b: &HashSet<String, S>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = (a.len() + b.len()) as f64 - inter;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// Jaccard over slices of terms (converted to sets).
pub fn jaccard_terms(a: &[String], b: &[String]) -> f64 {
    let sa: HashSet<String> = a.iter().cloned().collect();
    let sb: HashSet<String> = b.iter().cloned().collect();
    jaccard(&sa, &sb)
}

/// Containment: fraction of `query` terms present in `target`. Asymmetric —
/// useful when the query is short and the target long (tuple vs document).
pub fn containment(query: &[String], target: &[String]) -> f64 {
    if query.is_empty() {
        return 0.0;
    }
    let t: HashSet<&str> = target.iter().map(|s| s.as_str()).collect();
    let hit = query.iter().filter(|q| t.contains(q.as_str())).count();
    hit as f64 / query.len() as f64
}

/// A set of interned term ids ([`crate::Interner`]), stored sorted: 4 bytes per
/// term, membership by binary search. Built once per evidence instance and
/// probed by every later query ([`containment_in`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TermSet(Box<[u32]>);

impl TermSet {
    /// The set of the given ids (duplicates collapse).
    pub fn new(mut ids: Vec<u32>) -> TermSet {
        ids.sort_unstable();
        ids.dedup();
        TermSet(ids.into_boxed_slice())
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: u32) -> bool {
        self.0.binary_search(&id).is_ok()
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the set holds no term.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// [`containment`] against a prepared [`TermSet`]: the fraction of `query`
/// terms that are members of `target`. `query` holds one entry per query term
/// occurrence; `None` is a term the interner has never seen, which therefore
/// cannot be in any prepared set. Equals `containment` over the same terms.
pub fn containment_in(query: &[Option<u32>], target: &TermSet) -> f64 {
    if query.is_empty() {
        return 0.0;
    }
    let hit = query
        .iter()
        .filter(|q| q.is_some_and(|id| target.contains(id)))
        .count();
    hit as f64 / query.len() as f64
}

/// Cosine similarity between term-frequency maps.
pub fn tf_cosine<S: std::hash::BuildHasher>(
    a: &HashMap<String, u32, S>,
    b: &HashMap<String, u32, S>,
) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut dot = 0.0;
    for (term, &fa) in small {
        if let Some(&fb) = large.get(term) {
            dot += fa as f64 * fb as f64;
        }
    }
    let na: f64 = a.values().map(|&f| (f as f64).powi(2)).sum::<f64>().sqrt();
    let nb: f64 = b.values().map(|&f| (f as f64).powi(2)).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
    }

    #[test]
    fn levenshtein_sim_bounds() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("abc", "abc"), 1.0);
        assert_eq!(levenshtein_sim("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_known_values() {
        // Classic textbook pair.
        let jw = jaro_winkler("MARTHA", "MARHTA");
        assert!((jw - 0.9611).abs() < 0.001, "got {jw}");
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
    }

    #[test]
    fn jaro_winkler_prefers_shared_prefix() {
        assert!(jaro_winkler("incumbent", "incumbant") > jaro_winkler("incumbent", "tnebmucni"));
    }

    #[test]
    fn jaccard_and_containment() {
        let a: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let b: Vec<String> = ["b", "c", "d"].iter().map(|s| s.to_string()).collect();
        assert!((jaccard_terms(&a, &b) - 0.5).abs() < 1e-12);
        assert!((containment(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(containment(&[], &b), 0.0);
    }

    #[test]
    fn containment_in_a_prepared_set_equals_containment_over_strings() {
        let terms =
            |words: &[&str]| -> Vec<String> { words.iter().map(|s| s.to_string()).collect() };
        let target = terms(&["brown", "kansas", "point", "kansas"]);
        let query = terms(&["brown", "point", "point", "ohio", "unseen"]);
        let mut interner = crate::Interner::new();
        let target_ids = target.iter().map(|t| interner.intern(t).0).collect();
        interner.intern("ohio");
        let query_ids: Vec<Option<u32>> = query.iter().map(|t| interner.get(t)).collect();
        let set = TermSet::new(target_ids);
        assert_eq!(set.len(), 3);
        assert_eq!(
            containment_in(&query_ids, &set),
            containment(&query, &target)
        );
        assert_eq!(containment_in(&[], &set), 0.0);
        assert_eq!(containment_in(&query_ids, &TermSet::default()), 0.0);
    }

    #[test]
    fn cosine_identical_and_disjoint() {
        let mut a = HashMap::new();
        a.insert("x".to_string(), 2u32);
        a.insert("y".to_string(), 1u32);
        assert!((tf_cosine(&a, &a) - 1.0).abs() < 1e-12);
        let mut b = HashMap::new();
        b.insert("z".to_string(), 5u32);
        assert_eq!(tf_cosine(&a, &b), 0.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn levenshtein_symmetric(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn levenshtein_triangle(a in "[a-z]{0,8}", b in "[a-z]{0,8}", c in "[a-z]{0,8}") {
            prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        }

        #[test]
        fn jaro_winkler_in_unit_interval(a in ".{0,16}", b in ".{0,16}") {
            let s = jaro_winkler(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn identity_similarities(a in "[a-z ]{0,20}") {
            prop_assert!((levenshtein_sim(&a, &a) - 1.0).abs() < 1e-12);
            prop_assert!((jaro_winkler(&a, &a) - 1.0).abs() < 1e-12 || a.is_empty());
        }
    }
}
