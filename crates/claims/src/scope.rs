//! Caption scoping of claims.
//!
//! A textual claim is implicitly scoped to the table context it mentions ("in
//! the 1959 NCAA Track and Field Championships, ..."). Whether an evidence
//! table falls inside that scope is what separates *refuted* from *not
//! related*: the paper's Figure 4 sets table E2 aside precisely "because it is
//! for the year 1959" — a scope mismatch, not a value mismatch.
//!
//! [`scope_matches`] is the formal rule shared by the ground-truth oracle and
//! the scope-aware (LLM) verifier: every token of the claim's scope must appear
//! in the evidence caption. A *vague* scope (year dropped) therefore matches
//! every table of its caption family, while an exact scope pins one year.

use verifai_lake::value::normalize_str;

/// How a claim's scope relates to an evidence table's caption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeRelation {
    /// The scope names this exact table (all caption tokens covered): the
    /// table can both verify and refute the claim.
    Exact,
    /// The scope is an under-specified (vague) form matching a whole caption
    /// family: under the existential reading of an ambiguous claim, one family
    /// member can *verify* it but a single member cannot *refute* it (some
    /// other member might still make it true).
    Partial,
    /// The caption lies outside the scope: the table is not related.
    Mismatch,
}

/// Classify the relation between a claim `scope` and a table `caption`.
pub fn scope_relation(scope: &str, caption: &str) -> ScopeRelation {
    scope_relation_normalized(&normalize_str(scope), &normalize_str(caption))
}

/// [`scope_relation`] of a scope and a caption that are already normalized
/// (a table keeps its caption that way: [`verifai_lake::Table::normalized_caption`]).
/// A caption has a handful of tokens, so each scope token is looked for by
/// walking them rather than through a set built per call.
pub fn scope_relation_normalized(scope: &str, caption: &str) -> ScopeRelation {
    if scope.is_empty() {
        return ScopeRelation::Partial;
    }
    if !scope
        .split(' ')
        .all(|t| caption.split(' ').any(|have| have == t))
    {
        return ScopeRelation::Mismatch;
    }
    if scope == caption {
        ScopeRelation::Exact
    } else {
        ScopeRelation::Partial
    }
}

/// Does an evidence table with `caption` fall inside a claim's `scope`?
///
/// True when every normalized scope token occurs in the normalized caption.
/// An empty scope matches everything (an unscoped claim constrains nothing).
pub fn scope_matches(scope: &str, caption: &str) -> bool {
    scope_relation(scope, caption) != ScopeRelation::Mismatch
}

/// Derive the vague form of a caption: the caption with standalone year tokens
/// removed. Used by the claim generator to render under-specified claims.
pub fn vague_caption(caption: &str) -> String {
    caption
        .split(' ')
        .filter(|t| !(t.len() == 4 && t.chars().all(|c| c.is_ascii_digit())))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_scope_pins_the_year() {
        let caption_59 = "1959 NCAA Track and Field Championships";
        let caption_53 = "1953 NCAA Track and Field Championships";
        assert!(scope_matches(caption_59, caption_59));
        assert!(!scope_matches(caption_59, caption_53));
    }

    #[test]
    fn vague_scope_matches_the_family() {
        let vague = vague_caption("1959 NCAA Track and Field Championships");
        assert_eq!(vague, "NCAA Track and Field Championships");
        assert!(scope_matches(
            &vague,
            "1959 NCAA Track and Field Championships"
        ));
        assert!(scope_matches(
            &vague,
            "1953 NCAA Track and Field Championships"
        ));
        assert!(!scope_matches(&vague, "1953 NCAA Swimming Championships"));
    }

    #[test]
    fn cross_domain_never_matches() {
        assert!(!scope_matches(
            "1959 NCAA Track and Field Championships",
            "List of drama films of 1959"
        ));
    }

    #[test]
    fn empty_scope_matches_everything() {
        assert!(scope_matches("", "anything at all"));
        assert_eq!(scope_relation("", "anything"), ScopeRelation::Partial);
    }

    #[test]
    fn relation_distinguishes_exact_partial_mismatch() {
        let caption = "1959 NCAA Track and Field Championships";
        assert_eq!(scope_relation(caption, caption), ScopeRelation::Exact);
        assert_eq!(
            scope_relation("NCAA Track and Field Championships", caption),
            ScopeRelation::Partial
        );
        assert_eq!(
            scope_relation("1953 NCAA Track and Field Championships", caption),
            ScopeRelation::Mismatch
        );
    }

    #[test]
    fn punctuation_and_case_insensitive() {
        assert!(scope_matches(
            "list of DRAMA films of 1960",
            "List of drama films of 1960!"
        ));
    }

    /// `scope_relation` as it was before captions came normalized: both
    /// sides normalized per call and the caption's tokens put in a set.
    fn set_scope_relation(scope: &str, caption: &str) -> ScopeRelation {
        let scope_norm = normalize_str(scope);
        if scope_norm.is_empty() {
            return ScopeRelation::Partial;
        }
        let caption_norm = normalize_str(caption);
        let caption_tokens: std::collections::HashSet<&str> = caption_norm.split(' ').collect();
        if !scope_norm.split(' ').all(|t| caption_tokens.contains(t)) {
            return ScopeRelation::Mismatch;
        }
        if scope_norm == caption_norm {
            ScopeRelation::Exact
        } else {
            ScopeRelation::Partial
        }
    }

    proptest::proptest! {
        /// Walking the caption's tokens relates every (scope, caption) pair
        /// as the per-call set did: repeated tokens, punctuation-only and
        /// empty sides, a scope longer than the caption.
        #[test]
        fn token_walk_equals_the_token_set(
            scope in "[ab1 .-]{0,10}",
            caption in "[ab1 .-]{0,10}",
        ) {
            proptest::prop_assert_eq!(
                scope_relation(&scope, &caption),
                set_scope_relation(&scope, &caption)
            );
        }
    }

    #[test]
    fn interior_years_are_stripped_only_as_whole_tokens() {
        // "12345" is not a 4-digit year; "(1959)" normalizes to a bare token.
        assert_eq!(vague_caption("route 12345 built 1959"), "route 12345 built");
    }
}
