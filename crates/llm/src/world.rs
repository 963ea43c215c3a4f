//! The world model behind the simulated LLM.
//!
//! A real LLM's parametric knowledge is a lossy compression of its training
//! corpus. [`WorldModel`] makes that explicit: a ground-truth fact store
//! `(entity, attribute) → value` plus per-attribute value domains. The model
//! layer ([`crate::SimLlm`]) consults it through a corruption channel — each
//! fact is consistently known-correct or known-wrong depending on a seeded hash,
//! so repeated queries behave like a frozen checkpoint.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use verifai_lake::value::{normalize_str, normalized_chars};
use verifai_lake::Value;

/// Key for a fact: normalized entity and attribute names.
fn fact_key(entity: &str, attribute: &str) -> (String, String) {
    (normalize_str(entity), normalize_str(attribute))
}

/// Ground-truth fact store with per-attribute domains.
#[derive(Debug, Default, Clone)]
pub struct WorldModel {
    facts: HashMap<(String, String), Value>,
    /// Distinct values seen per attribute — the space of plausible wrong
    /// answers the corrupted model samples from.
    domains: HashMap<String, Domain>,
}

/// One attribute's distinct values in first-seen order, indexed so that
/// "which of them [`Value::matches`] this value" is a lookup, not a scan.
///
/// `matches` compares two numbers (ints, floats, bools, numeric texts) by
/// value within `float_eq`'s relative tolerance, and any other pair by
/// normalized form ([`Value::normalized`]: a text's `normalize_str`, the
/// rendering of anything else — which is how `"3!"` matches `Int(3)` and
/// `"TRUE"` matches `Bool(true)`). The index holds one map per rule, and a
/// lookup takes from each map only the pairs that rule decides, so every
/// matching value is found exactly once; candidates are then confirmed
/// with `matches` itself.
#[derive(Debug, Default, Clone)]
struct Domain {
    values: Vec<Value>,
    /// Every value, by a hash of its normalized form.
    by_form: HashMap<u64, Vec<u32>>,
    /// Finite numeric values, by number (see [`number_key`]). Values of a
    /// domain never match each other, so no two share a number.
    by_number: BTreeMap<u64, u32>,
    /// Numeric values that are infinite or NaN. An infinity is within the
    /// tolerance of every finite number, so these are candidates for any
    /// numeric lookup.
    non_finite: Vec<u32>,
}

impl Domain {
    /// Add `value` unless a value already in the domain matches it.
    fn insert(&mut self, value: Value) {
        if self.matching(&value).next().is_some() {
            return;
        }
        let at = u32::try_from(self.values.len()).expect("domain fits u32 positions");
        self.by_form.entry(form_hash(&value)).or_default().push(at);
        match value.as_f64() {
            Some(x) if x.is_finite() => {
                self.by_number.insert(number_key(x), at);
            }
            Some(_) => self.non_finite.push(at),
            None => {}
        }
        self.values.push(value);
    }

    /// Positions of the domain values that match `value`, each once, in no
    /// particular order.
    fn matching<'a>(&'a self, value: &'a Value) -> impl Iterator<Item = usize> + 'a {
        let number = if value.is_null() {
            None
        } else {
            value.as_f64()
        };
        // Two numbers match by value: a finite number within twice the
        // tolerance of `x` (a superset of `float_eq`'s), a non-finite one
        // anywhere.
        let by_number = number.into_iter().flat_map(move |x| {
            let (low, high) = if x.is_finite() {
                let radius = 2e-9 * x.abs().max(1.0);
                (number_key(x - radius), number_key(x + radius))
            } else {
                (0, u64::MAX)
            };
            let finite = self.by_number.range(low..=high).map(|(_, &at)| at);
            finite.chain(self.non_finite.iter().copied())
        });
        // Every other pair matches by form; for a numeric `value`, the
        // numeric values of its form bucket are the lookup above's.
        let form = (!value.is_null()).then(|| self.by_form.get(&form_hash(value)));
        let by_form = form
            .flatten()
            .into_iter()
            .flatten()
            .copied()
            .filter(move |&at| number.is_none() || self.values[at as usize].as_f64().is_none());
        by_number
            .chain(by_form)
            .map(|at| at as usize)
            .filter(move |&at| self.values[at].matches(value))
    }

    /// The `pick`-th (modulo their count) value that does not match `not`,
    /// found without collecting the alternatives: the position `p` of the
    /// `k`-th non-match is the least `p` with `p = k + |matches at or
    /// before p|`, reached by iterating that count up from `p = k` — one
    /// pass per match below the answer, and matches are few.
    fn pick_other(&self, not: &Value, pick: u64) -> Option<&Value> {
        let alternatives = self.values.len() - self.matching(not).count();
        if alternatives == 0 {
            return None;
        }
        let k = (pick % alternatives as u64) as usize;
        let mut p = k;
        loop {
            let next = k + self.matching(not).filter(|&at| at <= p).count();
            if next == p {
                return Some(&self.values[p]);
            }
            p = next;
        }
    }
}

/// An order-preserving `u64` image of a finite `f64`: flip every bit of a
/// negative number and the sign bit of any other.
fn number_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Hash of [`Value::normalized`], streamed: a text's normalized characters,
/// or the rendering of anything else, fed to the hasher one character at a
/// time without building the string.
fn form_hash(value: &Value) -> u64 {
    struct Sink(DefaultHasher);
    impl fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            s.chars().for_each(|ch| self.0.write_u32(ch as u32));
            Ok(())
        }
    }
    let mut sink = Sink(DefaultHasher::new());
    match value {
        Value::Text(text) => normalized_chars(text).for_each(|ch| sink.0.write_u32(ch as u32)),
        rendered => {
            let _ = write!(sink, "{rendered}");
        }
    }
    sink.0.finish()
}

impl WorldModel {
    /// Empty world.
    pub fn new() -> WorldModel {
        WorldModel::default()
    }

    /// Record a fact. Later inserts overwrite earlier ones (facts are assumed
    /// functional: one value per (entity, attribute)). The value joins the
    /// attribute's domain unless a value already there matches it.
    pub fn add_fact(&mut self, entity: &str, attribute: &str, value: Value) {
        if value.is_null() {
            return;
        }
        let domain = self.domains.entry(normalize_str(attribute)).or_default();
        domain.insert(value.clone());
        self.facts.insert(fact_key(entity, attribute), value);
    }

    /// The true value of a fact, if the world knows it.
    pub fn truth(&self, entity: &str, attribute: &str) -> Option<&Value> {
        self.facts.get(&fact_key(entity, attribute))
    }

    /// Number of stored facts.
    pub fn num_facts(&self) -> usize {
        self.facts.len()
    }

    /// A plausible *wrong* value for an attribute: the `pick`-th domain value
    /// that differs from `not` (modulo their count). Falls back to a literal
    /// fabrication when the domain has no alternative.
    pub fn plausible_wrong(&self, attribute: &str, not: &Value, pick: u64) -> Value {
        let domain = self.domains.get(&normalize_str(attribute));
        if let Some(other) = domain.and_then(|d| d.pick_other(not, pick)) {
            return other.clone();
        }
        // Fabricate: numeric values drift, text values get a hallucinated name.
        match not.as_f64() {
            Some(x) => Value::Float(x + 1.0 + (pick % 7) as f64),
            None => Value::text(format!("Unknown Entity {}", pick % 97)),
        }
    }

    /// An attribute's domain: its distinct values in the order they were
    /// first recorded (empty for an unknown attribute).
    pub fn domain(&self, attribute: &str) -> &[Value] {
        self.domains
            .get(&normalize_str(attribute))
            .map_or(&[], |d| d.values.as_slice())
    }

    /// Iterate every domain as (normalized attribute, values in first-seen
    /// order) — used by diagnostics.
    pub fn domains(&self) -> impl Iterator<Item = (&str, &[Value])> {
        self.domains
            .iter()
            .map(|(attribute, d)| (attribute.as_str(), d.values.as_slice()))
    }

    /// Iterate all facts (normalized keys) — used by diagnostics.
    pub fn facts(&self) -> impl Iterator<Item = (&(String, String), &Value)> {
        self.facts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_are_normalized_and_functional() {
        let mut w = WorldModel::new();
        w.add_fact("Otis G. Pike", "Incumbent Party", Value::text("Democratic"));
        assert_eq!(
            w.truth("otis g pike", "incumbent party"),
            Some(&Value::text("Democratic"))
        );
        w.add_fact("Otis G. Pike", "Incumbent Party", Value::text("Republican"));
        assert_eq!(
            w.truth("Otis G. Pike", "Incumbent Party"),
            Some(&Value::text("Republican"))
        );
        assert_eq!(w.num_facts(), 1);
    }

    #[test]
    fn null_facts_ignored() {
        let mut w = WorldModel::new();
        w.add_fact("x", "y", Value::Null);
        assert_eq!(w.num_facts(), 0);
    }

    #[test]
    fn plausible_wrong_differs_from_truth() {
        let mut w = WorldModel::new();
        w.add_fact("a", "party", Value::text("Democratic"));
        w.add_fact("b", "party", Value::text("Republican"));
        w.add_fact("c", "party", Value::text("Independent"));
        for pick in 0..10 {
            let wrong = w.plausible_wrong("party", &Value::text("Democratic"), pick);
            assert!(
                !wrong.matches(&Value::text("Democratic")),
                "pick {pick}: {wrong:?}"
            );
        }
    }

    #[test]
    fn plausible_wrong_fabricates_when_domain_is_singleton() {
        let mut w = WorldModel::new();
        w.add_fact("a", "score", Value::Int(30));
        let wrong = w.plausible_wrong("score", &Value::Int(30), 3);
        assert!(!wrong.matches(&Value::Int(30)));
        // Fabricated numeric drift stays numeric.
        assert!(wrong.as_f64().is_some());
    }

    #[test]
    fn unknown_attribute_still_fabricates() {
        let w = WorldModel::new();
        let wrong = w.plausible_wrong("nonexistent", &Value::text("x"), 0);
        assert!(!wrong.matches(&Value::text("x")));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use verifai_lake::Date;

    /// `Domain::insert` as it was before the index: scan for a match.
    fn oracle_insert(domain: &mut Vec<Value>, value: Value) {
        if !domain.iter().any(|v| v.matches(&value)) {
            domain.push(value);
        }
    }

    /// `plausible_wrong`'s pick as it was before the index: collect the
    /// alternatives, then index them.
    fn oracle_pick(domain: &[Value], not: &Value, pick: u64) -> Option<Value> {
        let alternatives: Vec<&Value> = domain.iter().filter(|v| !v.matches(not)).collect();
        (!alternatives.is_empty())
            .then(|| alternatives[(pick % alternatives.len() as u64) as usize].clone())
    }

    /// Values chosen to meet each other under every rule of `matches`:
    /// ints, floats just inside and just outside the relative tolerance
    /// (near zero, at ordinary and at large magnitudes), non-finite
    /// numbers, numeric texts, texts that normalize to a number's or a
    /// bool's rendering, dates, bools and plain texts.
    fn arb_value() -> impl Strategy<Value = Value> {
        let base = prop_oneof![
            (-3i64..12).prop_map(|n| n as f64),
            Just(0.5),
            Just(2.99999),
            Just(1e12),
            Just(-7e15),
            Just(3e20),
        ];
        let rel = prop_oneof![
            Just(0.0),
            Just(4e-10),
            Just(-9.9e-10),
            Just(1.01e-9),
            Just(-1.01e-9),
            Just(3e-9),
            Just(0.25),
        ];
        prop_oneof![
            (-3i64..12).prop_map(Value::Int),
            (base, rel).prop_map(|(b, r)| Value::Float(b + r * b.abs().max(1.0))),
            prop_oneof![Just(1e-10), Just(-1e-10), Just(1.5e-9), Just(f64::EPSILON)]
                .prop_map(Value::Float),
            prop_oneof![
                Just(Value::Float(f64::INFINITY)),
                Just(Value::Float(f64::NEG_INFINITY)),
                Just(Value::Float(f64::NAN)),
                Just(Value::text("inf")),
                Just(Value::text("NaN")),
                Just(Value::text("inf!")),
            ],
            (0i64..12, 0usize..4).prop_map(|(n, shape)| Value::text(match shape {
                0 => format!("{n}"),
                1 => format!(" {n} "),
                2 => format!("{n}.0"),
                _ => format!("{n}e0"),
            })),
            (0i64..12, 0usize..3).prop_map(|(n, shape)| Value::text(match shape {
                0 => format!("{n}!"),
                1 => format!("#{n}"),
                _ => format!("({n})"),
            })),
            prop_oneof![
                Just(Value::text("True!")),
                Just(Value::text("FALSE")),
                Just(Value::text("2000 01 02")),
                Just(Value::text("2000-01-02!")),
                Just(Value::text("3 0")),
            ],
            (1u8..4).prop_map(|d| Value::Date(Date::new(2000, 1, d))),
            any::<bool>().prop_map(Value::Bool),
            prop_oneof![
                Just("Democratic"),
                Just("democratic!"),
                Just("Republican"),
                Just("  REPUBLICAN "),
            ]
            .prop_map(Value::text),
        ]
    }

    /// `Value` has no total equality (NaN); compare renderings of the
    /// variants instead.
    fn same(a: &[Value], b: &[Value]) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn indexed_domain_equals_linear_scan(
            facts in proptest::collection::vec((0usize..2, arb_value()), 0..60),
            queries in proptest::collection::vec((arb_value(), any::<u64>()), 1..12),
        ) {
            let attributes = ["Points", "party"];
            let mut world = WorldModel::new();
            let mut oracle: [Vec<Value>; 2] = Default::default();
            for (i, (attribute, value)) in facts.into_iter().enumerate() {
                world.add_fact(&format!("e{i}"), attributes[attribute], value.clone());
                oracle_insert(&mut oracle[attribute], value);
            }
            for (attribute, expected) in attributes.iter().zip(&oracle) {
                prop_assert!(same(world.domain(attribute), expected));
                let Some(domain) = world.domains.get(&normalize_str(attribute)) else {
                    prop_assert!(expected.is_empty());
                    continue;
                };
                for (not, pick) in queries.iter().chain([(Value::Null, 5)].iter()) {
                    let mut found: Vec<usize> = domain.matching(not).collect();
                    found.sort_unstable();
                    let scanned: Vec<usize> =
                        (0..expected.len()).filter(|&i| expected[i].matches(not)).collect();
                    prop_assert_eq!(found, scanned, "matches of {:?}", not);
                    let picked = domain.pick_other(not, *pick).cloned();
                    let old = oracle_pick(expected, not, *pick);
                    prop_assert!(same(picked.as_slice(), old.as_slice()), "pick for {:?}", not);
                }
            }
        }
    }
}
