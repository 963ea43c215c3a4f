//! Cell values.
//!
//! [`Value`] is the atomic unit stored in tuples and table cells. Values carry
//! enough typing for the claim executor (`verifai-claims`) to run aggregates and
//! comparisons, and support the *normalized equality* that verifiers use to decide
//! whether an imputed cell matches evidence ("John F. Kennedy" vs "john f kennedy").

use crate::error::LakeError;
use std::cmp::Ordering;
use std::fmt::{self, Write as _};

/// A calendar date. Only the fields needed by generated data; no timezone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Year (e.g. 1959).
    pub year: i32,
    /// Month 1-12.
    pub month: u8,
    /// Day 1-31.
    pub day: u8,
}

impl Date {
    /// Construct a date, clamping month/day into valid ranges.
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        Date {
            year,
            month: month.clamp(1, 12),
            day: day.clamp(1, 31),
        }
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Date> {
        let mut it = s.split('-');
        let year: i32 = it.next()?.parse().ok()?;
        let month: u8 = it.next()?.parse().ok()?;
        let day: u8 = it.next()?.parse().ok()?;
        if it.next().is_some() || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return None;
        }
        Some(Date { year, month, day })
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value (rendered as `NaN` in prompts, matching the paper's template).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Free text / categorical.
    Text(String),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// Build a text value.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// True if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: integers and floats (and bools as 0/1) coerce to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Text(s) => s.trim().parse::<f64>().ok(),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            Value::Bool(b) => Some(*b as i64),
            Value::Text(s) => s.trim().parse::<i64>().ok(),
            _ => None,
        }
    }

    /// Text view of non-null values.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Normalized string form: lowercase, whitespace collapsed, punctuation dropped.
    ///
    /// This is the canonical form used for cross-source value matching; numbers
    /// normalize via their numeric value so `"42"` and `42` agree.
    pub fn normalized(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Date(d) => d.to_string(),
            Value::Text(s) => normalize_str(s),
        }
    }

    /// Equality after normalization; numeric values compare numerically with a
    /// small relative tolerance so `3.0` matches `"3"`.
    pub fn matches(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        if let (Some(a), Some(b)) = (self.as_f64(), other.as_f64()) {
            return float_eq(a, b);
        }
        // Text against anything is compared as the normalized strings
        // would be, without building either: two texts stream side by side,
        // and a number, bool or date is *rendered* (not normalized — a date
        // keeps its hyphens) straight into the comparison.
        match (self, other) {
            (Value::Text(a), Value::Text(b)) => normalized_chars(a).eq(normalized_chars(b)),
            (Value::Text(text), rendered) | (rendered, Value::Text(text)) => {
                let mut rest = EqChars(normalized_chars(text));
                write!(rest, "{rendered}").is_ok() && rest.0.next().is_none()
            }
            // Two non-texts that are not both numbers: a date is involved.
            _ => self.normalized() == other.normalized(),
        }
    }

    /// Total ordering for sorting and superlative operations. `Null` sorts first;
    /// heterogeneous values compare by normalized string as a fallback.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                _ => self.normalized().cmp(&other.normalized()),
            },
        }
    }

    /// Best-effort parse of a raw string into the most specific value type.
    pub fn infer(s: &str) -> Value {
        let t = s.trim();
        if t.is_empty() || t.eq_ignore_ascii_case("nan") || t.eq_ignore_ascii_case("null") {
            return Value::Null;
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
        if t.eq_ignore_ascii_case("true") {
            return Value::Bool(true);
        }
        if t.eq_ignore_ascii_case("false") {
            return Value::Bool(false);
        }
        if let Some(d) = Date::parse(t) {
            return Value::Date(d);
        }
        Value::Text(t.to_string())
    }

    /// Strict parse into a given data type (used by CSV-style ingestion).
    pub fn parse_as(s: &str, ty: crate::table::DataType) -> Result<Value, LakeError> {
        use crate::table::DataType;
        let t = s.trim();
        if t.is_empty() || t.eq_ignore_ascii_case("nan") {
            return Ok(Value::Null);
        }
        let err = |target: &'static str| LakeError::ParseError {
            input: s.to_string(),
            target,
        };
        match ty {
            DataType::Int => t.parse::<i64>().map(Value::Int).map_err(|_| err("int")),
            DataType::Float => t.parse::<f64>().map(Value::Float).map_err(|_| err("float")),
            DataType::Bool => match t.to_ascii_lowercase().as_str() {
                "true" | "1" | "yes" => Ok(Value::Bool(true)),
                "false" | "0" | "no" => Ok(Value::Bool(false)),
                _ => Err(err("bool")),
            },
            DataType::Date => Date::parse(t).map(Value::Date).ok_or_else(|| err("date")),
            DataType::Text => Ok(Value::Text(t.to_string())),
        }
    }
}

impl fmt::Display for Value {
    /// Renders missing values as `NaN`, matching the paper's prompt template.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NaN"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{}", format_float(*x)),
            Value::Text(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

/// Render a float without trailing `.0` noise for integral values.
fn format_float(f: f64) -> String {
    if f.fract() == 0.0 && f.abs() < 1e15 {
        format!("{}", f as i64)
    } else {
        let s = format!("{f:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

/// Normalize free text: lowercase, strip punctuation, collapse whitespace.
pub fn normalize_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    normalize_onto(&mut out, s);
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Continue a normalization: append to `out` what [`normalize_str`] of
/// (the text `out` was normalized from, followed by `s`) would add. `out`
/// must not have been trimmed in between — a separator run is one space
/// whichever call it started in, and the stream's final space, if any, is
/// the caller's to drop. This is how a text held in pieces (a document's
/// title and body) is normalized in one pass without joining the pieces.
pub fn normalize_onto(out: &mut String, s: &str) {
    let mut last_space = out.is_empty() || out.ends_with(' ');
    for ch in s.chars() {
        // Evidence is overwhelmingly ASCII, where the predicate and the
        // lowercasing are range checks instead of Unicode table searches
        // (`is_ascii_alphanumeric` is false for every non-ASCII character).
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
            last_space = false;
        } else if !ch.is_ascii() && ch.is_alphanumeric() {
            for l in ch.to_lowercase() {
                out.push(l);
            }
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
}

/// The characters of [`normalize_str`]`(s)`, streamed: comparing two of
/// these decides normalized equality without allocating either string.
pub fn normalized_chars(s: &str) -> impl Iterator<Item = char> + '_ {
    let mut chars = s.chars();
    // What is still owed for the current character: the rest of a non-ASCII
    // lowercasing, or an ASCII character held back behind a gap's space.
    let mut lower: Option<std::char::ToLowercase> = None;
    let mut held: Option<char> = None;
    // `started`: an alphanumeric has been emitted; `gap`: separators have
    // been skipped since. A gap becomes one space only when another
    // alphanumeric follows, so leading and trailing separators vanish.
    let (mut started, mut gap) = (false, false);
    std::iter::from_fn(move || loop {
        if let Some(ch) = held.take() {
            return Some(ch);
        }
        if let Some(ch) = lower.as_mut().and_then(Iterator::next) {
            return Some(ch);
        }
        let ch = chars.next()?;
        if ch.is_ascii_alphanumeric() {
            started = true;
            let ch = ch.to_ascii_lowercase();
            if std::mem::take(&mut gap) {
                held = Some(ch);
                return Some(' ');
            }
            return Some(ch);
        } else if !ch.is_ascii() && ch.is_alphanumeric() {
            lower = Some(ch.to_lowercase());
            started = true;
            if std::mem::take(&mut gap) {
                return Some(' ');
            }
        } else {
            gap = started;
        }
    })
}

/// A `fmt::Write` sink that checks what is written against an expected
/// character stream instead of storing it: the write fails at the first
/// difference, and whatever the stream still holds afterwards is the
/// expected text the writer never produced.
struct EqChars<I>(I);

impl<I: Iterator<Item = char>> fmt::Write for EqChars<I> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if s.chars().all(|ch| self.0.next() == Some(ch)) {
            Ok(())
        } else {
            Err(fmt::Error)
        }
    }
}

/// What [`Value::matches`] compares of a value, reduced to a number or a
/// fingerprint: two keys settle most comparisons without touching either
/// value ([`MatchKey::decide`]), and a value's key is computed once, where
/// the value is prepared, instead of per comparison.
///
/// [`Value::matches`] compares two numeric values (see [`Value::as_f64`]) as
/// numbers and anything else as text: a text by its normalized form
/// ([`normalize_str`]), any other value by its rendering. A key holds the
/// number of a numeric value and, for every other non-null value, a hash of
/// that text form plus whether the form could be some number's text form
/// at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchKey {
    /// A null: matches nothing.
    Null,
    /// A numeric value's number.
    Number(f64),
    /// A non-numeric value's text form, hashed.
    Text {
        /// Hash of the text form. Equal forms hash equal; equal hashes
        /// prove nothing.
        fingerprint: u64,
        /// Whether the form is one a number's text form can take: only
        /// ASCII digits, `e` and spaces, or exactly `true`, `false`, `inf`,
        /// `infinity` or `nan`. A text form outside those equals the text
        /// form of no numeric value.
        numeric_form: bool,
    },
}

impl MatchKey {
    /// Bytes of [`MatchKey::encode`]: a tag, then eight payload bytes.
    pub const ENCODED_LEN: usize = 9;

    const NUMBER: u8 = 1;
    const TEXT: u8 = 2;
    const NUMERIC_FORM_TEXT: u8 = 3;

    /// The key of `value`.
    pub fn of(value: &Value) -> MatchKey {
        if value.is_null() {
            return MatchKey::Null;
        }
        if let Some(number) = value.as_f64() {
            return MatchKey::Number(number);
        }
        let mut form = TextForm::default();
        match value {
            Value::Text(text) => normalized_chars(text).for_each(|ch| form.push(ch)),
            rendered => write!(form, "{rendered}").expect("hashing a rendering cannot fail"),
        }
        MatchKey::Text {
            fingerprint: form.hash,
            numeric_form: form.numeric_form(),
        }
    }

    /// What [`Value::matches`] answers for the two values these are the
    /// keys of, when the keys alone decide it; `None` when only the values
    /// can: equal fingerprints, or a number against a text form a number
    /// could take. Symmetric.
    pub fn decide(self, other: MatchKey) -> Option<bool> {
        use MatchKey::*;
        match (self, other) {
            (Null, _) | (_, Null) => Some(false),
            (Number(a), Number(b)) => Some(float_eq(a, b)),
            (Number(_), Text { numeric_form, .. }) | (Text { numeric_form, .. }, Number(_)) => {
                (!numeric_form).then_some(false)
            }
            (Text { fingerprint: a, .. }, Text { fingerprint: b, .. }) => (a != b).then_some(false),
        }
    }

    /// [`Value::matches`]`(a, b)` for values whose keys are `ka` and `kb`:
    /// the keys' answer where they have one, the values' otherwise.
    pub fn matches(a: &Value, ka: MatchKey, b: &Value, kb: MatchKey) -> bool {
        ka.decide(kb).unwrap_or_else(|| a.matches(b))
    }

    /// Append the key of a non-null value as [`MatchKey::ENCODED_LEN`]
    /// bytes; a null appends nothing (whoever decodes knows which cells are
    /// null).
    pub fn encode(self, out: &mut Vec<u8>) {
        let (tag, payload) = match self {
            MatchKey::Null => return,
            MatchKey::Number(number) => (Self::NUMBER, number.to_bits()),
            MatchKey::Text {
                fingerprint,
                numeric_form,
            } => (
                if numeric_form {
                    Self::NUMERIC_FORM_TEXT
                } else {
                    Self::TEXT
                },
                fingerprint,
            ),
        };
        out.push(tag);
        out.extend_from_slice(&payload.to_le_bytes());
    }

    /// The key [`MatchKey::encode`] wrote into `bytes`.
    pub fn decode(bytes: &[u8; Self::ENCODED_LEN]) -> MatchKey {
        let payload = u64::from_le_bytes(bytes[1..].try_into().expect("eight payload bytes"));
        match bytes[0] {
            Self::NUMBER => MatchKey::Number(f64::from_bits(payload)),
            tag => MatchKey::Text {
                fingerprint: payload,
                numeric_form: tag == Self::NUMERIC_FORM_TEXT,
            },
        }
    }
}

/// A text form streamed into its [`MatchKey`] fingerprint (FNV-1a over the
/// characters) while noting which numeric text forms it could still be.
struct TextForm {
    hash: u64,
    chars: usize,
    /// Only ASCII digits, `e` and spaces so far.
    digits_e_spaces: bool,
    /// The form so far, lowercase ASCII, while it is short enough to be one
    /// of the words a number renders or parses as.
    word: [u8; 8],
}

impl Default for TextForm {
    fn default() -> Self {
        TextForm {
            hash: 0xcbf2_9ce4_8422_2325,
            chars: 0,
            digits_e_spaces: true,
            word: [0; 8],
        }
    }
}

impl TextForm {
    fn push(&mut self, ch: char) {
        self.hash = (self.hash ^ u64::from(ch)).wrapping_mul(0x0000_0100_0000_01b3);
        self.digits_e_spaces &= ch.is_ascii_digit() || ch == 'e' || ch == ' ';
        if let Some(slot) = self.word.get_mut(self.chars) {
            *slot = if ch.is_ascii() { ch as u8 } else { 0xff };
        }
        self.chars += 1;
    }

    fn numeric_form(&self) -> bool {
        const WORDS: [&[u8]; 5] = [b"true", b"false", b"inf", b"infinity", b"nan"];
        self.digits_e_spaces
            || (self.chars <= self.word.len() && WORDS.contains(&&self.word[..self.chars]))
    }
}

impl fmt::Write for TextForm {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        s.chars().for_each(|ch| self.push(ch));
        Ok(())
    }
}

/// Relative-tolerance float comparison used by value matching.
pub fn float_eq(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-9 * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::DataType;

    #[test]
    fn date_roundtrip() {
        let d = Date::new(1959, 7, 4);
        assert_eq!(Date::parse(&d.to_string()), Some(d));
        assert_eq!(Date::parse("1959-13-04"), None);
        assert_eq!(Date::parse("not-a-date"), None);
    }

    #[test]
    fn date_clamps() {
        let d = Date::new(2000, 0, 99);
        assert_eq!(d.month, 1);
        assert_eq!(d.day, 31);
    }

    #[test]
    fn null_renders_as_nan() {
        // The paper's prompt template uses `NaN` for missing cells.
        assert_eq!(Value::Null.to_string(), "NaN");
    }

    #[test]
    fn infer_types() {
        assert_eq!(Value::infer("42"), Value::Int(42));
        assert_eq!(Value::infer("4.5"), Value::Float(4.5));
        assert_eq!(Value::infer("true"), Value::Bool(true));
        assert_eq!(Value::infer("NaN"), Value::Null);
        assert_eq!(Value::infer(""), Value::Null);
        assert_eq!(
            Value::infer("1959-01-02"),
            Value::Date(Date::new(1959, 1, 2))
        );
        assert_eq!(Value::infer(" Meagan Good "), Value::text("Meagan Good"));
    }

    #[test]
    fn normalized_matching_ignores_case_and_punctuation() {
        let a = Value::text("John F. Kennedy");
        let b = Value::text("john f kennedy");
        assert!(a.matches(&b));
        assert!(!a.matches(&Value::text("Richard Nixon")));
    }

    #[test]
    fn numeric_matching_crosses_types() {
        assert!(Value::Int(3).matches(&Value::Float(3.0)));
        assert!(Value::Int(3).matches(&Value::text("3")));
        assert!(!Value::Int(3).matches(&Value::Int(4)));
    }

    #[test]
    fn null_never_matches() {
        assert!(!Value::Null.matches(&Value::Null));
        assert!(!Value::Null.matches(&Value::Int(0)));
    }

    #[test]
    fn total_cmp_orders_numbers_and_nulls() {
        let mut vals = [
            Value::Int(5),
            Value::Null,
            Value::Float(2.5),
            Value::Int(-1),
            Value::Null,
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null() && vals[1].is_null());
        assert_eq!(vals[2], Value::Int(-1));
        assert_eq!(vals[4], Value::Int(5));
    }

    #[test]
    fn parse_as_strict() {
        assert_eq!(Value::parse_as("7", DataType::Int).unwrap(), Value::Int(7));
        assert!(Value::parse_as("seven", DataType::Int).is_err());
        assert_eq!(Value::parse_as("nan", DataType::Int).unwrap(), Value::Null);
        assert_eq!(
            Value::parse_as("yes", DataType::Bool).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn float_display_trims() {
        assert_eq!(Value::Float(3.0).to_string(), "3");
        assert_eq!(Value::Float(3.25).to_string(), "3.25");
    }

    #[test]
    fn normalize_str_collapses() {
        assert_eq!(normalize_str("  Stomp -- the   Yard! "), "stomp the yard");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// `normalize_str` as it was before the ASCII branch: every character
    /// through the Unicode predicates, one at a time.
    fn oracle_normalize_str(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut last_space = true;
        for ch in s.chars() {
            if ch.is_alphanumeric() {
                for l in ch.to_lowercase() {
                    out.push(l);
                }
                last_space = false;
            } else if !last_space {
                out.push(' ');
                last_space = true;
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out
    }

    /// `Value::matches` as it was before mixed pairs stopped building two
    /// strings: numbers numerically, everything else by normalized string.
    fn oracle_matches(a: &Value, b: &Value) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
            return float_eq(x, y);
        }
        let normalized = |v: &Value| match v {
            Value::Text(s) => oracle_normalize_str(s),
            other => other.normalized(),
        };
        normalized(a) == normalized(b)
    }

    /// Text built to stress the normalizer: arbitrary Unicode, separator
    /// runs at either end and inside, ASCII words, characters whose
    /// lowercasing is several characters (`İ`, `ẞ`) or a different script's
    /// title case (`ǅ`), `ß`, combining marks, non-ASCII digits.
    fn arb_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                ".{0,6}",
                "[ .,;:!?_-]{0,4}",
                "[a-zA-Z0-9]{0,5}",
                Just("İ".to_string()),
                Just("ẞǅß".to_string()),
                Just("e\u{301}a\u{308}".to_string()),
                Just("٣४５".to_string()),
                Just(String::new()),
            ],
            0..8,
        )
        .prop_map(|parts| parts.concat())
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            (-1_000_000i64..1_000_000).prop_map(Value::Int),
            (-1.0e6..1.0e6f64).prop_map(Value::Float),
            "[a-zA-Z0-9 .,-]{0,24}".prop_map(Value::Text),
            ((1900i32..2100), (1u8..13), (1u8..29))
                .prop_map(|(y, m, d)| Value::Date(Date::new(y, m, d))),
        ]
    }

    /// [`arb_value`] plus the texts a mixed comparison can be fooled by:
    /// renderings of the other variants (bare, punctuated, upper-cased) and
    /// stress text.
    fn arb_mixed_value() -> impl Strategy<Value = Value> {
        let rendered = (arb_value(), 0u8..4).prop_map(|(v, style)| {
            let s = v.to_string();
            Value::Text(match style {
                0 => s,
                1 => format!("({s})"),
                2 => s.to_uppercase(),
                _ => s.replace('-', " "),
            })
        });
        prop_oneof![arb_value(), rendered, arb_text().prop_map(Value::Text)]
    }

    /// [`arb_mixed_value`] plus what match keys must not be fooled by:
    /// numbers written as text with spaces, signs and exponents, the words
    /// a number parses or renders as, numbers with punctuation around them,
    /// large and non-finite floats.
    fn arb_keyed_value() -> impl Strategy<Value = Value> {
        let numeric_text = prop_oneof![
            (-1000i64..1000).prop_map(|i| format!(" {i} ")),
            (-1000i64..1000).prop_map(|i| format!("({i})")),
            (-100.0..100.0f64).prop_map(|f| format!("{f:.2}")),
            (0i64..100).prop_map(|i| format!("{i}e2")),
            Just("1.5E-3".to_string()),
            Just("4 2".to_string()),
            Just("42.".to_string()),
            Just("#42".to_string()),
        ];
        let words = prop_oneof![
            Just("true"),
            Just("False!"),
            Just("inf"),
            Just("-Infinity"),
            Just("inf."),
            Just("NaN"),
            Just("nan?"),
            Just("e"),
            Just("Ünïcode Naïve"),
            Just(""),
            Just("..."),
        ]
        .prop_map(str::to_string);
        prop_oneof![
            arb_mixed_value(),
            numeric_text.prop_map(Value::Text),
            words.prop_map(Value::Text),
            prop_oneof![
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::NAN),
                Just(1e15),
                Just(4200.0),
                Just(-0.0),
                Just(0.00001),
            ]
            .prop_map(Value::Float),
            (0i64..100).prop_map(Value::Int),
        ]
    }

    proptest! {
        /// Matching is symmetric.
        #[test]
        fn matches_is_symmetric(a in arb_value(), b in arb_value()) {
            prop_assert_eq!(a.matches(&b), b.matches(&a));
        }

        /// Every non-null value matches itself.
        #[test]
        fn matches_is_reflexive_for_non_null(a in arb_value()) {
            if !a.is_null() {
                prop_assert!(a.matches(&a), "{a:?} does not match itself");
            }
        }

        /// Normalization is idempotent.
        #[test]
        fn normalize_idempotent(s in ".{0,40}") {
            let once = normalize_str(&s);
            prop_assert_eq!(normalize_str(&once), once.clone());
        }

        /// Two texts match exactly when their normalized strings are equal
        /// (and, like every pair, when both parse to close numbers).
        #[test]
        fn text_matching_equals_normalized_string_equality(
            a in "[a-zA-Z0-9İ .,-]{0,12}",
            b in "[a-zA-Z0-9İ .,-]{0,12}",
        ) {
            let (va, vb) = (Value::text(a.clone()), Value::text(b.clone()));
            let want = match (va.as_f64(), vb.as_f64()) {
                (Some(x), Some(y)) => float_eq(x, y),
                _ => normalize_str(&a) == normalize_str(&b),
            };
            prop_assert_eq!(va.matches(&vb), want);
        }

        /// Display → infer round-trips to a matching value up to display
        /// precision (floats render with 4 decimals by design). Null is
        /// excluded (it never matches), as is text that merely *looks*
        /// numeric/boolean/date, which legitimately re-infers as the more
        /// specific type.
        #[test]
        fn display_infer_roundtrip(a in arb_value()) {
            if a.is_null() {
                return Ok(());
            }
            if let Value::Text(t) = &a {
                let trimmed = t.trim();
                if trimmed.is_empty() || !matches!(Value::infer(trimmed), Value::Text(_)) {
                    return Ok(());
                }
            }
            let round = Value::infer(&a.to_string());
            match (a.as_f64(), round.as_f64()) {
                (Some(x), Some(y)) => {
                    let scale = x.abs().max(1.0);
                    prop_assert!(
                        (x - y).abs() <= 1e-4 * scale,
                        "display lost more than display precision: {a:?} -> {round:?}"
                    );
                }
                _ => prop_assert!(a.matches(&round), "{a:?} -> {round:?}"),
            }
        }

        /// total_cmp is a total order: antisymmetric against the reverse.
        #[test]
        fn total_cmp_antisymmetric(a in arb_value(), b in arb_value()) {
            prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `normalize_str`, the streamed `normalized_chars` and a
        /// `normalize_onto` continued across an arbitrary split all produce
        /// the char-by-char reference's output.
        #[test]
        fn normalizers_equal_the_char_by_char_reference(s in arb_text(), split in 0usize..64) {
            let want = oracle_normalize_str(&s);
            prop_assert_eq!(&normalize_str(&s), &want);
            let streamed: String = normalized_chars(&s).collect();
            prop_assert_eq!(&streamed, &want);
            let mut at = split.min(s.len());
            while !s.is_char_boundary(at) {
                at -= 1;
            }
            let mut pieces = String::new();
            normalize_onto(&mut pieces, &s[..at]);
            normalize_onto(&mut pieces, &s[at..]);
            prop_assert_eq!(pieces.trim_end_matches(' '), want.as_str());
        }

        /// Keys answer what the values answer: for every pair, the keys'
        /// decision (where they reach one) and `MatchKey::matches` equal
        /// `Value::matches`, and an encoded key decodes to itself. Pairs
        /// cover nulls, ints, floats and bools, numeric text with spaces and
        /// signs, text with case, punctuation and non-ASCII, dates, the words
        /// a number parses or renders as, and text against a rendered number.
        #[test]
        fn match_keys_answer_what_matches_answers(
            a in arb_keyed_value(),
            b in arb_keyed_value(),
        ) {
            let (ka, kb) = (MatchKey::of(&a), MatchKey::of(&b));
            let want = a.matches(&b);
            if let Some(decided) = ka.decide(kb) {
                prop_assert_eq!(decided, want, "{:?} vs {:?}: keys {:?} {:?}", a, b, ka, kb);
            }
            prop_assert_eq!(ka.decide(kb), kb.decide(ka));
            prop_assert_eq!(MatchKey::matches(&a, ka, &b, kb), want);
            let mut encoded = Vec::new();
            ka.encode(&mut encoded);
            match ka {
                MatchKey::Null => prop_assert!(encoded.is_empty()),
                key => {
                    let bytes: &[u8; MatchKey::ENCODED_LEN] =
                        encoded.as_slice().try_into().expect("one encoded key");
                    let decoded = MatchKey::decode(bytes);
                    // NaN keys compare unequal to themselves: compare bits.
                    prop_assert_eq!(format!("{decoded:?}"), format!("{key:?}"));
                }
            }
        }

        /// Matching is what it was: over every pair of variants, including
        /// text that parses as a number, as a date, as a bool, and
        /// non-ASCII text.
        #[test]
        fn matches_equals_the_normalized_string_oracle(
            a in arb_mixed_value(),
            b in arb_mixed_value(),
        ) {
            prop_assert_eq!(a.matches(&b), oracle_matches(&a, &b), "{:?} vs {:?}", a, b);
        }
    }
}
