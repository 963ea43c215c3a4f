//! Text documents.
//!
//! The paper's lake contains ~13.8k text files obtained by resolving entity links
//! in table cells to their Wikipedia pages. [`TextDocument`] mirrors that: a title
//! (the entity), a body, and the set of entity mentions, which the workload
//! generator tracks so that relevance judgments ("the text files about entities
//! present in a tuple are relevant evidence", §4) are available by construction.
//!
//! A document also keeps its text the way the verifier reads it — normalized,
//! with its sentence ends marked ([`NormalizedText`]). That form is a function
//! of the title and body alone, so it is built whenever they are written (at
//! construction and by [`crate::DataLake::update_doc`]) and never on a read.

use std::sync::Arc;

use crate::source::SourceId;
use crate::value::normalize_onto;

/// Lake-wide text-document identifier.
pub type DocId = u64;

/// A text document (e.g. the Wikipedia-style page of an entity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextDocument {
    /// Lake-wide identifier.
    pub id: DocId,
    /// Title — typically the primary entity the document is about.
    title: String,
    /// Body text.
    body: String,
    /// Title, `". "` and body, normalized once when they were written —
    /// shared, not copied, by every clone of the document (a resolved
    /// copy reads the lake's preparation).
    normalized: Arc<NormalizedText>,
    /// Names of entities mentioned in the body (ground-truth annotation used for
    /// relevance evaluation, not visible to retrieval).
    pub entities: Vec<String>,
    /// Source that contributed this document.
    pub source: SourceId,
}

impl TextDocument {
    /// Create a document.
    pub fn new(
        id: DocId,
        title: impl Into<String>,
        body: impl Into<String>,
        source: SourceId,
    ) -> TextDocument {
        let mut doc = TextDocument {
            id,
            title: String::new(),
            body: String::new(),
            normalized: Arc::default(),
            entities: Vec::new(),
            source,
        };
        doc.set_text(title, body);
        doc
    }

    /// Attach entity annotations.
    pub fn with_entities(mut self, entities: Vec<String>) -> TextDocument {
        self.entities = entities;
        self
    }

    /// Title — typically the primary entity the document is about.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Body text.
    pub fn body(&self) -> &str {
        &self.body
    }

    /// Replace the title and body, preparing their normalized form. The
    /// lake keeps that form for as long as the document lives, so it is
    /// held at its length, without growth slack.
    pub(crate) fn set_text(&mut self, title: impl Into<String>, body: impl Into<String>) {
        self.title = title.into();
        self.body = body.into();
        let mut normalized = NormalizedText::default();
        normalized.read(&[&self.title, ". ", &self.body]);
        normalized.text.shrink_to_fit();
        normalized.cuts.shrink_to_fit();
        self.normalized = Arc::new(normalized);
    }

    /// [`TextDocument::full_text`], normalized, with its sentence ends — as
    /// prepared when the text was last written.
    pub fn normalized(&self) -> &NormalizedText {
        &self.normalized
    }

    /// Title and body joined — the form the Indexer ingests.
    pub fn full_text(&self) -> String {
        let mut s = String::with_capacity(self.title.len() + 2 + self.body.len());
        s.push_str(&self.title);
        s.push_str(". ");
        s.push_str(&self.body);
        s
    }

    /// Whether the document is annotated as being about / mentioning `entity`
    /// (normalized comparison).
    pub fn mentions(&self, entity: &str) -> bool {
        let want = crate::value::normalize_str(entity);
        if want.is_empty() {
            return false;
        }
        crate::value::normalize_str(&self.title) == want
            || self
                .entities
                .iter()
                .any(|e| crate::value::normalize_str(e) == want)
    }
}

/// One normalization pass over a text, kept with the places its sentences
/// end: `text` is [`crate::value::normalize_str`] of the source (plus at most
/// one trailing space) and `cuts` holds, for every `.` of the source, how much
/// of `text` had been written when it was met. A `.` is a separator like any
/// other and lowercasing is per character, so the source's sentence between
/// two dots, normalized on its own, is exactly the slice of `text` between
/// their cuts with the spaces at its ends dropped — a reader finds sentences
/// in the buffer the whole-text checks run on instead of normalizing each
/// one again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NormalizedText {
    text: String,
    cuts: Vec<u32>,
}

impl NormalizedText {
    /// Normalize `pieces`, read as one text, in place of whatever was here
    /// (reusing the buffers).
    pub fn read(&mut self, pieces: &[&str]) {
        self.text.clear();
        self.cuts.clear();
        // Normalizing ASCII never lengthens a text.
        self.text.reserve(pieces.iter().map(|p| p.len()).sum());
        for piece in pieces {
            for (i, sentence) in piece.split('.').enumerate() {
                if i > 0 {
                    let cut = u32::try_from(self.text.len()).expect("a text under 4 GiB");
                    self.cuts.push(cut);
                    normalize_onto(&mut self.text, ".");
                }
                normalize_onto(&mut self.text, sentence);
            }
        }
    }

    /// The whole normalized text, without a trailing space.
    fn text(&self) -> &str {
        self.text.trim_end_matches(' ')
    }

    /// Whether the whole normalized text contains `needle` (already
    /// normalized). A needle may span a `.`, so this is not per sentence.
    pub fn contains(&self, needle: &str) -> bool {
        self.text().contains(needle)
    }

    /// The normalized sentences, in order, each without spaces at its ends.
    pub fn sentences(&self) -> impl Iterator<Item = &str> {
        let ends = self.cuts.iter().map(|&cut| cut as usize);
        ends.chain([self.text.len()]).scan(0, |start, end| {
            let sentence = &self.text[*start..end];
            *start = end;
            Some(sentence.trim_matches(' '))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::normalize_str;

    #[test]
    fn full_text_joins_title_and_body() {
        let d = TextDocument::new(1, "Meagan Good", "Meagan Good is an American actress.", 0);
        assert!(d.full_text().starts_with("Meagan Good. "));
    }

    #[test]
    fn mentions_checks_title_and_annotations() {
        let d = TextDocument::new(1, "Stomp the Yard", "A 2007 dance drama film.", 0)
            .with_entities(vec!["Columbus Short".into()]);
        assert!(d.mentions("stomp the yard"));
        assert!(d.mentions("Columbus Short"));
        assert!(!d.mentions("Meagan Good"));
        assert!(!d.mentions(""));
    }

    #[test]
    fn clones_share_the_prepared_text() {
        let d = TextDocument::new(1, "Otis Pike", "A politician.", 0);
        let copy = d.clone();
        assert!(std::ptr::eq(d.normalized(), copy.normalized()));
    }

    #[test]
    fn sentences_are_the_dot_separated_pieces_normalized() {
        let d = TextDocument::new(
            1,
            "New York 1",
            "It is a district.  The Incumbent is Otis Pike.",
            0,
        );
        let n = d.normalized();
        assert_eq!(n.text(), normalize_str(&d.full_text()));
        let sentences: Vec<&str> = n.sentences().collect();
        assert_eq!(
            sentences,
            [
                "new york 1",
                "it is a district",
                "the incumbent is otis pike",
                ""
            ]
        );
        let want: Vec<String> = d.full_text().split('.').map(normalize_str).collect();
        assert_eq!(sentences, want);
    }
}
