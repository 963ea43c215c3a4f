//! Prompt templates and chat transcripts.
//!
//! Renders the two prompt templates from the paper (§4) verbatim: the tuple
//! completion prompt and the verification prompt. Transcripts are attached to
//! provenance records so a human can audit exactly what the "model" saw —
//! challenge C4.

use verifai_lake::Table;

/// One side of a chat exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The framework prompting the model.
    User,
    /// The model's reply.
    Assistant,
}

/// One message in a transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChatMessage {
    /// Who produced the message.
    pub role: Role,
    /// Message text.
    pub content: String,
}

/// A full prompt/response exchange.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Transcript {
    /// Messages in order.
    pub messages: Vec<ChatMessage>,
}

impl Transcript {
    /// Append a user prompt.
    pub fn user(&mut self, content: impl Into<String>) {
        self.messages.push(ChatMessage {
            role: Role::User,
            content: content.into(),
        });
    }

    /// Append a model reply.
    pub fn assistant(&mut self, content: impl Into<String>) {
        self.messages.push(ChatMessage {
            role: Role::Assistant,
            content: content.into(),
        });
    }
}

/// Render the paper's tuple-completion prompt:
///
/// ```text
/// Question:
/// <table name>
/// column 1 | column 2 | ... | column n
/// a1 | NaN | ... | z1
/// Please fill the missing values, annotated by NaN
/// ```
pub fn tuple_completion_prompt(table: &Table) -> String {
    let mut s = String::from("Question:\n");
    s.push_str(table.caption());
    s.push('\n');
    let headers: Vec<&str> = table.schema.names().collect();
    s.push_str(&headers.join(" | "));
    s.push('\n');
    for row in table.rows() {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        s.push_str(&cells.join(" | "));
        s.push('\n');
    }
    s.push_str("Please fill the missing values, annotated by NaN");
    s
}

/// Render the paper's verification prompt:
///
/// ```text
/// Please use the evidence below to validate the generative data.
/// Evidence: [Use the retrieved tuple/table/text]
/// Generative Data: [Data object to be verified]
/// Result: Verified/Refuted/Not Related + Further explanation
/// ```
pub fn verification_prompt(evidence: &str, generative_data: &str) -> String {
    format!(
        "Please use the evidence below to validate the generative data.\n\
         Evidence: {evidence}\n\
         Generative Data: {generative_data}\n\
         Result: Verified/Refuted/Not Related + Further explanation"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_lake::{Column, DataType, Schema, Value};

    #[test]
    fn completion_prompt_shows_nan_and_instruction() {
        let mut t = Table::new(
            0,
            "US House elections",
            Schema::new(vec![
                Column::key("district", DataType::Text),
                Column::new("incumbent", DataType::Text),
            ]),
            0,
        );
        t.push_row(vec![Value::text("NY-1"), Value::Null]).unwrap();
        let p = tuple_completion_prompt(&t);
        assert!(p.starts_with("Question:\nUS House elections\ndistrict | incumbent\n"));
        assert!(p.contains("NY-1 | NaN"));
        assert!(p.ends_with("Please fill the missing values, annotated by NaN"));
    }

    #[test]
    fn verification_prompt_shape() {
        let p = verification_prompt("a tuple", "a claim");
        assert!(p.starts_with("Please use the evidence below"));
        assert!(p.contains("Evidence: a tuple"));
        assert!(p.contains("Generative Data: a claim"));
        assert!(p.ends_with("Result: Verified/Refuted/Not Related + Further explanation"));
    }

    #[test]
    fn transcript_roundtrip() {
        let mut t = Transcript::default();
        t.user("hello");
        t.assistant("hi");
        assert_eq!(t.messages.len(), 2);
        assert_eq!(t.messages[0].role, Role::User);
        assert_eq!(t.messages[1].content, "hi");
    }
}
