//! Evaluation metrics (paper §4).

use verifai_lake::InstanceId;
use verifai_llm::Verdict;

/// Running accuracy counter.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accuracy {
    /// Correct decisions.
    pub correct: usize,
    /// Total decisions.
    pub total: usize,
}

impl Accuracy {
    /// Record one decision.
    pub fn record(&mut self, correct: bool) {
        self.total += 1;
        if correct {
            self.correct += 1;
        }
    }

    /// The accuracy value (0 when nothing recorded).
    pub fn value(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: Accuracy) {
        self.correct += other.correct;
        self.total += other.total;
    }
}

impl std::fmt::Display for Accuracy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ({}/{})", self.value(), self.correct, self.total)
    }
}

/// Recall@k over one query: 1 if any relevant id appears in the top-k
/// retrieved, else 0. The paper evaluates retrieval "using only the recall
/// metric" because each query has very few relevant instances.
pub fn recall_at_k(retrieved: &[InstanceId], relevant: &[InstanceId], k: usize) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    let hit = retrieved.iter().take(k).any(|id| relevant.contains(id));
    if hit {
        1.0
    } else {
        0.0
    }
}

/// The paper's Verifier-correctness rule (§4, "Evaluation Metric for
/// Verifier"): a decision is correct when
///
/// 1. the evidence supports the object and the verifier says verified;
/// 2. the evidence refutes it and the verifier says refuted;
/// 3. the evidence is unrelated and the verifier says not-related — **or**,
///    for binary verifiers like PASTA that can only answer true/false,
///    "refuted" also counts as correct in this case.
pub fn paper_correct(expected: Verdict, actual: Verdict, binary_verifier: bool) -> bool {
    if expected == actual {
        return true;
    }
    binary_verifier && expected == Verdict::NotRelated && actual == Verdict::Refuted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts() {
        let mut a = Accuracy::default();
        a.record(true);
        a.record(false);
        a.record(true);
        assert_eq!(a.value(), 2.0 / 3.0);
        assert_eq!(a.to_string(), "0.67 (2/3)");
        let mut b = Accuracy::default();
        b.record(true);
        a.merge(b);
        assert_eq!(a.correct, 3);
        assert_eq!(a.total, 4);
    }

    #[test]
    fn empty_accuracy_is_zero() {
        assert_eq!(Accuracy::default().value(), 0.0);
    }

    #[test]
    fn recall_basic() {
        let retrieved = vec![
            InstanceId::Tuple(5),
            InstanceId::Tuple(9),
            InstanceId::Tuple(1),
        ];
        let relevant = vec![InstanceId::Tuple(9)];
        assert_eq!(recall_at_k(&retrieved, &relevant, 3), 1.0);
        assert_eq!(recall_at_k(&retrieved, &relevant, 1), 0.0);
        assert_eq!(recall_at_k(&retrieved, &[], 3), 0.0);
    }

    #[test]
    fn paper_rule_case3_binary() {
        use Verdict::*;
        // Ternary verifier must say NotRelated.
        assert!(paper_correct(NotRelated, NotRelated, false));
        assert!(!paper_correct(NotRelated, Refuted, false));
        // Binary verifier gets credit for Refuted on unrelated evidence.
        assert!(paper_correct(NotRelated, Refuted, true));
        assert!(!paper_correct(NotRelated, Verified, true));
        // Cases 1-2 are strict for everyone.
        assert!(paper_correct(Verified, Verified, true));
        assert!(!paper_correct(Verified, Refuted, true));
        assert!(!paper_correct(Refuted, Verified, false));
    }
}
