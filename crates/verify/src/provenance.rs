//! Provenance of the verification process (challenge C4).
//!
//! "It is important to store the lineage of the end-to-end verification
//! process, in case the retrieved data from data lakes is flawed or incomplete,
//! or the verification process itself makes mistakes. This allows for later
//! human checks or debugging." Every pipeline stage appends a
//! [`ProvenanceRecord`]; [`ProvenanceLog::report`] renders a human-auditable
//! trace per generated object.
//!
//! ## Sinks and the flush discipline
//!
//! Under concurrent batch verification the log is shared, so writes go
//! through a [`ProvenanceSink`]. The hot path never locks per record:
//! each pipeline call buffers records in a local [`StageRecorder`] and
//! flushes to the sink **once per stage per object** (retrieval, rerank,
//! verify, decision) — one lock acquisition each, instead of one per
//! retrieval hit. [`SharedProvenance`] is the standard sink (a locked
//! [`ProvenanceLog`] plus a batch counter that makes the lock discipline
//! observable); [`NullSink`] discards records for provenance-free runs.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};
use verifai_lake::InstanceId;
use verifai_llm::Verdict;

/// Which pipeline stage produced a record.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// A coarse index retrieved an instance.
    Retrieval {
        /// Index name (e.g. `bm25`, `hnsw`).
        index: String,
        /// Rank within that index's result list (0-based).
        rank: usize,
    },
    /// The Combiner fused and deduplicated index results.
    Combine,
    /// A reranker re-scored an instance.
    Rerank {
        /// Reranker name.
        reranker: String,
        /// Rank after reranking (0-based).
        rank: usize,
    },
    /// A verifier judged the pair.
    Verify {
        /// Verifier name.
        verifier: String,
    },
    /// The trust model made the final decision.
    Decision,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Retrieval { index, rank } => write!(f, "retrieval[{index}]#{rank}"),
            Stage::Combine => write!(f, "combine"),
            Stage::Rerank { reranker, rank } => write!(f, "rerank[{reranker}]#{rank}"),
            Stage::Verify { verifier } => write!(f, "verify[{verifier}]"),
            Stage::Decision => write!(f, "decision"),
        }
    }
}

/// One lineage entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceRecord {
    /// The generated object this entry concerns.
    pub object_id: u64,
    /// Producing stage.
    pub stage: Stage,
    /// The evidence instance involved, when applicable.
    pub instance: Option<InstanceId>,
    /// Stage-specific score (retrieval/rerank score, decision confidence).
    pub score: Option<f64>,
    /// Verdict, for verify/decision stages.
    pub verdict: Option<Verdict>,
    /// Free-text note (e.g. the verifier's explanation).
    pub note: String,
}

/// A maximal run of consecutive records that share an object and a stage
/// label and whose ranks (if the stage has one) count up by one — in
/// practice, one modality's hit list or one stage's flush for one object.
#[derive(Debug, Clone)]
struct Run {
    object_id: u64,
    /// Index of the run's first row.
    first_row: usize,
    /// Stage variant and its label, as indices into [`ProvenanceLog::labels`].
    stage: StageKey,
    /// Rank of the first row (0 for stages without ranks).
    first_rank: usize,
}

/// A [`Stage`] without its rank: variant plus interned label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageKey {
    Retrieval(u32),
    Combine,
    Rerank(u32),
    Verify(u32),
    Decision,
}

// Row flag bits: which optional fields a row carries.
const KIND_MASK: u8 = 0b0000_0111; // 0 = no instance, else 1 + kind
const VERDICT_SHIFT: u8 = 3;
const VERDICT_MASK: u8 = 0b0011_1000; // 0 = no verdict, else 1 + verdict
const HAS_SCORE: u8 = 0b0100_0000;
const HAS_NOTE: u8 = 0b1000_0000;

/// Append-only lineage store.
///
/// A verify request leaves ~90 records behind, most of them one coarse
/// retrieval hit each, and the log keeps every one — so what a record costs
/// in memory is what a request costs for as long as the process lives.
/// Records are therefore stored column-wise, 17 bytes per row: what a run of
/// consecutive records shares (object, stage, label, the rank sequence) is
/// stored once per run, labels are interned, and the rare non-empty note
/// is copied into one shared text buffer. [`ProvenanceRecord`] stays the exchange type on
/// both sides: records go in through [`ProvenanceLog::add`] and come back
/// out of [`ProvenanceLog::records`] / [`ProvenanceLog::for_object`] equal
/// to what went in.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceLog {
    runs: Vec<Run>,
    /// Per row: the instance's raw id (0 when absent).
    instance: Vec<u64>,
    /// Per row: the score (0.0 when absent).
    score: Vec<f64>,
    /// Per row: instance kind, verdict, and presence bits.
    flags: Vec<u8>,
    /// Rows with a non-empty note, in row order, each with the end of its
    /// note in `note_text` (it starts where the previous one ends).
    notes: Vec<(usize, usize)>,
    /// Every note, back to back. Copying a note in here and letting the
    /// record's own `String` go means a request's allocations are all
    /// returned when it ends; keeping the `String`s instead leaves one
    /// long-lived chunk per note scattered through the heap, which slowed
    /// every later allocation in the process (a cached verify by 20 %).
    note_text: String,
    /// Interned stage labels (index names, reranker names, verifier names).
    labels: Vec<Box<str>>,
}

impl ProvenanceLog {
    /// Empty log.
    pub fn new() -> ProvenanceLog {
        ProvenanceLog::default()
    }

    fn label(&mut self, label: &str) -> u32 {
        // A handful of distinct labels ever exist; a scan beats a map.
        let found = self.labels.iter().position(|l| &**l == label);
        let index = found.unwrap_or_else(|| {
            self.labels.push(label.into());
            self.labels.len() - 1
        });
        u32::try_from(index).expect("fewer than 2^32 stage labels")
    }

    /// Append a record.
    pub fn add(&mut self, record: ProvenanceRecord) {
        let row = self.flags.len();
        let (stage, rank) = match &record.stage {
            Stage::Retrieval { index, rank } => (StageKey::Retrieval(self.label(index)), *rank),
            Stage::Combine => (StageKey::Combine, 0),
            Stage::Rerank { reranker, rank } => (StageKey::Rerank(self.label(reranker)), *rank),
            Stage::Verify { verifier } => (StageKey::Verify(self.label(verifier)), 0),
            Stage::Decision => (StageKey::Decision, 0),
        };
        let ranked = matches!(stage, StageKey::Retrieval(_) | StageKey::Rerank(_));
        let continues = self.runs.last().is_some_and(|run| {
            run.object_id == record.object_id
                && run.stage == stage
                && (!ranked || run.first_rank + (row - run.first_row) == rank)
        });
        if !continues {
            self.runs.push(Run {
                object_id: record.object_id,
                first_row: row,
                stage,
                first_rank: rank,
            });
        }
        let mut flags = 0u8;
        let mut raw_id = 0u64;
        if let Some(instance) = record.instance {
            let (kind, id) = match instance {
                InstanceId::Tuple(id) => (0, id),
                InstanceId::Table(id) => (1, id),
                InstanceId::Text(id) => (2, id),
                InstanceId::Kg(id) => (3, id),
            };
            flags |= kind + 1;
            raw_id = id;
        }
        if let Some(verdict) = record.verdict {
            let code = match verdict {
                Verdict::Verified => 0,
                Verdict::Refuted => 1,
                Verdict::NotRelated => 2,
                Verdict::Unknown => 3,
            };
            flags |= (code + 1) << VERDICT_SHIFT;
        }
        if record.score.is_some() {
            flags |= HAS_SCORE;
        }
        if !record.note.is_empty() {
            flags |= HAS_NOTE;
            self.note_text.push_str(&record.note);
            self.notes.push((row, self.note_text.len()));
        }
        self.instance.push(raw_id);
        self.score.push(record.score.unwrap_or(0.0));
        self.flags.push(flags);
    }

    /// Append a batch of records, preserving their order.
    pub fn add_all(&mut self, records: impl IntoIterator<Item = ProvenanceRecord>) {
        for record in records {
            self.add(record);
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Rebuild the records of run `index`, appending them to `out`.
    fn decode_run(&self, index: usize, out: &mut Vec<ProvenanceRecord>) {
        let run = &self.runs[index];
        let end = self
            .runs
            .get(index + 1)
            .map_or(self.flags.len(), |next| next.first_row);
        let label = |l: u32| self.labels[l as usize].to_string();
        for row in run.first_row..end {
            let rank = run.first_rank + (row - run.first_row);
            let flags = self.flags[row];
            let raw_id = self.instance[row];
            out.push(ProvenanceRecord {
                object_id: run.object_id,
                stage: match run.stage {
                    StageKey::Retrieval(l) => Stage::Retrieval {
                        index: label(l),
                        rank,
                    },
                    StageKey::Combine => Stage::Combine,
                    StageKey::Rerank(l) => Stage::Rerank {
                        reranker: label(l),
                        rank,
                    },
                    StageKey::Verify(l) => Stage::Verify { verifier: label(l) },
                    StageKey::Decision => Stage::Decision,
                },
                instance: match flags & KIND_MASK {
                    0 => None,
                    1 => Some(InstanceId::Tuple(raw_id)),
                    2 => Some(InstanceId::Table(raw_id)),
                    3 => Some(InstanceId::Text(raw_id)),
                    _ => Some(InstanceId::Kg(raw_id)),
                },
                score: (flags & HAS_SCORE != 0).then(|| self.score[row]),
                verdict: match (flags & VERDICT_MASK) >> VERDICT_SHIFT {
                    0 => None,
                    1 => Some(Verdict::Verified),
                    2 => Some(Verdict::Refuted),
                    3 => Some(Verdict::NotRelated),
                    _ => Some(Verdict::Unknown),
                },
                note: if flags & HAS_NOTE != 0 {
                    let at = self
                        .notes
                        .binary_search_by_key(&row, |(r, _)| *r)
                        .expect("a row flagged HAS_NOTE has a note");
                    let start = at.checked_sub(1).map_or(0, |prev| self.notes[prev].1);
                    self.note_text[start..self.notes[at].1].to_string()
                } else {
                    String::new()
                },
            });
        }
    }

    /// All records, in insertion order.
    pub fn records(&self) -> Vec<ProvenanceRecord> {
        let mut out = Vec::with_capacity(self.len());
        for run in 0..self.runs.len() {
            self.decode_run(run, &mut out);
        }
        out
    }

    /// Records concerning one generated object, in pipeline order.
    pub fn for_object(&self, object_id: u64) -> Vec<ProvenanceRecord> {
        let mut out = Vec::new();
        for (index, run) in self.runs.iter().enumerate() {
            if run.object_id == object_id {
                self.decode_run(index, &mut out);
            }
        }
        out
    }

    /// Render a human-auditable report for one object.
    pub fn report(&self, object_id: u64) -> String {
        let mut out = format!("provenance for object {object_id}:\n");
        for r in self.for_object(object_id) {
            out.push_str("  ");
            out.push_str(&r.stage.to_string());
            if let Some(i) = r.instance {
                out.push_str(&format!(" {i}"));
            }
            if let Some(s) = r.score {
                out.push_str(&format!(" score={s:.4}"));
            }
            if let Some(v) = r.verdict {
                out.push_str(&format!(" verdict={v}"));
            }
            if !r.note.is_empty() {
                out.push_str(" — ");
                out.push_str(&r.note);
            }
            out.push('\n');
        }
        out
    }
}

/// Destination for provenance records produced by pipeline stages.
///
/// The contract is batch-oriented: one [`ProvenanceSink::append_batch`]
/// call covers everything one stage produced for one object, and costs the
/// sink at most one synchronization (lock acquisition, channel send, ...).
/// Implementations must tolerate concurrent callers.
pub trait ProvenanceSink: Send + Sync {
    /// Append a stage's records, draining `records` (the buffer is reused
    /// by the caller). An empty batch must be a no-op that acquires
    /// nothing and is not counted.
    fn append_batch(&self, records: &mut Vec<ProvenanceRecord>);

    /// Number of non-empty batches appended so far — the lock-acquisition
    /// count for lock-based sinks, used to verify the flush discipline.
    fn batches(&self) -> u64;
}

/// The standard sink: a shared, locked [`ProvenanceLog`] with an atomic
/// batch counter.
#[derive(Debug, Default)]
pub struct SharedProvenance {
    log: Mutex<ProvenanceLog>,
    batches: AtomicU64,
}

impl SharedProvenance {
    /// An empty shared log.
    pub fn new() -> SharedProvenance {
        SharedProvenance::default()
    }

    /// Lock the underlying log for reading (reports, per-object queries).
    /// Drop the guard before running verification again.
    pub fn lock(&self) -> MutexGuard<'_, ProvenanceLog> {
        self.log.lock()
    }
}

impl ProvenanceSink for SharedProvenance {
    fn append_batch(&self, records: &mut Vec<ProvenanceRecord>) {
        if records.is_empty() {
            return;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.log.lock().add_all(records.drain(..));
    }

    fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }
}

/// A sink that discards every record — for benchmarks and callers that
/// opt out of lineage entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ProvenanceSink for NullSink {
    fn append_batch(&self, records: &mut Vec<ProvenanceRecord>) {
        records.clear();
    }

    fn batches(&self) -> u64 {
        0
    }
}

/// Per-call buffering recorder: appends records locally and flushes to the
/// shared sink once per stage.
///
/// One recorder lives for one pipeline call (one object); it is not shared
/// across threads, so [`StageRecorder::record`] is contention-free. Any
/// records still buffered when the recorder drops are flushed as a final
/// batch, so early returns cannot lose lineage.
pub struct StageRecorder<'a> {
    sink: &'a dyn ProvenanceSink,
    buffer: Vec<ProvenanceRecord>,
}

impl<'a> StageRecorder<'a> {
    /// A recorder flushing into `sink`.
    pub fn new(sink: &'a dyn ProvenanceSink) -> StageRecorder<'a> {
        StageRecorder {
            sink,
            buffer: Vec::new(),
        }
    }

    /// Buffer one record locally (no synchronization).
    pub fn record(&mut self, record: ProvenanceRecord) {
        self.buffer.push(record);
    }

    /// Records buffered since the last flush.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// Flush the current stage's records to the sink in one batch. A no-op
    /// when nothing is buffered.
    pub fn flush_stage(&mut self) {
        self.sink.append_batch(&mut self.buffer);
    }
}

impl Drop for StageRecorder<'_> {
    fn drop(&mut self) {
        self.flush_stage();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(object_id: u64, stage: Stage) -> ProvenanceRecord {
        ProvenanceRecord {
            object_id,
            stage,
            instance: None,
            score: None,
            verdict: None,
            note: String::new(),
        }
    }

    #[test]
    fn records_filtered_per_object() {
        let mut log = ProvenanceLog::new();
        log.add(record(1, Stage::Combine));
        log.add(record(2, Stage::Combine));
        log.add(ProvenanceRecord {
            object_id: 1,
            stage: Stage::Verify {
                verifier: "pasta".into(),
            },
            instance: Some(InstanceId::Table(9)),
            score: None,
            verdict: Some(Verdict::Refuted),
            note: "count mismatch".into(),
        });
        assert_eq!(log.for_object(1).len(), 2);
        assert_eq!(log.for_object(2).len(), 1);
        assert_eq!(log.len(), 3);
    }

    /// The columnar store is lossless: whatever sequence of records goes in
    /// — ranks that count up, restart or jump, objects and stages
    /// interleaved, every optional field present or absent — comes back out
    /// equal and in order, both whole and per object.
    #[test]
    fn columnar_storage_round_trips_every_record() {
        // Deterministic pseudo-random field choices (xorshift).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let labels = ["fused-tuple", "fused-text", "composite", "chatgpt-sim"];
        let mut records = Vec::new();
        let mut rank = 0usize;
        for _ in 0..2000 {
            rank = match next(4) {
                0 => 0,
                1 => next(500) as usize,
                _ => rank + 1,
            };
            let label = labels[next(4) as usize].to_string();
            let stage = match next(6) {
                0 | 1 => Stage::Retrieval { index: label, rank },
                2 => Stage::Rerank {
                    reranker: label,
                    rank,
                },
                3 => Stage::Verify { verifier: label },
                4 => Stage::Combine,
                _ => Stage::Decision,
            };
            let id = next(u64::MAX);
            records.push(ProvenanceRecord {
                object_id: next(3),
                stage,
                instance: match next(5) {
                    0 => None,
                    1 => Some(InstanceId::Tuple(id)),
                    2 => Some(InstanceId::Table(id)),
                    3 => Some(InstanceId::Text(id)),
                    _ => Some(InstanceId::Kg(id)),
                },
                score: (next(3) > 0).then(|| next(1000) as f64 / 7.0 - 20.0),
                verdict: match next(5) {
                    0 => None,
                    1 => Some(Verdict::Verified),
                    2 => Some(Verdict::Refuted),
                    3 => Some(Verdict::NotRelated),
                    _ => Some(Verdict::Unknown),
                },
                note: if next(4) == 0 {
                    format!("note {}", next(100))
                } else {
                    String::new()
                },
            });
        }
        let mut log = ProvenanceLog::new();
        log.add_all(records[..700].iter().cloned());
        for record in &records[700..] {
            log.add(record.clone());
        }
        assert_eq!(log.len(), records.len());
        assert_eq!(log.records(), records);
        for object_id in 0..3 {
            let want: Vec<ProvenanceRecord> = records
                .iter()
                .filter(|r| r.object_id == object_id)
                .cloned()
                .collect();
            assert_eq!(log.for_object(object_id), want);
        }
        assert!(log.for_object(99).is_empty());
    }

    #[test]
    fn report_is_readable() {
        let mut log = ProvenanceLog::new();
        log.add(ProvenanceRecord {
            object_id: 7,
            stage: Stage::Retrieval {
                index: "bm25".into(),
                rank: 0,
            },
            instance: Some(InstanceId::Text(3)),
            score: Some(12.5),
            verdict: None,
            note: String::new(),
        });
        log.add(ProvenanceRecord {
            object_id: 7,
            stage: Stage::Verify {
                verifier: "chatgpt-sim".into(),
            },
            instance: Some(InstanceId::Text(3)),
            score: None,
            verdict: Some(Verdict::Verified),
            note: "the text states the fact".into(),
        });
        let report = log.report(7);
        assert!(report.contains("retrieval[bm25]#0 text:3 score=12.5000"));
        assert!(report
            .contains("verify[chatgpt-sim] text:3 verdict=Verified — the text states the fact"));
    }

    #[test]
    fn recorder_flushes_once_per_stage() {
        let sink = SharedProvenance::new();
        let mut rec = StageRecorder::new(&sink);
        rec.record(record(1, Stage::Combine));
        rec.record(record(1, Stage::Combine));
        assert_eq!(rec.pending(), 2);
        rec.flush_stage();
        assert_eq!(rec.pending(), 0);
        rec.record(record(1, Stage::Decision));
        rec.flush_stage();
        // Two stages, two records + one record: exactly two batches.
        assert_eq!(sink.batches(), 2);
        assert_eq!(sink.lock().len(), 3);
    }

    #[test]
    fn empty_flush_is_not_a_batch() {
        let sink = SharedProvenance::new();
        let mut rec = StageRecorder::new(&sink);
        rec.flush_stage();
        rec.flush_stage();
        drop(rec);
        assert_eq!(sink.batches(), 0);
        assert!(sink.lock().is_empty());
    }

    #[test]
    fn drop_flushes_pending_records() {
        let sink = SharedProvenance::new();
        {
            let mut rec = StageRecorder::new(&sink);
            rec.record(record(9, Stage::Decision));
            // No explicit flush: dropping the recorder must not lose it.
        }
        assert_eq!(sink.batches(), 1);
        assert_eq!(sink.lock().for_object(9).len(), 1);
    }

    #[test]
    fn null_sink_discards() {
        let sink = NullSink;
        let mut rec = StageRecorder::new(&sink);
        rec.record(record(1, Stage::Combine));
        rec.flush_stage();
        assert_eq!(rec.pending(), 0);
        assert_eq!(sink.batches(), 0);
    }

    #[test]
    fn stage_display_variants() {
        assert_eq!(Stage::Combine.to_string(), "combine");
        assert_eq!(Stage::Decision.to_string(), "decision");
        assert_eq!(
            Stage::Rerank {
                reranker: "colbert".into(),
                rank: 2
            }
            .to_string(),
            "rerank[colbert]#2"
        );
    }
}
