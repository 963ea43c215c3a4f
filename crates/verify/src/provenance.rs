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

use std::collections::HashMap;
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use verifai_lake::InstanceId;
use verifai_llm::Verdict;

/// Which pipeline stage produced a record.
///
/// The labels are shared strings: a stage builds its label once and every
/// record it emits holds a reference, so building a record allocates
/// nothing (the log interns labels on arrival either way).
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// A coarse index retrieved an instance.
    Retrieval {
        /// Index name (e.g. `bm25`, `hnsw`).
        index: Arc<str>,
        /// Rank within that index's result list (0-based).
        rank: usize,
    },
    /// The Combiner fused and deduplicated index results.
    Combine,
    /// A reranker re-scored an instance.
    Rerank {
        /// Reranker name.
        reranker: Arc<str>,
        /// Rank after reranking (0-based).
        rank: usize,
    },
    /// A verifier judged the pair.
    Verify {
        /// Verifier name.
        verifier: Arc<str>,
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
    pub note: Note,
}

/// The free-text note of a lineage row: text of the row's own (empty for a
/// row without a note, which allocates nothing), or text shared with
/// another holder — a verdict's explanation is the report's and its verify
/// row's note at once, one allocation for both. Reads as a `str`; two notes
/// are equal when their texts are.
#[derive(Clone)]
pub enum Note {
    /// Text of the row's own.
    Owned(String),
    /// Text shared with whoever else holds it.
    Shared(Arc<str>),
}

impl Default for Note {
    fn default() -> Note {
        Note::Owned(String::new())
    }
}

impl std::ops::Deref for Note {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            Note::Owned(text) => text,
            Note::Shared(text) => text,
        }
    }
}

impl PartialEq for Note {
    fn eq(&self, other: &Note) -> bool {
        **self == **other
    }
}

impl PartialEq<&str> for Note {
    fn eq(&self, other: &&str) -> bool {
        &**self == *other
    }
}

impl fmt::Debug for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl From<String> for Note {
    fn from(text: String) -> Note {
        Note::Owned(text)
    }
}

impl From<&str> for Note {
    fn from(text: &str) -> Note {
        Note::Owned(text.to_string())
    }
}

/// A maximal run of consecutive records of one batch that share an object
/// and a stage label and whose ranks (if the stage has one) count up by one
/// — in practice, one modality's hit list or one stage's flush for one
/// object. A run knows how many rows and how many noted rows it covers, not
/// where they start: every reader walks the runs in order anyway, so the
/// starts are running sums and a run is 32 bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Run {
    object_id: u64,
    /// Stage variant and its label, as indices into [`ProvenanceLog::labels`].
    stage: StageKey,
    /// Rank of the first row (0 for stages without ranks).
    first_rank: usize,
    /// Rows in the run (a longer run simply continues as a second one).
    rows: u32,
    /// How many of them carry a note.
    noted: u32,
}

/// A [`Stage`] without its rank: variant plus interned label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// Low bit of a `notes` entry: the note ended in a trace stamp, whose id is
/// the next one in [`ProvenanceLog::traces`].
const TRACED: usize = 1;

/// A column of integers appended and read back in order, each stored as
/// the zigzag LEB128 varint of its difference from the one before, so a
/// value near its predecessor costs a byte or two instead of eight. The
/// log's per-request columns are such sequences: a repeated request's
/// decision batch is stored right after its verify batch, and a service
/// hands out trace ids in admission order.
#[derive(Debug, Clone, Default)]
struct DeltaColumn {
    bytes: Vec<u8>,
    last: u64,
    len: usize,
}

impl DeltaColumn {
    fn push(&mut self, value: u64) {
        let delta = value.wrapping_sub(self.last) as i64;
        let mut zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
        while zigzag >= 0x80 {
            self.bytes.push(zigzag as u8 | 0x80);
            zigzag >>= 7;
        }
        self.bytes.push(zigzag as u8);
        self.last = value;
        self.len += 1;
    }

    fn len(&self) -> usize {
        self.len
    }

    fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }

    fn iter(&self) -> DeltaIter<'_> {
        DeltaIter {
            bytes: &self.bytes,
            at: 0,
            last: 0,
        }
    }
}

/// The values of a [`DeltaColumn`], in order.
struct DeltaIter<'a> {
    bytes: &'a [u8],
    at: usize,
    last: u64,
}

impl Iterator for DeltaIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let mut zigzag = 0u64;
        let mut shift = 0;
        loop {
            let byte = *self.bytes.get(self.at)?;
            self.at += 1;
            zigzag |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        self.last = self.last.wrapping_add(delta as u64);
        Some(self.last)
    }
}

/// What [`stamp_trace`] appends, up to the id.
const TRACE_OPEN: &str = " [trace ";

/// Append to a lineage note the stamp that joins its row to the request's
/// flight-recorder trace: `" [trace {id}]"`. The log keeps a stamped note's
/// id as a number and its text once, so stamping every request's decision
/// costs a delta-coded id a row (a byte when ids arrive in order), not a
/// distinct note each.
pub fn stamp_trace(note: &mut String, trace_id: u64) {
    use std::fmt::Write as _;
    let _ = write!(note, "{TRACE_OPEN}{trace_id}]");
}

/// A note ending in exactly what [`stamp_trace`] writes, split into the text
/// before the stamp and the id. Anything else that merely looks like a stamp
/// — a leading zero, a sign, an id past `u64::MAX` — is not one, so
/// rendering the split back always gives the note.
fn split_trace(note: &str) -> Option<(&str, u64)> {
    let at = note.rfind(TRACE_OPEN)?;
    let digits = note[at + TRACE_OPEN.len()..].strip_suffix(']')?;
    let canonical =
        digits.bytes().all(|b| b.is_ascii_digit()) && (digits == "0" || !digits.starts_with('0'));
    let id = digits.parse().ok().filter(|_| canonical)?;
    Some((&note[..at], id))
}

/// Where a stored batch ends in the row columns; it starts where the
/// previous stored batch ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BatchEnd {
    runs: usize,
    rows: usize,
    notes: usize,
}

/// Append-only lineage store.
///
/// A verify request leaves ~90 records behind, most of them one coarse
/// retrieval hit each, and the log keeps every one — so what a record costs
/// in memory is what a request costs for as long as the process lives.
/// Records are therefore stored column-wise, 17 bytes per row: what a run of
/// consecutive records shares (object, stage, label, the rank sequence) is
/// stored once per run, labels are interned, and a non-empty note is a
/// reference into one shared text buffer that holds each distinct text once.
///
/// Records arrive in batches — one stage's flush for one object
/// ([`ProvenanceLog::add_all`]) — and a batch equal to one the log already
/// holds is stored as a reference to it, delta-coded in a byte or two
/// ([`DeltaColumn`]): a request served from
/// cache repeats the verify and decision rows of the last request for the
/// same object, row for row. What would keep two such batches apart, the
/// trace stamp on a traced decision's note, is kept beside the rows as a
/// number ([`stamp_trace`]) and put back into the note on read.
/// [`ProvenanceRecord`] stays the exchange type on both sides: records come
/// back out of [`ProvenanceLog::records`] / [`ProvenanceLog::for_object`]
/// equal to what went in, in order.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceLog {
    runs: Vec<Run>,
    /// Per row: the instance's raw id (0 when absent).
    instance: Vec<u64>,
    /// Per row: the score (0.0 when absent).
    score: Vec<f64>,
    /// Per row: instance kind, verdict, and presence bits.
    flags: Vec<u8>,
    /// Per row with a non-empty note, in row order: the index of its text
    /// in `note_ends`, shifted up one bit over the [`TRACED`] bit.
    notes: Vec<usize>,
    /// Per distinct note text: where it ends in `note_text` (it starts where
    /// the previous one ends).
    note_ends: Vec<usize>,
    /// Every distinct note text, back to back. Copying a note in here and
    /// letting the record's own `String` go means a request's allocations
    /// are all returned when it ends; keeping the `String`s instead leaves
    /// one long-lived chunk per note scattered through the heap, which
    /// slowed every later allocation in the process (a cached verify by
    /// 20 %).
    note_text: String,
    /// Content hash → the first note text with that hash, so `add` finds a
    /// text the log already holds. Nine bytes a bucket, not a second copy
    /// of the text: the candidate is compared against the buffer, so two
    /// texts sharing a hash cost the later one a copy per use, never a
    /// wrong note.
    note_index: HashMap<u32, u32>,
    /// Interned stage labels (index names, reranker names, verifier names).
    labels: Vec<Arc<str>>,
    /// Per stored batch, in order of arrival: where it ends in the columns.
    batch_ends: Vec<BatchEnd>,
    /// Batch hash → the first stored batch with that hash.
    batch_index: HashMap<u64, u32>,
    /// The log in append order: per batch, the stored batch it is.
    order: DeltaColumn,
    /// The ids of stamped notes, in log order.
    traces: DeltaColumn,
    /// Rows in the log, a reference counting as many as its batch holds.
    len: usize,
}

/// The content hash `note_index` is keyed by.
fn note_hash(note: &str) -> u32 {
    let mut hasher = DefaultHasher::new();
    hasher.write(note.as_bytes());
    hasher.finish() as u32
}

impl ProvenanceLog {
    /// Empty log.
    pub fn new() -> ProvenanceLog {
        ProvenanceLog::default()
    }

    fn label(&mut self, label: &Arc<str>) -> u32 {
        // A handful of distinct labels ever exist; a scan beats a map.
        let found = self.labels.iter().position(|l| l == label);
        let index = found.unwrap_or_else(|| {
            self.labels.push(Arc::clone(label));
            self.labels.len() - 1
        });
        u32::try_from(index).expect("fewer than 2^32 stage labels")
    }

    /// The distinct note text at `index`.
    fn note(&self, index: usize) -> &str {
        let start = index.checked_sub(1).map_or(0, |prev| self.note_ends[prev]);
        &self.note_text[start..self.note_ends[index]]
    }

    /// The index of `note` among the distinct texts, storing it first if
    /// the log does not hold it yet.
    fn intern_note(&mut self, note: &str) -> usize {
        let hash = note_hash(note);
        if let Some(&held) = self.note_index.get(&hash) {
            if self.note(held as usize) == note {
                return held as usize;
            }
        }
        let index = self.note_ends.len();
        self.note_text.push_str(note);
        self.note_ends.push(self.note_text.len());
        if let Ok(index) = u32::try_from(index) {
            self.note_index.entry(hash).or_insert(index);
        }
        index
    }

    /// Bytes of lineage the log holds: rows, runs, note references, the
    /// distinct note texts with their index, labels, stored batches with
    /// their index, batch references and trace ids — lengths, not
    /// capacities, so the figure is a function of what was added (growth
    /// slack of the vectors, at most as much again, comes on top).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.runs.len() * size_of::<Run>()
            + self.flags.len() * (size_of::<u64>() + size_of::<f64>() + size_of::<u8>())
            + self.notes.len() * size_of::<usize>()
            + self.note_ends.len() * size_of::<usize>()
            + self.note_text.len()
            + self.note_index.len() * (size_of::<(u32, u32)>() + 1)
            + self
                .labels
                .iter()
                .map(|l| size_of::<Arc<str>>() + l.len())
                .sum::<usize>()
            + self.batch_ends.len() * size_of::<BatchEnd>()
            + self.batch_index.len() * (size_of::<(u64, u32)>() + 1)
            + self.order.heap_bytes()
            + self.traces.heap_bytes()
    }

    /// Append a record, as a batch of its own.
    pub fn add(&mut self, record: ProvenanceRecord) {
        self.add_all([record]);
    }

    /// Append a batch of records, preserving their order. The batch is
    /// encoded onto the columns; if the log already holds a batch with the
    /// same encoding, the new rows are dropped again and a reference to
    /// that batch is appended instead.
    pub fn add_all(&mut self, records: impl IntoIterator<Item = ProvenanceRecord>) {
        let mark = self.end();
        for record in records {
            self.push(record, mark.runs);
        }
        let rows = self.flags.len() - mark.rows;
        if rows == 0 {
            return;
        }
        self.len += rows;
        let hash = self.hash_since(mark);
        if let Some(&held) = self.batch_index.get(&hash) {
            if self.holds_since(held as usize, mark) {
                self.runs.truncate(mark.runs);
                self.instance.truncate(mark.rows);
                self.score.truncate(mark.rows);
                self.flags.truncate(mark.rows);
                self.notes.truncate(mark.notes);
                self.order.push(u64::from(held));
                return;
            }
        }
        let stored = u32::try_from(self.batch_ends.len()).expect("fewer than 2^32 stored batches");
        self.batch_ends.push(self.end());
        self.batch_index.entry(hash).or_insert(stored);
        self.order.push(u64::from(stored));
    }

    /// Where the columns end now.
    fn end(&self) -> BatchEnd {
        BatchEnd {
            runs: self.runs.len(),
            rows: self.flags.len(),
            notes: self.notes.len(),
        }
    }

    /// Where stored batch `batch` starts and ends.
    fn span(&self, batch: usize) -> (BatchEnd, BatchEnd) {
        let start = batch
            .checked_sub(1)
            .map_or(BatchEnd::default(), |prev| self.batch_ends[prev]);
        (start, self.batch_ends[batch])
    }

    /// Hash of the columns past `mark`. A collision costs a batch stored
    /// again, never a wrong row: a candidate is compared in full.
    fn hash_since(&self, mark: BatchEnd) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.runs[mark.runs..].hash(&mut hasher);
        self.instance[mark.rows..].hash(&mut hasher);
        self.flags[mark.rows..].hash(&mut hasher);
        self.notes[mark.notes..].hash(&mut hasher);
        for score in &self.score[mark.rows..] {
            hasher.write_u64(score.to_bits());
        }
        hasher.finish()
    }

    /// Whether stored batch `held` encodes exactly what the columns hold
    /// past `mark` — same runs, rows, score bits and note references (an
    /// equal reference is an equal text).
    fn holds_since(&self, held: usize, mark: BatchEnd) -> bool {
        let (start, end) = self.span(held);
        let scores = &self.score[start.rows..end.rows];
        self.runs[start.runs..end.runs] == self.runs[mark.runs..]
            && self.flags[start.rows..end.rows] == self.flags[mark.rows..]
            && self.instance[start.rows..end.rows] == self.instance[mark.rows..]
            && self.notes[start.notes..end.notes] == self.notes[mark.notes..]
            && scores
                .iter()
                .zip(&self.score[mark.rows..])
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Encode one record onto the columns, continuing the last run if it
    /// starts at or after `first_run` (runs never span batches).
    fn push(&mut self, record: ProvenanceRecord, first_run: usize) {
        let (stage, rank) = match &record.stage {
            Stage::Retrieval { index, rank } => (StageKey::Retrieval(self.label(index)), *rank),
            Stage::Combine => (StageKey::Combine, 0),
            Stage::Rerank { reranker, rank } => (StageKey::Rerank(self.label(reranker)), *rank),
            Stage::Verify { verifier } => (StageKey::Verify(self.label(verifier)), 0),
            Stage::Decision => (StageKey::Decision, 0),
        };
        let ranked = matches!(stage, StageKey::Retrieval(_) | StageKey::Rerank(_));
        let continues = self.runs.len() > first_run
            && self.runs.last().is_some_and(|run| {
                run.object_id == record.object_id
                    && run.stage == stage
                    && run.rows < u32::MAX
                    && (!ranked || run.first_rank.checked_add(run.rows as usize) == Some(rank))
            });
        if !continues {
            self.runs.push(Run {
                object_id: record.object_id,
                stage,
                first_rank: rank,
                rows: 0,
                noted: 0,
            });
        }
        let noted = !record.note.is_empty();
        let run = self.runs.last_mut().expect("a run was just ensured");
        run.rows += 1;
        run.noted += u32::from(noted);
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
        if noted {
            flags |= HAS_NOTE;
            let entry = match split_trace(&record.note) {
                Some((text, trace)) => {
                    self.traces.push(trace);
                    self.intern_note(text) << 1 | TRACED
                }
                None => self.intern_note(&record.note) << 1,
            };
            self.notes.push(entry);
        }
        self.instance.push(raw_id);
        self.score.push(record.score.unwrap_or(0.0));
        self.flags.push(flags);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of batches appended.
    pub fn batches(&self) -> usize {
        self.order.len()
    }

    /// Number of appended batches stored as rows; the rest of
    /// [`ProvenanceLog::batches`] are references to one of these.
    pub fn stored_batches(&self) -> usize {
        self.batch_ends.len()
    }

    /// Rebuild, in log order, the records of every run `keep` accepts,
    /// appending them to `out`.
    fn decode(&self, keep: impl Fn(&Run) -> bool, out: &mut Vec<ProvenanceRecord>) {
        let mut traces = self.traces.iter();
        for batch in self.order.iter() {
            let (start, end) = self.span(batch as usize);
            let (mut row, mut note) = (start.rows, start.notes);
            for run in &self.runs[start.runs..end.runs] {
                let notes = &self.notes[note..note + run.noted as usize];
                if keep(run) {
                    self.decode_run(run, row, notes, &mut traces, out);
                } else {
                    let stamped = notes.iter().filter(|&&n| n & TRACED != 0).count();
                    traces.by_ref().take(stamped).for_each(drop);
                }
                row += run.rows as usize;
                note += run.noted as usize;
            }
        }
    }

    /// Rebuild the records of `run`, whose rows start at `first_row` and
    /// whose note entries are `notes`, appending them to `out`; stamped
    /// notes take their ids from `traces`, in order.
    fn decode_run(
        &self,
        run: &Run,
        first_row: usize,
        notes: &[usize],
        traces: &mut DeltaIter<'_>,
        out: &mut Vec<ProvenanceRecord>,
    ) {
        let label = |l: u32| Arc::clone(&self.labels[l as usize]);
        let mut notes = notes.iter();
        for row in first_row..first_row + run.rows as usize {
            let rank = run.first_rank + (row - first_row);
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
                    let entry = *notes.next().expect("a row flagged HAS_NOTE has a note");
                    let mut note = self.note(entry >> 1).to_string();
                    if entry & TRACED != 0 {
                        let id = traces.next().expect("a stamped note has a trace id");
                        stamp_trace(&mut note, id);
                    }
                    Note::Owned(note)
                } else {
                    Note::default()
                },
            });
        }
    }

    /// All records, in insertion order.
    pub fn records(&self) -> Vec<ProvenanceRecord> {
        let mut out = Vec::with_capacity(self.len());
        self.decode(|_| true, &mut out);
        out
    }

    /// Records concerning one generated object, in pipeline order.
    pub fn for_object(&self, object_id: u64) -> Vec<ProvenanceRecord> {
        let mut out = Vec::new();
        self.decode(|run| run.object_id == object_id, &mut out);
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
            note: Note::default(),
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
            let label: Arc<str> = labels[next(4) as usize].into();
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
                    format!("note {}", next(100)).into()
                } else {
                    Note::default()
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

    /// Notes are stored once per distinct text and still come back exactly:
    /// 1 000 distinct notes, each repeated at random, with empty notes and
    /// two texts that share a content hash interleaved.
    #[test]
    fn interned_notes_round_trip() {
        // Two different texts with one hash: the index keeps the first, the
        // second is stored again on every use and must still read back.
        let mut seen = HashMap::new();
        let (first, second) = (0u32..)
            .find_map(|i| {
                let text = format!("colliding note {i}");
                let earlier = seen.insert(note_hash(&text), text.clone());
                earlier.map(|earlier| (earlier, text))
            })
            .expect("32-bit hashes collide within a few hundred thousand texts");
        assert_ne!(first, second);
        assert_eq!(note_hash(&first), note_hash(&second));

        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut records = Vec::new();
        for i in 0..1000u64 {
            let distinct = format!("explanation {i}: the evidence records value {}", i * 7);
            for _ in 0..=next(3) {
                let note = match next(6) {
                    0 => String::new(),
                    1 => first.clone(),
                    2 => second.clone(),
                    3 => format!(
                        "explanation {}: the evidence records value {}",
                        next(i + 1),
                        0
                    ),
                    _ => distinct.clone(),
                };
                records.push(ProvenanceRecord {
                    note: note.into(),
                    ..record(
                        next(4),
                        Stage::Verify {
                            verifier: "chatgpt-sim".into(),
                        },
                    )
                });
            }
            records.push(ProvenanceRecord {
                note: distinct.into(),
                ..record(next(4), Stage::Decision)
            });
        }
        let mut log = ProvenanceLog::new();
        log.add_all(records.iter().cloned());
        assert_eq!(log.records(), records);
        for object_id in 0..4 {
            let want: Vec<ProvenanceRecord> = records
                .iter()
                .filter(|r| r.object_id == object_id)
                .cloned()
                .collect();
            assert_eq!(log.for_object(object_id), want);
        }
        // Every distinct text is held once — except the later of the two
        // colliding ones, which is held once per use.
        let distinct: std::collections::HashSet<&str> = records
            .iter()
            .map(|r| &*r.note)
            .filter(|n| !n.is_empty() && *n != second)
            .collect();
        let second_uses = records.iter().filter(|r| *r.note == second).count();
        assert_eq!(log.note_ends.len(), distinct.len() + second_uses);
    }

    /// What a request served from cache leaves behind, over and over: the
    /// same verify rows with the same explanations, and the same decision
    /// note. The first request pays for the rows and texts; every repeat
    /// costs references only.
    #[test]
    fn a_repeated_request_costs_rows_not_text() {
        let request = |log: &mut ProvenanceLog| {
            for i in 0..6u64 {
                log.add(ProvenanceRecord {
                    instance: Some(InstanceId::Tuple(100 + i)),
                    score: Some(0.5),
                    verdict: Some(Verdict::Verified),
                    note: format!(
                        "The evidence tuple records incumbent = Otis Pike {i}, matching the \
                         generated value, as one would expect of an explanation this long."
                    )
                    .into(),
                    ..record(
                        7,
                        Stage::Verify {
                            // Evidence arrives modality by modality.
                            verifier: if i < 4 {
                                "roberta-tuple"
                            } else {
                                "chatgpt-sim"
                            }
                            .into(),
                        },
                    )
                });
            }
            log.add(ProvenanceRecord {
                score: Some(1.0),
                verdict: Some(Verdict::Verified),
                note: "over 6 evidence verdicts".into(),
                ..record(7, Stage::Decision)
            });
        };
        let mut log = ProvenanceLog::new();
        request(&mut log);
        let first = log.heap_bytes();
        assert!(first > 600, "the first request holds its texts: {first} B");
        for _ in 0..1000 {
            request(&mut log);
        }
        let per_request = (log.heap_bytes() - first) / 1000;
        // Seven one-record batches, each a reference one byte from the
        // last.
        assert!(
            per_request <= 8,
            "a repeated request grew the log by {per_request} B"
        );
        assert_eq!(log.len(), 7 * 1001);
        assert_eq!(log.for_object(7).len(), 7 * 1001);
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
            note: Note::default(),
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

#[cfg(test)]
mod model_tests {
    use super::*;
    use proptest::prelude::*;

    const LABELS: [&str; 2] = ["fused-text", "chatgpt-sim"];

    /// Notes as the pipeline writes them, and notes that only look like a
    /// trace stamp: a leading zero, a sign, an id past `u64::MAX`, no id,
    /// text after the bracket, two stamps, no leading space, a doubled
    /// bracket.
    const NOTES: [&str; 13] = [
        "",
        "",
        "over 5 evidence verdicts",
        "The text states the incumbent is 'otis pike', which matches.",
        "x [trace 007]",
        "x [trace +5]",
        "x [trace 18446744073709551616]",
        "x [trace ]",
        "x [trace 5] tail",
        "x [trace 1] [trace 2]",
        "[trace 3]",
        " [trace 0]",
        "x [trace 5]]",
    ];

    fn arb_stage() -> impl Strategy<Value = Stage> {
        prop_oneof![
            (0usize..2, 0usize..3).prop_map(|(l, rank)| Stage::Retrieval {
                index: LABELS[l].into(),
                rank,
            }),
            Just(Stage::Combine),
            (0usize..2, 0usize..3).prop_map(|(l, rank)| Stage::Rerank {
                reranker: LABELS[l].into(),
                rank,
            }),
            (0usize..2).prop_map(|l| Stage::Verify {
                verifier: LABELS[l].into(),
            }),
            Just(Stage::Decision),
            Just(Stage::Decision),
        ]
    }

    fn arb_record() -> impl Strategy<Value = ProvenanceRecord> {
        let fields = (0u8..5, 0u64..3, 0u8..5, 0u8..3);
        (0u64..3, arb_stage(), fields, 0usize..NOTES.len()).prop_map(
            |(object_id, stage, (kind, id, verdict, score), note)| ProvenanceRecord {
                object_id,
                stage,
                instance: match kind {
                    0 => None,
                    1 => Some(InstanceId::Tuple(id)),
                    2 => Some(InstanceId::Table(id)),
                    3 => Some(InstanceId::Text(id)),
                    _ => Some(InstanceId::Kg(id)),
                },
                score: match score {
                    0 => None,
                    1 => Some(0.5),
                    _ => Some(-0.0),
                },
                verdict: match verdict {
                    0 => None,
                    1 => Some(Verdict::Verified),
                    2 => Some(Verdict::Refuted),
                    3 => Some(Verdict::NotRelated),
                    _ => Some(Verdict::Unknown),
                },
                note: NOTES[note].into(),
            },
        )
    }

    /// [`ProvenanceLog::report`] over a plain record list.
    fn model_report(records: &[ProvenanceRecord], object_id: u64) -> String {
        let mut out = format!("provenance for object {object_id}:\n");
        for r in records.iter().filter(|r| r.object_id == object_id) {
            out.push_str(&format!("  {}", r.stage));
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
                out.push_str(&format!(" — {}", r.note));
            }
            out.push('\n');
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The log is a `Vec<ProvenanceRecord>`, whatever it stores as a
        /// reference. Batches are drawn from a small pool of templates, so
        /// equal batches recur, adjacent or not; each append may move the
        /// template's rows under another object, and may stamp every
        /// decision row with a trace id, as a traced request does (several
        /// decision rows to a batch included). After every append,
        /// `records`, `for_object`, `len` and `report` equal the model's.
        #[test]
        fn log_equals_a_record_list_after_every_append(
            templates in collection::vec(collection::vec(arb_record(), 0..5), 1..4),
            appends in collection::vec((0usize..4, 0u64..5, any::<bool>(), any::<u64>()), 1..24),
        ) {
            let mut log = ProvenanceLog::new();
            let mut model: Vec<ProvenanceRecord> = Vec::new();
            for (template, object, traced, trace_id) in appends {
                let mut batch = templates[template % templates.len()].clone();
                for record in &mut batch {
                    // 3 and 4 keep the template's objects.
                    if object < 3 {
                        record.object_id = object;
                    }
                    if traced && record.stage == Stage::Decision {
                        let mut note = record.note.to_string();
                        stamp_trace(&mut note, trace_id % 4 * (u64::MAX / 3));
                        record.note = note.into();
                    }
                }
                model.extend(batch.iter().cloned());
                log.add_all(batch);
                prop_assert_eq!(log.len(), model.len());
                prop_assert_eq!(log.is_empty(), model.is_empty());
                prop_assert_eq!(&log.records(), &model);
                for object_id in 0..4 {
                    let want: Vec<ProvenanceRecord> =
                        model.iter().filter(|r| r.object_id == object_id).cloned().collect();
                    prop_assert_eq!(&log.for_object(object_id), &want);
                    prop_assert_eq!(log.report(object_id), model_report(&model, object_id));
                }
            }
        }
    }

    /// The stamp round-trips only in the form `stamp_trace` writes.
    #[test]
    fn only_a_canonical_stamp_splits() {
        for id in [0, 7, u64::MAX] {
            let mut note = "over 2 evidence verdicts".to_string();
            stamp_trace(&mut note, id);
            assert_eq!(split_trace(&note), Some(("over 2 evidence verdicts", id)));
        }
        for note in NOTES.iter().filter(|n| !n.is_empty()) {
            if let Some((text, id)) = split_trace(note) {
                let mut back = text.to_string();
                stamp_trace(&mut back, id);
                assert_eq!(&back, note);
            }
        }
        assert_eq!(split_trace("x [trace 007]"), None);
        assert_eq!(split_trace("x [trace +5]"), None);
        assert_eq!(split_trace("x [trace 18446744073709551616]"), None);
        assert_eq!(split_trace("x [trace 5] tail"), None);
    }

    /// Whether a batch is a reference is decided by comparing every column,
    /// not by the hash: a candidate that differs from a stored batch in any
    /// one field — down to the sign of a zero score or a trace stamp — is
    /// not that batch.
    #[test]
    fn a_reference_needs_every_column_equal() {
        let base = ProvenanceRecord {
            object_id: 1,
            stage: Stage::Verify {
                verifier: "chatgpt-sim".into(),
            },
            instance: Some(InstanceId::Text(4)),
            score: Some(0.0),
            verdict: Some(Verdict::Verified),
            note: "over 1 evidence verdicts".into(),
        };
        let variants = [
            base.clone(),
            ProvenanceRecord {
                object_id: 2,
                ..base.clone()
            },
            ProvenanceRecord {
                stage: Stage::Decision,
                ..base.clone()
            },
            ProvenanceRecord {
                instance: Some(InstanceId::Table(4)),
                ..base.clone()
            },
            ProvenanceRecord {
                score: Some(-0.0),
                ..base.clone()
            },
            ProvenanceRecord {
                verdict: Some(Verdict::Refuted),
                ..base.clone()
            },
            ProvenanceRecord {
                note: "over 2 evidence verdicts".into(),
                ..base.clone()
            },
            ProvenanceRecord {
                note: "over 1 evidence verdicts [trace 0]".into(),
                ..base.clone()
            },
            ProvenanceRecord {
                note: Note::default(),
                ..base.clone()
            },
        ];
        for (i, candidate) in variants.into_iter().enumerate() {
            let mut log = ProvenanceLog::new();
            log.add_all([base.clone()]);
            let mark = log.end();
            log.push(candidate, mark.runs);
            assert_eq!(log.holds_since(0, mark), i == 0, "variant {i}");
        }
    }

    /// A batch equal to one the log holds is stored as a reference, traced
    /// or not; the same rows under another object, or with a note changed,
    /// are stored again.
    #[test]
    fn an_equal_batch_is_a_reference() {
        let batch = |object_id: u64, trace: Option<u64>, note: &str| {
            let mut note = note.to_string();
            if let Some(id) = trace {
                stamp_trace(&mut note, id);
            }
            vec![ProvenanceRecord {
                object_id,
                stage: Stage::Decision,
                instance: None,
                score: Some(1.0),
                verdict: Some(Verdict::Verified),
                note: note.into(),
            }]
        };
        let mut log = ProvenanceLog::new();
        log.add_all(batch(1, None, "over 1 evidence verdicts"));
        log.add_all(batch(2, None, "over 1 evidence verdicts"));
        log.add_all(batch(1, Some(41), "over 1 evidence verdicts"));
        assert_eq!((log.batches(), log.stored_batches()), (3, 3));
        log.add_all(batch(1, None, "over 1 evidence verdicts"));
        log.add_all(batch(1, Some(42), "over 1 evidence verdicts"));
        log.add_all(batch(2, None, "over 2 evidence verdicts"));
        log.add_all(Vec::new());
        assert_eq!((log.batches(), log.stored_batches()), (6, 4));
        assert_eq!(
            log.for_object(1)[3].note,
            "over 1 evidence verdicts [trace 42]"
        );
    }

    /// Every value comes back, in order, whatever the gaps between them:
    /// the delta wraps and its zigzag varint spans one to ten bytes.
    #[test]
    fn delta_column_round_trips() {
        let mut values = vec![0, 1, 0, u64::MAX, 0, u64::MAX - 1, 1 << 63, 300, 299, 7];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.push(x >> (x % 64));
        }
        let mut column = DeltaColumn::default();
        for &v in &values {
            column.push(v);
        }
        assert_eq!(column.len(), values.len());
        assert_eq!(column.iter().collect::<Vec<_>>(), values);
        // Neighbouring values take one byte each.
        let mut near = DeltaColumn::default();
        for v in [5, 6, 4, 5, 5, 68] {
            near.push(v);
        }
        assert_eq!(near.heap_bytes(), 6);
    }
}
