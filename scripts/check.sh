#!/usr/bin/env bash
# Full local gate: format, lints (warnings denied), and every test.
# Usage: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The API docs build with warnings denied: an intra-doc link to a private,
# renamed or deleted item fails here instead of dangling.
echo "==> cargo doc --workspace, warnings denied"
RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace --offline --keep-going

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

# Per-request allocation and lineage budgets, again in the profile that
# serves. Named, so the gate fails if the test target goes missing instead
# of passing on zero tests.
echo "==> allocation budgets, release (gating)"
cargo test -q --release --test alloc_budget

# What the default observability config adds to a cached request, in clock
# reads and allocations against ObsConfig::off(), pinned exactly. Named,
# like the step above.
echo "==> observability budget, release (gating)"
cargo test -q --release --test obs_budget

# A cache hit replays the verdicts its object was judged with, for a tuple
# and a claim: judged and replayed service reports equal verify_object's,
# the replay appends the judged request's verify and decision lineage rows
# and a `replayed` verify span, and another object under the same key is
# judged afresh. Named, and it must report one passed test, so a renamed or
# deleted test fails the gate instead of passing on zero tests.
echo "==> cache hit replays its judgment (gating)"
REPLAY_OUT="$(cargo test -q --release --test service \
  a_cache_hit_replays_its_judgment -- --exact)"
grep -q ' 1 passed' <<< "$REPLAY_OUT" \
  || { echo "judgment replay test did not run"; exit 1; }

# Tuples are retrieved by BM25 alone: the build leaves the tuple semantic
# slot empty and embeds every text chunk, table and knowledge-graph entity
# and no tuple; a tuple write embeds only its owning table's entry, and a
# document still embeds its chunks. Named, and it must report one passed
# test, like the step above.
echo "==> tuples are BM25-only (gating)"
TUPLES_OUT="$(cargo test -q --release --test live_lake \
  tuples_are_bm25_only -- --exact)"
grep -q ' 1 passed' <<< "$TUPLES_OUT" \
  || { echo "BM25-only tuple test did not run"; exit 1; }

# The rerank stage reranks from prepared features (MaxSim columns in one
# blocked pass, tuple match keys and feature records); over the first 200
# cold objects of the `small` lake at seed 42 and their retrieved tuple and
# text candidates, `select` must equal the textbook rerankers — embed-
# everything MaxSim and the per-pair tuple formulas — score bit for score
# bit, rank for rank. Named, and it must report one passed test, like the
# step above.
echo "==> rerank stage == textbook rerankers on the small lake (gating)"
IDENTITY_OUT="$(cargo test -q --release --test rerank_identity \
  small_lake_rerank_equals_the_textbook_references -- --exact)"
grep -q ' 1 passed' <<< "$IDENTITY_OUT" \
  || { echo "small-lake rerank identity test did not run"; exit 1; }

# Golden fingerprints of every index's snapshot bytes and search hits (HNSW,
# exact flat, segmented BM25): a change that moves one changed behaviour or
# the wire format. Named, and it must report three passed tests, so a
# deleted golden test fails the gate instead of passing on fewer tests.
echo "==> golden index fingerprints (gating)"
GOLDEN_OUT="$(cargo test -q -p verifai-index --test golden)"
grep -q ' 3 passed' <<< "$GOLDEN_OUT" \
  || { echo "golden fingerprint tests did not all run"; exit 1; }

# The analysis kernel's byte path yields the char path's terms (tokenize,
# then lowercase/stopwords/stem per token) on arbitrary strings for every
# analyzer config, and on every text of the `small` lake at seed 42: what
# makes every BM25 score, vector and prepared feature independent of which
# path analyzed it. Named, like the golden step, and each must report one
# passed test, so a renamed or deleted test fails the gate instead of
# passing on zero tests.
echo "==> analysis kernel == char path (gating)"
ANALYSIS_OUT="$(cargo test -q -p verifai-text --lib \
  analyzer::prop_tests::byte_path_equals_char_path -- --exact)"
grep -q ' 1 passed' <<< "$ANALYSIS_OUT" \
  || { echo "analysis identity property did not run"; exit 1; }
ANALYSIS_OUT="$(cargo test -q --release --test properties \
  every_small_lake_text_analyzes_the_same_on_both_paths -- --exact)"
grep -q ' 1 passed' <<< "$ANALYSIS_OUT" \
  || { echo "small-lake analysis identity test did not run"; exit 1; }

# Routed retrieval equals the single lake for N = 1..8 shards, live and
# after mutations, and HNSW shards recall the flat reference. Named, and it
# must report five passed tests, like the golden step, so a deleted or
# renamed identity test fails the gate instead of passing on fewer tests.
echo "==> routed == single-lake identity (gating)"
ROUTED_OUT="$(cargo test -q -p verifai-cluster --test identity)"
grep -q ' 5 passed' <<< "$ROUTED_OUT" \
  || { echo "routed identity tests did not all run"; exit 1; }

# The lake build is byte-identical for every build_threads value: every
# index's snapshot bytes, the prepared features and the reports at 1, 2 and
# 4 threads. Named, like the golden step, so a renamed or deleted test
# fails the gate instead of passing on zero tests.
echo "==> build identical for every thread count (gating)"
DETERMINISM_OUT="$(cargo test -q --test determinism \
  build_is_identical_for_every_thread_count -- --exact)"
grep -q ' 1 passed' <<< "$DETERMINISM_OUT" \
  || { echo "thread-count determinism test did not run"; exit 1; }

# Recall and cost of an HNSW graph after churn: 40 % of its rows replaced,
# it must answer like its compacted copy (recall@10 within 0.03, >= 0.95)
# for at most 1.5x the distance evaluations per query. Named, like the
# golden step, so a renamed or deleted test fails the gate.
echo "==> live HNSW recall and cost (gating)"
cargo test -q --release -p verifai-index --test live_recall

# Gating canary smoke: a short healthy serving run with golden-set canaries
# must exit 0. verifai-serve judges every probe itself, and any failed
# probe fails the run: a golden object that verified at startup and does
# not verify now is a regression on a known-good configuration.
echo "==> canary smoke (gating)"
cargo run -q --release --bin verifai-serve -- \
  --requests 120 --canary-every 10 --slowest 0 > /dev/null

# Gating sharded/multi-tenant smoke: the same run over a 4-shard
# scatter/gather cluster with three weighted tenants must also exit 0 —
# it exercises routed retrieval, WFQ admission, and per-tenant accounting
# in one pass. Rates are left unlimited so the gate never depends on
# wall-clock timing. The system owns its shards' live indexes, so the
# live-lake gauges it exports must count the shards' documents and
# vectors: a zero means the gauges read an empty or missing index set.
echo "==> sharded multi-tenant smoke (gating)"
SHARDED_OUT="$(mktemp)"
cargo run -q --release --bin verifai-serve -- \
  --requests 120 --shards 4 --tenants acme:3,beta:1,free:1 \
  --canary-every 10 --slowest 0 > "$SHARDED_OUT"
for gauge in verifai_lake_content_docs verifai_lake_semantic_vectors; do
  grep -Eq "^$gauge [1-9][0-9]*$" "$SHARDED_OUT" \
    || { echo "sharded smoke: $gauge is missing or zero"; exit 1; }
done
rm -f "$SHARDED_OUT"

# Gating distributed-tracing smoke: a 4-shard run with tail sampling and
# a Perfetto trace dump must exit 0 (verifai-serve self-validates the
# dump: parseable trace-event JSON, >= 1 trace, per-shard child spans —
# it dumps the slowest retained traces that stitch shard children before
# the slowest that do not, so the run fails only when no retained trace
# went through the router).
# Then assert the dump and the exemplar-enabled Prometheus exposition
# from the stitched path hold their invariants here too: the JSON parses
# and names shard spans, and the PR 5 pathological-label escaping
# regression still passes with exemplars in the exposition.
echo "==> distributed tracing smoke (gating)"
TRACE_DUMP="$(mktemp)"
cargo run -q --release --bin verifai-serve -- \
  --requests 120 --shards 4 --tail-sample 4 --trace-dump "$TRACE_DUMP" \
  --slowest 3 > /dev/null
grep -q '"ph":"X"' "$TRACE_DUMP" || { echo "trace dump has no complete events"; exit 1; }
grep -q '"name":"shard-' "$TRACE_DUMP" || { echo "trace dump has no shard spans"; exit 1; }
rm -f "$TRACE_DUMP"
cargo test -q --test tracing > /dev/null
cargo test -q -p verifai-obs --lib export > /dev/null

# Gating metering smoke: a sharded multi-tenant run with --usage-report
# must reconcile exactly (verifai-serve exits nonzero if any tenant's
# cost rollup differs from the sum of the per-request vectors its client
# received, if the service total differs from the client ledger, or if the
# service's stage totals differ from the sum of the per-request timings),
# and --profile-dump must write the stage totals as a validated collapsed-
# stack dump whose weights equal them exactly. Then assert the artifacts
# here too: both reconciliation lines printed, and the dump holds all four
# stage frames (the run's 32 cold objects give every stage work).
echo "==> metering smoke (gating)"
USAGE_OUT="$(mktemp)"
PROFILE_DUMP="$(mktemp)"
cargo run -q --release --bin verifai-serve -- \
  --requests 120 --shards 3 --tenants acme:3,beta:1 --slowest 0 \
  --usage-report --profile-dump "$PROFILE_DUMP" > "$USAGE_OUT"
grep -q 'usage reconciliation: tenant rollups equal' "$USAGE_OUT" \
  || { echo "usage report did not reconcile"; exit 1; }
grep -q 'stage-time reconciliation: stage totals equal' "$USAGE_OUT" \
  || { echo "stage times did not reconcile"; exit 1; }
grep -q 'profile dump: .* folded stacks' "$USAGE_OUT" \
  || { echo "profile dump was not validated"; exit 1; }
grep -q ';request' "$PROFILE_DUMP" \
  || { echo "profile dump has no request stacks"; exit 1; }
for frame in 'service;request;queue' ';retrieval' ';rerank' ';verify'; do
  grep -q "$frame " "$PROFILE_DUMP" \
    || { echo "profile dump has no $frame frame"; exit 1; }
done
rm -f "$USAGE_OUT" "$PROFILE_DUMP"
cargo test -q --test metering > /dev/null
cargo test -q -p verifai-obs --lib meter > /dev/null
cargo test -q -p verifai-obs --lib export::tests::folded_dump_validates -- --exact > /dev/null
cargo test -q -p verifai-service --lib \
  stats::tests::folded_profile_has_one_line_per_nonzero_stage -- --exact > /dev/null

# Gating live-lake smoke, at `small` (the scale the prepared-feature budget
# is stated at): build a live system, check every tuple has prepared rerank
# features within 300 bytes each and the semantic indexes hold at most
# 4*dim + 400 = 912 bytes per stored vector, stream documents in, check every
# modality's content index stands within its segment bound (the CLI prints
# both figures and exits nonzero past either bound; the lines are shown
# here and asserted by name), delete half, compact, snapshot the standing
# indexes, reload them, and verify the reloaded indexes search identically.
# Nonzero exit means the live mutation path, the feature budget, the
# semantic-index budget, the segment policy or the snapshot round-trip
# broke.
echo "==> live-lake smoke (gating)"
LIVE_OUT="$(mktemp)"
cargo run -q --release --bin verifai-cli -- live small > "$LIVE_OUT"
grep 'prepared_instances' "$LIVE_OUT" \
  || { echo "live smoke: prepared-feature stats were not printed"; exit 1; }
grep 'prepared bytes per tuple' "$LIVE_OUT" \
  || { echo "live smoke: feature-budget check did not run"; exit 1; }
PER_TUPLE="$(sed -n 's/^prepared bytes per tuple: \([0-9]*\) .*/\1/p' "$LIVE_OUT")"
[ "$PER_TUPLE" -le 300 ] \
  || { echo "live smoke: $PER_TUPLE prepared bytes per tuple exceed 300"; exit 1; }
grep 'semantic bytes per vector' "$LIVE_OUT" \
  || { echo "live smoke: semantic-index budget check did not run"; exit 1; }
PER_VECTOR="$(sed -n 's/^semantic bytes per vector: \([0-9]*\) .*/\1/p' "$LIVE_OUT")"
[ "$PER_VECTOR" -le 912 ] \
  || { echo "live smoke: $PER_VECTOR semantic bytes per vector exceed 912"; exit 1; }
grep 'content segments per modality after ingest' "$LIVE_OUT" \
  || { echo "live smoke: segment-bound check did not run"; exit 1; }
rm -f "$LIVE_OUT"

# Gating paper evaluation: every table, figure and ablation at `small`,
# seeds 42 and 7. The run exits nonzero when a paper shape fails at either
# seed, and its stdout (JSON, no wall-clock values) must equal the committed
# EVAL.json byte for byte: a change to result quality re-captures the file
# (`verifai-cli experiments small > EVAL.json`) in the same change. The
# rendered tables on stderr are shown only when the step fails.
echo "==> paper evaluation equals EVAL.json (gating)"
EVAL_OUT="$(mktemp)"
EVAL_ERR="$(mktemp)"
cargo run -q --release --bin verifai-cli -- experiments small > "$EVAL_OUT" 2> "$EVAL_ERR" \
  || { cat "$EVAL_ERR"; echo "paper evaluation failed (see above)"; exit 1; }
cmp "$EVAL_OUT" EVAL.json \
  || { echo "paper evaluation differs from EVAL.json"; exit 1; }
rm -f "$EVAL_OUT" "$EVAL_ERR"

# Gating request-level benchmark smoke: every workload of benchmark/ at
# smoke scale, untraced and traced. run.sh exits nonzero when any output
# check fails; the two identity checks this gate exists for — the service
# path and the staged replay (retrieve -> resolve -> rerank stage -> judge
# through public calls) both returning exactly what `verify_object` does —
# are asserted by name so a renamed or dropped check cannot pass silently.
echo "==> request-level benchmark smoke (gating)"
BENCH_OUT="$(mktemp)"
benchmark/run.sh --smoke > "$BENCH_OUT"
benchmark/run.sh --smoke --traced >> "$BENCH_OUT"
grep -q '\[ok\] service reports equal direct verify_object reports' "$BENCH_OUT" \
  || { echo "benchmark smoke: service-equals-direct check did not run"; exit 1; }
grep -q '\[ok\] staged replay through public calls equals verify_object' "$BENCH_OUT" \
  || { echo "benchmark smoke: staged-replay check did not run"; exit 1; }
rm -f "$BENCH_OUT"

echo "==> all checks passed"
