//! `verifai-benchmark` — the repository's request-level benchmark.
//!
//! One process runs one workload once: it sets the system up from `--seed`,
//! measures for `--seconds`, checks the outputs, prints every metric by name
//! with its unit, writes `<out>/<workload>.json`, and ends with one JSON
//! line for the driver. `--trace 0` reports the end-to-end metrics with no
//! benchmark spans active; `--trace 1` is the separate traced pass that
//! reports the per-layer metrics. See `benchmark/README.md`.

mod drive;
mod inputs;
mod json;
mod layers;
mod manifest;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::{json, Map, Value};
use verifai::{VerifAi, VerifAiConfig};
use verifai_service::VerificationService;

use crate::drive::Stop;
use crate::inputs::{build_system, object_pool, Pool, Scale, SetupTimes, FULL, SMOKE};
use crate::manifest::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::spans::{mean_us, Tracer};
use crate::stats::Better;
use crate::workloads::{
    live_pass, service_equals_direct, service_pass, Check, Env, Host, Measured, Workload,
};

/// Times the untraced run stands the system up; `setup_s` is their median.
const SETUP_REPS: usize = 2;

/// Seconds a smoke run measures, whatever `--seconds` says.
const SMOKE_SECONDS: f64 = 0.4;

/// Share of `--seconds` the traced run spends on its pass of the workload;
/// the rest of its time goes to the fixed per-layer probes.
const TRACED_PASS_SHARE: f64 = 0.25;

/// Seeds the layer-probe sample apart from the workload's own pool.
const LAYER_SAMPLE_SALT: u64 = 0x1a7e_25a1;

const USAGE: &str = "\
verifai-benchmark run --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
verifai-benchmark summarize SET_DIR...
verifai-benchmark compare BASE_DIR CANDIDATE_DIR
workloads: cold-verify hot-verify open-rate live-ingest";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    out: PathBuf,
}

impl RunArgs {
    fn env(&self, host: Host) -> Env {
        Env {
            scale: self.scale,
            host,
            seed: self.seed,
        }
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: Workload::ColdVerify,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        traced: false,
        scale: FULL,
        out: PathBuf::from("benchmark/out"),
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                run.workload =
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
                named = true;
            }
            "--seed" => {
                run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                run.seconds = value()?
                    .parse::<u32>()
                    .map_err(|_| "--seconds takes a whole number")?
                    .max(1)
                    .into();
            }
            "--trace" => {
                run.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => run.scale = SMOKE,
            "--out" => run.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    if run.scale == SMOKE {
        run.seconds = SMOKE_SECONDS;
    }
    Ok(run)
}

/// A reported metric value with the number of samples behind it.
struct Reported {
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: Better,
    samples: usize,
}

/// Everything one run produced, ready to print and write.
struct Outcome {
    metrics: Vec<Reported>,
    /// Named numbers that are not metrics of `BENCHMARK.json`.
    diagnostics: Vec<(String, f64, &'static str)>,
    checks: Vec<Check>,
    attempted: u64,
    errors: u64,
    digest: String,
    trace: Option<Tracer>,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Stand the system up once: lake, indexes and the workload's object pool.
fn set_up(run: &RunArgs) -> (VerifAi, Pool, SetupTimes, f64) {
    let started = Instant::now();
    let (system, times) = build_system(&run.scale, run.seed, VerifAiConfig::default());
    let pool = object_pool(&system, run.workload.pool_size(&run.scale), run.seed);
    (system, pool, times, started.elapsed().as_secs_f64())
}

/// Verify the pool's reserved tail through a fresh service and directly —
/// live-ingest has no service of its own to check against.
fn check_through_fresh_service(system: VerifAi, pool: &Pool, run: &RunArgs, host: Host) -> Check {
    let shared = Arc::new(system);
    let service = VerificationService::new(Arc::clone(&shared), host.service_config());
    let (check, _) = service_equals_direct(&service, &shared, pool.tail(run.scale.check_sample));
    service.shutdown();
    check
}

fn run_untraced(run: &RunArgs, host: Host) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let (system, pool, times, setup_s) = set_up(run);
        setups.push(setup_s);
        built = Some((system, pool, times));
    }
    let (mut system, pool, times) = built.expect("SETUP_REPS >= 1");
    let mut off = Tracer::off();

    let m: Measured = if run.workload == Workload::LiveIngest {
        let stop = Stop::After(Duration::from_secs_f64(run.seconds));
        let (mut m, state) = live_pass(&mut system, &pool, run.env(host), stop, &mut off);
        m.checks
            .push(check_through_fresh_service(system, &pool, run, host));
        println!(
            "live-ingest: {} rounds in {:.2} s; {} tombstones, {} content segments standing",
            state.rounds, state.elapsed_s, state.tombstones_end, state.segments_end
        );
        m
    } else {
        let shared = Arc::new(system);
        service_pass(
            run.workload,
            &shared,
            &pool,
            run.env(host),
            run.seconds,
            &mut off,
        )
    };

    let n = m.latencies_ms.len();
    // With nothing completed there is no median: NaN marks the run incorrect.
    let p50 = if n == 0 {
        f64::NAN
    } else {
        stats::percentile(&m.latencies_ms, 0.50)
    };
    let sent = m.tally.sent.max(1);
    let value_of = |name: &str| -> (f64, usize) {
        match name {
            "throughput_rps" => (m.throughput, n),
            "p50_ms" => (p50, n),
            "ok_ratio" => (
                stats::ok_ratio(sent, &m.latencies_ms, run.workload.limit_ms()),
                sent as usize,
            ),
            "decision_accuracy" => (m.agree as f64 / m.scored.max(1) as f64, m.scored),
            "peak_rss_mb" => (peak_rss_mb(), 1),
            "setup_s" => (stats::median(&setups), setups.len()),
            other => unreachable!("no value for end-to-end metric {other}"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|e| {
            let (value, samples) = value_of(e.name);
            Reported {
                name: e.name,
                value,
                unit: e.unit,
                better: e.better,
                samples,
            }
        })
        .collect();

    let mut diagnostics = vec![
        ("datagen_s (last set-up)".to_string(), times.datagen_s, "s"),
        (
            "index_build_s (last set-up)".to_string(),
            times.build_s,
            "s",
        ),
        (
            "latency_limit_ms".to_string(),
            run.workload.limit_ms(),
            "ms",
        ),
        ("cache_hit_ratio".to_string(), m.cache_hit_ratio, "ratio"),
        ("queue_wait_ms".to_string(), m.queue_wait_ms, "ms"),
    ];
    // Tail percentiles are diagnostics, not bounded metrics: on the defining
    // host their spread over identical runs exceeds any bound the contract
    // allows. Each is printed only when >= 10 samples lie beyond it.
    for (name, q) in [("p90_ms", 0.90), ("p99_ms", 0.99)] {
        if let Some(p) = stats::supported_percentile(&m.latencies_ms, q) {
            diagnostics.push((name.to_string(), p, "ms"));
        }
    }
    if run.workload == Workload::OpenRate {
        diagnostics.push(("open_rate_rps".to_string(), workloads::OPEN_RATE_RPS, "1/s"));
        diagnostics.push(("gen_lag_p99_ms".to_string(), m.gen_lag_p99_ms, "ms"));
    }
    if run.workload == Workload::LiveIngest {
        diagnostics.push(("mutations".to_string(), m.mutations as f64, "count"));
    }
    Outcome {
        metrics,
        diagnostics,
        attempted: m.tally.sent + m.mutations,
        errors: m.tally.errors() + m.mutation_failures,
        digest: m.digest,
        checks: m.checks,
        trace: None,
    }
}

fn run_traced(run: &RunArgs, host: Host) -> Outcome {
    let (system, pool, times, _) = set_up(run);
    let sample = object_pool(
        &system,
        run.scale.layer_sample,
        run.seed ^ LAYER_SAMPLE_SALT,
    );
    let mut tracer = Tracer::on();
    let mut values: layers::Metrics = vec![
        ("datagen.build_s", times.datagen_s),
        (
            "core.index_build_s",
            system.build_stats().index_ns as f64 / 1e9,
        ),
        (
            "core.embedded_entries",
            system.build_stats().embedded as f64,
        ),
    ];
    let mut checks = Vec::new();
    let pipeline = layers::pipeline_layers(
        &system,
        &sample.objects,
        &mut tracer,
        &mut values,
        &mut checks,
    );

    let shared = Arc::new(system);
    layers::service_layers(
        &shared,
        &sample.objects,
        &pipeline.direct_us,
        &run.scale,
        host,
        &mut values,
    );
    let pass_seconds = run.seconds * TRACED_PASS_SHARE;
    let mut m = Measured::default();
    if run.workload != Workload::LiveIngest {
        m = service_pass(
            run.workload,
            &shared,
            &pool,
            run.env(host),
            pass_seconds,
            &mut tracer,
        );
    }
    let mut system = Arc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("every service over the system has shut down"));

    // The live layer: the workload's own pass when that is what was asked
    // for, a fixed number of rounds otherwise.
    let live_from = tracer.spans().len();
    let stop = if run.workload == Workload::LiveIngest {
        Stop::After(Duration::from_secs_f64(pass_seconds))
    } else {
        Stop::Count(run.scale.live_probe_rounds)
    };
    let (live, state) = live_pass(&mut system, &pool, run.env(host), stop, &mut tracer);
    let live_spans = &tracer.spans()[live_from..];
    let apply_s: f64 = live_spans
        .iter()
        .filter(|s| s.name.starts_with("apply."))
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum();
    values.extend([
        (
            "core.apply_add_doc_us",
            mean_us(live_spans, "apply.add_doc"),
        ),
        (
            "core.apply_add_tuple_us",
            mean_us(live_spans, "apply.add_tuple"),
        ),
        ("core.apply_update_us", mean_us(live_spans, "apply.update")),
        ("core.apply_remove_us", mean_us(live_spans, "apply.remove")),
        (
            "core.mutations_per_s",
            live.mutations as f64 / apply_s.max(f64::MIN_POSITIVE),
        ),
        ("core.compact_ms", state.compact_ms),
        ("core.live_tombstones_end", state.tombstones_end as f64),
        ("core.live_segments_end", state.segments_end as f64),
    ]);
    let mut attempted = sample.len() as u64 + live.tally.sent + live.mutations;
    let mut errors = live.tally.errors() + live.mutation_failures;
    checks.extend(live.checks);
    if run.workload == Workload::LiveIngest {
        m.digest = live.digest;
    } else {
        attempted += m.tally.sent;
        errors += m.tally.errors();
    }
    values.extend([
        ("service.queue_wait_ms", m.queue_wait_ms),
        ("service.cache_hit_ratio", m.cache_hit_ratio),
        ("bench.gen_lag_p99_ms", m.gen_lag_p99_ms),
    ]);
    checks.append(&mut m.checks);

    // Two more lakes are built for the cluster comparison; free this one.
    drop(system);
    layers::cluster_layers(&run.scale, run.seed, &mut values, &mut checks);

    let metrics = PER_LAYER
        .iter()
        .map(|layer| Reported {
            name: layer.name,
            value: values
                .iter()
                .find(|(name, _)| *name == layer.name)
                .unwrap_or_else(|| panic!("no probe measured {}", layer.name))
                .1,
            unit: layer.unit,
            better: layer.better,
            samples: sample.len(),
        })
        .collect();
    Outcome {
        metrics,
        diagnostics: vec![
            ("traced_pass_seconds".to_string(), pass_seconds, "s"),
            (
                "spans_recorded".to_string(),
                tracer.spans().len() as f64,
                "count",
            ),
            // core.self_us is the first of these minus the second.
            (
                "verify_object mean".to_string(),
                stats::mean(&pipeline.direct_us),
                "us",
            ),
            (
                "replay child spans mean".to_string(),
                pipeline.children_mean_us,
                "us",
            ),
        ],
        checks,
        attempted,
        errors,
        digest: m.digest,
        trace: Some(tracer),
    }
}

fn write_file(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<bool, String> {
    let run = parse_run(args)?;
    let host = Host::detect();
    println!(
        "workload {} | seed {} | scale {}{} | {} s measured | {} core(s): {} worker(s) + 1 driver | {}",
        run.workload.name(),
        run.seed,
        run.scale.name,
        if run.scale == SMOKE { " (SMOKE: numbers are not comparable)" } else { "" },
        run.seconds,
        host.nproc,
        host.workers,
        if run.traced { "traced pass: per-layer metrics" } else { "untraced: end-to-end metrics" },
    );
    let outcome = if run.traced {
        run_traced(&run, host)
    } else {
        run_untraced(&run, host)
    };

    for m in &outcome.metrics {
        let direction = match m.better {
            Better::Higher => "higher is better",
            Better::Lower => "lower is better",
        };
        println!(
            "{:<34} {:>16.4} {:<6} (n={}, {direction})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for (name, value, unit) in &outcome.diagnostics {
        println!("  [diagnostic] {name:<34} {value:>14.4} {unit}");
    }
    let failed_checks = outcome.checks.iter().filter(|c| !c.pass).count() as u64;
    for c in &outcome.checks {
        println!(
            "  [{}] {} — {}",
            if c.pass { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    let failed = outcome.errors + failed_checks;
    let attempted = outcome.attempted.max(1);
    let error_ratio = stats::error_ratio(outcome.errors, failed_checks, attempted);
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && finite;
    println!(
        "error_ratio {error_ratio} ({} request errors + {failed_checks} failed checks of {attempted} attempted) | decisions digest {}",
        outcome.errors, outcome.digest
    );

    let mut metrics = Map::new();
    let mut detailed = Map::new();
    for m in &outcome.metrics {
        metrics.insert(m.name.into(), json!({"value": m.value, "unit": m.unit}));
        detailed.insert(
            m.name.into(),
            json!({"value": m.value, "unit": m.unit, "samples": m.samples}),
        );
    }
    std::fs::create_dir_all(&run.out).map_err(|e| format!("{}: {e}", run.out.display()))?;
    let stem = if run.traced {
        format!("{}.traced", run.workload.name())
    } else {
        run.workload.name().to_string()
    };
    write_file(
        &run.out.join(format!("{stem}.json")),
        &json!({
            "workload": run.workload.name(),
            "seed": run.seed,
            "scale": run.scale.name,
            "traced": run.traced,
            "seconds": run.seconds,
            "host": {"nproc": host.nproc, "workers": host.workers},
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "error_ratio": error_ratio,
            "digest": outcome.digest.as_str(),
            "metrics": Value::Object(detailed),
            "diagnostics": outcome.diagnostics.iter().map(|(name, value, unit)| {
                json!({"name": name.as_str(), "value": *value, "unit": *unit})
            }).collect::<Vec<Value>>(),
            "checks": outcome.checks.iter().map(|c| {
                json!({"name": c.name, "pass": c.pass, "detail": c.detail.as_str()})
            }).collect::<Vec<Value>>(),
        }),
    )?;
    if let Some(tracer) = &outcome.trace {
        write_file(
            &run.out.join(format!("trace-{}.json", run.workload.name())),
            &json!({
                "workload": run.workload.name(),
                "seed": run.seed,
                "scale": run.scale.name,
                "spans": tracer.to_json(),
            }),
        )?;
    }
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("summarize") if args.len() >= 2 => {
            let sets: Vec<PathBuf> = args[1..].iter().map(PathBuf::from).collect();
            report::summarize(&sets)
        }
        Some("compare") if args.len() == 3 => {
            report::compare_dirs(Path::new(&args[1]), Path::new(&args[2]))
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
