//! `--repeat` and `--compare`: medians, quartiles and verdicts over sets of
//! runs, per (end-to-end metric, workload) pairing, against the bounds in
//! [`crate::manifest`].

use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::manifest::END_TO_END;
use crate::stats::{compare, median, quartiles, spread, worse_by, Verdict};
use crate::workloads::Workload;

/// The run sets under `dir`: its `set-*` subdirectories, or `dir` itself
/// when it holds result files directly.
pub fn sets_in(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut sets: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("set-"))
        })
        .collect();
    sets.sort();
    if sets.is_empty() {
        sets.push(dir.to_path_buf());
    }
    Ok(sets)
}

/// One workload's result file from one set, if that set has it. Smoke and
/// traced results are never compared: they are refused here.
fn load(set: &Path, workload: Workload) -> Result<Option<Value>, String> {
    let path = set.join(format!("{}.json", workload.name()));
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(None);
    };
    let value = crate::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if value["scale"].as_str() != Some(crate::inputs::FULL.name) {
        return Err(format!(
            "{}: scale {:?} results are never compared",
            path.display(),
            value["scale"].as_str().unwrap_or("?")
        ));
    }
    Ok(Some(value))
}

fn metric_values(results: &[Value], metric: &str) -> Vec<f64> {
    results
        .iter()
        .filter_map(|r| r["metrics"][metric]["value"].as_f64())
        .collect()
}

fn quartile_text(values: &[f64]) -> String {
    if values.len() < 2 {
        return "q1 - q3 -".into();
    }
    let [q1, _, q3] = quartiles(values);
    format!("q1 {q1:.4} q3 {q3:.4}")
}

/// Print, per (metric, workload), the median, quartiles and spread over the
/// sets, with a verdict against the bound; check what must repeat exactly.
/// Returns whether everything held.
pub fn summarize(sets: &[PathBuf]) -> Result<bool, String> {
    let mut ok = true;
    println!("{} set(s) of runs", sets.len());
    for workload in Workload::ALL {
        let results: Vec<Value> = sets
            .iter()
            .filter_map(|set| load(set, workload).transpose())
            .collect::<Result<_, _>>()?;
        if results.is_empty() {
            continue;
        }
        println!("\n{} ({} run(s))", workload.name(), results.len());
        for metric in &END_TO_END {
            let values = metric_values(&results, metric.name);
            if values.is_empty() {
                continue;
            }
            let verdict = if values.len() < 2 {
                "single run".to_string()
            } else if spread(&values) > metric.bound {
                ok = false;
                Verdict::Unresolved.label().to_string()
            } else {
                Verdict::Within.label().to_string()
            };
            let spread_pct = if values.len() < 2 {
                0.0
            } else {
                spread(&values) * 100.0
            };
            println!(
                "  {:<18} median {:>12.4} {:<5} {}  spread {:>5.2}% of median, bound {:>4.1}%: {verdict}",
                metric.name,
                median(&values),
                metric.unit,
                quartile_text(&values),
                spread_pct,
                metric.bound * 100.0,
            );
        }
        // What must repeat exactly between runs of one seed.
        for exact in ["digest", "decision_accuracy", "error_ratio"] {
            let mut seen: Vec<String> = results
                .iter()
                .map(|r| match exact {
                    "decision_accuracy" => r["metrics"][exact]["value"].to_string(),
                    _ => r[exact].to_string(),
                })
                .collect();
            seen.dedup();
            if seen.len() > 1 {
                ok = false;
                println!("  {exact} does NOT repeat: {seen:?}");
            } else {
                println!("  {exact} repeats exactly: {}", seen[0]);
            }
        }
        if results.iter().any(|r| r["correct"].as_bool() != Some(true)) {
            ok = false;
            println!("  a run failed its output checks");
        }
    }
    Ok(ok)
}

/// Compare the runs under `cand` against the runs under `base`, pairing by
/// (metric, workload). Every ratio is printed with its base. Returns
/// whether no pairing regressed.
pub fn compare_dirs(base: &Path, cand: &Path) -> Result<bool, String> {
    let (base_sets, cand_sets) = (sets_in(base)?, sets_in(cand)?);
    println!(
        "base {} ({} set(s)) vs candidate {} ({} set(s))",
        base.display(),
        base_sets.len(),
        cand.display(),
        cand_sets.len()
    );
    let mut ok = true;
    for workload in Workload::ALL {
        let load_all = |sets: &[PathBuf]| -> Result<Vec<Value>, String> {
            sets.iter()
                .filter_map(|set| load(set, workload).transpose())
                .collect()
        };
        let (b, c) = (load_all(&base_sets)?, load_all(&cand_sets)?);
        if b.is_empty() || c.is_empty() {
            continue;
        }
        println!("\n{}", workload.name());
        for metric in &END_TO_END {
            let (bv, cv) = (
                metric_values(&b, metric.name),
                metric_values(&c, metric.name),
            );
            if bv.is_empty() || cv.is_empty() {
                continue;
            }
            let (bm, cm) = (median(&bv), median(&cv));
            let verdict = compare(&bv, &cv, metric.better, metric.bound);
            ok &= verdict != Verdict::Regressed;
            println!(
                "  {:<18} base median {bm:.4} {unit} ({}) | candidate median {cm:.4} {unit} ({})",
                metric.name,
                quartile_text(&bv),
                quartile_text(&cv),
                unit = metric.unit,
            );
            println!(
                "  {:<18} candidate/base = {:.4} of base {bm:.4} {}; worse by {:+.2}% against bound {:.1}%: {}",
                "",
                if bm == 0.0 { 0.0 } else { cm / bm },
                metric.unit,
                worse_by(bm, cm, metric.better) * 100.0,
                metric.bound * 100.0,
                verdict.label(),
            );
        }
    }
    Ok(ok)
}
