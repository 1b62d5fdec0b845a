//! Compares two `maicc_bench` JSON reports and prints per-benchmark
//! wall-clock deltas.
//!
//! ```text
//! cargo run --release -p maicc-bench --bin bench_diff -- BASELINE.json NEW.json \
//!     [--fail-on-regress PCT]
//! ```
//!
//! A report is read with the workspace's JSON reader
//! (`maicc::serve::json`), which takes any valid JSON layout: the tool
//! reads `benchmarks[].name`, `benchmarks[].median_ns` and the members
//! of the `derived` object by key. Without `--fail-on-regress` it is
//! *informational about measurements* but still honest about inputs:
//! exit 0 annotates the log, while a usage error (an argument the tool
//! does not read, or a `--fail-on-regress` without a finite number), an
//! unreadable file, a report that is not JSON, a benchmark entry
//! without a string `name` and an integer `median_ns`, a non-numeric
//! derived value, or a report with no benchmark entries exits [`EXIT_MISSING`] (2), naming the file
//! and the entry — distinct from the measured-regression exit 1 so CI
//! can tell "the code got slower" from "the comparison never happened".
//! With `--fail-on-regress PCT` the exit code is 1 when any
//! benchmark's median regressed by more than `PCT` percent over the
//! baseline, and 2 when a gated derived metric the baseline had
//! measured is missing from the new report entirely. Benchmarks
//! present on only one side are listed as added or removed.
//!
//! Besides the timing rows the tool also diffs the report's `derived`
//! block. Derived metrics are informational except the
//! `serve_overload_*` family, `serve_repeat_p50_cycles`, and the
//! `serve_cluster_*` family (minus the informational
//! `serve_cluster_failovers` count), where "higher" means "worse"
//! (Hard-tenant p99, shed rate, preemption/retry counts, repeat-heavy
//! warm p50, cluster failover-recovery p99 / fleet p99s / miss rate /
//! detection latency): those are held to the same `--fail-on-regress`
//! threshold, skipping keys whose baseline is 0 (absent or not yet
//! measured). Three metrics additionally get absolute gates under the
//! same flag, so a collapse fails even against a drifted baseline:
//! `speedup_vs_sequential` ([`SPEEDUP_FLOOR`]), `weight_cache_hit_rate`
//! ([`HIT_RATE_FLOOR`]), and `serve_cluster_hard_lost` (any value above
//! zero fails — the fault-domain invariant is that the Hard tier never
//! loses a request, so there is no acceptable baseline to drift from).
//!
//! When `--fail-on-regress` is active the tool prints a `gates` section
//! listing every gate it evaluated with the observed value, the
//! baseline it was held to, and the remaining margin, even when all of
//! them pass — a green CI log should still show what was checked and
//! how close it came.

use maicc::cli::Args;
use maicc::serve::json::{self, Value};
use std::process::ExitCode;

/// Exit code for "the comparison could not be made": usage errors,
/// unreadable files, reports that are not JSON or lack a field the tool
/// reads, reports with no benchmark entries, and gated derived metrics
/// that vanished from the new report. Distinct from exit 1 (a measured regression) so CI logs
/// separate "slower" from "not measured".
const EXIT_MISSING: u8 = 2;

/// What the tool reads from one report, in file order.
#[derive(Debug, Default)]
struct Report {
    /// `(name, median_ns)` per `benchmarks` entry.
    medians: Vec<(String, u64)>,
    /// `(key, value)` per `derived` member.
    derived: Vec<(String, f64)>,
}

/// Reads a harness report. `benchmarks` and `derived` may be absent;
/// when present, every benchmark entry needs a string `name` and an
/// integer `median_ns`, and every derived member must be a number. A
/// repeated derived key keeps its first place and takes its last value.
fn parse_report(text: &str) -> Result<Report, String> {
    let doc = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let mut report = Report::default();
    if let Some(list) = doc.get("benchmarks") {
        let list = list.as_array().ok_or("`benchmarks` is not an array")?;
        for (i, entry) in list.iter().enumerate() {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("benchmarks[{i}] has no string `name`"))?;
            let median = entry
                .get("median_ns")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("benchmarks[{i}] `{name}` has no integer `median_ns`"))?;
            report.medians.push((name.to_string(), median));
        }
    }
    if let Some(derived) = doc.get("derived") {
        let Value::Object(members) = derived else {
            return Err("`derived` is not an object".into());
        };
        for (key, value) in members {
            let v = value
                .as_f64()
                .ok_or_else(|| format!("derived `{key}` is not a number"))?;
            match report.derived.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = v,
                None => report.derived.push((key.clone(), v)),
            }
        }
    }
    Ok(report)
}

/// The largest percentage slowdown of any benchmark present on both
/// sides; `None` when nothing is comparable or nothing got slower.
fn worst_regression(base: &[(String, u64)], new: &[(String, u64)]) -> Option<(String, f64)> {
    new.iter()
        .filter_map(|(name, new_ns)| {
            let (_, base_ns) = base.iter().find(|(b, _)| b == name)?;
            let pct = (*new_ns as f64 - *base_ns as f64) / *base_ns as f64 * 100.0;
            (pct > 0.0).then(|| (name.clone(), pct))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// Whether a derived key is held to the relative regression gate.
/// Higher is worse for all of these: overload counters, the
/// repeat-heavy warm p50, the cluster failover metrics (p99s, miss
/// rate, detection latency, losses), and the soak-day fleet p99.
/// `serve_cluster_failovers` is a plain re-dispatch count that tracks
/// the fault plan, not a health metric, so it stays informational — as
/// do the soak window count and hit rate.
fn is_gated_derived(name: &str) -> bool {
    name.starts_with("serve_overload_")
        || name == "serve_repeat_p50_cycles"
        || name == "serve_soak_p99_cycles"
        || (name.starts_with("serve_cluster_") && name != "serve_cluster_failovers")
}

/// The largest percentage increase of any gated derived metric (see
/// [`is_gated_derived`], where higher is worse). Keys with a zero or
/// missing baseline are skipped.
fn worst_derived_regression(
    base: &[(String, f64)],
    new: &[(String, f64)],
) -> Option<(String, f64)> {
    new.iter()
        .filter(|(name, _)| is_gated_derived(name))
        .filter_map(|(name, new_v)| {
            let (_, base_v) = base.iter().find(|(b, _)| b == name)?;
            if *base_v <= 0.0 {
                return None;
            }
            let pct = (new_v - base_v) / base_v * 100.0;
            (pct > 0.0).then(|| (name.clone(), pct))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// Absolute floor for `speedup_vs_sequential`, the reference loop's time
/// over the partitioned loop's (`StreamSim::run_reference` against
/// `StreamSim::run`, both on one thread). Unlike the relative regression
/// gate this does not compare against the baseline: a collapsed fast
/// path (the tracked mesh tick, phase skipping, the byte-shadow MAC)
/// should fail CI even if the checked-in baseline has already drifted
/// down. 2.5 leaves headroom below the 3.0 in the committed record so
/// ordinary run-to-run noise doesn't flap.
const SPEEDUP_FLOOR: f64 = 2.5;

/// Returns the new report's `speedup_vs_sequential` if it is below the
/// floor. The harness emits 0.00 when the sequential/partitioned bench
/// pair didn't run (filtered `--bench` invocations), so zero means
/// "not measured", not "collapsed", and passes — as does a report
/// without the key at all.
fn speedup_floor_breach(new: &[(String, f64)]) -> Option<f64> {
    new.iter()
        .find(|(name, _)| name == "speedup_vs_sequential")
        .map(|&(_, v)| v)
        .filter(|v| *v > 0.0 && *v < SPEEDUP_FLOOR)
}

/// Absolute floor for the weight cache's hit rate on the repeat-heavy
/// Zipf mix. The harness records ~0.86; below 0.5 the cache is no
/// longer doing its job (eviction thrash, broken retention scoring) no
/// matter what the checked-in baseline says.
const HIT_RATE_FLOOR: f64 = 0.5;

/// Returns the new report's `weight_cache_hit_rate` if it is below the
/// floor. As with the speedup floor, 0.0 means "bench not run" and
/// passes, as does an absent key.
fn hit_rate_floor_breach(new: &[(String, f64)]) -> Option<f64> {
    new.iter()
        .find(|(name, _)| name == "weight_cache_hit_rate")
        .map(|&(_, v)| v)
        .filter(|v| *v > 0.0 && *v < HIT_RATE_FLOOR)
}

/// Returns the new report's `serve_cluster_hard_lost` if it is above
/// zero. This is an absolute invariant, not a regression gate: the
/// cluster's fault-domain contract is that the Hard tier never loses a
/// request across a fabric kill, so any nonzero value fails regardless
/// of the baseline. The "0.0 means not run" convention of the other
/// floors is naturally safe here — 0 is also the passing value.
fn hard_lost_breach(new: &[(String, f64)]) -> Option<f64> {
    new.iter()
        .find(|(name, _)| name == "serve_cluster_hard_lost")
        .map(|&(_, v)| v)
        .filter(|v| *v > 0.0)
}

/// Gated derived metrics the baseline measured (value above zero) that
/// are missing from the new report entirely. A silently dropped metric
/// must not pass as green, but it is not a measured regression either —
/// it exits [`EXIT_MISSING`] instead of 1.
fn missing_gated_derived(
    base: &[(String, f64)],
    new: &[(String, f64)],
) -> Vec<String> {
    base.iter()
        .filter(|(name, v)| is_gated_derived(name) && *v > 0.0)
        .filter(|(name, _)| !new.iter().any(|(n, _)| n == name))
        .map(|(name, _)| name.clone())
        .collect()
}

/// The two report paths and the `--fail-on-regress` limit.
fn read_args() -> Result<(String, String, Option<f64>), String> {
    let mut args: Args = std::env::args().skip(1).collect();
    let limit: Option<f64> = args.value("--fail-on-regress")?;
    if limit.is_some_and(|l| !l.is_finite()) {
        return Err("--fail-on-regress needs a finite PCT".into());
    }
    let paths = (args.positional(), args.positional());
    args.finish()?;
    match paths {
        (Some(base), Some(new)) => Ok((base, new, limit)),
        _ => Err("needs two reports".into()),
    }
}

fn main() -> ExitCode {
    let (baseline_path, new_path, fail_limit) = match read_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            eprintln!("usage: bench_diff BASELINE.json NEW.json [--fail-on-regress PCT]");
            return ExitCode::from(EXIT_MISSING);
        }
    };
    let read = |path: &str| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| eprintln!("bench_diff: cannot read {path}: {e}"))
            .ok()?;
        parse_report(&text)
            .map_err(|e| eprintln!("bench_diff: {path}: {e}"))
            .ok()
    };
    let (Some(base_report), Some(new_report)) = (read(&baseline_path), read(&new_path)) else {
        return ExitCode::from(EXIT_MISSING);
    };
    let (base, base_derived) = (base_report.medians, base_report.derived);
    let (new, new_derived) = (new_report.medians, new_report.derived);
    if base.is_empty() || new.is_empty() {
        eprintln!(
            "bench_diff: no benchmark entries ({} baseline, {} new)",
            base.len(),
            new.len()
        );
        return ExitCode::from(EXIT_MISSING);
    }

    println!("bench_diff: {baseline_path} -> {new_path}");
    println!(
        "{:<34} {:>14} {:>14} {:>9}",
        "benchmark", "baseline_ns", "new_ns", "delta"
    );
    for (name, new_ns) in &new {
        match base.iter().find(|(b, _)| b == name) {
            Some((_, base_ns)) => {
                let pct = (*new_ns as f64 - *base_ns as f64) / *base_ns as f64 * 100.0;
                println!("{name:<34} {base_ns:>14} {new_ns:>14} {pct:>+8.1}%");
            }
            None => println!("{name:<34} {:>14} {new_ns:>14}    added", "-"),
        }
    }
    for (name, base_ns) in &base {
        if !new.iter().any(|(n, _)| n == name) {
            println!("{name:<34} {base_ns:>14} {:>14}  removed", "-");
        }
    }
    for (name, new_v) in &new_derived {
        match base_derived.iter().find(|(b, _)| b == name) {
            Some((_, base_v)) if *base_v > 0.0 => {
                let pct = (new_v - base_v) / base_v * 100.0;
                println!("{name:<34} {base_v:>14.3} {new_v:>14.3} {pct:>+8.1}%");
            }
            Some((_, base_v)) => {
                println!("{name:<34} {base_v:>14.3} {new_v:>14.3}        -");
            }
            None => println!("{name:<34} {:>14} {new_v:>14.3}    added", "-"),
        }
    }
    if let Some(limit) = fail_limit {
        // List every gate with the observed value, the baseline it was
        // held to, and the remaining margin — a green run should still
        // show what was checked and how close it came. Failures print
        // after the table.
        println!("\ngates (--fail-on-regress {limit:.1}%):");
        let timing = worst_regression(&base, &new);
        match &timing {
            Some((name, pct)) => {
                let lookup = |side: &[(String, u64)]| {
                    side.iter()
                        .find(|(n, _)| n == name)
                        .map_or(0, |&(_, v)| v)
                };
                println!(
                    "  timing regression          worst `{name}` {} -> {} ns \
                     ({pct:+.1}%, margin {:.1}% of the {limit:.1}% limit)",
                    lookup(&base),
                    lookup(&new),
                    limit - pct
                );
            }
            None => println!("  timing regression          nothing slower than baseline"),
        }
        let derived = worst_derived_regression(&base_derived, &new_derived);
        match &derived {
            Some((name, pct)) => {
                let lookup = |side: &[(String, f64)]| {
                    side.iter()
                        .find(|(n, _)| n == name)
                        .map_or(0.0, |&(_, v)| v)
                };
                println!(
                    "  derived regression         worst `{name}` {:.3} -> {:.3} \
                     ({pct:+.1}%, margin {:.1}% of the {limit:.1}% limit)",
                    lookup(&base_derived),
                    lookup(&new_derived),
                    limit - pct
                );
            }
            None => println!("  derived regression         no gated metric worsened"),
        }
        let gate_value = |key: &str| {
            new_derived
                .iter()
                .find(|(name, _)| name == key)
                .map(|&(_, v)| v)
        };
        let print_floor = |label: &str, key: &str, floor: f64| match gate_value(key) {
            Some(v) if v > 0.0 => println!(
                "  {label} {v:.2} (floor {floor:.1}, margin {:+.2})",
                v - floor
            ),
            _ => println!("  {label} not run"),
        };
        print_floor("speedup_vs_sequential     ", "speedup_vs_sequential", SPEEDUP_FLOOR);
        print_floor("weight_cache_hit_rate     ", "weight_cache_hit_rate", HIT_RATE_FLOOR);
        match gate_value("serve_cluster_hard_lost") {
            Some(v) => println!("  serve_cluster_hard_lost    {v:.0} (must be 0)"),
            None => println!("  serve_cluster_hard_lost    not run"),
        }
        let missing = missing_gated_derived(&base_derived, &new_derived);
        if missing.is_empty() {
            println!("  missing gated metrics      none");
        } else {
            println!("  missing gated metrics      {}", missing.join(", "));
        }
        if let Some((name, pct)) = timing {
            if pct > limit {
                eprintln!(
                    "bench_diff: `{name}` regressed {pct:+.1}% (> {limit:.1}% limit)"
                );
                return ExitCode::FAILURE;
            }
        }
        if let Some((name, pct)) = derived {
            if pct > limit {
                eprintln!(
                    "bench_diff: derived `{name}` worsened {pct:+.1}% (> {limit:.1}% limit)"
                );
                return ExitCode::FAILURE;
            }
        }
        if let Some(v) = speedup_floor_breach(&new_derived) {
            eprintln!(
                "bench_diff: derived `speedup_vs_sequential` = {v:.2} below the \
                 {SPEEDUP_FLOOR:.1} floor — the partitioned loop has collapsed"
            );
            return ExitCode::FAILURE;
        }
        if let Some(v) = hit_rate_floor_breach(&new_derived) {
            eprintln!(
                "bench_diff: derived `weight_cache_hit_rate` = {v:.2} below the \
                 {HIT_RATE_FLOOR:.1} floor — the weight cache has stopped hitting"
            );
            return ExitCode::FAILURE;
        }
        if let Some(v) = hard_lost_breach(&new_derived) {
            eprintln!(
                "bench_diff: derived `serve_cluster_hard_lost` = {v:.0} — the cluster \
                 dropped Hard-tier requests during failover"
            );
            return ExitCode::FAILURE;
        }
        if !missing.is_empty() {
            eprintln!(
                "bench_diff: gated derived metric(s) missing from the new report: {}",
                missing.join(", ")
            );
            return ExitCode::from(EXIT_MISSING);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{
        hard_lost_breach, hit_rate_floor_breach, is_gated_derived,
        missing_gated_derived, parse_report, speedup_floor_breach,
        worst_derived_regression, worst_regression,
    };

    fn parse_derived(json: &str) -> Vec<(String, f64)> {
        parse_report(json).unwrap().derived
    }

    #[test]
    fn parses_harness_shape() {
        let json = r#"{
  "benchmarks": [
    {"name": "a_bench", "median_ns": 123, "p10_ns": 100, "iterations": 5, "check": 7},
    {"name": "b_bench", "median_ns": 456, "p10_ns": 400, "iterations": 5, "check": 7}
  ]
}"#;
        assert_eq!(
            parse_report(json).unwrap().medians,
            vec![("a_bench".to_string(), 123), ("b_bench".to_string(), 456)]
        );
    }

    #[test]
    fn empty_input_yields_no_entries() {
        assert!(parse_report("{}").unwrap().medians.is_empty());
    }

    #[test]
    fn parses_and_gates_derived_metrics() {
        let base = r#"{
  "derived": {
    "speedup_vs_sequential": 2.50,
    "serve_overload_hard_p99_cycles": 300000,
    "serve_overload_shed_rate": 0.500,
    "serve_overload_preemptions": 0
  }
}"#;
        let new = r#"{
  "derived": {
    "speedup_vs_sequential": 1.00,
    "serve_overload_hard_p99_cycles": 390000,
    "serve_overload_shed_rate": 0.520,
    "serve_overload_preemptions": 3
  }
}"#;
        let b = parse_derived(base);
        let n = parse_derived(new);
        assert_eq!(b.len(), 4);
        // Hard p99 went up 30% — the worst gated metric by relative
        // regression. The collapsed speedup is caught separately by the
        // absolute floor; the preemption jump has a 0 baseline and is
        // skipped.
        let (name, pct) = worst_derived_regression(&b, &n).unwrap();
        assert_eq!(name, "serve_overload_hard_p99_cycles");
        assert!((pct - 30.0).abs() < 1e-9, "{pct}");
        assert_eq!(speedup_floor_breach(&n), Some(1.00));
    }

    #[test]
    fn speedup_floor_gates_on_new_value_only() {
        // At or above the floor: passes, regardless of the baseline.
        let ok = parse_derived(r#"{"derived": {"speedup_vs_sequential": 2.50}}"#);
        assert_eq!(speedup_floor_breach(&ok), None);
        let good = parse_derived(r#"{"derived": {"speedup_vs_sequential": 3.03}}"#);
        assert_eq!(speedup_floor_breach(&good), None);
        // Below the floor: fails even if the baseline had drifted down.
        let bad = parse_derived(r#"{"derived": {"speedup_vs_sequential": 2.49}}"#);
        assert_eq!(speedup_floor_breach(&bad), Some(2.49));
        // 0.00 = bench pair not run (filtered --bench invocation): passes.
        let unrun = parse_derived(r#"{"derived": {"speedup_vs_sequential": 0.00}}"#);
        assert_eq!(speedup_floor_breach(&unrun), None);
        // Missing metric entirely: not a breach either.
        let absent = parse_derived(r#"{"derived": {"serve_overload_shed_rate": 0.5}}"#);
        assert_eq!(speedup_floor_breach(&absent), None);
    }

    #[test]
    fn repeat_p50_is_gated_higher_is_worse() {
        let b = parse_derived(
            r#"{"derived": {"serve_repeat_p50_cycles": 200000,
                            "serve_repeat_cold_p50_cycles": 480000}}"#,
        );
        // The warm p50 regressed 25%; the cold p50 (informational)
        // halved, which must not mask the warm regression.
        let n = parse_derived(
            r#"{"derived": {"serve_repeat_p50_cycles": 250000,
                            "serve_repeat_cold_p50_cycles": 240000}}"#,
        );
        let (name, pct) = worst_derived_regression(&b, &n).unwrap();
        assert_eq!(name, "serve_repeat_p50_cycles");
        assert!((pct - 25.0).abs() < 1e-9, "{pct}");
    }

    #[test]
    fn hit_rate_floor_gates_on_new_value_only() {
        let ok = parse_derived(r#"{"derived": {"weight_cache_hit_rate": 0.8649}}"#);
        assert_eq!(hit_rate_floor_breach(&ok), None);
        let bad = parse_derived(r#"{"derived": {"weight_cache_hit_rate": 0.4200}}"#);
        assert_eq!(hit_rate_floor_breach(&bad), Some(0.42));
        // 0.0 = bench not run; absent key likewise passes.
        let unrun = parse_derived(r#"{"derived": {"weight_cache_hit_rate": 0.0000}}"#);
        assert_eq!(hit_rate_floor_breach(&unrun), None);
        assert_eq!(hit_rate_floor_breach(&[]), None);
    }

    #[test]
    fn cluster_metrics_are_gated_except_the_failover_count() {
        assert!(is_gated_derived("serve_cluster_failover_p99_cycles"));
        assert!(is_gated_derived("serve_cluster_fcfs_p99_cycles"));
        assert!(is_gated_derived("serve_cluster_sjf_p99_cycles"));
        assert!(is_gated_derived("serve_cluster_miss_rate"));
        assert!(is_gated_derived("serve_cluster_detect_p50_cycles"));
        assert!(is_gated_derived("serve_cluster_lost"));
        assert!(!is_gated_derived("serve_cluster_failovers"));
        assert!(!is_gated_derived("serve_fcfs_p99_cycles"));

        let b = parse_derived(
            r#"{"derived": {"serve_cluster_failover_p99_cycles": 500000,
                            "serve_cluster_failovers": 4}}"#,
        );
        // The recovery tail regressed 20%; the failover count tripling
        // is informational and must not win (or even place).
        let n = parse_derived(
            r#"{"derived": {"serve_cluster_failover_p99_cycles": 600000,
                            "serve_cluster_failovers": 12}}"#,
        );
        let (name, pct) = worst_derived_regression(&b, &n).unwrap();
        assert_eq!(name, "serve_cluster_failover_p99_cycles");
        assert!((pct - 20.0).abs() < 1e-9, "{pct}");
    }

    #[test]
    fn hard_lost_is_an_absolute_invariant() {
        // 0 is the passing value — also what an unrun bench emits.
        let ok = parse_derived(r#"{"derived": {"serve_cluster_hard_lost": 0}}"#);
        assert_eq!(hard_lost_breach(&ok), None);
        assert_eq!(hard_lost_breach(&[]), None);
        // Any loss fails, no matter what the baseline recorded.
        let bad = parse_derived(r#"{"derived": {"serve_cluster_hard_lost": 1}}"#);
        assert_eq!(hard_lost_breach(&bad), Some(1.0));
    }

    #[test]
    fn vanished_gated_metrics_are_flagged_not_regressed() {
        let b = parse_derived(
            r#"{"derived": {"serve_cluster_hard_p99_cycles": 500000,
                            "serve_cluster_failovers": 4,
                            "serve_overload_shed_rate": 0.0,
                            "serve_fcfs_p99_cycles": 90000}}"#,
        );
        // The gated hard p99 vanished; the informational failover count
        // and the zero-baseline (unmeasured) shed rate vanishing are
        // both fine, as is an ungated key.
        let n = parse_derived(r#"{"derived": {"serve_repeat_p50_cycles": 1}}"#);
        assert_eq!(
            missing_gated_derived(&b, &n),
            vec!["serve_cluster_hard_p99_cycles".to_string()]
        );
        // nothing missing when the key is present, whatever its value
        let ok = parse_derived(
            r#"{"derived": {"serve_cluster_hard_p99_cycles": 1}}"#,
        );
        assert!(missing_gated_derived(&b, &ok).is_empty());
    }

    #[test]
    fn worst_regression_picks_largest_slowdown() {
        let base = vec![
            ("a".to_string(), 100u64),
            ("b".to_string(), 100),
            ("c".to_string(), 100),
        ];
        let new = vec![
            ("a".to_string(), 90u64),   // improvement: ignored
            ("b".to_string(), 150),     // +50%
            ("c".to_string(), 120),     // +20%
            ("d".to_string(), 999),     // no baseline: ignored
        ];
        let (name, pct) = worst_regression(&base, &new).unwrap();
        assert_eq!(name, "b");
        assert!((pct - 50.0).abs() < 1e-9, "{pct}");
        // all-improvements case reports nothing
        assert!(worst_regression(&base, &base[..1]).is_none());
    }
}
