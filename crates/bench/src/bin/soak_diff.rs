//! Compares two `maicc soak` JSONL telemetry streams and flags
//! trajectory drift.
//!
//! ```text
//! cargo run --release -p maicc-bench --bin soak_diff -- BASELINE.jsonl NEW.jsonl \
//!     [--tolerance PCT]
//! ```
//!
//! Where `bench_diff` compares two *point* summaries, this tool
//! compares two *trajectories*: it ingests the per-interval records the
//! observability layer emits (one JSON object per line, the `maicc-obs`
//! schema) and reduces each stream to four trend figures that a final
//! report hides:
//!
//! * **p99 trend slope** — least-squares slope of the window p99 over
//!   windows that completed anything, cycles per window. A healthy soak
//!   is flat; a positive slope is latency creep.
//! * **hit-rate decay** — mean cache hit rate over the first half of
//!   the run minus the second half. Positive means the cache is getting
//!   *worse* as the run ages (retention rot, eviction thrash).
//! * **unrecovered-queue growth** — least-squares slope of total queue
//!   depth (all tiers) over the run. A diurnal trace queues up through
//!   the peak and drains at night; a positive slope across whole days
//!   means the backlog never recovers.
//! * **failover-cost accumulation** — mean failovers per window. Fault
//!   churn makes some failover constant; a jump means recovery is
//!   re-dispatching more than the baseline did under the same plan.
//!
//! Each figure is compared against the baseline stream's under a
//! combined tolerance: the current value may exceed the baseline by
//! `--tolerance` percent of the baseline's magnitude (default 10) or by
//! the metric's absolute slack floor, whichever is larger — the floors
//! keep near-zero baselines from flagging noise. The `gates` section
//! prints every gate with the observed value, the baseline, and the
//! slack it was allowed, pass or fail.
//!
//! Every line is read with the workspace's JSON reader
//! (`maicc::serve::json`), and each field by its path in the schema
//! (`latency_cycles.p99`, `queue_depth.hard`, …), so key order and
//! spacing do not matter. A stream is compared whole or not at all: a
//! line that is not JSON or lacks a field the trend figures need
//! rejects its stream, naming the file and the line.
//!
//! Exit codes mirror `bench_diff`: 0 clean, 1 when any gate drifted,
//! [`EXIT_MISSING`] (2) on usage errors (an argument the tool does not
//! read, or a `--tolerance` without a finite number), unreadable files,
//! rejected streams, or streams with no window records — "worse" and
//! "not comparable" are different CI outcomes.

use maicc::cli::Args;
use maicc::serve::json::{self, Value};
use std::process::ExitCode;

/// Exit code for "the comparison could not be made" (usage error,
/// unreadable file, rejected or empty stream), distinct from exit 1
/// (drift).
const EXIT_MISSING: u8 = 2;

/// Absolute slack floors per metric, applied when the relative
/// tolerance on a near-zero baseline would flag noise: cycles/window
/// for the p99 slope, hit-rate fraction for the decay, queue entries
/// per window for the growth, failovers per window for the
/// accumulation.
const P99_SLOPE_SLACK: f64 = 1_000.0;
const HIT_DECAY_SLACK: f64 = 0.05;
const QUEUE_SLOPE_SLACK: f64 = 0.5;
const FAILOVER_RATE_SLACK: f64 = 0.5;

/// One parsed telemetry window (the fields the trend figures need).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Window {
    completions: f64,
    p99: f64,
    hits: f64,
    misses: f64,
    queue_total: f64,
    failovers: f64,
}

/// Reads one line's window: the integer fields the trend figures need,
/// each at its path in the schema.
fn parse_line(line: &str) -> Result<Window, String> {
    let doc = json::parse(line).map_err(|e| format!("not JSON: {e}"))?;
    let read = |path: &str| {
        path.split('.')
            .try_fold(&doc, |v, key| v.get(key))
            .and_then(Value::as_u64)
            .map(|n| n as f64)
            .ok_or_else(|| format!("no integer `{path}`"))
    };
    Ok(Window {
        completions: read("completions")?,
        p99: read("latency_cycles.p99")?,
        hits: read("cache.hits")?,
        misses: read("cache.misses")?,
        queue_total: read("queue_depth.hard")?
            + read("queue_depth.soft")?
            + read("queue_depth.best_effort")?,
        failovers: read("failovers")?,
    })
}

/// Parses a stream into windows, one per line; the first line that
/// [`parse_line`] refuses rejects the stream, and the error names it
/// (counting from 1).
fn parse_stream(text: &str) -> Result<Vec<Window>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| parse_line(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Least-squares slope of `(index, value)` points; 0 with fewer than
/// two points (no trend is measurable).
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return 0.0;
    }
    (n * sxy - sx * sy) / denom
}

/// The four trend figures of one stream.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Trajectory {
    p99_slope: f64,
    hit_decay: f64,
    queue_slope: f64,
    failover_rate: f64,
}

fn trajectory(windows: &[Window]) -> Trajectory {
    let p99: Vec<(f64, f64)> = windows
        .iter()
        .enumerate()
        .filter(|(_, w)| w.completions > 0.0)
        .map(|(i, w)| (i as f64, w.p99))
        .collect();
    let queue: Vec<(f64, f64)> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| (i as f64, w.queue_total))
        .collect();
    let rates: Vec<f64> = windows
        .iter()
        .filter(|w| w.hits + w.misses > 0.0)
        .map(|w| w.hits / (w.hits + w.misses))
        .collect();
    let mean = |s: &[f64]| {
        if s.is_empty() {
            0.0
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        }
    };
    let (first, second) = rates.split_at(rates.len() / 2);
    let hit_decay = if first.is_empty() || second.is_empty() {
        0.0
    } else {
        mean(first) - mean(second)
    };
    let failover_rate = windows
        .iter()
        .map(|w| w.failovers)
        .sum::<f64>()
        / windows.len().max(1) as f64;
    Trajectory {
        p99_slope: slope(&p99),
        hit_decay,
        queue_slope: slope(&queue),
        failover_rate,
    }
}

/// Whether `cur` drifted worse than `base` under the combined
/// tolerance: `rel_pct` percent of the baseline's magnitude or the
/// metric's absolute `floor`, whichever allows more.
fn drifted(base: f64, cur: f64, rel_pct: f64, floor: f64) -> bool {
    cur > base + (base.abs() * rel_pct / 100.0).max(floor)
}

/// The two stream paths and the `--tolerance` percentage.
fn read_args() -> Result<(String, String, f64), String> {
    let mut args: Args = std::env::args().skip(1).collect();
    let tolerance: f64 = args.value("--tolerance")?.unwrap_or(10.0);
    if !tolerance.is_finite() {
        return Err("--tolerance needs a finite PCT".into());
    }
    let paths = (args.positional(), args.positional());
    args.finish()?;
    match paths {
        (Some(base), Some(new)) => Ok((base, new, tolerance)),
        _ => Err("needs two streams".into()),
    }
}

fn main() -> ExitCode {
    let (baseline_path, new_path, tolerance) = match read_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("soak_diff: {e}");
            eprintln!("usage: soak_diff BASELINE.jsonl NEW.jsonl [--tolerance PCT]");
            return ExitCode::from(EXIT_MISSING);
        }
    };
    let read = |path: &str| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| eprintln!("soak_diff: cannot read {path}: {e}"))
            .ok()?;
        parse_stream(&text)
            .map_err(|e| eprintln!("soak_diff: {path}: {e}"))
            .ok()
    };
    let (Some(base_windows), Some(new_windows)) = (read(&baseline_path), read(&new_path)) else {
        return ExitCode::from(EXIT_MISSING);
    };
    if base_windows.is_empty() || new_windows.is_empty() {
        eprintln!(
            "soak_diff: no telemetry windows ({} baseline, {} new)",
            base_windows.len(),
            new_windows.len()
        );
        return ExitCode::from(EXIT_MISSING);
    }
    let base = trajectory(&base_windows);
    let new = trajectory(&new_windows);

    println!(
        "soak_diff: {baseline_path} ({} windows) -> {new_path} ({} windows)",
        base_windows.len(),
        new_windows.len()
    );
    println!("gates (tolerance {tolerance:.1}%):");
    let mut drifts: Vec<String> = Vec::new();
    let mut gate = |label: &str, unit: &str, b: f64, c: f64, floor: f64| {
        let bad = drifted(b, c, tolerance, floor);
        println!(
            "  {label:<26} base {b:+.3} -> cur {c:+.3} {unit} (slack {:.3})  {}",
            (b.abs() * tolerance / 100.0).max(floor),
            if bad { "DRIFT" } else { "ok" }
        );
        if bad {
            drifts.push(label.to_string());
        }
    };
    gate(
        "p99 trend slope",
        "cycles/window",
        base.p99_slope,
        new.p99_slope,
        P99_SLOPE_SLACK,
    );
    gate(
        "hit-rate decay",
        "fraction",
        base.hit_decay,
        new.hit_decay,
        HIT_DECAY_SLACK,
    );
    gate(
        "unrecovered-queue growth",
        "entries/window",
        base.queue_slope,
        new.queue_slope,
        QUEUE_SLOPE_SLACK,
    );
    gate(
        "failover accumulation",
        "per window",
        base.failover_rate,
        new.failover_rate,
        FAILOVER_RATE_SLACK,
    );
    if drifts.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("soak_diff: trajectory drift in: {}", drifts.join(", "));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{drifted, parse_stream, slope, trajectory, Window};

    /// A minimal schema-shaped line with the fields the analyzer reads.
    fn line(
        completions: u64,
        p99: u64,
        hits: u64,
        misses: u64,
        queue: u64,
        failovers: u64,
    ) -> String {
        format!(
            "{{\"interval\": 0, \"completions\": {completions}, \
             \"failovers\": {failovers}, \
             \"latency_cycles\": {{\"p50\": 0, \"p99\": {p99}}}, \
             \"queue_depth\": {{\"hard\": {queue}, \"soft\": 0, \
             \"best_effort\": 0}}, \
             \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \
             \"llc_hits\": 0}}}}"
        )
    }

    #[test]
    fn parse_stream_reads_nested_keys_without_aliasing() {
        // `hits` must not be read from `llc_hits` (placed first here)
        // or from a top-level decoy: each field is read at its path
        let l = "{\"completions\": 3, \"failovers\": 1, \"hits\": 77, \
                 \"latency_cycles\": {\"p50\": 7, \"p99\": 4200}, \
                 \"queue_depth\": {\"hard\": 2, \"soft\": 0, \"best_effort\": 0}, \
                 \"cache\": {\"llc_hits\": 5, \"hits\": 9, \"misses\": 1}}";
        let expected = Window {
            completions: 3.0,
            p99: 4200.0,
            hits: 9.0,
            misses: 1.0,
            queue_total: 2.0,
            failovers: 1.0,
        };
        assert_eq!(parse_stream(l), Ok(vec![expected]));
        assert_eq!(parse_stream(&line(3, 4200, 9, 1, 2, 1)), Ok(vec![expected]));
    }

    #[test]
    fn unparsable_streams_are_rejected() {
        assert_eq!(parse_stream(""), Ok(Vec::new()));
        let err = parse_stream("not json at all\n{}").unwrap_err();
        assert!(err.starts_with("line 1: not JSON"), "{err}");
        // one bad line rejects the whole stream rather than shortening it
        let good = line(5, 50_000, 9, 1, 3, 0);
        let err = parse_stream(&format!("{good}\n{{}}\n{good}")).unwrap_err();
        assert_eq!(err, "line 2: no integer `completions`");
    }

    #[test]
    fn slope_fits_a_line() {
        let pts: Vec<(f64, f64)> =
            (0..10).map(|i| (i as f64, 3.0 * i as f64 + 7.0)).collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-9);
        assert_eq!(slope(&pts[..1]), 0.0);
        assert_eq!(slope(&[]), 0.0);
    }

    #[test]
    fn steady_stream_has_flat_trajectory() {
        let text: String = (0..20)
            .map(|_| line(5, 50_000, 9, 1, 3, 0))
            .collect::<Vec<_>>()
            .join("\n");
        let t = trajectory(&parse_stream(&text).unwrap());
        assert!(t.p99_slope.abs() < 1e-9);
        assert!(t.hit_decay.abs() < 1e-9);
        assert!(t.queue_slope.abs() < 1e-9);
        assert_eq!(t.failover_rate, 0.0);
    }

    #[test]
    fn injected_hit_rate_decay_is_flagged() {
        // Baseline: a steady 90% hit rate. Current: the same first
        // half, then the cache rots to 20% — the regression the
        // acceptance test injects.
        let steady: String = (0..20)
            .map(|_| line(5, 50_000, 9, 1, 3, 0))
            .collect::<Vec<_>>()
            .join("\n");
        let decayed: String = (0..20)
            .map(|i| {
                if i < 10 {
                    line(5, 50_000, 9, 1, 3, 0)
                } else {
                    line(5, 50_000, 2, 8, 3, 0)
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let base = trajectory(&parse_stream(&steady).unwrap());
        let cur = trajectory(&parse_stream(&decayed).unwrap());
        assert!(cur.hit_decay > 0.3, "{}", cur.hit_decay);
        assert!(drifted(base.hit_decay, cur.hit_decay, 10.0, 0.05));
        // and the clean stream does not flag against itself
        assert!(!drifted(base.hit_decay, base.hit_decay, 10.0, 0.05));
    }

    #[test]
    fn latency_creep_and_queue_growth_are_flagged() {
        let steady: String = (0..20)
            .map(|_| line(5, 50_000, 9, 1, 3, 0))
            .collect::<Vec<_>>()
            .join("\n");
        let creeping: String = (0..20)
            .map(|i| line(5, 50_000 + i * 20_000, 9, 1, 3 + i, 0))
            .collect::<Vec<_>>()
            .join("\n");
        let base = trajectory(&parse_stream(&steady).unwrap());
        let cur = trajectory(&parse_stream(&creeping).unwrap());
        assert!(drifted(base.p99_slope, cur.p99_slope, 10.0, 1_000.0));
        assert!(drifted(base.queue_slope, cur.queue_slope, 10.0, 0.5));
        // failover accumulation stayed flat
        assert!(!drifted(base.failover_rate, cur.failover_rate, 10.0, 0.5));
    }

    #[test]
    fn empty_window_p99s_do_not_drag_the_slope() {
        // Alternating empty windows (p99 = 0) must not see-saw the
        // trend: only windows that completed something count.
        let text: String = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    line(5, 60_000, 9, 1, 0, 0)
                } else {
                    line(0, 0, 0, 0, 0, 0)
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let t = trajectory(&parse_stream(&text).unwrap());
        assert!(t.p99_slope.abs() < 1e-9, "{}", t.p99_slope);
    }
}
