//! Pinned `bench_diff` and `soak_diff` runs: the committed
//! `BENCH_results.json` and the clean soak stream, each against itself
//! and against perturbed copies, with every run's exit code and stdout
//! compared with the committed fixture. The tools run in a directory
//! under the target directory on bare file names, so the paths they
//! print are the same on every machine.
//!
//! Regenerate the fixture after a deliberate change with
//! `cargo test -p maicc-bench --test diff_tools -- --ignored regenerate`,
//! then review and commit the diff.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_path() -> String {
    format!(
        "{}/tests/fixtures/diff_tools.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// A committed file, by its path from the repository root.
fn repo_file(path: &str) -> String {
    let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("cannot read {full}: {e}"))
}

/// A directory of `test`'s own under the target directory: tests run
/// in parallel.
fn work_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("diff_tools")
        .join(test);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `text` with the first `n` occurrences of `from` replaced by `to`.
/// Panics when `from` does not occur, so a perturbation never silently
/// leaves its input as it was.
fn replace(text: &str, from: &str, to: &str, n: usize) -> String {
    assert!(text.contains(from), "`{from}` does not occur in the input");
    text.replacen(from, to, n)
}

/// Writes the committed inputs and their perturbed copies into `dir`.
fn write_inputs(dir: &Path) {
    let bench = repo_file("BENCH_results.json");
    let soak = repo_file("crates/serve/tests/fixtures/soak_clean.jsonl");
    let all = usize::MAX;
    let files = [
        ("base.json", bench.clone()),
        // every median gains a leading 9: each benchmark is at least 9x
        // slower
        (
            "slower.json",
            replace(&bench, "\"median_ns\": ", "\"median_ns\": 9", all),
        ),
        // medians with a leading 2 get a leading 1: faster, none slower
        (
            "faster.json",
            replace(&bench, "\"median_ns\": 2", "\"median_ns\": 1", all),
        ),
        // a gated derived metric worsens at least 9x
        (
            "hard_p99.json",
            replace(
                &bench,
                "\"serve_overload_hard_p99_cycles\": ",
                "\"serve_overload_hard_p99_cycles\": 9",
                all,
            ),
        ),
        // the absolute Hard-tier invariant breaks
        (
            "hard_lost.json",
            replace(
                &bench,
                "\"serve_cluster_hard_lost\": 0",
                "\"serve_cluster_hard_lost\": 1",
                all,
            ),
        ),
        // a gated derived metric vanishes (its line is not the last)
        (
            "no_soak_p99.json",
            bench
                .lines()
                .filter(|l| !l.contains("\"serve_soak_p99_cycles\""))
                .map(|l| format!("{l}\n"))
                .collect(),
        ),
        ("clean.jsonl", soak.clone()),
        // three failovers in every window that had none
        (
            "churn.jsonl",
            replace(&soak, "\"failovers\": 0,", "\"failovers\": 3,", all),
        ),
        // one more failover in one window: inside the slack
        (
            "one_failover.jsonl",
            replace(&soak, "\"failovers\": 0,", "\"failovers\": 1,", 1),
        ),
        // the day run backwards: every trend flips sign
        (
            "reversed.jsonl",
            soak.lines().rev().map(|l| format!("{l}\n")).collect(),
        ),
    ];
    for (name, text) in files {
        std::fs::write(dir.join(name), text).unwrap();
    }
}

/// Every pinned run: the tool and its arguments. `missing.*` is never
/// written.
const CASES: &[(&str, &[&str])] = &[
    ("bench_diff", &["base.json", "base.json"]),
    (
        "bench_diff",
        &["base.json", "base.json", "--fail-on-regress", "10"],
    ),
    ("bench_diff", &["base.json", "slower.json"]),
    (
        "bench_diff",
        &["base.json", "slower.json", "--fail-on-regress", "10"],
    ),
    (
        "bench_diff",
        &["base.json", "faster.json", "--fail-on-regress", "10"],
    ),
    (
        "bench_diff",
        &["base.json", "hard_p99.json", "--fail-on-regress", "10"],
    ),
    (
        "bench_diff",
        &["base.json", "hard_lost.json", "--fail-on-regress", "10"],
    ),
    (
        "bench_diff",
        &["base.json", "no_soak_p99.json", "--fail-on-regress", "10"],
    ),
    ("bench_diff", &["base.json", "missing.json"]),
    ("soak_diff", &["clean.jsonl", "clean.jsonl"]),
    ("soak_diff", &["clean.jsonl", "churn.jsonl"]),
    ("soak_diff", &["clean.jsonl", "one_failover.jsonl"]),
    ("soak_diff", &["clean.jsonl", "reversed.jsonl"]),
    (
        "soak_diff",
        &["clean.jsonl", "reversed.jsonl", "--tolerance", "1000"],
    ),
    ("soak_diff", &["clean.jsonl", "missing.jsonl"]),
    // a malformed gate value is a usage error, not a gate switched off
    (
        "bench_diff",
        &["base.json", "slower.json", "--fail-on-regress", "1O"],
    ),
    (
        "bench_diff",
        &["base.json", "slower.json", "--fail-on-regress"],
    ),
    (
        "soak_diff",
        &["clean.jsonl", "churn.jsonl", "--tolerance", "x5"],
    ),
    // NaN parses as a number but fails every comparison
    (
        "bench_diff",
        &["base.json", "slower.json", "--fail-on-regress", "nan"],
    ),
    (
        "soak_diff",
        &["clean.jsonl", "churn.jsonl", "--tolerance", "inf"],
    ),
];

/// Runs `tool` in `dir` and returns its exit code, stdout and stderr.
fn run(dir: &Path, tool: &str, args: &[&str]) -> (i32, String, String) {
    let exe = match tool {
        "bench_diff" => env!("CARGO_BIN_EXE_bench_diff"),
        "soak_diff" => env!("CARGO_BIN_EXE_soak_diff"),
        _ => unreachable!("no tool `{tool}`"),
    };
    let out = Command::new(exe)
        .current_dir(dir)
        .args(args)
        .output()
        .expect("tool starts");
    (
        out.status.code().expect("tool exited, not killed"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// Every case's block: a `### <command line>` header, the exit code,
/// then stdout.
fn render(dir: &Path) -> String {
    write_inputs(dir);
    CASES
        .iter()
        .map(|(tool, args)| {
            let (code, stdout, _) = run(dir, tool, args);
            format!("### {tool} {}\nexit {code}\n{stdout}", args.join(" "))
        })
        .collect()
}

#[test]
fn diff_tools_match_the_fixture() {
    let fixture = std::fs::read_to_string(fixture_path()).expect("fixture present");
    assert_eq!(render(&work_dir("pinned")), fixture);
}

#[test]
#[ignore = "rewrites tests/fixtures/diff_tools.txt"]
fn regenerate() {
    std::fs::write(fixture_path(), render(&work_dir("regenerate"))).unwrap();
}

/// Two derived keys on one line are both read, so a gated regression
/// among them fails the gate.
#[test]
fn bench_diff_reads_derived_keys_that_share_a_line() {
    let dir = work_dir("shared_line");
    let report = |p99: u64| {
        format!(
            "{{\"benchmarks\": [{{\"name\": \"a\", \"median_ns\": 100}}],\n\
             \"derived\": {{\"serve_overload_shed_rate\": 0.5, \
             \"serve_overload_hard_p99_cycles\": {p99}}}}}\n"
        )
    };
    std::fs::write(dir.join("base.json"), report(1_000)).unwrap();
    std::fs::write(dir.join("new.json"), report(9_000)).unwrap();
    let (code, stdout, stderr) = run(
        &dir,
        "bench_diff",
        &["base.json", "new.json", "--fail-on-regress", "10"],
    );
    assert_eq!(code, 1, "{stdout}{stderr}");
    assert!(
        stderr.contains("derived `serve_overload_hard_p99_cycles` worsened +800.0%"),
        "{stderr}"
    );
}

/// A benchmark entry without a median is refused, naming the file and
/// the entry, instead of taking the next entry's median; so is a report
/// that is not JSON.
#[test]
fn bench_diff_refuses_entries_it_cannot_read() {
    let dir = work_dir("bad_entry");
    std::fs::write(
        dir.join("base.json"),
        r#"{"benchmarks": [{"name": "a", "median_ns": 100}, {"name": "b", "median_ns": 100}]}"#,
    )
    .unwrap();
    std::fs::write(
        dir.join("no_median.json"),
        r#"{"benchmarks": [{"name": "a"}, {"name": "b", "median_ns": 100}]}"#,
    )
    .unwrap();
    std::fs::write(
        dir.join("truncated.json"),
        r#"{"benchmarks": [{"name": "a", "median_ns": 100}, {"name": "b", "median_ns": 100}"#,
    )
    .unwrap();
    let (code, stdout, stderr) = run(&dir, "bench_diff", &["base.json", "no_median.json"]);
    assert_eq!((code, stdout.as_str()), (2, ""), "{stderr}");
    assert_eq!(
        stderr,
        "bench_diff: no_median.json: benchmarks[0] `a` has no integer `median_ns`\n"
    );
    let (code, stdout, stderr) = run(&dir, "bench_diff", &["base.json", "truncated.json"]);
    assert_eq!((code, stdout.as_str()), (2, ""), "{stderr}");
    assert!(
        stderr.starts_with("bench_diff: truncated.json: not JSON: "),
        "{stderr}"
    );
}

/// Lines written without spaces after `:` and `,` are read like the
/// recorder's own, so the whole stream is compared: the same windows
/// and the same gates as the stream against itself.
#[test]
fn soak_diff_reads_compact_lines() {
    let dir = work_dir("compact");
    let soak = repo_file("crates/serve/tests/fixtures/soak_clean.jsonl");
    let compact: String = soak
        .lines()
        .enumerate()
        .map(|(i, l)| match i {
            0..=16 => format!("{}\n", l.replace(": ", ":").replace(", ", ",")),
            _ => format!("{l}\n"),
        })
        .collect();
    assert_ne!(compact, soak);
    std::fs::write(dir.join("clean.jsonl"), &soak).unwrap();
    std::fs::write(dir.join("compact.jsonl"), compact).unwrap();
    let (code, stdout, stderr) = run(&dir, "soak_diff", &["clean.jsonl", "compact.jsonl"]);
    let (self_code, self_stdout, _) = run(&dir, "soak_diff", &["clean.jsonl", "clean.jsonl"]);
    assert_eq!(code, self_code, "{stderr}");
    assert_eq!(
        stdout,
        self_stdout.replace("-> clean.jsonl", "-> compact.jsonl")
    );
}

/// A stream with a line that lacks a field, or is not JSON, is refused
/// with the file and the line, not compared on the lines that remain.
#[test]
fn soak_diff_refuses_lines_it_cannot_read() {
    let dir = work_dir("bad_line");
    let soak = repo_file("crates/serve/tests/fixtures/soak_clean.jsonl");
    let lines: Vec<&str> = soak.lines().collect();
    let with_line_4 = |l: &str| -> String {
        lines
            .iter()
            .enumerate()
            .map(|(i, orig)| format!("{}\n", if i == 3 { l } else { orig }))
            .collect()
    };
    std::fs::write(dir.join("clean.jsonl"), &soak).unwrap();
    std::fs::write(
        dir.join("no_failovers.jsonl"),
        with_line_4(&replace(lines[3], "\"failovers\": ", "\"fail_overs\": ", 1)),
    )
    .unwrap();
    std::fs::write(
        dir.join("cut.jsonl"),
        with_line_4(&lines[3][..lines[3].len() / 2]),
    )
    .unwrap();
    let (code, stdout, stderr) = run(&dir, "soak_diff", &["clean.jsonl", "no_failovers.jsonl"]);
    assert_eq!((code, stdout.as_str()), (2, ""), "{stderr}");
    assert_eq!(
        stderr,
        "soak_diff: no_failovers.jsonl: line 4: no integer `failovers`\n"
    );
    let (code, stdout, stderr) = run(&dir, "soak_diff", &["clean.jsonl", "cut.jsonl"]);
    assert_eq!((code, stdout.as_str()), (2, ""), "{stderr}");
    assert!(
        stderr.starts_with("soak_diff: cut.jsonl: line 4: not JSON: "),
        "{stderr}"
    );
}
