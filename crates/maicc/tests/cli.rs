//! Pinned `maicc` command lines: every subcommand's stdout and exit code
//! compared with the committed fixture, and the quick serving report and
//! soak stream compared with the fixtures `maicc-serve` pins through
//! library calls. The binary runs in a directory under the target
//! directory on bare file names, so the fixture is the same on every
//! machine.
//!
//! Regenerate the fixture after a deliberate change with
//! `cargo test -p maicc --test cli -- --ignored regenerate`,
//! then review and commit the diff.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_path() -> String {
    format!("{}/tests/fixtures/cli.txt", env!("CARGO_MANIFEST_DIR"))
}

/// A committed file, by its path from the repository root.
fn repo_file(path: &str) -> String {
    let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("cannot read {full}: {e}"))
}

/// A directory of `test`'s own under the target directory, holding the
/// inputs the command lines name: `prog.s`, `every_op.s` and `trace.json`.
fn work_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cli")
        .join(test);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("prog.s"),
        repo_file("examples/programs/dot_product.s"),
    )
    .unwrap();
    std::fs::write(
        dir.join("every_op.s"),
        repo_file("crates/maicc/tests/fixtures/every_op.s"),
    )
    .unwrap();
    std::fs::write(
        dir.join("trace.json"),
        r#"{"requests": [
  {"tenant": "vision", "model": "resnet18_segment", "arrival": 0, "deadline": 600000},
  {"tenant": "keyword", "model": "small", "arrival": 1200},
  {"tenant": "assist", "model": "two_layer", "arrival": 5000, "deadline": 400000},
  {"model": "small", "arrival": 5000, "deadline": null}
]}
"#,
    )
    .unwrap();
    std::fs::write(
        dir.join("late.json"),
        r#"{"requests": [{"tenant": "vision", "model": "small", "arrival": 18446744073709551000}]}"#,
    )
    .unwrap();
    dir
}

/// Every pinned command line: each subcommand, and the values each one
/// refuses.
const CASES: &[&str] = &[
    "help",
    "map",
    "map --model tinynet --strategy greedy --cores 64",
    "node",
    "node --width 16",
    "asm prog.s",
    "run prog.s --max-steps 1000",
    "stream",
    "campaign --workload small --seed 7 --ecc off --retry off --json",
    "campaign --workload small --seed 42 --ecc correct --retry on --json",
    "campaign --workload small --seed 42 --ecc detect --retry on --json",
    "campaign --assert-no-unrecoverable",
    "serve --quick",
    "serve --overload --quick",
    "serve --quick --trace trace.json --policy sjf --json",
    "serve --quick --policy sjf --zipf 2.0 --weight-cache --cache-llc-bytes 1048576",
    "serve --quick --bursty --policy sjf --weight-cache --fabrics 8 --replicas 2 \
     --heartbeat 20000 --pool 8 --fabric-fault outage:0:120000 --json",
    "serve --quick --fabrics 4 --replicas 2 --fabric-fault outage:0:120000 \
     --fabric-fault brownout:1:50000:2:100000 --fabric-fault tileloss:2:80000:4",
    "soak --quick --no-churn --fabrics 2 --horizon 300000 --interval 100000 --seed 3",
    "map --cores many",
    "node --width 5",
    "serve --quick --policy lifo",
    "serve --quick --engine warp",
    "serve --quick --fabrics 2 --fabric-fault melt:0:1",
    "nosuch",
    "asm every_op.s",
    "serve --quick --zipf nan",
    "serve --quick --zipf inf",
    "serve --quick --json --trace late.json",
    "serve --quick --json --fabrics 2 \
     --fabric-fault brownout:0:100:18446744073709551615:18446744073709551615",
];

/// Runs `maicc` with the space-separated `line` in `dir` and returns its
/// exit code, stdout and stderr.
fn run(dir: &Path, line: &str) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_maicc"))
        .current_dir(dir)
        .args(line.split_whitespace())
        .output()
        .expect("maicc starts");
    (
        out.status.code().expect("maicc exited, not killed"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// Every case's block: a `### <command line>` header, the exit code,
/// then stdout.
fn render(dir: &Path) -> String {
    CASES
        .iter()
        .map(|line| {
            let (code, stdout, _) = run(dir, line);
            format!("### maicc {line}\nexit {code}\n{stdout}")
        })
        .collect()
}

#[test]
fn cli_matches_the_fixture() {
    let fixture = std::fs::read_to_string(fixture_path()).expect("fixture present");
    assert_eq!(render(&work_dir("pinned")), fixture);
}

#[test]
#[ignore = "rewrites tests/fixtures/cli.txt"]
fn regenerate() {
    std::fs::write(fixture_path(), render(&work_dir("regenerate"))).unwrap();
}

#[test]
fn serve_quick_json_equals_the_serving_fixture() {
    let (code, stdout, stderr) = run(&work_dir("serve_quick"), "serve --quick --json");
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(
        stdout,
        repo_file("crates/serve/tests/fixtures/serve_quick.json")
    );
}

#[test]
fn soak_quick_equals_the_clean_stream() {
    let (code, stdout, stderr) = run(&work_dir("soak_quick"), "soak --quick");
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(
        stdout,
        repo_file("crates/serve/tests/fixtures/soak_clean.jsonl")
    );
}

/// Asserts that `line` exits 1 before printing anything, with an error
/// that names `arg`.
fn assert_refused(line: &str, arg: &str) {
    let (code, stdout, stderr) = run(Path::new(env!("CARGO_TARGET_TMPDIR")), line);
    assert_eq!((code, stdout.as_str()), (1, ""), "{line}: {stderr}");
    assert!(stderr.contains(arg), "{line}: {stderr}");
}

#[test]
fn a_misspelt_flag_is_refused() {
    assert_refused("serve --quick --json --polcy sjf", "`--polcy`");
    assert_refused("campaign --workload small --jsn", "`--jsn`");
    assert_refused("serve --quick --json --threads 4", "`--threads`");
    assert_refused("soak --quick --threads 2", "`--threads`");
}

#[test]
fn a_flag_without_its_value_is_refused() {
    assert_refused("serve --quick --json --trace", "--trace needs a value");
    assert_refused("serve --quick --json --seed", "--seed needs a value");
}

#[test]
fn a_flag_given_twice_is_refused() {
    assert_refused(
        "serve --quick --json --seed 42 --seed 7",
        "--seed given twice",
    );
}

#[test]
fn a_non_finite_zipf_exponent_is_refused() {
    assert_refused("serve --quick --json --zipf nan", "NaN");
    assert_refused("serve --quick --json --zipf -inf", "-inf");
}

#[test]
fn each_listing_assembles_back_to_its_words() {
    let dir = work_dir("relist");
    for program in ["prog.s", "every_op.s"] {
        let (code, listing, stderr) = run(&dir, &format!("asm {program}"));
        assert_eq!(code, 0, "{program}: {stderr}");
        // each line is `address:  word  text`
        let text: String = listing
            .lines()
            .map(|l| format!("{}\n", l.splitn(3, "  ").nth(2).expect("a text column")))
            .collect();
        std::fs::write(dir.join("relisted.s"), text).unwrap();
        let (code, relisted, stderr) = run(&dir, "asm relisted.s");
        assert_eq!((code, relisted), (0, listing), "{program}: {stderr}");
    }
}

#[test]
fn run_takes_its_flag_before_the_program() {
    let dir = work_dir("flag_first");
    let flag_last = run(&dir, "run prog.s --max-steps 50");
    assert_eq!(flag_last.0, 0, "{}", flag_last.2);
    assert_eq!(run(&dir, "run --max-steps 50 prog.s"), flag_last);
}
