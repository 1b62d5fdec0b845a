//! `maicc_bench` refuses a command line it cannot honour with an exit
//! code instead of a panic: 2 for an option it does not know, a value
//! that does not parse or a `--bench` filter that selects nothing, and 1
//! for a `--json` path it cannot write, before any section runs.

use std::process::{Command, Output};

/// Runs the harness.
fn output(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maicc_bench"))
        .args(args)
        .output()
        .expect("maicc_bench starts")
}

/// Runs the harness and returns its exit code and stderr.
fn run(args: &[&str]) -> (i32, String) {
    let out = output(args);
    (
        out.status.code().expect("maicc_bench exited, not killed"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn a_malformed_command_line_exits_2() {
    for (args, named) in [
        (&["--iters", "x"][..], "--iters"),
        (&["--iters", "0"], "--iters"),
        (&["--quick", "--bench"], "--bench"),
        (&["--quick", "--qiuck"], "--qiuck"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}

#[test]
fn a_filter_that_selects_nothing_exits_2() {
    let (code, stderr) = run(&["--quick", "--bench", "nosuch"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("matched no benchmark"), "{stderr}");
}

#[test]
fn an_unwritable_report_exits_1() {
    // a directory cannot be written as a file
    let dir = env!("CARGO_TARGET_TMPDIR");
    let out = output(&["--quick", "--bench", "fig10", "--json", dir]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
    // before the section printed a row
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
}

#[test]
fn a_run_that_does_not_complete_leaves_the_report_alone() {
    let path = format!("{}/kept_report.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, "{\"kept\": true}\n").unwrap();
    let (code, stderr) = run(&["--quick", "--bench", "nosuch", "--json", &path]);
    assert_eq!(code, 2, "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        "{\"kept\": true}\n"
    );
}
