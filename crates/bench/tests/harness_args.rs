//! `maicc_bench` refuses a command line it cannot honour with an exit
//! code instead of a panic: 2 for an option it does not know, a value
//! that does not parse or a `--bench` filter that selects nothing, and 1
//! for a `--json` path it cannot write.

use std::process::Command;

/// Runs the harness and returns its exit code and stderr.
fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_maicc_bench"))
        .args(args)
        .output()
        .expect("maicc_bench starts");
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
    let (code, stderr) = run(&["--quick", "--bench", "fig10", "--json", dir]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
}
