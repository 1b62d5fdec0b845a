//! Pinned paper regenerators: every `maicc_bench` section exits 0, so
//! each assert it holds on the paper's claims passed, and prints the lines
//! of the committed fixture. The fixture holds one `### <section>` block
//! per section; the harness's own header, timed-row and `wrote` lines are
//! not compared, since timings differ between runs.
//!
//! Regenerate the fixture after a deliberate change with
//! `cargo test -p maicc-bench --test regenerators -- --ignored regenerate`,
//! then review and commit the diff.

use std::process::Command;

fn fixture_path() -> String {
    format!(
        "{}/tests/fixtures/regenerators.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// The harness's own lines: its banner, one line per timed row, and the
/// path it wrote the JSON to.
fn is_harness_line(line: &str) -> bool {
    line.starts_with("maicc_bench: ")
        || line.starts_with("wrote ")
        || (line.contains(" median ") && line.contains("(check ") && line.ends_with(')'))
}

/// Runs `maicc_bench --quick --bench <name>`, with its JSON kept out of
/// the repository, and returns the section's lines.
fn section_output(name: &str) -> String {
    let json = format!("{}/regenerators_{name}.json", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_maicc_bench"))
        .args(["--quick", "--bench", name, "--json", &json])
        .output()
        .expect("maicc_bench starts");
    assert!(
        out.status.success(),
        "`maicc_bench --bench {name}` failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .filter(|l| !is_harness_line(l))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The fixture's block for `name`.
fn pinned(name: &str) -> String {
    let fixture = std::fs::read_to_string(fixture_path()).expect("fixture present");
    let mut block = None;
    for line in fixture.lines() {
        if let Some(section) = line.strip_prefix("### ") {
            if block.is_some() {
                break;
            }
            if section == name {
                block = Some(String::new());
            }
        } else if let Some(b) = block.as_mut() {
            b.push_str(line);
            b.push('\n');
        }
    }
    block.unwrap_or_else(|| panic!("no `### {name}` block in the fixture"))
}

fn check(name: &str) {
    assert_eq!(section_output(name), pinned(name), "section `{name}` moved");
}

macro_rules! sections {
    ($($name:ident),+ $(,)?) => {
        /// Every section, in fixture order.
        const SECTIONS: &[&str] = &[$(stringify!($name)),+];
        $(
            #[test]
            fn $name() {
                check(stringify!($name));
            }
        )+
    };
}

sections!(
    table4,
    table5,
    table6,
    table7,
    fig9,
    fig10,
    ablation_slices,
    ablation_reduction,
    ablation_precision,
    ablation_dataflow,
    micro_noc,
    micro_pipeline,
);

#[test]
#[ignore = "rewrites tests/fixtures/regenerators.txt"]
fn regenerate() {
    let fixture: String = SECTIONS
        .iter()
        .map(|name| format!("### {name}\n{}", section_output(name)))
        .collect();
    std::fs::write(fixture_path(), fixture).unwrap();
}
