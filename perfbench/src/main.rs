//! The repository benchmark for the MAICC simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Run from the repository root. One run generates the workload's inputs
//! from the seed and sets the workload up, runs an untimed warm-up pass
//! whose output bytes every later pass must reproduce, then runs a fixed
//! number of timed passes: `--seconds` over the workload's nominal pass
//! time. Every pass checks its outputs.
//!
//! * `--trace 0` reports the end-to-end metrics, measured untraced. The
//!   set-up is repeated between the passes and `setup_s` is its median
//!   round; `wall_s` is the fastest of the passes, restated at a fixed
//!   host speed by a reference block timed between them (`src/host.rs`).
//! * `--trace 1` runs half the passes untraced and half traced, records
//!   spans around the benchmark's calls into each crate, writes them to
//!   `perfbench/out/`, and reports the per-layer metrics, including the
//!   tracing overhead (traced minus untraced median pass time).
//!
//! A sheet of every measured metric, with unit and sample count, precedes
//! the last line: one JSON object with `correct`, `attempted`, `failed`
//! and the declared metrics. The exit code is 1 when a check failed and 2
//! on bad arguments.

mod host;
mod inputs;
mod metrics;
mod multi_dnn;
mod overload;
mod paper;
mod serving;
mod soak;
mod spans;

use host::Reference;
use metrics::{median, percentile, Checks, Sheet, END_TO_END, LAYERS, PER_LAYER, SPANS};
use spans::{Profile, Tracer};
use std::process::ExitCode;
use std::time::Instant;

/// One benchmark workload, set up from generated inputs.
pub trait Workload {
    /// Runs one pass and returns the bytes it produced; every pass of a
    /// run must return the same bytes.
    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> String;
    /// After the timed passes: closing checks and the simulated-time
    /// metrics of the last pass.
    fn finish(&mut self, checks: &mut Checks, sheet: &mut Sheet);
    /// Traced run only: side measurements and per-layer counts.
    fn layers(&mut self, profile: &Profile, checks: &mut Checks, sheet: &mut Sheet);
}

/// The workloads, by the name `--workload` takes, each with its nominal
/// pass time in seconds: about what one pass takes on a 2-core x86-64 VM
/// when other tenants leave it alone. A run makes `--seconds` over it
/// timed passes, so the number of passes does not depend on how fast the
/// code under test is.
const WORKLOADS: [(&str, f64); 4] = [
    ("multi_dnn_stream", 0.02),
    ("overload_faults", 3.3),
    ("soak_cluster", 0.45),
    ("paper_tables", 0.45),
];
/// Set-up rounds per run, the first included, spread between the timed
/// passes; `setup_s` is their median.
const SETUP_ROUNDS: usize = 30;
/// Share of a workload's nominal pass time spent on reference blocks,
/// which run between the passes.
const REFERENCE_SHARE: f64 = 0.1;
/// Fewest timed passes in each measured phase.
const MIN_PASSES: usize = 2;
/// A run stops early, after `MIN_PASSES`, once its passes have taken this
/// many times `--seconds`, so a much slower change still ends in time.
const OVERRUN: f64 = 3.0;
/// Where the traced run writes its spans, relative to the repository root.
const SPAN_DIR: &str = "perfbench/out";
const USAGE: &str = "usage: perfbench --workload \
    <multi_dnn_stream|overload_faults|soak_cluster|paper_tables> \
    [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                let s: u32 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                out.seconds = f64::from(s);
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == out.workload) {
        return Err(format!("unknown workload `{}`", out.workload));
    }
    Ok(out)
}

/// Generates the inputs from the seed and sets the workload up on them.
fn build(workload: &str, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    use maicc::serve::registry::{overload_mix, three_model_mix};
    Ok(match workload {
        "multi_dnn_stream" => Box::new(multi_dnn::MultiDnn::new(inputs::multi_dnn(seed), tr)),
        "overload_faults" => {
            let (registry, loads, overload) = tr.span("serve.registry", overload_mix);
            let generated = tr.span("serve.trace_gen", || inputs::overload(seed, &loads));
            Box::new(overload::Overload::new(registry, overload, generated))
        }
        "soak_cluster" => {
            let (registry, loads) = tr.span("serve.registry", three_model_mix);
            let generated = tr.span("serve.trace_gen", || inputs::soak(seed, &loads));
            Box::new(soak::Soak::new(registry, generated))
        }
        "paper_tables" => Box::new(paper::Paper::new(tr)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// The nominal pass time of `workload`, seconds.
fn nominal_pass_s(workload: &str) -> f64 {
    WORKLOADS
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or(1.0, |&(_, s)| s)
}

/// Runs `passes` timed passes, or fewer (at least `MIN_PASSES`) once they
/// have taken `limit` seconds, and returns each pass's host seconds.
/// `before_pass` runs, untimed, ahead of every pass and gets its index;
/// so do `blocks_per_pass` host reference blocks on average, at least one
/// before the first pass and one after the last.
#[allow(clippy::too_many_arguments)]
fn timed_passes(
    wl: &mut dyn Workload,
    tr: &mut Tracer,
    passes: usize,
    limit: f64,
    reference: &str,
    host: &mut Reference,
    blocks_per_pass: f64,
    checks: &mut Checks,
    mut before_pass: impl FnMut(usize),
) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut blocks_due = 1.0;
    while walls.len() < passes
        && (walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < limit)
    {
        before_pass(walls.len());
        while blocks_due >= 1.0 {
            host.sample();
            blocks_due -= 1.0;
        }
        blocks_due += blocks_per_pass;
        tr.set_pass(u32::try_from(walls.len() + 1).unwrap_or(u32::MAX));
        let t = Instant::now();
        let root = tr.enter("bench.pass");
        let bytes = wl.pass(tr, checks);
        tr.exit(root);
        walls.push(t.elapsed().as_secs_f64());
        checks.check(bytes == reference, || {
            format!(
                "pass {} produced other bytes than the warm-up pass",
                walls.len()
            )
        });
    }
    host.sample();
    walls
}

/// Times one set-up round.
fn time_setup(args: &Args, tr: &mut Tracer) -> Result<(Box<dyn Workload>, f64), String> {
    let start = Instant::now();
    let wl = build(&args.workload, args.seed, tr)?;
    Ok((wl, start.elapsed().as_secs_f64()))
}

fn run(args: &Args) -> Result<bool, String> {
    let mut tr = Tracer::new(args.trace);
    let (mut wl, first_setup) = time_setup(args, &mut tr)?;
    let mut setup = vec![first_setup];
    let mut checks = Checks::default();
    let mut sheet = Sheet::default();
    let reference = wl.pass(&mut Tracer::off(), &mut checks);
    // after set-up and one pass, before the set-up rounds allocate a
    // second workload beside this one
    let peak_rss = peak_rss_mb();
    let nominal = nominal_pass_s(&args.workload);
    let passes = ((args.seconds / nominal).round() as usize).max(MIN_PASSES);
    let limit = OVERRUN * args.seconds;
    let mut host = Reference::new();
    let blocks_per_pass = REFERENCE_SHARE * nominal / host::NOMINAL_BLOCK_S;
    if args.trace {
        let half = passes.div_ceil(2);
        let untraced = timed_passes(
            wl.as_mut(),
            &mut Tracer::off(),
            half,
            limit / 2.0,
            &reference,
            &mut host,
            blocks_per_pass,
            &mut checks,
            |_| (),
        );
        let traced = timed_passes(
            wl.as_mut(),
            &mut tr,
            half,
            limit / 2.0,
            &reference,
            &mut host,
            blocks_per_pass,
            &mut checks,
            |_| (),
        );
        wl.finish(&mut checks, &mut sheet);
        let profile = Profile::new(tr.spans());
        for name in SPANS {
            let seconds = profile.setup_s(name) + profile.per_pass_s(name);
            sheet.set(&format!("{name}_s"), seconds, "s", profile.passes());
        }
        for layer in LAYERS {
            sheet.set(
                &format!("self_share.{layer}"),
                profile.self_share(layer),
                "ratio",
                profile.passes(),
            );
        }
        sheet.set("trace.spans", profile.spans() as f64, "count", 1);
        sheet.set(
            "trace.overhead_s",
            median(&traced) - median(&untraced),
            "s",
            traced.len(),
        );
        wl.layers(&profile, &mut checks, &mut sheet);
        write_spans(args, &tr)?;
    } else {
        // Set-up rounds are spread evenly between the passes, so that a
        // burst of host contention cannot cover all of them.
        let mut setup_error = None;
        let walls = timed_passes(
            wl.as_mut(),
            &mut Tracer::off(),
            passes,
            limit,
            &reference,
            &mut host,
            blocks_per_pass,
            &mut checks,
            |pass| {
                let due = 1 + ((pass + 1) * (SETUP_ROUNDS - 1)).div_ceil(passes);
                while setup.len() < due.min(SETUP_ROUNDS) && setup_error.is_none() {
                    match time_setup(args, &mut Tracer::off()) {
                        Ok((_, seconds)) => setup.push(seconds),
                        Err(e) => setup_error = Some(e),
                    }
                }
            },
        );
        if let Some(e) = setup_error {
            return Err(e);
        }
        sheet.set("setup_s", median(&setup), "s", setup.len());
        // The host's speed shifts by up to half for seconds at a time
        // under other tenants' load, which moves every central figure of
        // a run; the fastest of a fixed number of passes moves least, and
        // the fastest reference block tells how fast the host got while
        // they ran. The raw figures are printed beside it.
        let fastest = percentile(&walls, 0.0);
        sheet.set("wall_s", host.restate(fastest), "s", walls.len());
        sheet.set("wall_min_s", fastest, "s", walls.len());
        sheet.set("wall_p25_s", percentile(&walls, 25.0), "s", walls.len());
        sheet.set("wall_median_s", median(&walls), "s", walls.len());
        sheet.set("host.block_s", host.fastest(), "s", host.samples());
        wl.finish(&mut checks, &mut sheet);
        match peak_rss {
            Some(mb) => sheet.set("peak_rss_mb", mb, "MB", 1),
            None => checks.check(false, || "peak resident memory is unavailable".into()),
        }
    }
    let (listed, zero_fill) = if args.trace {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    let printed = sheet.select(listed, zero_fill, &mut checks);
    check_manifest(&printed, &mut checks);

    println!(
        "perfbench {} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for (name, v) in sheet.entries() {
        println!(
            "  {name:<40} {:>20.6} {:<10} n={}",
            v.value, v.unit, v.samples
        );
    }
    for failure in &checks.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let body: Vec<String> = printed
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures.is_empty(),
        checks.attempted,
        checks.failures.len(),
        body.join(", ")
    );
    Ok(checks.failures.is_empty())
}

/// Every printed metric must be declared, with its unit, in
/// `BENCHMARK.json` at the repository root.
fn check_manifest(printed: &[(&str, f64, &str)], checks: &mut Checks) {
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => {
            for (name, _, unit) in printed {
                checks.check(text.contains(&metrics::declaration(name, unit)), || {
                    format!("{name} ({unit}) is not declared in BENCHMARK.json")
                });
            }
        }
        Err(e) => checks.check(false, || format!("BENCHMARK.json: {e}")),
    }
}

fn write_spans(args: &Args, tr: &Tracer) -> Result<(), String> {
    let path = format!("{SPAN_DIR}/{}-seed{}.jsonl", args.workload, args.seed);
    std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| std::fs::write(&path, spans::to_jsonl(tr.spans())))
        .map_err(|e| format!("{path}: {e}"))
}

/// Peak resident memory of this process, MB: one workload per process.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
