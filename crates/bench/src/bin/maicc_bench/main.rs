//! The benchmark harness: the paper's tables, figures and ablations, and
//! wall-clock timings of the simulator itself.
//!
//! Each paper section ([`sections`]) prints its modelled rows once, with
//! the published values beside them, and asserts the paper's claims. Each
//! timed row measures *host* wall-clock time with `std::time::Instant` —
//! warmup runs followed by N timed iterations, reporting the nearest-rank
//! median/p10/p90 of the serving reports (`maicc::serve::slo::percentile`)
//! — and, with `--json PATH`, the rows go to `PATH` as JSON. Without it the
//! harness writes no file, so no run replaces the committed
//! `BENCH_results.json` unless asked to.
//!
//! ```text
//! cargo run --release -p maicc-bench --bin maicc_bench [-- OPTIONS]
//!
//!   --quick             one iteration, no warmup (CI smoke mode)
//!   --iters N           timed iterations per workload (default 5;
//!                       normal mode adds two per-bench warmup runs)
//!   --bench SUBSTRING   only run sections and rows whose name contains
//!                       SUBSTRING (`--bench table6` prints Table 6 and
//!                       times `table6_heuristic_mapping`)
//!   --json PATH         write the timed rows to PATH as JSON (default:
//!                       write no file)
//! ```
//!
//! An unknown option, a missing or malformed value, `--iters 0` and a
//! `--bench` that selects nothing exit 2; an unwritable `--json` exits 1
//! before any section runs.
//!
//! Sections: `table4`, `table5`, `table6`, `table7` (with §6.3), `fig9`,
//! `fig10`, `ablation_slices`, `ablation_reduction`,
//! `ablation_precision`, `ablation_dataflow`, `micro_noc` and
//! `micro_pipeline`.
//!
//! Timed rows:
//!
//! * `table4_node_conv` — the Table-4 MAICC node convolution on the
//!   cycle-accurate pipeline;
//! * `table5_scheduled_replay` — the statically scheduled program replay;
//! * `table6_heuristic_mapping` — ResNet-18 heuristic layer mapping;
//! * `micro_noc_uniform_128` — 128 row packets of uniform traffic drained
//!   through the bare 16×16 mesh;
//! * `micro_pipeline_functional_only` / `micro_pipeline_plus_timing` —
//!   the tiny conv on the node interpreter, alone and with the
//!   cycle-accurate timing replay attached;
//! * `resnet18_segment` — the full-system streaming simulation (bit-level
//!   CMems + flit-level mesh) on the default fault-campaign workload,
//!   event-driven engine, on the sequential reference loop
//!   (`StreamSim::run_reference`);
//! * `resnet18_segment_parallel` — same, through `StreamSim::run`, the
//!   partitioned loop, timed interleaved with `resnet18_segment` for the
//!   `speedup_vs_sequential` ratio;
//! * `resnet18_segment_cycle_accurate` — same workload on the per-cycle
//!   oracle engine and the reference loop (the skip-ahead engine's
//!   speedup baseline);
//! * `resnet18_segment_slowpath` — `StreamSim::run` with a quiet
//!   `FaultPlan` attached: the path every run under a CMem fault plan
//!   without ECC takes, the partitioned loop with every MAC on the
//!   bit-plane arrays (no byte-shadow shortcut);
//! * `serve_mix_fcfs` / `serve_mix_sjf` — the online serving layer on a
//!   bursty three-model trace over a contended 8-tile pool; the check
//!   value is the fleet p99 latency in fabric cycles, so the two rows
//!   also record how far the policies' tails diverge.
//! * `serve_overload` — the overload-hardened loop on the 2×-rate tiered
//!   mix with fault churn, preemption, and retries engaged; the check
//!   value is the Hard tenant's p99, and the run's shed rate, preemption
//!   and retry counts land in the `derived` block.
//! * `serve_repeat_heavy` — a Zipf-skewed repeat-heavy trace (the light
//!   `small` model is the popular head) with the weight cache enabled;
//!   the check value is the fleet p50 latency in fabric cycles. The
//!   cache-disabled arm (every admission restreams from DRAM) runs once
//!   for contrast; its p50 and the enabled arm's hit rate land in the
//!   `derived` block as `serve_repeat_cold_p50_cycles` and
//!   `weight_cache_hit_rate`.
//! * `serve_cluster_failover` — the multi-fabric cluster on a bursty
//!   Zipf trace over 8 fabrics with 2-way replica placement and a
//!   mid-run kill of fabric 0; the check value is the failover-recovery
//!   p99 in fabric cycles, and the bench asserts the fault-domain
//!   invariant (`hard_requests_lost == 0`) every iteration. Per-policy
//!   fleet p99s, the deadline miss rate, and the failover/detect
//!   counters land in the `derived` block as `serve_cluster_*`.
//! * `serve_soak` — the soak-run observability scenario: a diurnal Zipf
//!   day with continuous seeded fault churn over a 4-fabric cluster,
//!   with the interval telemetry recorder attached; the check value is
//!   the fleet p99 in fabric cycles, and the window count plus warm hit
//!   rate land in the `derived` block as `serve_soak_*`.
//!
//! Every iteration checks functional correctness (ofmap == golden,
//! modelled cycle counts identical across variants), so a speedup that
//! broke bit-exactness would abort the run.

mod sections;

use maicc::cli::Args;
use maicc::core::kernels::{CmemConvKernel, ConvWorkload};
use maicc::core::pipeline::{PipelineConfig, Timing};
use maicc::exec::segment::Strategy;
use maicc::serve::cache::WeightCacheConfig;
use maicc::serve::cluster::{
    serve_cluster, serve_cluster_with_obs, ClusterConfig, ClusterFaultPlan, ClusterShedConfig,
    FabricFault, FabricFaultKind,
};
use maicc::serve::json;
use maicc::serve::overload::RetryBudget;
use maicc::serve::overload::Tier;
use maicc::serve::registry::{overload_mix, three_model_mix};
use maicc::serve::server::{serve, FaultConfig, Policy, ServeConfig};
use maicc::serve::slo::percentile;
use maicc::serve::trace::Trace;
use maicc::sim::stream::{Engine, RecoveryPolicy, StreamConfig, StreamSim};
use maicc::sram::fault::FaultPlan;
use maicc_bench::pre_pr;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

/// Cycle budget for the streaming runs (the segment drains in < 100 k).
const STREAM_BUDGET: u64 = 5_000_000;

struct Summary {
    name: &'static str,
    median_ns: u64,
    p10_ns: u64,
    p90_ns: u64,
    min_ns: u64,
    max_ns: u64,
    iters: usize,
    /// Deterministic per-workload check value (modelled cycles); must be
    /// identical across iterations.
    check: u64,
}

/// Times `f` for `warmup + iters` runs and summarizes the timed ones.
/// `f` returns a check value that must not vary between iterations.
fn measure(name: &'static str, warmup: usize, iters: usize, mut f: impl FnMut() -> u64) -> Summary {
    let mut check = None;
    for _ in 0..warmup {
        check = Some(f());
    }
    let mut samples = Vec::new();
    for _ in 0..iters {
        let start = Instant::now();
        let c = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        samples.push(ns);
        match check {
            None => check = Some(c),
            Some(prev) => assert_eq!(prev, c, "{name}: nondeterministic check value"),
        }
    }
    samples.sort_unstable();
    let s = Summary {
        name,
        median_ns: percentile(&samples, 50.0),
        p10_ns: percentile(&samples, 10.0),
        p90_ns: percentile(&samples, 90.0),
        min_ns: samples[0],
        max_ns: samples[samples.len() - 1],
        iters,
        check: check.expect("at least one iteration"),
    };
    println!(
        "{:<32} median {:>13} ns  p10 {:>13}  p90 {:>13}  (check {})",
        s.name, s.median_ns, s.p10_ns, s.p90_ns, s.check
    );
    s
}

/// Times two workloads with interleaved iterations (A, B, A, B, …) so
/// slow host-frequency drift lands on both equally — the fair way to
/// measure a ratio like `speedup_vs_sequential`, where back-to-back
/// blocks would systematically penalize whichever runs second.
fn measure_pair(
    name_a: &'static str,
    name_b: &'static str,
    warmup: usize,
    iters: usize,
    mut f_a: impl FnMut() -> u64,
    mut f_b: impl FnMut() -> u64,
) -> (Summary, Summary) {
    let mut check = None;
    for _ in 0..warmup {
        let c = f_a();
        assert_eq!(c, f_b(), "{name_a}/{name_b}: check values diverge");
        check = Some(c);
    }
    let mut samples_a = Vec::new();
    let mut samples_b = Vec::new();
    for _ in 0..iters {
        for (f, samples) in [
            (&mut f_a as &mut dyn FnMut() -> u64, &mut samples_a),
            (&mut f_b, &mut samples_b),
        ] {
            let start = Instant::now();
            let c = f();
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            samples.push(ns);
            match check {
                None => check = Some(c),
                Some(prev) => assert_eq!(prev, c, "nondeterministic check value"),
            }
        }
    }
    let check = check.expect("at least one iteration");
    let summarize = |name: &'static str, mut samples: Vec<u64>| {
        samples.sort_unstable();
        let s = Summary {
            name,
            median_ns: percentile(&samples, 50.0),
            p10_ns: percentile(&samples, 10.0),
            p90_ns: percentile(&samples, 90.0),
            min_ns: samples[0],
            max_ns: samples[samples.len() - 1],
            iters,
            check,
        };
        println!(
            "{:<32} median {:>13} ns  p10 {:>13}  p90 {:>13}  (check {})",
            s.name, s.median_ns, s.p10_ns, s.p90_ns, s.check
        );
        s
    };
    (summarize(name_a, samples_a), summarize(name_b, samples_b))
}

/// Which loop a streaming-segment row steps.
#[derive(Clone, Copy)]
enum Stepping {
    /// `StreamSim::run_reference`, the sequential loop: the baseline the
    /// speedup ratios divide by.
    Reference,
    /// `StreamSim::run`, the partitioned loop.
    Partitioned,
}

/// Runs the streaming segment on the chosen loop; `slow_path` attaches a
/// quiet fault plan, which keeps every MAC on the bit-plane arrays.
fn stream_segment(
    cfg: &StreamConfig,
    golden: &[i8],
    engine: Engine,
    stepping: Stepping,
    slow_path: bool,
) -> u64 {
    let mut sim = StreamSim::new(cfg).expect("segment fits");
    sim.set_engine(engine);
    if slow_path {
        sim.attach_cmem_fault_plan(&FaultPlan::none());
    }
    let r = match stepping {
        Stepping::Reference => sim.run_reference(STREAM_BUDGET),
        Stepping::Partitioned => sim.run(STREAM_BUDGET),
    }
    .expect("drains");
    assert_eq!(r.ofmap, golden, "streaming ofmap mismatch");
    r.cycles
}

/// Counters from one overload-hardened serving run, surfaced as derived
/// metrics next to the timing rows.
struct OverloadStats {
    hard_p99_cycles: u64,
    shed: u64,
    preemptions: u64,
    retries: u64,
    requests: u64,
}

/// Counters from the repeat-heavy weight-cache run: the warm (enabled)
/// arm's p50 and hit rate against the cold (disabled) arm's p50.
struct RepeatHeavyStats {
    p50_cycles: u64,
    cold_p50_cycles: u64,
    hit_rate: f64,
}

/// The serving scenarios' counters, bundled for [`write_json`]'s
/// `derived` block. Each is `None` when its bench was filtered out.
#[derive(Default)]
struct ScenarioStats {
    overload: Option<OverloadStats>,
    repeat: Option<RepeatHeavyStats>,
    cluster: Option<ClusterStats>,
    soak: Option<SoakStats>,
}

/// Counters from the soak run: a diurnal Zipf day with continuous fault
/// churn over a 4-fabric cluster, interval telemetry recorder attached.
struct SoakStats {
    p99_cycles: u64,
    windows: u64,
    hit_rate: f64,
}

/// Counters from the multi-fabric failover run: per-policy fleet tails,
/// failover-recovery latency, and the fault-domain loss accounting.
struct ClusterStats {
    fcfs_p99_cycles: u64,
    sjf_p99_cycles: u64,
    failover_p99_cycles: u64,
    detect_p50_cycles: u64,
    miss_rate: f64,
    failovers: u64,
    lost: u64,
    hard_lost: u64,
}

fn write_json(
    file: &mut File,
    quick: bool,
    iters: usize,
    results: &[Summary],
    stats: &ScenarioStats,
) -> std::io::Result<()> {
    let (overload, repeat, cluster, soak) = (
        stats.overload.as_ref(),
        stats.repeat.as_ref(),
        stats.cluster.as_ref(),
        stats.soak.as_ref(),
    );
    let mut out = String::from("{\n");
    out.push_str("  \"harness\": \"maicc_bench\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"iterations\": {iters},\n"));
    out.push_str(&format!("  \"engine\": \"{}\",\n", Engine::default().label()));
    out.push_str(&format!(
        "  \"pre_pr_resnet18_segment_ns\": {},\n",
        pre_pr::RESNET18_SEGMENT_NS
    ));
    out.push_str("  \"benchmarks\": [\n");
    for (i, s) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"median_ns\": {}, \"p10_ns\": {}, \"p90_ns\": {}, \
             \"min_ns\": {}, \"max_ns\": {}, \"iterations\": {}, \"check\": {}}}{}\n",
            json::quote(s.name),
            s.median_ns,
            s.p10_ns,
            s.p90_ns,
            s.min_ns,
            s.max_ns,
            s.iters,
            s.check,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let median = |name: &str| {
        results
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.median_ns as f64)
    };
    let seg = median("resnet18_segment");
    let slow = median("resnet18_segment_slowpath");
    let par = median("resnet18_segment_parallel");
    let oracle = median("resnet18_segment_cycle_accurate");
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => n / d,
        _ => 0.0,
    };
    out.push_str("  \"derived\": {\n");
    out.push_str(&format!(
        "    \"resnet18_segment_speedup_vs_pre_pr\": {:.2},\n",
        seg.map_or(0.0, |m| pre_pr::RESNET18_SEGMENT_NS as f64 / m)
    ));
    out.push_str(&format!(
        "    \"resnet18_segment_fast_vs_slowpath\": {:.2},\n",
        ratio(slow, seg)
    ));
    out.push_str(&format!(
        "    \"event_driven_vs_cycle_accurate\": {:.2},\n",
        ratio(oracle, seg)
    ));
    out.push_str(&format!(
        "    \"speedup_vs_sequential\": {:.2},\n",
        ratio(seg, par)
    ));
    // Serving-policy tail latencies in fabric cycles (the serve rows'
    // check values), plus their ratio: > 1.0 means SJF holds a tighter
    // p99 than FCFS on the bursty mix.
    let check_of = |name: &str| {
        results
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.check)
    };
    let fcfs_p99 = check_of("serve_mix_fcfs").unwrap_or(0);
    let sjf_p99 = check_of("serve_mix_sjf").unwrap_or(0);
    out.push_str(&format!("    \"serve_fcfs_p99_cycles\": {fcfs_p99},\n"));
    out.push_str(&format!("    \"serve_sjf_p99_cycles\": {sjf_p99},\n"));
    out.push_str(&format!(
        "    \"serve_p99_fcfs_over_sjf\": {:.2},\n",
        if sjf_p99 > 0 {
            fcfs_p99 as f64 / sjf_p99 as f64
        } else {
            0.0
        }
    ));
    // Overload-hardening health: Hard-tenant tail, how much load was
    // shed, and how often preemption/retry fired on the seeded 2× trace.
    #[allow(clippy::cast_precision_loss)]
    let shed_rate = overload.map_or(0.0, |o| {
        if o.requests > 0 {
            o.shed as f64 / o.requests as f64
        } else {
            0.0
        }
    });
    out.push_str(&format!(
        "    \"serve_overload_hard_p99_cycles\": {},\n",
        overload.map_or(0, |o| o.hard_p99_cycles)
    ));
    out.push_str(&format!("    \"serve_overload_shed_rate\": {shed_rate:.3},\n"));
    out.push_str(&format!(
        "    \"serve_overload_preemptions\": {},\n",
        overload.map_or(0, |o| o.preemptions)
    ));
    out.push_str(&format!(
        "    \"serve_overload_retries\": {},\n",
        overload.map_or(0, |o| o.retries)
    ));
    // Weight-cache health on the repeat-heavy Zipf mix: the warm arm's
    // p50 (also the timing row's check value), the cold arm's p50 for
    // contrast, their ratio, and the warm arm's hit rate. bench_diff
    // gates the p50 relatively and the hit rate against an absolute
    // floor.
    out.push_str(&format!(
        "    \"serve_repeat_p50_cycles\": {},\n",
        repeat.map_or(0, |r| r.p50_cycles)
    ));
    out.push_str(&format!(
        "    \"serve_repeat_cold_p50_cycles\": {},\n",
        repeat.map_or(0, |r| r.cold_p50_cycles)
    ));
    out.push_str(&format!(
        "    \"serve_repeat_cold_over_warm\": {:.2},\n",
        repeat.map_or(0.0, |r| {
            if r.p50_cycles > 0 {
                r.cold_p50_cycles as f64 / r.p50_cycles as f64
            } else {
                0.0
            }
        })
    ));
    out.push_str(&format!(
        "    \"weight_cache_hit_rate\": {:.4},\n",
        repeat.map_or(0.0, |r| r.hit_rate)
    ));
    // Cluster failover health on the 8-fabric bursty Zipf mix with a
    // mid-run fabric kill: per-policy fleet p99s, the failover-recovery
    // tail and detection latency, the deadline miss rate, and the loss
    // accounting. bench_diff gates the recovery p99 relatively and
    // `serve_cluster_hard_lost` against an absolute zero.
    out.push_str(&format!(
        "    \"serve_cluster_fcfs_p99_cycles\": {},\n",
        cluster.map_or(0, |c| c.fcfs_p99_cycles)
    ));
    out.push_str(&format!(
        "    \"serve_cluster_sjf_p99_cycles\": {},\n",
        cluster.map_or(0, |c| c.sjf_p99_cycles)
    ));
    out.push_str(&format!(
        "    \"serve_cluster_failover_p99_cycles\": {},\n",
        cluster.map_or(0, |c| c.failover_p99_cycles)
    ));
    out.push_str(&format!(
        "    \"serve_cluster_detect_p50_cycles\": {},\n",
        cluster.map_or(0, |c| c.detect_p50_cycles)
    ));
    out.push_str(&format!(
        "    \"serve_cluster_miss_rate\": {:.4},\n",
        cluster.map_or(0.0, |c| c.miss_rate)
    ));
    out.push_str(&format!(
        "    \"serve_cluster_failovers\": {},\n",
        cluster.map_or(0, |c| c.failovers)
    ));
    out.push_str(&format!(
        "    \"serve_cluster_lost\": {},\n",
        cluster.map_or(0, |c| c.lost)
    ));
    out.push_str(&format!(
        "    \"serve_cluster_hard_lost\": {},\n",
        cluster.map_or(0, |c| c.hard_lost)
    ));
    // Soak health on the diurnal churn day: the fleet p99 (also the
    // timing row's check value), how many telemetry windows the interval
    // recorder emitted, and the warm hit rate after a full day of churn.
    // bench_diff gates the p99 relatively.
    out.push_str(&format!(
        "    \"serve_soak_p99_cycles\": {},\n",
        soak.map_or(0, |s| s.p99_cycles)
    ));
    out.push_str(&format!(
        "    \"serve_soak_windows\": {},\n",
        soak.map_or(0, |s| s.windows)
    ));
    out.push_str(&format!(
        "    \"serve_soak_hit_rate\": {:.4}\n",
        soak.map_or(0.0, |s| s.hit_rate)
    ));
    out.push_str("  }\n}\n");
    file.set_len(0)?;
    file.write_all(out.as_bytes())
}

/// Exit code for a refused command line or a `--bench` that selects nothing.
const EXIT_USAGE: u8 = 2;

/// The command line, as the module doc describes it; `iters` is 1 under
/// `--quick`.
struct Options {
    quick: bool,
    iters: usize,
    filter: Option<String>,
    out: Option<String>,
}

fn read_args() -> Result<Options, String> {
    let mut args: Args = std::env::args().skip(1).collect();
    let quick = args.switch("--quick")?;
    let iters = args.value("--iters")?.unwrap_or(5);
    let filter = args.value("--bench")?;
    let out = args.value("--json")?;
    args.finish()?;
    let iters = if quick { 1 } else { iters };
    if iters == 0 {
        return Err("--iters needs at least one iteration".into());
    }
    Ok(Options {
        quick,
        iters,
        filter,
        out,
    })
}

fn main() -> ExitCode {
    let Options {
        quick,
        iters,
        filter,
        out,
    } = match read_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("maicc_bench: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // open the report before any work, so a bad path fails first; an
    // existing report keeps its contents until the run completes
    let mut report = None;
    if let Some(path) = &out {
        let opened = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path);
        match opened {
            Ok(file) => report = Some((path, file)),
            Err(e) => {
                eprintln!("maicc_bench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // two per-bench warmup runs: the first pays first-touch allocation
    // (pools, page faults), the second settles branch predictors and
    // caches, so the timed percentiles measure steady state — this is
    // what kept table5_scheduled_replay's p90 at 2.4x its median
    let warmup = if quick { 0 } else { 2 };
    let want = |name: &str| filter.as_deref().is_none_or(|f| name.contains(f));

    println!(
        "maicc_bench: {iters} iteration(s), {warmup} warmup, quick={quick}, engine={}",
        Engine::default().label()
    );

    let inputs = sections::Inputs::new();
    let mut any_section = false;
    for (name, section) in sections::ALL {
        if want(name) {
            section(&inputs);
            any_section = true;
        }
    }

    let (ifmap, weights, kernel) = (&inputs.ifmap, &inputs.weights, &inputs.kernel);
    let mut results = Vec::new();
    if want("table4_node_conv") {
        results.push(measure("table4_node_conv", warmup, iters, || {
            sections::maicc_node_conv(inputs.wl, ifmap, weights, &inputs.golden).0
        }));
    }
    if want("table5_scheduled_replay") {
        results.push(measure("table5_scheduled_replay", warmup, iters, || {
            let prog = kernel.scheduled_program();
            sections::replay(kernel, prog, PipelineConfig::default(), ifmap, weights)
        }));
    }
    if want("table6_heuristic_mapping") {
        results.push(measure("table6_heuristic_mapping", warmup, iters, || {
            inputs.map(Strategy::Heuristic).total_cycles as u64
        }));
    }
    if want("micro_noc_uniform_128") {
        results.push(measure("micro_noc_uniform_128", warmup, iters, || {
            sections::uniform_traffic(128)
        }));
    }
    if want("micro_pipeline_functional_only") || want("micro_pipeline_plus_timing") {
        let tiny = ConvWorkload::tiny();
        let tiny_kernel = CmemConvKernel::new(tiny).expect("tiny conv fits");
        let (tiny_ifmap, tiny_weights) = (tiny.synthetic_ifmap(), tiny.synthetic_weights());
        let prepare = || {
            tiny_kernel
                .prepare(&tiny_ifmap, &tiny_weights, 4)
                .expect("prepared")
        };
        if want("micro_pipeline_functional_only") {
            results.push(measure("micro_pipeline_functional_only", warmup, iters, || {
                let mut node = prepare();
                node.run_with(10_000_000, |_| {}).expect("halts");
                node.instret()
            }));
        }
        if want("micro_pipeline_plus_timing") {
            results.push(measure("micro_pipeline_plus_timing", warmup, iters, || {
                let mut node = prepare();
                let mut t = Timing::new(PipelineConfig::default());
                node.run_with(10_000_000, |e| t.on_retire(e)).expect("halts");
                t.finish().total_cycles
            }));
        }
    }
    let seg_cfg = StreamConfig::resnet18_segment();
    let seg_golden = seg_cfg.golden();
    // the sequential rows time the reference loop, so the speedup ratios
    // keep dividing by the same baseline whatever `run` steps
    let (reference, partitioned) = (Stepping::Reference, Stepping::Partitioned);
    match (want("resnet18_segment"), want("resnet18_segment_parallel")) {
        (true, true) => {
            // interleaved so speedup_vs_sequential is drift-free
            let (seq, par) = measure_pair(
                "resnet18_segment",
                "resnet18_segment_parallel",
                warmup,
                iters,
                || stream_segment(&seg_cfg, &seg_golden, Engine::default(), reference, false),
                || stream_segment(&seg_cfg, &seg_golden, Engine::default(), partitioned, false),
            );
            results.push(seq);
            results.push(par);
        }
        (true, false) => {
            results.push(measure("resnet18_segment", warmup, iters, || {
                stream_segment(&seg_cfg, &seg_golden, Engine::default(), reference, false)
            }));
        }
        (false, true) => {
            results.push(measure("resnet18_segment_parallel", warmup, iters, || {
                stream_segment(&seg_cfg, &seg_golden, Engine::default(), partitioned, false)
            }));
        }
        (false, false) => {}
    }
    if want("resnet18_segment_cycle_accurate") {
        results.push(measure(
            "resnet18_segment_cycle_accurate",
            warmup,
            iters,
            || {
                stream_segment(
                    &seg_cfg,
                    &seg_golden,
                    Engine::CycleAccurate,
                    reference,
                    false,
                )
            },
        ));
    }
    if want("resnet18_segment_slowpath") {
        results.push(measure("resnet18_segment_slowpath", warmup, iters, || {
            stream_segment(
                &seg_cfg,
                &seg_golden,
                Engine::default(),
                partitioned,
                true,
            )
        }));
    }
    if want("serve_mix_fcfs") || want("serve_mix_sjf") {
        // Bursty three-model trace over an 8-tile pool: only one
        // medium/large model runs at a time, so queues form and the
        // admission order decides the tail.
        let (serve_registry, serve_loads) = three_model_mix();
        let serve_trace = Trace::bursty(&serve_loads, 1_200_000, 200_000, 42);
        let serve_policy = |policy: Policy| -> u64 {
            let cfg = ServeConfig {
                policy,
                pool_tiles: 8,
                ..ServeConfig::default()
            };
            let report = serve(&serve_registry, &serve_trace, &cfg).expect("mix serves");
            assert_eq!(report.completed, report.requests, "serving dropped requests");
            report.p99_latency_cycles
        };
        if want("serve_mix_fcfs") {
            results.push(measure("serve_mix_fcfs", warmup, iters, || {
                serve_policy(Policy::Fcfs)
            }));
        }
        if want("serve_mix_sjf") {
            results.push(measure("serve_mix_sjf", warmup, iters, || {
                serve_policy(Policy::Sjf)
            }));
        }
    }
    let mut overload_stats: Option<OverloadStats> = None;
    if want("serve_overload") {
        // The acceptance scenario: 2×-rate tiered mix on a 10-tile pool
        // with hard faults retiring tiles mid-service. The check value
        // is the Hard tenant's p99; the bench asserts the hardening
        // invariant (no unrecoverable Hard request) every iteration.
        let (ov_registry, ov_loads, ov_cfg) = overload_mix();
        let ov_trace = Trace::bursty(&ov_loads, 1_200_000, 200_000, 42);
        let fail_at: Vec<u64> = ov_trace
            .requests
            .iter()
            .filter(|r| r.tenant == "vision")
            .take(2)
            .map(|r| r.id)
            .collect();
        let run_overload = || {
            let cfg = ServeConfig {
                policy: Policy::Sjf,
                pool_tiles: 10,
                recovery: Some(RecoveryPolicy {
                    max_replays: 8,
                    remap: true,
                    checkpoint_values: 8,
                }),
                fault: Some(FaultConfig {
                    fail_at_requests: fail_at.clone(),
                    ..FaultConfig::default()
                }),
                overload: Some(ov_cfg.clone()),
                retry_budget: Some(RetryBudget::default()),
                ..ServeConfig::default()
            };
            let report = serve(&ov_registry, &ov_trace, &cfg).expect("overload mix serves");
            let vision = report
                .tenants
                .iter()
                .find(|t| t.tenant == "vision")
                .expect("Hard tenant present");
            assert_eq!(vision.unrecoverable, 0, "Hard tenant lost a request");
            report
        };
        let rep = run_overload();
        let hard_p99 = rep
            .tenants
            .iter()
            .find(|t| t.tenant == "vision")
            .map_or(0, |t| t.p99_latency_cycles);
        overload_stats = Some(OverloadStats {
            hard_p99_cycles: hard_p99,
            shed: rep.shed,
            preemptions: rep.preemptions,
            retries: rep.retries,
            requests: rep.requests,
        });
        results.push(measure("serve_overload", warmup, iters, || {
            let report = run_overload();
            report
                .tenants
                .iter()
                .find(|t| t.tenant == "vision")
                .map_or(0, |t| t.p99_latency_cycles)
        }));
    }
    let mut repeat_stats: Option<RepeatHeavyStats> = None;
    if want("serve_repeat_heavy") {
        // Zipf-skewed popularity over the three-model mix, with the
        // light `small` model as the dominant head: the workload a
        // weight cache exists for. The enabled arm keeps hot weights
        // pinned between requests; the disabled arm restreams every
        // admission from DRAM.
        let (rh_registry, rh_loads) = three_model_mix();
        let mut ranked = rh_loads;
        ranked.reverse(); // small (keyword) first, resnet18_segment last
        let rh_trace = Trace::zipf(&ranked, 1_200_000, 14_000, 2.0, 42);
        let run_repeat = |enabled: bool| {
            let cfg = ServeConfig {
                policy: Policy::Sjf,
                pool_tiles: 8,
                weight_cache: Some(WeightCacheConfig {
                    enabled,
                    ..WeightCacheConfig::default()
                }),
                ..ServeConfig::default()
            };
            let report = serve(&rh_registry, &rh_trace, &cfg).expect("repeat mix serves");
            assert_eq!(report.completed, report.requests, "repeat mix dropped requests");
            report
        };
        let warm_rep = run_repeat(true);
        let cold_rep = run_repeat(false);
        repeat_stats = Some(RepeatHeavyStats {
            p50_cycles: warm_rep.p50_latency_cycles,
            cold_p50_cycles: cold_rep.p50_latency_cycles,
            hit_rate: warm_rep.cache.as_ref().map_or(0.0, |c| c.hit_rate),
        });
        results.push(measure("serve_repeat_heavy", warmup, iters, || {
            run_repeat(true).p50_latency_cycles
        }));
    }
    let mut cluster_stats: Option<ClusterStats> = None;
    if want("serve_cluster_failover") {
        // The fault-domain acceptance scenario: 8 fabrics with 2-way
        // replica placement serving a bursty Zipf mix, fabric 0 killed
        // mid-run. Detection costs two silent heartbeat edges, the dead
        // fabric drains, and everything it held re-dispatches to a
        // surviving replica — the bench asserts the Hard tier loses
        // nothing on every iteration.
        let (cl_registry, cl_loads) = three_model_mix();
        let mut ranked = cl_loads;
        ranked.reverse(); // small (keyword) first — the Zipf head
        let cl_trace = Trace::zipf_bursty(&ranked, 1_200_000, 9_000, 1.2, 300_000, 42);
        let run_cluster = |policy: Policy| {
            let cfg = ClusterConfig {
                fabrics: 8,
                replicas: 2,
                heartbeat_interval: 20_000,
                missed_heartbeats: 2,
                failover_budget: 3,
                prewarm_replicas: true,
                tiers: vec![
                    ("vision".into(), Tier::Hard),
                    ("assist".into(), Tier::Soft),
                    ("keyword".into(), Tier::BestEffort),
                ],
                shed: Some(ClusterShedConfig {
                    capacity_fraction: 0.95,
                    shed_late: false,
                }),
                faults: ClusterFaultPlan {
                    events: vec![FabricFault {
                        fabric: 0,
                        at: 480_000,
                        kind: FabricFaultKind::Outage { duration: None },
                    }],
                },
                base: ServeConfig {
                    policy,
                    pool_tiles: 8,
                    weight_cache: Some(WeightCacheConfig::default()),
                    ..ServeConfig::default()
                },
            };
            let report = serve_cluster(&cl_registry, &cl_trace, &cfg).expect("cluster serves");
            assert!(report.per_fabric[0].killed, "fault plan did not fire");
            assert_eq!(report.hard_requests_lost, 0, "Hard tier lost a request");
            report
        };
        let fcfs_rep = run_cluster(Policy::Fcfs);
        let sjf_rep = run_cluster(Policy::Sjf);
        cluster_stats = Some(ClusterStats {
            fcfs_p99_cycles: fcfs_rep.serve.p99_latency_cycles,
            sjf_p99_cycles: sjf_rep.serve.p99_latency_cycles,
            failover_p99_cycles: sjf_rep.failover_p99_cycles,
            detect_p50_cycles: sjf_rep.detect_p50_cycles,
            miss_rate: sjf_rep.serve.deadline_miss_rate,
            failovers: sjf_rep.failovers,
            lost: sjf_rep.requests_lost,
            hard_lost: sjf_rep.hard_requests_lost,
        });
        results.push(measure("serve_cluster_failover", warmup, iters, || {
            run_cluster(Policy::Sjf).failover_p99_cycles
        }));
    }
    let mut soak_stats: Option<SoakStats> = None;
    if want("serve_soak") {
        // The soak-run observability scenario: a compressed diurnal day
        // (the generator's 8-phase rate curve, keyword-headed Zipf mix)
        // over a 4-fabric cluster with continuous seeded fault churn and
        // the interval telemetry recorder attached — the same shape as
        // `maicc soak --quick`. Every iteration exercises the recorder's
        // window flushing alongside the serving work it observes.
        let (sk_registry, sk_loads) = three_model_mix();
        let mut ranked = sk_loads;
        ranked.reverse(); // small (keyword) first — the Zipf head
        let horizon = 600_000;
        let sk_trace = Trace::diurnal(&ranked, horizon, 12_000, 1.1, 200_000, 42);
        let run_soak = || {
            let cfg = ClusterConfig {
                fabrics: 4,
                replicas: 2,
                heartbeat_interval: 20_000,
                missed_heartbeats: 2,
                failover_budget: 3,
                prewarm_replicas: true,
                tiers: vec![
                    ("vision".into(), Tier::Hard),
                    ("assist".into(), Tier::Soft),
                    ("keyword".into(), Tier::BestEffort),
                ],
                shed: Some(ClusterShedConfig::default()),
                faults: ClusterFaultPlan::churn(4, horizon, 150_000, 42),
                base: ServeConfig {
                    policy: Policy::Sjf,
                    pool_tiles: 16,
                    weight_cache: Some(WeightCacheConfig::default()),
                    ..ServeConfig::default()
                },
            };
            serve_cluster_with_obs(&sk_registry, &sk_trace, &cfg, 50_000).expect("soak serves")
        };
        let (soak_rep, soak_jsonl) = run_soak();
        soak_stats = Some(SoakStats {
            p99_cycles: soak_rep.serve.p99_latency_cycles,
            windows: soak_jsonl.lines().count() as u64,
            hit_rate: soak_rep.serve.cache.as_ref().map_or(0.0, |c| c.hit_rate),
        });
        results.push(measure("serve_soak", warmup, iters, || {
            run_soak().0.serve.p99_latency_cycles
        }));
    }
    if results.is_empty() && !any_section {
        eprintln!(
            "maicc_bench: --bench {:?} matched no benchmark",
            filter.as_deref().unwrap_or("")
        );
        return ExitCode::from(EXIT_USAGE);
    }

    // Modelled cycles must agree across the reference, partitioned,
    // oracle, and slow-path runs of the streaming segment.
    let cycles: Vec<u64> = results
        .iter()
        .filter(|s| s.name.starts_with("resnet18_segment"))
        .map(|s| s.check)
        .collect();
    assert!(
        cycles.windows(2).all(|w| w[0] == w[1]),
        "modelled cycles diverged across variants: {cycles:?}"
    );

    if let Some((path, file)) = &mut report {
        let stats = ScenarioStats {
            overload: overload_stats,
            repeat: repeat_stats,
            cluster: cluster_stats,
            soak: soak_stats,
        };
        if let Err(e) = write_json(file, quick, iters, &results, &stats) {
            eprintln!("maicc_bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    let median = |name: &str| {
        results
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.median_ns as f64)
    };
    if let Some(seg) = median("resnet18_segment") {
        println!(
            "\nresnet18_segment: {:.1} ms vs pre-PR {:.1} ms → {:.1}x",
            seg / 1e6,
            pre_pr::RESNET18_SEGMENT_NS as f64 / 1e6,
            pre_pr::RESNET18_SEGMENT_NS as f64 / seg,
        );
        if let Some(slow) = median("resnet18_segment_slowpath") {
            println!(
                "slow path (array MACs, inline partitioned loop): {:.2}x of sequential",
                slow / seg
            );
        }
        if let Some(oracle) = median("resnet18_segment_cycle_accurate") {
            println!("event-driven engine: {:.1}x over cycle-accurate oracle", oracle / seg);
        }
        if let Some(par) = median("resnet18_segment_parallel") {
            let speedup = seg / par;
            println!("partitioned loop: {speedup:.2}x over sequential");
            if speedup < 1.0 {
                println!(
                    "WARNING: resnet18_segment_parallel is SLOWER than sequential \
                     (speedup_vs_sequential = {speedup:.2} < 1.0) — \
                     the partitioned loop is losing to the reference loop"
                );
            }
        }
    }
    ExitCode::SUCCESS
}
