//! The `maicc` command-line tool.
//!
//! ```text
//! maicc map    [--model resnet18|vgg11|tinynet] [--strategy heuristic|greedy|single] [--cores N]
//! maicc node   [--width 4|8|16]          # Table-4 single-node conv
//! maicc asm    <file.s>                  # assemble and hex-dump a program
//! maicc run    <file.s> [--max-steps N]  # execute a program on one node
//! maicc stream                           # conv pipeline through the mesh
//! maicc campaign [--workload small|resnet18] [--seed N] [--ecc off|detect|correct]
//!                [--retry on|off] [--assert-no-unrecoverable] [--json]
//! maicc serve  [--policy fcfs|sjf|partitioned|time-shared] [--trace file.json]
//!              [--seed N] [--horizon N] [--bursty] [--zipf EXP] [--overload] [--pool N]
//!              [--weight-cache] [--cold-cache] [--cache-llc-bytes N]
//!              [--fabrics N] [--replicas K] [--heartbeat N]
//!              [--fabric-fault SPEC]... [--serve-only]
//!              [--engine event|cycle] [--threads N] [--quick] [--json]
//! maicc soak   [--fabrics N] [--replicas K] [--heartbeat N] [--pool N]
//!              [--horizon N] [--interval N] [--seed N] [--no-churn]
//!              [--churn-period N] [--out FILE]
//!              [--engine event|cycle] [--threads N] [--quick]
//! ```
//!
//! `--fabrics N` routes the trace through the multi-fabric cluster
//! front-end instead of a single serving loop. `--fabric-fault` injects
//! fabric-level faults and repeats; a SPEC is one of
//! `outage:FABRIC:AT[:DURATION]`, `brownout:FABRIC:AT:FACTOR:DURATION`,
//! or `tileloss:FABRIC:AT:TILES` (cycles and counts are decimal).
//! `--serve-only` prints just the merged serve report JSON — byte-
//! comparable against a plain `serve --json` run when `--fabrics 1` and
//! no faults are given (the CI parity check).
//!
//! `soak` runs a long diurnal Zipf trace through the full cluster stack
//! under continuous seeded fault churn and streams interval telemetry
//! (one JSON line per `--interval` simulated cycles — the `maicc-obs`
//! schema) to stdout or `--out FILE`; the human summary goes to stderr,
//! so the stream stays byte-comparable across engines and thread counts.

use maicc::core::kernels::{CmemConvKernel, ConvWorkload};
use maicc::core::node::{Node, NullPort};
use maicc::core::pipeline::{PipelineConfig, Timing};
use maicc::exec::config::ExecConfig;
use maicc::exec::pipeline_model::run_network;
use maicc::exec::segment::Strategy;
use maicc::isa::inst::VecWidth;
use maicc::isa::parse::assemble_text;
use maicc::isa::reg::Reg;
use maicc::model::power::EnergyBreakdown;
use maicc::nn::graph::Network;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("map") => cmd_map(&args[1..]),
        Some("node") => cmd_node(&args[1..]),
        Some("asm") => cmd_asm(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("stream") => cmd_stream(),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("soak") => cmd_soak(&args[1..]),
        Some("help") | None => {
            print_help();
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}` (try `maicc help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "maicc — the MAICC many-core with in-cache computing\n\n\
         SUBCOMMANDS:\n  \
         map       map a DNN onto the array and report latency/power (Table 6)\n  \
         node      run the Table-4 single-node convolution on one core\n  \
         asm       assemble a RISC-V + CMem-extension program and hex-dump it\n  \
         run       execute an assembly program on one node and dump registers\n  \
         stream    push a 2-layer conv pipeline through the bit-level mesh\n  \
         campaign  sweep fault injections with ECC/retry/replay recovery\n  \
         serve     online multi-tenant serving: request trace -> scheduler -> SLO report\n  \
         soak      long diurnal cluster run with fault churn, streaming interval telemetry\n  \
         help      print this overview\n\n\
         USAGE:\n  maicc map    [--model M] [--strategy S] [--cores N]\n  \
         maicc node   [--width 4|8|16]\n  maicc asm    <file.s>\n  \
         maicc run    <file.s> [--max-steps N]\n  maicc stream\n  \
         maicc campaign [--workload small|resnet18] [--seed N] [--ecc off|detect|correct]\n  \
         \u{20}              [--retry on|off] [--assert-no-unrecoverable] [--json]\n  \
         maicc serve  [--policy fcfs|sjf|partitioned|time-shared] [--trace file.json]\n  \
         \u{20}            [--seed N] [--horizon N] [--bursty] [--zipf EXP] [--overload] [--pool N]\n  \
         \u{20}            [--weight-cache] [--cold-cache] [--cache-llc-bytes N]\n  \
         \u{20}            [--fabrics N] [--replicas K] [--heartbeat N]\n  \
         \u{20}            [--fabric-fault SPEC]... [--serve-only]\n  \
         \u{20}            [--engine event|cycle] [--threads N] [--quick] [--json]\n  \
         maicc soak   [--fabrics N] [--replicas K] [--heartbeat N] [--pool N]\n  \
         \u{20}            [--horizon N] [--interval N] [--seed N] [--no-churn]\n  \
         \u{20}            [--churn-period N] [--out FILE]\n  \
         \u{20}            [--engine event|cycle] [--threads N] [--quick]\n\n\
         models: resnet18 (default), vgg11, tinynet\n\
         strategies: heuristic (default), greedy, single\n\
         serve policies: fcfs (default), sjf, partitioned, time-shared\n\
         serve --overload: 2x-rate tiered mix + admission control, shedding,\n\
         \u{20}                preemption, retry, brownout, and fault churn\n\
         serve --weight-cache: pin model weights on tiles between requests\n\
         \u{20}                    (--cold-cache models a full reload per admission;\n\
         \u{20}                     --zipf EXP offers a repeat-heavy skewed trace)\n\
         serve --fabrics N: dispatch across N independent fabrics with heartbeat\n\
         \u{20}                 failover; --fabric-fault outage:F:AT[:DUR] |\n\
         \u{20}                 brownout:F:AT:FACTOR:DUR | tileloss:F:AT:TILES kills,\n\
         \u{20}                 slows, or shrinks a fabric mid-run (repeatable)"
    );
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn cmd_map(args: &[String]) -> Result<(), String> {
    let model = flag(args, "--model").unwrap_or_else(|| "resnet18".into());
    let (net, input): (Network, [usize; 3]) = match model.as_str() {
        "resnet18" => (maicc::nn::resnet::resnet18(1000), [64, 56, 56]),
        "vgg11" => (maicc::nn::resnet::vgg11(1000), [64, 32, 32]),
        "tinynet" => (maicc::nn::resnet::tinynet(10), [32, 32, 32]),
        other => return Err(format!("unknown model `{other}`")),
    };
    let strategy = match flag(args, "--strategy").as_deref() {
        None | Some("heuristic") => Strategy::Heuristic,
        Some("greedy") => Strategy::Greedy,
        Some("single") => Strategy::SingleLayer,
        Some(other) => return Err(format!("unknown strategy `{other}`")),
    };
    let cores = match flag(args, "--cores") {
        Some(c) => c.parse().map_err(|_| format!("bad core count `{c}`"))?,
        None => 210,
    };
    let cfg = ExecConfig {
        cores,
        ..ExecConfig::default()
    };
    let run = run_network(&net, input, strategy, &cfg).map_err(|e| e.to_string())?;
    println!("{model} under {strategy:?} on {cores} cores\n");
    println!("{:<4}{:<12}{:>7}{:>5}{:>12}{:>12}", "#", "layer", "nodes", "seg", "period", "iters");
    for (i, l) in run.layers.iter().enumerate() {
        println!(
            "{:<4}{:<12}{:>7}{:>5}{:>12.0}{:>12}",
            i + 1,
            l.name,
            l.nodes,
            l.segment,
            l.effective_period,
            l.timing.iterations
        );
    }
    let e = EnergyBreakdown::from_counters(&run.counters);
    println!(
        "\nlatency {:.3} ms | throughput {:.1} samples/s | power {:.1} W | energy {:.1} mJ",
        run.total_ms(&cfg),
        run.throughput(&cfg),
        e.average_power(run.counters.seconds),
        e.total() * 1e3
    );
    // floor plan of the first segment's node groups (Figure 7(c) zig-zag)
    use maicc::exec::mapping::{place_groups, render_ascii};
    let seg0: Vec<usize> = run
        .layers
        .iter()
        .filter(|l| l.segment == 0)
        .map(|l| l.nodes - 1)
        .collect();
    if let Some(g) = place_groups(&seg0) {
        println!("\nsegment 0 floor plan (DC upper-case, cores lower-case):");
        print!("{}", render_ascii(&g));
    }
    Ok(())
}

fn cmd_node(args: &[String]) -> Result<(), String> {
    let width = match flag(args, "--width").as_deref() {
        None | Some("8") => VecWidth::W8,
        Some("4") => VecWidth::W4,
        Some("16") => VecWidth::W16,
        Some(other) => return Err(format!("unsupported width `{other}`")),
    };
    let wl = if width == VecWidth::W16 {
        ConvWorkload::tiny()
    } else {
        ConvWorkload::table4()
    };
    let kernel = CmemConvKernel::with_width(wl, width).map_err(|e| e.to_string())?;
    let sched = kernel.with_program(kernel.scheduled_program());
    let ifmap = wl.synthetic_ifmap();
    let weights = wl.synthetic_weights();
    let mut node = sched
        .prepare(&ifmap, &weights, 4)
        .map_err(|e| e.to_string())?;
    let mut t = Timing::new(PipelineConfig::default());
    node.run_with(200_000_000, |e| t.on_retire(e))
        .map_err(|e| e.to_string())?;
    let ok = sched.read_ofmap(&node).map_err(|e| e.to_string())? == wl.golden(&ifmap, &weights);
    let r = t.finish();
    println!(
        "{}-bit conv {}x({}x{}x{}) on {}x{}x{}: {} cycles, IPC {:.2}",
        width.bits(),
        wl.filters,
        wl.r,
        wl.s,
        wl.c,
        wl.h,
        wl.w,
        wl.c,
        r.total_cycles,
        r.ipc(),
    );
    println!("functional check vs golden conv: {}", if ok { "PASS" } else { "FAIL" });
    if !ok {
        return Err("ofmap mismatch".into());
    }
    Ok(())
}

fn cmd_asm(args: &[String]) -> Result<(), String> {
    use std::io::Write;
    let path = args.first().ok_or("usage: maicc asm <file.s>")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let prog = assemble_text(&src).map_err(|e| e.to_string())?;
    // ignore write failures so `maicc asm … | head` exits cleanly
    let mut out = std::io::stdout().lock();
    for (i, inst) in prog.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:08x}:  {:08x}  {}",
            i * 4,
            maicc::isa::encode::encode(inst),
            inst
        );
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: maicc run <file.s>")?;
    let max_steps = match flag(args, "--max-steps") {
        Some(v) => v.parse().map_err(|_| format!("bad step count `{v}`"))?,
        None => 10_000_000u64,
    };
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let prog = assemble_text(&src).map_err(|e| e.to_string())?;
    let mut node = Node::new(prog, NullPort::default());
    let mut timing = Timing::new(PipelineConfig::default());
    node.run_with(max_steps, |e| timing.on_retire(e))
        .map_err(|e| e.to_string())?;
    let r = timing.finish();
    println!(
        "halted after {} instructions, {} cycles (IPC {:.2})",
        r.instructions, r.total_cycles, r.ipc()
    );
    if !node.output().is_empty() {
        println!("output: {:?}", node.output());
    }
    // ignore write failures so `maicc run … | head` exits cleanly
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    for chunk in Reg::ALL.chunks(4) {
        let row: Vec<String> = chunk
            .iter()
            .map(|&r| format!("{:<5}= {:#010x}", r.to_string(), node.reg(r)))
            .collect();
        let _ = writeln!(out, "  {}", row.join("  "));
    }
    Ok(())
}

fn cmd_campaign(args: &[String]) -> Result<(), String> {
    use maicc::noc::RetryPolicy;
    use maicc::sim::campaign::{FaultCampaign, Outcome, RecoveryConfig};
    use maicc::sram::ecc::EccMode;
    let seed = match flag(args, "--seed") {
        Some(v) => v.parse().map_err(|_| format!("bad seed `{v}`"))?,
        None => 42u64,
    };
    let mut campaign = match flag(args, "--workload").as_deref() {
        None | Some("small") => FaultCampaign::small_default(seed),
        Some("resnet18") => FaultCampaign::resnet18_default(seed),
        Some(other) => return Err(format!("unknown workload `{other}`")),
    };
    let ecc = match flag(args, "--ecc").as_deref() {
        None | Some("correct") => EccMode::Correct,
        Some("detect") => EccMode::DetectOnly,
        Some("off") => EccMode::Off,
        Some(other) => return Err(format!("unknown ECC mode `{other}`")),
    };
    let noc_retry = match flag(args, "--retry").as_deref() {
        None | Some("on") => Some(RetryPolicy::default()),
        Some("off") => None,
        Some(other) => return Err(format!("bad retry setting `{other}`")),
    };
    campaign.recovery = Some(RecoveryConfig {
        ecc,
        noc_retry,
        ..RecoveryConfig::default()
    });
    let report = campaign.run().map_err(|e| e.to_string())?;
    if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_json());
    } else {
        println!(
            "fault campaign over {} points (clean baseline {} cycles):",
            report.runs.len(),
            report.clean_cycles
        );
        for r in &report.runs {
            println!(
                "  {:<13} faults={:<6} replays={:<3} corrected={:<6} overhead={} cycles{}",
                r.outcome.label(),
                r.faults_injected,
                r.replays,
                r.corrected,
                r.recovery_overhead_cycles,
                if r.detail.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", r.detail)
                },
            );
        }
    }
    let unrecoverable = report.count(Outcome::Unrecoverable);
    if args.iter().any(|a| a == "--assert-no-unrecoverable") && unrecoverable > 0 {
        return Err(format!("{unrecoverable} run(s) ended unrecoverable"));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use maicc::serve::cache::WeightCacheConfig;
    use maicc::serve::overload::RetryBudget;
    use maicc::serve::registry::{overload_mix, three_model_mix};
    use maicc::serve::server::{serve, FaultConfig, Policy, ServeConfig};
    use maicc::serve::trace::Trace;
    use maicc::sim::stream::{Engine, RecoveryPolicy};

    let overload = args.iter().any(|a| a == "--overload");
    let policy = match flag(args, "--policy") {
        None if overload => Policy::Sjf,
        None => Policy::Fcfs,
        Some(p) => Policy::from_label(&p).ok_or(format!("unknown policy `{p}`"))?,
    };
    let seed = match flag(args, "--seed") {
        Some(v) => v.parse().map_err(|_| format!("bad seed `{v}`"))?,
        None => 42u64,
    };
    let quick = args.iter().any(|a| a == "--quick");
    let horizon = match flag(args, "--horizon") {
        Some(v) => v.parse().map_err(|_| format!("bad horizon `{v}`"))?,
        None if quick => 300_000u64,
        None => 1_500_000u64,
    };
    let engine = match flag(args, "--engine").as_deref() {
        None | Some("event") => Engine::EventDriven,
        Some("cycle") => Engine::CycleAccurate,
        Some(other) => return Err(format!("unknown engine `{other}` (event|cycle)")),
    };
    let threads = match flag(args, "--threads") {
        Some(v) => v.parse().map_err(|_| format!("bad thread count `{v}`"))?,
        None => 1usize,
    };
    let pool_tiles = match flag(args, "--pool") {
        Some(v) => v.parse().map_err(|_| format!("bad pool size `{v}`"))?,
        None if overload => 10usize,
        None => 16usize,
    };

    // `--overload` swaps in the 2×-rate mix with priority tiers and the
    // full hardening kit; otherwise the plain three-model mix.
    let (registry, loads, overload_cfg) = if overload {
        let (r, l, o) = overload_mix();
        (r, l, Some(o))
    } else {
        let (r, l) = three_model_mix();
        (r, l, None)
    };
    let zipf = match (
        args.iter().any(|a| a == "--zipf"),
        flag(args, "--zipf"),
    ) {
        (false, _) => None,
        (true, Some(v)) => {
            Some(v.parse::<f64>().map_err(|_| format!("bad zipf exponent `{v}`"))?)
        }
        (true, None) => return Err("--zipf takes an exponent (e.g. --zipf 2.0)".into()),
    };
    let trace = match flag(args, "--trace") {
        Some(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            Trace::from_json(&text).map_err(|e| e.to_string())?
        }
        None if zipf.is_some() => {
            // Popularity ranks lightest-first (the repeat-heavy shape the
            // weight cache serves): reverse the mix so `small` is rank 0.
            let mut ranked = loads.clone();
            ranked.reverse();
            Trace::zipf(&ranked, horizon, 14_000, zipf.unwrap_or(2.0), seed)
        }
        None if overload || args.iter().any(|a| a == "--bursty") => {
            Trace::bursty(&loads, horizon, 200_000, seed)
        }
        None => Trace::poisson(&loads, horizon, seed),
    };

    let cold_cache = args.iter().any(|a| a == "--cold-cache");
    let weight_cache = if args.iter().any(|a| a == "--weight-cache") || cold_cache {
        let mut wc = WeightCacheConfig {
            enabled: !cold_cache,
            ..WeightCacheConfig::default()
        };
        if let Some(v) = flag(args, "--cache-llc-bytes") {
            wc.llc_capacity_bytes =
                v.parse().map_err(|_| format!("bad LLC capacity `{v}`"))?;
        }
        Some(wc)
    } else {
        None
    };

    // Under overload, keep the hardware churning too: hard-fault the
    // first two Hard-tier arrivals (deterministic ids), so remap
    // recovery retires tiles mid-service while the scheduler sheds,
    // preempts, and retries around the shrinking pool.
    let (recovery, fault) = if overload {
        let fail_at: Vec<u64> = trace
            .requests
            .iter()
            .filter(|r| r.tenant == "vision")
            .take(2)
            .map(|r| r.id)
            .collect();
        (
            Some(RecoveryPolicy {
                max_replays: 8,
                remap: true,
                checkpoint_values: 8,
            }),
            Some(FaultConfig {
                fail_at_requests: fail_at,
                ..FaultConfig::default()
            }),
        )
    } else {
        (None, None)
    };

    let cfg = ServeConfig {
        policy,
        engine,
        threads,
        pool_tiles,
        recovery,
        fault,
        overload: overload_cfg,
        retry_budget: overload.then(RetryBudget::default),
        weight_cache,
        ..ServeConfig::default()
    };
    let cluster_only_flags = ["--replicas", "--heartbeat", "--fabric-fault", "--serve-only"];
    match flag(args, "--fabrics") {
        Some(v) => {
            let fabrics = v.parse().map_err(|_| format!("bad fabric count `{v}`"))?;
            return cmd_serve_cluster(args, fabrics, cfg, &registry, &trace);
        }
        None => {
            if let Some(f) = cluster_only_flags
                .iter()
                .find(|f| args.iter().any(|a| a.as_str() == **f))
            {
                return Err(format!("{f} needs --fabrics N (cluster mode)"));
            }
        }
    }
    let report = serve(&registry, &trace, &cfg).map_err(|e| e.to_string())?;
    if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_json());
    } else {
        println!(
            "served {} requests under {} on a {}-tile pool ({} degraded)",
            report.requests, report.policy, report.pool_tiles, report.degraded_tiles
        );
        println!(
            "  completed {} | dropped {} | makespan {} cycles | utilization {:.1}%",
            report.completed,
            report.dropped,
            report.makespan_cycles,
            report.utilization * 100.0
        );
        if overload {
            println!(
                "  shed {} | unrecoverable {} | preemptions {} | retries {}",
                report.shed, report.unrecoverable, report.preemptions, report.retries
            );
        }
        println!(
            "  latency p50/p95/p99 = {}/{}/{} cycles | miss rate {:.1}% | {:.0} pJ/request",
            report.p50_latency_cycles,
            report.p95_latency_cycles,
            report.p99_latency_cycles,
            report.deadline_miss_rate * 100.0,
            report.energy_pj_per_request
        );
        if let Some(c) = &report.cache {
            println!(
                "  weight cache: {} hits / {} misses (hit rate {:.1}%) | {} evictions | {} llc hits",
                c.hits,
                c.misses,
                c.hit_rate * 100.0,
                c.evictions,
                c.llc_hits
            );
            println!(
                "  prefetch {}/{} used (accuracy {:.1}%) | warm p50 {} vs cold p50 {} cycles",
                c.prefetch_used,
                c.prefetch_issued,
                c.prefetch_accuracy * 100.0,
                c.warm_p50_latency_cycles,
                c.cold_p50_latency_cycles
            );
        }
        for t in &report.tenants {
            print!(
                "  {:<10} {:>4} reqs  p99 {:>9} cycles  misses {:>3} ({:.1}%)  {:.0} pJ/req",
                t.tenant,
                t.requests,
                t.p99_latency_cycles,
                t.deadline_misses,
                t.miss_rate * 100.0,
                t.energy_pj_per_request
            );
            if overload {
                print!("  shed {:>3}  unrec {:>2}", t.shed, t.unrecoverable);
            }
            println!();
        }
    }
    Ok(())
}

/// `maicc soak`: a long diurnal cluster run with continuous seeded
/// fault churn, streaming the `maicc-obs` interval telemetry (JSONL) to
/// stdout or `--out FILE` while the human summary goes to stderr.
fn cmd_soak(args: &[String]) -> Result<(), String> {
    use maicc::serve::cache::WeightCacheConfig;
    use maicc::serve::cluster::{
        serve_cluster_with_obs, ClusterConfig, ClusterFaultPlan,
        ClusterShedConfig,
    };
    use maicc::serve::overload::Tier;
    use maicc::serve::registry::three_model_mix;
    use maicc::serve::server::{Policy, ServeConfig};
    use maicc::serve::trace::Trace;
    use maicc::sim::stream::Engine;

    let quick = args.iter().any(|a| a == "--quick");
    let num = |name: &str, default: u64| -> Result<u64, String> {
        match flag(args, name) {
            Some(v) => v.parse().map_err(|_| format!("bad {name} `{v}`")),
            None => Ok(default),
        }
    };
    let seed = num("--seed", 42)?;
    let horizon = num("--horizon", if quick { 600_000 } else { 2_000_000 })?;
    let interval = num("--interval", 50_000)?;
    let fabrics = num("--fabrics", 4)? as usize;
    let replicas = num("--replicas", 2.min(fabrics as u64))? as usize;
    let heartbeat = num("--heartbeat", 20_000)?;
    let pool_tiles = num("--pool", 16)? as usize;
    let churn_period = num("--churn-period", 150_000)?;
    let engine = match flag(args, "--engine").as_deref() {
        None | Some("event") => Engine::EventDriven,
        Some("cycle") => Engine::CycleAccurate,
        Some(other) => return Err(format!("unknown engine `{other}` (event|cycle)")),
    };
    let threads = match flag(args, "--threads") {
        Some(v) => v.parse().map_err(|_| format!("bad thread count `{v}`"))?,
        None => 1usize,
    };

    // The repeat-heavy diurnal mix: popularity ranks lightest-first so
    // the weight cache has a head model to keep warm, exactly as the
    // zipf serve path does.
    let (registry, loads) = three_model_mix();
    let mut ranked = loads;
    ranked.reverse();
    let trace = Trace::diurnal(&ranked, horizon, 12_000, 1.1, 200_000, seed);

    let faults = if args.iter().any(|a| a == "--no-churn") {
        ClusterFaultPlan::default()
    } else {
        ClusterFaultPlan::churn(fabrics, horizon, churn_period, seed)
    };
    let cfg = ClusterConfig {
        fabrics,
        replicas,
        heartbeat_interval: heartbeat,
        prewarm_replicas: true,
        tiers: vec![
            ("vision".into(), Tier::Hard),
            ("assist".into(), Tier::Soft),
            ("keyword".into(), Tier::BestEffort),
        ],
        shed: Some(ClusterShedConfig::default()),
        faults,
        base: ServeConfig {
            policy: Policy::Sjf,
            engine,
            threads,
            pool_tiles,
            weight_cache: Some(WeightCacheConfig::default()),
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };
    let (report, jsonl) =
        serve_cluster_with_obs(&registry, &trace, &cfg, interval)
            .map_err(|e| e.to_string())?;
    match flag(args, "--out") {
        Some(path) => {
            std::fs::write(&path, &jsonl).map_err(|e| format!("{path}: {e}"))?;
        }
        None => print!("{jsonl}"),
    }
    eprintln!(
        "soak: {} fabrics x {} tiles | horizon {} cycles | {} windows of {}",
        fabrics,
        pool_tiles,
        horizon,
        jsonl.lines().count(),
        interval.max(1)
    );
    eprintln!(
        "  requests {} | completed {} | lost {} (hard {}) | shed {} | failovers {}",
        report.serve.requests,
        report.serve.completed,
        report.requests_lost,
        report.hard_requests_lost,
        report.serve.shed,
        report.failovers
    );
    eprintln!(
        "  faults {} | detect p50/max {}/{} cycles | failover p99 {} | p99 latency {} cycles",
        report.faults_injected,
        report.detect_p50_cycles,
        report.detect_max_cycles,
        report.failover_p99_cycles,
        report.serve.p99_latency_cycles
    );
    if let Some(c) = &report.serve.cache {
        eprintln!(
            "  weight cache: hit rate {:.1}% | {} evictions | prefetch {}/{} used",
            c.hit_rate * 100.0,
            c.evictions,
            c.prefetch_used,
            c.prefetch_issued
        );
    }
    Ok(())
}

/// One `--fabric-fault SPEC`: `outage:FABRIC:AT[:DURATION]`,
/// `brownout:FABRIC:AT:FACTOR:DURATION`, or `tileloss:FABRIC:AT:TILES`.
fn parse_fabric_fault(spec: &str) -> Result<maicc::serve::cluster::FabricFault, String> {
    use maicc::serve::cluster::{FabricFault, FabricFaultKind};
    let num = |s: &str, what: &str| -> Result<u64, String> {
        s.parse()
            .map_err(|_| format!("bad {what} `{s}` in --fabric-fault `{spec}`"))
    };
    let parts: Vec<&str> = spec.split(':').collect();
    let (fabric, at, kind) = match parts.as_slice() {
        ["outage", f, at] => (*f, *at, FabricFaultKind::Outage { duration: None }),
        ["outage", f, at, dur] => (
            *f,
            *at,
            FabricFaultKind::Outage {
                duration: Some(num(dur, "duration")?),
            },
        ),
        ["brownout", f, at, factor, dur] => (
            *f,
            *at,
            FabricFaultKind::Brownout {
                factor: num(factor, "slow factor")?,
                duration: num(dur, "duration")?,
            },
        ),
        ["tileloss", f, at, tiles] => (
            *f,
            *at,
            FabricFaultKind::TileLoss {
                tiles: num(tiles, "tile count")? as usize,
            },
        ),
        _ => {
            return Err(format!(
                "bad --fabric-fault `{spec}` (want outage:FABRIC:AT[:DURATION], \
                 brownout:FABRIC:AT:FACTOR:DURATION, or tileloss:FABRIC:AT:TILES)"
            ))
        }
    };
    Ok(FabricFault {
        fabric: num(fabric, "fabric index")? as usize,
        at: num(at, "fault cycle")?,
        kind,
    })
}

fn cmd_serve_cluster(
    args: &[String],
    fabrics: usize,
    base: maicc::serve::server::ServeConfig,
    registry: &maicc::serve::registry::ModelRegistry,
    trace: &maicc::serve::trace::Trace,
) -> Result<(), String> {
    use maicc::serve::cluster::{serve_cluster, ClusterConfig, ClusterFaultPlan};

    let replicas = match flag(args, "--replicas") {
        Some(v) => v.parse().map_err(|_| format!("bad replica factor `{v}`"))?,
        None => 1usize,
    };
    let mut ccfg = ClusterConfig {
        fabrics,
        replicas,
        base,
        ..ClusterConfig::default()
    };
    if let Some(v) = flag(args, "--heartbeat") {
        ccfg.heartbeat_interval = v
            .parse()
            .map_err(|_| format!("bad heartbeat interval `{v}`"))?;
    }
    let mut events = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--fabric-fault" {
            let spec = args
                .get(i + 1)
                .ok_or("--fabric-fault takes a SPEC argument")?;
            events.push(parse_fabric_fault(spec)?);
            i += 2;
        } else {
            i += 1;
        }
    }
    ccfg.faults = ClusterFaultPlan { events };

    let report = serve_cluster(registry, trace, &ccfg).map_err(|e| e.to_string())?;
    if args.iter().any(|a| a == "--serve-only") {
        println!("{}", report.serve.to_json());
    } else if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_json());
    } else {
        println!(
            "cluster of {} fabrics x {} tiles | replicas {} | heartbeat {} cycles",
            report.fabrics, report.serve.pool_tiles / report.fabrics, report.replicas,
            report.heartbeat_interval
        );
        println!(
            "  faults {} | failovers {} | lost {} (hard {}) | cluster shed {}",
            report.faults_injected,
            report.failovers,
            report.requests_lost,
            report.hard_requests_lost,
            report.cluster_shed
        );
        println!(
            "  detect p50/max = {}/{} cycles | failover p99 = {} cycles",
            report.detect_p50_cycles, report.detect_max_cycles, report.failover_p99_cycles
        );
        for f in &report.per_fabric {
            println!(
                "  fabric {:<2} dispatched {:>4} completed {:>4} drained {:>3} \
                 degraded {:>2}{}",
                f.fabric,
                f.dispatched,
                f.completed,
                f.drained,
                f.degraded_tiles,
                if f.killed { "  KILLED" } else { "" }
            );
        }
        println!(
            "  fleet: {} requests | completed {} | dropped {} | p99 {} cycles | miss rate {:.1}%",
            report.serve.requests,
            report.serve.completed,
            report.serve.dropped,
            report.serve.p99_latency_cycles,
            report.serve.deadline_miss_rate * 100.0
        );
    }
    Ok(())
}

fn cmd_stream() -> Result<(), String> {
    use maicc::sim::stream::{StreamConfig, StreamSim};
    let cfg = StreamConfig::two_layer_test();
    let mut sim = StreamSim::new(&cfg).map_err(|e| e.to_string())?;
    let r = sim.run(50_000_000).map_err(|e| e.to_string())?;
    let ok = r.ofmap == cfg.golden();
    println!(
        "2-layer conv pipeline over the mesh: {} cycles, {} packets, {} flit-hops",
        r.cycles, r.noc.packets_delivered, r.noc.flit_hops
    );
    println!("golden match: {}", if ok { "PASS" } else { "FAIL" });
    if !ok {
        return Err("ofmap mismatch".into());
    }
    Ok(())
}
