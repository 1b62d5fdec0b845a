//! The `maicc` command-line tool; `maicc help` prints the subcommands
//! and their flags.
//!
//! Every argument goes through [`maicc::cli::Args`]: each subcommand
//! reads the flags it knows and refuses anything else before it starts,
//! and every error exits 1.
//!
//! `soak` streams the interval telemetry (one JSON line per `--interval`
//! simulated cycles, the `maicc-obs` schema) to stdout or `--out FILE`;
//! the human summary goes to stderr, so the stream stays byte-comparable
//! across engines.

use maicc::cli::Args;
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
use maicc::sim::stream::Engine;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next();
    let args: Args = argv.collect();
    let result = match command.as_deref() {
        Some("map") => cmd_map(args),
        Some("node") => cmd_node(args),
        Some("asm") => cmd_asm(args),
        Some("run") => cmd_run(args),
        Some("stream") => cmd_stream(args),
        Some("campaign") => cmd_campaign(args),
        Some("serve") => cmd_serve(args),
        Some("soak") => cmd_soak(args),
        Some("help") | None => args.finish().map(|()| print_help()),
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
         \u{20}            [--fabric-fault SPEC]...\n  \
         \u{20}            [--engine event|cycle] [--quick] [--json]\n  \
         maicc soak   [--fabrics N] [--replicas K] [--heartbeat N] [--pool N]\n  \
         \u{20}            [--horizon N] [--interval N] [--seed N] [--no-churn]\n  \
         \u{20}            [--churn-period N] [--out FILE]\n  \
         \u{20}            [--engine event|cycle] [--quick]\n\n\
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

/// `--engine event|cycle`, which `serve` and `soak` share.
fn engine_flag(args: &mut Args) -> Result<Engine, String> {
    match args.value::<String>("--engine")?.as_deref() {
        None | Some("event") => Ok(Engine::EventDriven),
        Some("cycle") => Ok(Engine::CycleAccurate),
        Some(other) => Err(format!("unknown engine `{other}` (event|cycle)")),
    }
}

fn cmd_map(mut args: Args) -> Result<(), String> {
    let model = args
        .value("--model")?
        .unwrap_or_else(|| "resnet18".to_string());
    let strategy = args.value::<String>("--strategy")?;
    let cores = args.value("--cores")?.unwrap_or(210);
    args.finish()?;
    let (net, input): (Network, [usize; 3]) = match model.as_str() {
        "resnet18" => (maicc::nn::resnet::resnet18(1000), [64, 56, 56]),
        "vgg11" => (maicc::nn::resnet::vgg11(1000), [64, 32, 32]),
        "tinynet" => (maicc::nn::resnet::tinynet(10), [32, 32, 32]),
        other => return Err(format!("unknown model `{other}`")),
    };
    let strategy = match strategy.as_deref() {
        None | Some("heuristic") => Strategy::Heuristic,
        Some("greedy") => Strategy::Greedy,
        Some("single") => Strategy::SingleLayer,
        Some(other) => return Err(format!("unknown strategy `{other}`")),
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

fn cmd_node(mut args: Args) -> Result<(), String> {
    let width = args.value::<String>("--width")?;
    args.finish()?;
    let width = match width.as_deref() {
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

fn cmd_asm(mut args: Args) -> Result<(), String> {
    use std::io::Write;
    let path = args.positional().ok_or("usage: maicc asm <file.s>")?;
    args.finish()?;
    let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
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

fn cmd_run(mut args: Args) -> Result<(), String> {
    let max_steps = args.value("--max-steps")?.unwrap_or(10_000_000);
    let path = args.positional().ok_or("usage: maicc run <file.s>")?;
    args.finish()?;
    let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
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

fn cmd_campaign(mut args: Args) -> Result<(), String> {
    use maicc::noc::RetryPolicy;
    use maicc::sim::campaign::{FaultCampaign, Outcome, RecoveryConfig};
    use maicc::sram::ecc::EccMode;
    let seed = args.value("--seed")?.unwrap_or(42);
    let workload = args.value::<String>("--workload")?;
    let ecc = args.value::<String>("--ecc")?;
    let retry = args.value::<String>("--retry")?;
    let json = args.switch("--json")?;
    let assert_recoverable = args.switch("--assert-no-unrecoverable")?;
    args.finish()?;
    let mut campaign = match workload.as_deref() {
        None | Some("small") => FaultCampaign::small_default(seed),
        Some("resnet18") => FaultCampaign::resnet18_default(seed),
        Some(other) => return Err(format!("unknown workload `{other}`")),
    };
    let ecc = match ecc.as_deref() {
        None | Some("correct") => EccMode::Correct,
        Some("detect") => EccMode::DetectOnly,
        Some("off") => EccMode::Off,
        Some(other) => return Err(format!("unknown ECC mode `{other}`")),
    };
    let noc_retry = match retry.as_deref() {
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
    if json {
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
    if assert_recoverable && unrecoverable > 0 {
        return Err(format!("{unrecoverable} run(s) ended unrecoverable"));
    }
    Ok(())
}

fn cmd_serve(mut args: Args) -> Result<(), String> {
    use maicc::serve::cache::WeightCacheConfig;
    use maicc::serve::cluster::{ClusterConfig, ClusterFaultPlan};
    use maicc::serve::overload::RetryBudget;
    use maicc::serve::registry::{overload_mix, three_model_mix};
    use maicc::serve::server::{serve, FaultConfig, Policy, ServeConfig};
    use maicc::serve::trace::Trace;
    use maicc::sim::stream::RecoveryPolicy;

    let overload = args.switch("--overload")?;
    let quick = args.switch("--quick")?;
    let json = args.switch("--json")?;
    let bursty = args.switch("--bursty")?;
    let cold_cache = args.switch("--cold-cache")?;
    let cached = args.switch("--weight-cache")? || cold_cache;
    let policy = match args.value::<String>("--policy")? {
        None if overload => Policy::Sjf,
        None => Policy::Fcfs,
        Some(p) => Policy::from_label(&p).ok_or(format!("unknown policy `{p}`"))?,
    };
    let seed = args.value("--seed")?.unwrap_or(42);
    let horizon = args
        .value("--horizon")?
        .unwrap_or(if quick { 300_000 } else { 1_500_000 });
    let engine = engine_flag(&mut args)?;
    let pool_tiles = args
        .value("--pool")?
        .unwrap_or(if overload { 10 } else { 16 });
    let zipf = args.value::<f64>("--zipf")?;
    if let Some(exponent) = zipf.filter(|e| !e.is_finite()) {
        return Err(format!("--zipf needs a finite EXP, got `{exponent}`"));
    }
    let trace_path = args.value::<String>("--trace")?;
    let llc_bytes = if cached {
        args.value("--cache-llc-bytes")?
    } else {
        None
    };
    // the cluster flags count only with `--fabrics`
    let cluster = match args.value("--fabrics")? {
        Some(fabrics) => {
            let specs = args.values("--fabric-fault")?;
            let mut ccfg = ClusterConfig {
                fabrics,
                replicas: args.value("--replicas")?.unwrap_or(1),
                faults: ClusterFaultPlan {
                    events: specs
                        .iter()
                        .map(|s| parse_fabric_fault(s))
                        .collect::<Result<_, _>>()?,
                },
                ..ClusterConfig::default()
            };
            if let Some(h) = args.value("--heartbeat")? {
                ccfg.heartbeat_interval = h;
            }
            Some(ccfg)
        }
        None => None,
    };
    args.finish()?;

    // `--overload` swaps in the 2×-rate mix with priority tiers and the
    // full hardening kit; otherwise the plain three-model mix.
    let (registry, loads, overload_cfg) = if overload {
        let (r, l, o) = overload_mix();
        (r, l, Some(o))
    } else {
        let (r, l) = three_model_mix();
        (r, l, None)
    };
    let trace = match (trace_path, zipf) {
        (Some(path), _) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            Trace::from_json(&text).map_err(|e| e.to_string())?
        }
        (None, Some(exponent)) => {
            // Popularity ranks lightest-first (the repeat-heavy shape the
            // weight cache serves): reverse the mix so `small` is rank 0.
            let mut ranked = loads.clone();
            ranked.reverse();
            Trace::zipf(&ranked, horizon, 14_000, exponent, seed)
        }
        (None, None) if overload || bursty => Trace::bursty(&loads, horizon, 200_000, seed),
        (None, None) => Trace::poisson(&loads, horizon, seed),
    };

    let weight_cache = cached.then(|| {
        let mut wc = WeightCacheConfig {
            enabled: !cold_cache,
            ..WeightCacheConfig::default()
        };
        if let Some(bytes) = llc_bytes {
            wc.llc_capacity_bytes = bytes;
        }
        wc
    });

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
        pool_tiles,
        recovery,
        fault,
        overload: overload_cfg,
        retry_budget: overload.then(RetryBudget::default),
        weight_cache,
        ..ServeConfig::default()
    };
    if let Some(ccfg) = cluster {
        return cmd_serve_cluster(ClusterConfig { base: cfg, ..ccfg }, &registry, &trace, json);
    }
    let report = serve(&registry, &trace, &cfg).map_err(|e| e.to_string())?;
    if json {
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
fn cmd_soak(mut args: Args) -> Result<(), String> {
    use maicc::serve::cache::WeightCacheConfig;
    use maicc::serve::cluster::{
        serve_cluster_with_obs, ClusterConfig, ClusterFaultPlan,
        ClusterShedConfig,
    };
    use maicc::serve::overload::Tier;
    use maicc::serve::registry::three_model_mix;
    use maicc::serve::server::{Policy, ServeConfig};
    use maicc::serve::trace::Trace;

    let quick = args.switch("--quick")?;
    let no_churn = args.switch("--no-churn")?;
    let seed = args.value("--seed")?.unwrap_or(42);
    let horizon = args
        .value("--horizon")?
        .unwrap_or(if quick { 600_000 } else { 2_000_000 });
    let interval = args.value("--interval")?.unwrap_or(50_000u64);
    let fabrics = args.value("--fabrics")?.unwrap_or(4);
    let replicas = args.value("--replicas")?.unwrap_or(2.min(fabrics));
    let heartbeat = args.value("--heartbeat")?.unwrap_or(20_000);
    let pool_tiles = args.value("--pool")?.unwrap_or(16);
    let churn_period = args.value("--churn-period")?.unwrap_or(150_000);
    let out = args.value::<String>("--out")?;
    let engine = engine_flag(&mut args)?;
    args.finish()?;

    // The repeat-heavy diurnal mix: popularity ranks lightest-first so
    // the weight cache has a head model to keep warm, exactly as the
    // zipf serve path does.
    let (registry, loads) = three_model_mix();
    let mut ranked = loads;
    ranked.reverse();
    let trace = Trace::diurnal(&ranked, horizon, 12_000, 1.1, 200_000, seed);

    let faults = if no_churn {
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
            pool_tiles,
            weight_cache: Some(WeightCacheConfig::default()),
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };
    let (report, jsonl) =
        serve_cluster_with_obs(&registry, &trace, &cfg, interval)
            .map_err(|e| e.to_string())?;
    match out {
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

/// `maicc serve --fabrics N`: the trace through the multi-fabric
/// cluster front-end.
fn cmd_serve_cluster(
    ccfg: maicc::serve::cluster::ClusterConfig,
    registry: &maicc::serve::registry::ModelRegistry,
    trace: &maicc::serve::trace::Trace,
    json: bool,
) -> Result<(), String> {
    let report =
        maicc::serve::cluster::serve_cluster(registry, trace, &ccfg).map_err(|e| e.to_string())?;
    if json {
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

fn cmd_stream(args: Args) -> Result<(), String> {
    use maicc::sim::stream::{StreamConfig, StreamSim};
    args.finish()?;
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
