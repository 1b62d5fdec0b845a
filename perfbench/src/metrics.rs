//! The metric sheet, the output checks, and the metrics the benchmark
//! declares in `BENCHMARK.json`.

/// End-to-end metrics, measured with tracing off: name and unit. Every
/// workload measures all of them, and none is ever 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("makespan_cycles", "cycles"),
];

/// Calls the traced run wraps in spans; each gives a `<name>_s` metric.
pub const SPANS: &[&str] = &[
    "sim.new",
    "sim.run",
    "serve.call",
    "core.prepare",
    "core.node_run",
    "isa.codegen",
    "exec.map",
    "serve.trace_gen",
    "serve.registry",
    "nn.golden",
];

/// Layers that own spans; each gives a `self_share.<layer>` metric.
pub const LAYERS: &[&str] = &["bench", "nn", "sim", "core", "isa", "exec", "serve"];

/// Per-layer metrics of the traced run: name and unit. Every one is
/// printed for every workload; a layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.new_s", "s"),
    ("sim.run_s", "s"),
    ("serve.call_s", "s"),
    ("core.prepare_s", "s"),
    ("core.node_run_s", "s"),
    ("isa.codegen_s", "s"),
    ("exec.map_s", "s"),
    ("serve.trace_gen_s", "s"),
    ("serve.registry_s", "s"),
    ("nn.golden_s", "s"),
    ("self_share.bench", "ratio"),
    ("self_share.nn", "ratio"),
    ("self_share.sim", "ratio"),
    ("self_share.core", "ratio"),
    ("self_share.isa", "ratio"),
    ("self_share.exec", "ratio"),
    ("self_share.serve", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("sim.cycles.resnet18_segment", "cycles"),
    ("sim.cycles.two_layer", "cycles"),
    ("sim.cycles.small", "cycles"),
    ("sim.host_ns_per_cycle", "ns"),
    ("sim.exchange_speedup", "ratio"),
    ("sim.skip_ahead_speedup", "ratio"),
    ("sim.service_cycles_mean", "cycles"),
    ("sim.replay_share", "ratio"),
    ("sim.worker_share", "ratio"),
    ("sram.fast_path_speedup", "ratio"),
    ("sram.cmem_pj", "pJ"),
    ("sram.ecc_corrected", "count"),
    ("noc.retransmits", "count"),
    ("noc.packets_delivered", "count"),
    ("noc.flit_hops", "count"),
    ("noc.mean_latency_cycles", "cycles"),
    ("noc.host_ns_per_flit_hop", "ns"),
    ("serve.host_us_per_request", "us"),
    ("serve.queue_cycles_mean", "cycles"),
    ("serve.latency_residual_cycles", "cycles"),
    ("serve.shed", "count"),
    ("serve.preemptions", "count"),
    ("serve.retries", "count"),
    ("serve.degraded_tiles", "count"),
    ("mem.load_cycles_mean", "cycles"),
    ("mem.write_phase_cycles.resnet18_segment", "cycles"),
    ("mem.write_phase_cycles.two_layer", "cycles"),
    ("mem.write_phase_cycles.small", "cycles"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.llc_hits", "count"),
    ("cache.prefetch_accuracy", "ratio"),
    ("cluster.failovers", "count"),
    ("cluster.detect_p50_cycles", "cycles"),
    ("cluster.failover_p99_cycles", "cycles"),
    ("cluster.lost", "count"),
    ("cluster.shed", "count"),
    ("obs.overhead_s", "s"),
    ("obs.windows", "count"),
    ("obs.residual.completions", "count"),
    ("obs.residual.sheds", "count"),
    ("obs.residual.lost", "count"),
    ("obs.residual.failovers", "count"),
    ("core.instructions", "count"),
    ("core.host_ns_per_instruction", "ns"),
    ("core.stall.queue", "cycles"),
    ("core.stall.raw", "cycles"),
    ("core.stall.wb", "cycles"),
    ("core.stall.branch", "cycles"),
    ("exec.fig9.wait", "cycles"),
    ("exec.fig9.compute", "cycles"),
    ("exec.fig9.recv", "cycles"),
    ("exec.fig9.send_ifmap", "cycles"),
    ("exec.fig9.send_ofmap", "cycles"),
    ("exec.filter_load_share", "ratio"),
];

/// How `BENCHMARK.json` declares a metric.
pub fn declaration(name: &str, unit: &str) -> String {
    format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")
}

/// Whether a metric name fits `BENCHMARK.json`'s rules: up to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// Every metric a run measured, in the order it was first set.
#[derive(Debug, Default)]
pub struct Sheet {
    entries: Vec<(String, Value)>,
}

impl Sheet {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        let v = Value {
            value,
            unit,
            samples,
        };
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = v,
            None => self.entries.push((name.to_string(), v)),
        }
    }

    pub fn entries(&self) -> &[(String, Value)] {
        &self.entries
    }

    /// The listed metrics, in list order. A listed metric the run did not
    /// measure reads 0 when `zero_fill` is set and fails a check
    /// otherwise; an invalid name, a unit other than the listed one, or a
    /// value that is not finite fails a check.
    pub fn select(
        &self,
        listed: &[(&'static str, &'static str)],
        zero_fill: bool,
        checks: &mut Checks,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let mut out = Vec::new();
        for &(name, unit) in listed {
            match self.entries.iter().find(|(n, _)| n == name) {
                Some((_, v)) => {
                    checks.check(
                        valid_name(name) && v.unit == unit && v.value.is_finite(),
                        || format!("{name} measured {} {}, declared in {unit}", v.value, v.unit),
                    );
                    out.push((name, if v.value.is_finite() { v.value } else { 0.0 }, unit));
                }
                None if zero_fill => out.push((name, 0.0, unit)),
                None => checks.check(false, || format!("{name} was not measured")),
            }
        }
        out
    }
}

/// Output checks: how many were made, and what failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` describes it when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The `p`-th percentile of a sample, interpolating linearly between
/// the two nearest ranks; 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Median of a sample; 0 for an empty one.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
    }

    #[test]
    fn every_span_and_layer_has_a_declared_metric() {
        let declared = |want: String| PER_LAYER.iter().any(|(n, _)| *n == want);
        for s in SPANS {
            assert!(declared(format!("{s}_s")), "{s}");
        }
        for l in LAYERS {
            assert!(declared(format!("self_share.{l}")), "{l}");
        }
    }

    #[test]
    fn name_rule_rejects_malformed_names() {
        assert!(valid_name("sim.cycles.resnet18_segment"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/ed"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_manifest_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&declaration(name, unit)),
                "{name} ({unit}) undeclared"
            );
        }
        let names = text.matches("\"name\": \"").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len(),
            "BENCHMARK.json declares names the benchmark does not print"
        );
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 25.0), 1.75);
        assert_eq!(percentile(&[7.0], 25.0), 7.0);
        assert_eq!(percentile(&[], 25.0), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn select_zero_fills_only_when_asked() {
        let mut sheet = Sheet::default();
        sheet.set("wall_s", 1.5, "s", 3);
        let mut checks = Checks::default();
        let got = sheet.select(&[("wall_s", "s"), ("setup_s", "s")], true, &mut checks);
        assert_eq!(got, vec![("wall_s", 1.5, "s"), ("setup_s", 0.0, "s")]);
        assert!(checks.failures.is_empty());
        assert!(sheet
            .select(&[("setup_s", "s")], false, &mut checks)
            .is_empty());
        sheet.select(&[("wall_s", "ms")], false, &mut checks);
        assert_eq!(checks.failures.len(), 2);
    }
}
