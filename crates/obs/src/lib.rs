#![warn(missing_docs)]

//! # maicc-obs — deterministic time-series telemetry
//!
//! One-shot serving reports hide exactly the failure modes that matter
//! over long runs: queue oscillation, cache-hit drift after failover,
//! recovery-cost accumulation. This crate turns a serving run into a
//! stream of fixed-width time windows — one JSONL record per
//! `interval_cycles` of *simulated* time — without touching the wall
//! clock or sampling anything.
//!
//! ## Determinism argument
//!
//! The [`Recorder`] never observes the simulation; the serving loops
//! *tell* it what happened, as typed events stamped with the simulated
//! cycle at which they occurred, in nondecreasing cycle order (the
//! discrete-event loops already process events in that order). Window
//! boundaries are computed from those stamps — window `k` covers the
//! half-open range `[k·I, (k+1)·I)` — never from timers. Every value
//! fed in is itself engine-invariant (counts, integer latencies, ECC/NoC
//! counters already proven invariant by the equivalence matrix), so the
//! emitted stream is byte-identical across engines by construction,
//! exactly like the final reports.
//!
//! ## Stream schema
//!
//! One JSON object per line, fields in fixed order:
//!
//! ```text
//! {"interval": k, "start": k*I, "end": (k+1)*I,
//!  "arrivals": n, "admissions": n, "completions": n, "sheds": n,
//!  "lost": n, "failovers": n,
//!  "latency_cycles": {"p50": n, "p99": n},          // over this window's completions
//!  "queue_depth": {"hard": n, "soft": n, "best_effort": n},  // sample-and-hold
//!  "cache": {"hits": n, "misses": n, "evictions": n, "llc_hits": n,
//!            "prefetch_issued": n, "prefetch_used": n, "prefetch_canceled": n},
//!  "retired_tiles": n, "ecc_corrected": n, "noc_retransmits": n,
//!  "heartbeat": {"faults": n, "detections": n, "rejoins": n},
//!  "fabrics_up": "1011"}                            // one char per fabric
//! ```
//!
//! Counter fields are *per-window deltas*: summing any of them across
//! all lines reproduces the corresponding final-report total exactly
//! (no double-count, no loss — the recorder is incremented at the same
//! program points that feed the report). `queue_depth` is the held
//! value at the window's close (carried forward through empty
//! windows); `latency_cycles` percentiles are nearest-rank over the
//! completions that landed in the window, `0` when none did. Empty
//! intervals are emitted, not skipped, so trajectory analysis can
//! index windows by time.
//!
//! ## Reading JSON back
//!
//! [`json`] is the workspace's one JSON reader: the stream above, the
//! serving layer's trace files and the harness report are all read
//! through [`json::parse`], and every JSON writer quotes strings with
//! [`json::quote`].

pub mod json;

/// Cumulative weight-cache counters, snapshotted by the serving layer.
///
/// The recorder diffs successive snapshots internally, so callers pass
/// the running totals they already have; only integer activity
/// counters appear (prefetch energy is a float and already reported
/// once in the final report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSample {
    /// Admissions that found the model's weights resident.
    pub hits: u64,
    /// Admissions that paid a tier load.
    pub misses: u64,
    /// Resident sets displaced by cold placements or tile retirement.
    pub evictions: u64,
    /// Cold loads served from the modeled LLC tier instead of DRAM.
    pub llc_hits: u64,
    /// Speculative streams issued.
    pub prefetch_issued: u64,
    /// Speculative streams whose model was then actually requested.
    pub prefetch_used: u64,
    /// Speculative streams cancelled by a competing cold placement.
    pub prefetch_canceled: u64,
}

impl CacheSample {
    fn delta(self, prev: CacheSample) -> CacheSample {
        CacheSample {
            hits: self.hits.saturating_sub(prev.hits),
            misses: self.misses.saturating_sub(prev.misses),
            evictions: self.evictions.saturating_sub(prev.evictions),
            llc_hits: self.llc_hits.saturating_sub(prev.llc_hits),
            prefetch_issued: self.prefetch_issued.saturating_sub(prev.prefetch_issued),
            prefetch_used: self.prefetch_used.saturating_sub(prev.prefetch_used),
            prefetch_canceled: self.prefetch_canceled.saturating_sub(prev.prefetch_canceled),
        }
    }

    /// Adds another sample's counters into this one — merging the
    /// per-fabric snapshots of a cluster into one cumulative sample.
    pub fn add(&mut self, d: CacheSample) {
        self.hits += d.hits;
        self.misses += d.misses;
        self.evictions += d.evictions;
        self.llc_hits += d.llc_hits;
        self.prefetch_issued += d.prefetch_issued;
        self.prefetch_used += d.prefetch_used;
        self.prefetch_canceled += d.prefetch_canceled;
    }
}

/// One accumulating window's counters.
#[derive(Debug, Default)]
struct Window {
    arrivals: u64,
    admissions: u64,
    completions: u64,
    sheds: u64,
    lost: u64,
    failovers: u64,
    retired_tiles: u64,
    ecc_corrected: u64,
    noc_retransmits: u64,
    faults: u64,
    detections: u64,
    rejoins: u64,
    cache: CacheSample,
    latencies: Vec<u64>,
}

/// Nearest-rank percentile of a **sorted** slice (p in (0, 100]); 0 for
/// an empty slice. The serving reports use it too, so window figures
/// compare with report figures.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The interval metrics collector.
///
/// Construct one per run, feed it events in nondecreasing cycle order,
/// and call [`Recorder::finish`] with the run's last event cycle to
/// obtain the JSONL stream. Windows are flushed lazily: an event at
/// cycle `c` first emits every window that closed at or before `c`.
#[derive(Debug)]
pub struct Recorder {
    interval: u64,
    window: u64,
    cur: Window,
    depth: [u64; 3],
    up: Vec<bool>,
    snap: CacheSample,
    out: String,
}

impl Recorder {
    /// A recorder emitting one record per `interval_cycles` of
    /// simulated time, tracking `fabrics` liveness bits (pass 1 for
    /// single-fabric serving). A zero interval is clamped to 1.
    #[must_use]
    pub fn new(interval_cycles: u64, fabrics: usize) -> Self {
        Recorder {
            interval: interval_cycles.max(1),
            window: 0,
            cur: Window::default(),
            depth: [0; 3],
            up: vec![true; fabrics.max(1)],
            snap: CacheSample::default(),
            out: String::new(),
        }
    }

    /// The configured interval, cycles.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn interval_cycles(&self) -> u64 {
        self.interval
    }

    fn emit(&mut self) {
        self.cur.latencies.sort_unstable();
        let p50 = percentile(&self.cur.latencies, 50.0);
        let p99 = percentile(&self.cur.latencies, 99.0);
        let up: String = self.up.iter().map(|&b| if b { '1' } else { '0' }).collect();
        let w = &self.cur;
        let start = self.window * self.interval;
        self.out.push_str(&format!(
            "{{\"interval\": {}, \"start\": {}, \"end\": {}, \
             \"arrivals\": {}, \"admissions\": {}, \"completions\": {}, \
             \"sheds\": {}, \"lost\": {}, \"failovers\": {}, \
             \"latency_cycles\": {{\"p50\": {p50}, \"p99\": {p99}}}, \
             \"queue_depth\": {{\"hard\": {}, \"soft\": {}, \"best_effort\": {}}}, \
             \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"llc_hits\": {}, \"prefetch_issued\": {}, \"prefetch_used\": {}, \
             \"prefetch_canceled\": {}}}, \
             \"retired_tiles\": {}, \"ecc_corrected\": {}, \"noc_retransmits\": {}, \
             \"heartbeat\": {{\"faults\": {}, \"detections\": {}, \"rejoins\": {}}}, \
             \"fabrics_up\": \"{up}\"}}\n",
            self.window,
            start,
            start + self.interval,
            w.arrivals,
            w.admissions,
            w.completions,
            w.sheds,
            w.lost,
            w.failovers,
            self.depth[0],
            self.depth[1],
            self.depth[2],
            w.cache.hits,
            w.cache.misses,
            w.cache.evictions,
            w.cache.llc_hits,
            w.cache.prefetch_issued,
            w.cache.prefetch_used,
            w.cache.prefetch_canceled,
            w.retired_tiles,
            w.ecc_corrected,
            w.noc_retransmits,
            w.faults,
            w.detections,
            w.rejoins,
        ));
        self.cur = Window::default();
    }

    /// Flushes every window that closed strictly before `cycle`'s
    /// window, so the current window is the one containing `cycle`.
    fn advance_to(&mut self, cycle: u64) {
        let target = cycle / self.interval;
        while self.window < target {
            self.emit();
            self.window += 1;
        }
    }

    /// A request arrived at `cycle`.
    pub fn arrival(&mut self, cycle: u64) {
        self.advance_to(cycle);
        self.cur.arrivals += 1;
    }

    /// A request was admitted onto tiles at `cycle`. The run's ECC
    /// corrections, NoC retransmissions, and any tiles its recovery
    /// retired are attributed to the admission window.
    pub fn admission(
        &mut self,
        cycle: u64,
        ecc_corrected: u64,
        noc_retransmits: u64,
        retired_tiles: u64,
    ) {
        self.advance_to(cycle);
        self.cur.admissions += 1;
        self.cur.ecc_corrected += ecc_corrected;
        self.cur.noc_retransmits += noc_retransmits;
        self.cur.retired_tiles += retired_tiles;
    }

    /// Tiles left the schedulable pool at `cycle` outside an admission
    /// (fabric-level tile-bank loss).
    pub fn retired(&mut self, cycle: u64, tiles: u64) {
        self.advance_to(cycle);
        self.cur.retired_tiles += tiles;
    }

    /// A request finished with the given end-to-end latency at `cycle`.
    pub fn completion(&mut self, cycle: u64, latency_cycles: u64) {
        self.advance_to(cycle);
        self.cur.completions += 1;
        self.cur.latencies.push(latency_cycles);
    }

    /// Admission control deliberately shed a request at `cycle`.
    pub fn shed(&mut self, cycle: u64) {
        self.advance_to(cycle);
        self.cur.sheds += 1;
    }

    /// A request was dropped unrecoverably (not a shed) at `cycle`.
    pub fn lost(&mut self, cycle: u64) {
        self.advance_to(cycle);
        self.cur.lost += 1;
    }

    /// A request was re-dispatched to another fabric at `cycle`.
    pub fn failover(&mut self, cycle: u64) {
        self.advance_to(cycle);
        self.cur.failovers += 1;
    }

    /// A fabric-level fault fired at `cycle`; `down` marks the fabric
    /// as no longer alive (outages do, brownouts and tile losses
    /// don't).
    pub fn fault(&mut self, cycle: u64, fabric: usize, down: bool) {
        self.advance_to(cycle);
        self.cur.faults += 1;
        if down {
            if let Some(b) = self.up.get_mut(fabric) {
                *b = false;
            }
        }
    }

    /// The heartbeat detected a dead fabric at `cycle`.
    pub fn detection(&mut self, cycle: u64, fabric: usize) {
        self.advance_to(cycle);
        self.cur.detections += 1;
        if let Some(b) = self.up.get_mut(fabric) {
            *b = false;
        }
    }

    /// A repaired fabric rejoined the routable set at `cycle`.
    pub fn rejoin(&mut self, cycle: u64, fabric: usize) {
        self.advance_to(cycle);
        self.cur.rejoins += 1;
        if let Some(b) = self.up.get_mut(fabric) {
            *b = true;
        }
    }

    /// Reports the admission-queue depth per priority tier after the
    /// event at `cycle` settled. Sample-and-hold: the value standing at
    /// a window's close is what the window reports, and it carries
    /// forward through empty windows.
    pub fn queue_depth(&mut self, cycle: u64, hard: u64, soft: u64, best_effort: u64) {
        self.advance_to(cycle);
        self.depth = [hard, soft, best_effort];
    }

    /// Synchronizes against the serving layer's *cumulative* cache
    /// counters at `cycle`; the recorder attributes the delta since the
    /// previous sync to the current window.
    pub fn cache_sync(&mut self, cycle: u64, cumulative: CacheSample) {
        self.advance_to(cycle);
        let d = cumulative.delta(self.snap);
        self.cur.cache.add(d);
        self.snap = cumulative;
    }

    /// Flushes through the window containing `end_cycle` and returns
    /// the JSONL stream. Always emits at least one window, so a run
    /// shorter than one interval still produces a single well-formed
    /// record.
    #[must_use]
    pub fn finish(mut self, end_cycle: u64) -> String {
        self.advance_to(end_cycle);
        self.emit();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_lines(s: &str) -> usize {
        s.lines().count()
    }

    /// The integer at `path` in one stream line, which must be JSON.
    fn field(line: &str, path: &[&str]) -> u64 {
        let doc = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        path.iter()
            .try_fold(&doc, |v, key| v.get(key))
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| panic!("no integer at {path:?} in {line}"))
    }

    #[test]
    fn short_run_emits_a_single_well_formed_window() {
        let r = Recorder::new(50_000, 1);
        let s = r.finish(0);
        assert_eq!(count_lines(&s), 1);
        assert!(s.starts_with("{\"interval\": 0, \"start\": 0, \"end\": 50000, "));
        assert!(s.ends_with("\"fabrics_up\": \"1\"}\n"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn events_land_in_their_cycle_window() {
        let mut r = Recorder::new(100, 1);
        r.arrival(0);
        r.arrival(99); // still window 0
        r.arrival(100); // window 1
        r.completion(250, 40); // window 2
        let s = r.finish(250);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"arrivals\": 2"));
        assert!(lines[1].contains("\"arrivals\": 1"));
        assert!(lines[2].contains("\"arrivals\": 0"));
        assert!(lines[2].contains("\"completions\": 1"));
        assert!(lines[2].contains("\"latency_cycles\": {\"p50\": 40, \"p99\": 40}"));
    }

    #[test]
    fn empty_intervals_are_emitted_not_skipped() {
        let mut r = Recorder::new(10, 1);
        r.arrival(0);
        r.arrival(45);
        let s = r.finish(45);
        assert_eq!(count_lines(&s), 5, "windows 0..=4:\n{s}");
        for (i, line) in s.lines().enumerate() {
            assert!(line.contains(&format!("\"interval\": {i}, ")));
        }
    }

    #[test]
    fn queue_depth_is_sample_and_hold_across_empty_windows() {
        let mut r = Recorder::new(10, 1);
        r.queue_depth(5, 2, 1, 0);
        let s = r.finish(35);
        for line in s.lines() {
            assert!(
                line.contains("\"queue_depth\": {\"hard\": 2, \"soft\": 1, \"best_effort\": 0}"),
                "{line}"
            );
        }
    }

    #[test]
    fn cache_sync_attributes_deltas_per_window() {
        let mut r = Recorder::new(10, 1);
        r.cache_sync(
            3,
            CacheSample {
                hits: 1,
                misses: 2,
                ..CacheSample::default()
            },
        );
        r.cache_sync(
            17,
            CacheSample {
                hits: 4,
                misses: 2,
                evictions: 1,
                ..CacheSample::default()
            },
        );
        let s = r.finish(17);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("\"cache\": {\"hits\": 1, \"misses\": 2, \"evictions\": 0,"));
        assert!(lines[1].contains("\"cache\": {\"hits\": 3, \"misses\": 0, \"evictions\": 1,"));
        // deltas across all windows sum to the final cumulative counters
        let total: u64 = lines.iter().map(|l| field(l, &["cache", "hits"])).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn liveness_tracks_fault_and_rejoin() {
        let mut r = Recorder::new(10, 3);
        r.fault(5, 1, true);
        r.rejoin(25, 1);
        let s = r.finish(25);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("\"fabrics_up\": \"101\""));
        assert!(lines[0].contains("\"heartbeat\": {\"faults\": 1, \"detections\": 0, \"rejoins\": 0}"));
        assert!(lines[1].contains("\"fabrics_up\": \"101\""));
        assert!(lines[2].contains("\"fabrics_up\": \"111\""));
        assert!(lines[2].contains("\"rejoins\": 1"));
    }

    #[test]
    fn brownout_fault_does_not_mark_fabric_down() {
        let mut r = Recorder::new(10, 2);
        r.fault(0, 0, false);
        let s = r.finish(0);
        assert!(s.contains("\"fabrics_up\": \"11\""));
        assert!(s.contains("\"faults\": 1"));
    }

    #[test]
    fn window_percentiles_are_nearest_rank() {
        let mut r = Recorder::new(1000, 1);
        for lat in [10, 20, 30, 40] {
            r.completion(5, lat);
        }
        let s = r.finish(5);
        assert!(s.contains("\"latency_cycles\": {\"p50\": 20, \"p99\": 40}"), "{s}");
    }

    #[test]
    fn counters_sum_across_windows() {
        let mut r = Recorder::new(7, 1);
        let mut arrivals = 0u64;
        let mut sheds = 0u64;
        for c in (0..200).step_by(13) {
            r.arrival(c);
            arrivals += 1;
            if c % 3 == 0 {
                r.shed(c);
                sheds += 1;
            }
        }
        let s = r.finish(200);
        let sum = |key: &str| -> u64 { s.lines().map(|l| field(l, &[key])).sum() };
        assert_eq!(sum("arrivals"), arrivals);
        assert_eq!(sum("sheds"), sheds);
    }

    #[test]
    fn zero_interval_is_clamped() {
        let r = Recorder::new(0, 1);
        assert_eq!(r.interval_cycles(), 1);
        let s = r.finish(0);
        assert_eq!(count_lines(&s), 1);
    }
}
