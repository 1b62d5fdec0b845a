//! In-memory span recorder for the traced run.
//!
//! A span wraps one call the benchmark makes into a simulator crate. Its
//! name is `<layer>.<call>`, where the layer is the crate the call enters
//! (`sim.run`, `serve.call`, `core.node_run`); `bench.pass` is the root
//! of every timed pass. Spans stay in memory while the benchmark runs and
//! are written out once at the end. With tracing off, `enter` and `exit`
//! only test a flag.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was made.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Timed pass the span belongs to; 0 is set-up.
    pub pass: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first dot.
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle from [`Tracer::enter`], handed back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Records spans when enabled; does nothing otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// Tags the spans that follow with a pass number.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span; spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.now_ns();
            let top = self.open.pop();
            assert_eq!(top, Some(index), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover, overlapping children counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ns() - covered(s.start_ns, s.end_ns, c))
        .collect()
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(start), e.min(end));
        if e <= s {
            continue;
        }
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + run.map_or(0, |(rs, re)| re - rs)
}

/// The spans as JSON lines, one object per span, with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"pass\": {}, \"self_ns\": {self_ns}}}\n",
            s.name, s.start_ns, s.end_ns, s.pass
        ));
    }
    out
}

/// Span totals of a traced run.
pub struct Profile {
    passes: usize,
    setup_ns: BTreeMap<&'static str, u64>,
    pass_ns: BTreeMap<&'static str, u64>,
    self_ns: BTreeMap<&'static str, u64>,
    spans: usize,
}

impl Profile {
    pub fn new(spans: &[Span]) -> Self {
        let mut p = Profile {
            passes: 0,
            setup_ns: BTreeMap::new(),
            pass_ns: BTreeMap::new(),
            self_ns: BTreeMap::new(),
            spans: spans.len(),
        };
        let mut passes = BTreeSet::new();
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            if s.pass == 0 {
                *p.setup_ns.entry(s.name).or_default() += s.duration_ns();
            } else {
                passes.insert(s.pass);
                *p.pass_ns.entry(s.name).or_default() += s.duration_ns();
                *p.self_ns.entry(s.layer()).or_default() += self_ns;
            }
        }
        p.passes = passes.len();
        p
    }

    /// Traced passes.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Spans recorded.
    pub fn spans(&self) -> usize {
        self.spans
    }

    /// Mean seconds per traced pass inside spans called `name`.
    pub fn per_pass_s(&self, name: &str) -> f64 {
        self.pass_ns.get(name).copied().unwrap_or(0) as f64 / self.passes.max(1) as f64 / 1e9
    }

    /// Seconds inside spans called `name` in the last set-up round.
    pub fn setup_s(&self, name: &str) -> f64 {
        self.setup_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Share of traced-pass self time spent in `layer`.
    pub fn self_share(&self, layer: &str) -> f64 {
        let total: u64 = self.self_ns.values().sum();
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 1,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("sim.run", 5, 25, None)]), vec![20]);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("bench.pass", 0, 100, None),
            span("serve.call", 10, 60, Some(0)),
            span("sim.run", 20, 50, Some(1)),
            span("sim.run", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("bench.pass", 0, 100, None),
            span("sim.new", 10, 50, Some(0)),
            span("sim.run", 30, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [
            span("bench.pass", 10, 20, None),
            span("sim.new", 0, 15, Some(0)),
            span("sim.run", 18, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn profile_splits_set_up_from_passes_and_shares_add_up() {
        let mut setup = span("serve.registry", 0, 7, None);
        setup.pass = 0;
        let mut spans = vec![
            setup,
            span("bench.pass", 10, 110, None),
            span("sim.run", 20, 80, Some(1)),
        ];
        for mut s in [
            span("bench.pass", 200, 300, None),
            span("sim.run", 210, 290, Some(3)),
        ] {
            s.pass = 2;
            spans.push(s);
        }
        let p = Profile::new(&spans);
        assert_eq!(p.passes(), 2);
        assert_eq!(p.spans(), 5);
        assert!((p.setup_s("serve.registry") - 7e-9).abs() < 1e-15);
        assert!((p.per_pass_s("sim.run") - 70e-9).abs() < 1e-15);
        assert!((p.self_share("sim") - 0.7).abs() < 1e-12);
        assert!((p.self_share("bench") + p.self_share("sim") - 1.0).abs() < 1e-12);
        assert_eq!(p.self_share("serve"), 0.0);
    }

    #[test]
    fn recorder_nests_spans_and_tags_passes() {
        let mut tr = Tracer::new(true);
        tr.set_pass(3);
        let outer = tr.enter("bench.pass");
        let x = tr.span("sim.run", || 7);
        tr.exit(outer);
        assert_eq!(x, 7);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s.iter().all(|s| s.pass == 3 && s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let jsonl = to_jsonl(s);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\": \"sim.run\"") && jsonl.contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut tr = Tracer::off();
        let open = tr.enter("bench.pass");
        tr.exit(open);
        assert!(tr.spans().is_empty());
    }
}
