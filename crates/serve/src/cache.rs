//! Two-tier model-weight cache for weight-stationary serving.
//!
//! MAICC's dataflow is weight-stationary: once a model's filter vectors
//! are written into CMem, inference streams ifmaps past them. The serving
//! loop historically discarded that investment on every completion and
//! re-streamed the full weight set per admitted request. This module
//! keeps weights where they already are:
//!
//! * **Hot set (resident-in-CMem)** — when a request completes (or a
//!   preemption checkpoints a victim), its tiles keep the model's weights.
//!   A later request for the same model whose resident tiles are still
//!   free is admitted *warm*: zero load cycles, zero load energy, and the
//!   identical placement, so the memoized simulation result is reused.
//! * **LLC / DRAM tier** — a cold admission streams the weight image
//!   through the modeled memory system ([`maicc_mem::tier`]): images
//!   recently streamed and still within the modeled edge-LLC capacity pay
//!   [`llc_load`] (hit latency per line), everything else pays
//!   [`dram_load`] (full activate/CAS/burst replay). Either way the
//!   fabric then pays a serialized vertical-write phase sized by the
//!   busiest computing core.
//!
//! **Eviction** is cost-aware: resident sets are protected in descending
//! *retention score* — re-load cycle cost times the model's observed
//! arrival rate over a sliding window of trace arrivals — and a cold
//! placement evicts only the unprotected sets its tiles actually overlap.
//! Under tied scores the least-recently-used set goes first.
//!
//! **Prefetch** is arrival-rate-driven: when the fabric has free tiles,
//! the highest-rate model that is neither resident nor running is
//! streamed into them speculatively; a request arriving mid-stream waits
//! only the remaining cycles, and a cold placement that needs the tiles
//! cancels the stream (counted, so prefetch accuracy is observable).
//!
//! Every decision is a pure function of trace-derived state — arrival
//! times, completion times, byte counts, tile coordinates — compared with
//! integer cross-multiplication. No wall clock, no floats in ordering, so
//! serving stays byte-identical across engines.

use std::collections::{BTreeMap, VecDeque};

use maicc_exec::mapping::Tile;
use maicc_mem::tier::{dram_load, llc_load, LoadCost};

use crate::registry::{ModelEntry, ModelRegistry};

/// Fabric-side cycles to vertical-write one weight byte into CMem,
/// mirroring the execution framework's transpose cost
/// (`ExecConfig::transpose_per_byte`).
pub(crate) const WRITE_CYCLES_PER_BYTE: u64 = 3;

/// Energy to vertical-write one weight byte, picojoules (the CMem
/// write-driver figure `maicc_sram::energy::VERTICAL_WRITE_PJ`).
pub(crate) const WRITE_PJ_PER_BYTE: f64 = maicc_sram::energy::VERTICAL_WRITE_PJ;

/// Arrivals per model retained for the prefetcher's rate estimate.
const ARRIVAL_WINDOW: usize = 8;

/// Tuning knobs for the weight cache.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightCacheConfig {
    /// When `false`, every admission pays the full DRAM stream and no
    /// state is retained — the "cache off" arm of the benchmark, with
    /// load costs modeled but never amortized.
    pub enabled: bool,
    /// Modeled capacity of the edge-LLC weight tier, bytes. Images
    /// beyond this fall to DRAM in LRU order.
    pub llc_capacity_bytes: usize,
}

impl Default for WeightCacheConfig {
    fn default() -> Self {
        WeightCacheConfig {
            enabled: true,
            llc_capacity_bytes: 64 * 1024,
        }
    }
}

/// One model's weights pinned on a set of currently-idle tiles.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ResidentSet {
    /// Monotonic identity (creation order).
    pub id: u64,
    /// The model whose weights the tiles hold.
    pub model: String,
    /// The exact placement, in serpentine order.
    pub tiles: Vec<Tile>,
    /// Cycle the set was last created or refreshed.
    pub last_use: u64,
    /// Cold re-load cycle cost used by the retention score.
    pub reload_cycles: u64,
    /// Whether a speculative prefetch created this set.
    pub from_prefetch: bool,
}

/// An in-flight speculative weight stream.
#[derive(Debug, Clone, PartialEq)]
struct PrefetchState {
    model: String,
    tiles: Vec<Tile>,
    done_at: u64,
    /// Cold reload cycles for the settled resident set's retention score.
    reload_cycles: u64,
}

/// Observable cache activity, reported through the SLO accountant.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CacheCounters {
    /// Admissions that found the model's weights resident (or in-flight).
    pub hits: u64,
    /// Admissions that paid a tier load.
    pub misses: u64,
    /// Resident sets displaced by cold placements (includes sets lost to
    /// tile retirement).
    pub evictions: u64,
    /// Cold loads served from the modeled LLC tier instead of DRAM.
    pub llc_hits: u64,
    /// Speculative streams issued.
    pub prefetch_issued: u64,
    /// Speculative streams whose model was then actually requested.
    pub prefetch_used: u64,
    /// Speculative streams cancelled by a competing cold placement.
    pub prefetch_canceled: u64,
    /// Energy spent on speculative streams, picojoules (accrued to the
    /// cache, not to any single request).
    pub prefetch_pj: f64,
}

impl CacheCounters {
    /// `hits / (hits + misses)`, 0 when nothing was admitted.
    #[must_use]
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        #[allow(clippy::cast_precision_loss)]
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// `prefetch_used / prefetch_issued`, 0 when none were issued.
    #[must_use]
    pub(crate) fn prefetch_accuracy(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.prefetch_issued == 0 {
            0.0
        } else {
            self.prefetch_used as f64 / self.prefetch_issued as f64
        }
    }
}

/// What admitting one request would do to the cache: where it runs, what
/// the load costs, and which state changes [`WeightCache::commit`] must
/// apply. Planning is pure so schedulers can probe fit without mutating.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AdmissionPlan {
    /// The placement, in serpentine order.
    pub tiles: Vec<Tile>,
    /// Whether the weights were already on the tiles.
    pub warm: bool,
    /// Whether a cold load streamed from the LLC tier (vs. DRAM).
    pub llc_hit: bool,
    /// Load cycles/energy the request pays before compute starts (the
    /// remaining stream time, for a hit on an in-flight prefetch).
    pub load: LoadCost,
    /// Resident set consumed by a warm hit.
    hit_set: Option<u64>,
    /// Resident sets a cold placement displaces.
    evict: Vec<u64>,
    /// Whether the plan consumes the in-flight prefetch as its warm hit.
    use_prefetch: bool,
    /// Whether a cold placement overruns the in-flight prefetch's tiles.
    cancel_prefetch: bool,
}

/// The two-tier weight cache. One instance lives inside a serving run;
/// all methods take `now` in fabric cycles.
#[derive(Debug, Clone)]
pub struct WeightCache {
    cfg: WeightCacheConfig,
    next_set: u64,
    residents: Vec<ResidentSet>,
    /// LLC-tier occupancy, LRU order (front = coldest): model → bytes.
    llc: VecDeque<(String, usize)>,
    /// Recent arrival cycles per model (bounded window).
    arrivals: BTreeMap<String, VecDeque<u64>>,
    prefetch: Option<PrefetchState>,
    counters: CacheCounters,
    /// Memoized DRAM replay costs keyed by byte count.
    dram_memo: BTreeMap<usize, LoadCost>,
    /// Every tile recovery ever retired, sorted by (y, x). Prefetch
    /// target selection and cold planning exclude these defensively —
    /// the serving loop's own busy sets already contain them, but a
    /// caller-supplied placement closure that forgets a casualty must
    /// not be able to stream weights onto dead cells.
    retired: Vec<Tile>,
}

fn disjoint(a: &[Tile], b: &[Tile]) -> bool {
    a.iter().all(|t| !b.contains(t))
}

impl WeightCache {
    /// A fresh cache.
    #[must_use]
    pub(crate) fn new(cfg: WeightCacheConfig) -> Self {
        WeightCache {
            cfg,
            next_set: 0,
            residents: Vec::new(),
            llc: VecDeque::new(),
            arrivals: BTreeMap::new(),
            prefetch: None,
            counters: CacheCounters::default(),
            dram_memo: BTreeMap::new(),
            retired: Vec::new(),
        }
    }

    /// Activity counters so far.
    #[must_use]
    pub(crate) fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Current resident sets (inspection / tests).
    #[must_use]
    pub(crate) fn residents(&self) -> &[ResidentSet] {
        &self.residents
    }

    /// Whether a speculative stream is currently in flight.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn prefetch_in_flight(&self) -> Option<(&str, u64)> {
        self.prefetch.as_ref().map(|p| (p.model.as_str(), p.done_at))
    }

    /// The in-flight speculative stream's target tiles, if any.
    #[must_use]
    pub(crate) fn prefetch_tiles(&self) -> Option<&[Tile]> {
        self.prefetch.as_ref().map(|p| p.tiles.as_slice())
    }

    /// Tiles the cache knows to be retired (fault casualties).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn retired(&self) -> &[Tile] {
        &self.retired
    }

    /// Notes one trace arrival for the rate estimator.
    pub(crate) fn record_arrival(&mut self, model: &str, now: u64) {
        let q = self.arrivals.entry(model.to_string()).or_default();
        q.push_back(now);
        while q.len() > ARRIVAL_WINDOW {
            q.pop_front();
        }
    }

    /// Fabric-side serialized vertical-write phase for one image: the
    /// busiest core bounds the cycles, every byte costs write energy.
    #[must_use]
    pub fn write_phase(entry: &ModelEntry) -> LoadCost {
        #[allow(clippy::cast_precision_loss)]
        LoadCost {
            cycles: entry.max_tile_weight_bytes as u64 * WRITE_CYCLES_PER_BYTE,
            energy_pj: entry.weight_bytes as f64 * WRITE_PJ_PER_BYTE,
        }
    }

    fn dram_cost(&mut self, bytes: usize) -> LoadCost {
        if let Some(c) = self.dram_memo.get(&bytes) {
            return *c;
        }
        let c = dram_load(bytes);
        self.dram_memo.insert(bytes, c);
        c
    }

    /// Full cold (DRAM + write) reload cycles for a model — the retention
    /// score's cost term.
    fn reload_cycles(&mut self, entry: &ModelEntry) -> u64 {
        self.dram_cost(entry.weight_bytes)
            .plus(Self::write_phase(entry))
            .cycles
    }

    /// Cost of the tier stream + write phase a cold admission would pay
    /// right now, and whether it comes from the LLC tier.
    #[must_use]
    pub(crate) fn tier_cost(&mut self, entry: &ModelEntry) -> (LoadCost, bool) {
        let llc_hit = self.cfg.enabled && self.llc.iter().any(|(m, _)| m == &entry.name);
        let stream = if llc_hit {
            llc_load(entry.weight_bytes)
        } else {
            self.dram_cost(entry.weight_bytes)
        };
        (stream.plus(Self::write_phase(entry)), llc_hit)
    }

    /// Load cycles the scheduler should assume for ordering and
    /// deadline-shed decisions: zero when the model's weights are
    /// resident or being prefetched, the tier cost otherwise. Pure, so
    /// policy picks can probe every queued request without mutating.
    #[must_use]
    pub(crate) fn load_estimate(&self, entry: &ModelEntry) -> u64 {
        if self.cfg.enabled {
            if self.residents.iter().any(|s| s.model == entry.name) {
                return 0;
            }
            if let Some(p) = &self.prefetch {
                if p.model == entry.name {
                    return 0;
                }
            }
        }
        self.peek_tier_cost(entry).0.cycles
    }

    /// Folds a finished speculative stream into the resident hot set.
    pub(crate) fn settle_prefetch(&mut self, now: u64) {
        let done = matches!(&self.prefetch, Some(p) if p.done_at <= now);
        if done {
            let p = self.prefetch.take().expect("checked above");
            let id = self.next_set;
            self.next_set += 1;
            self.residents.push(ResidentSet {
                id,
                model: p.model,
                tiles: p.tiles,
                last_use: p.done_at,
                reload_cycles: p.reload_cycles,
                from_prefetch: true,
            });
        }
    }

    /// Pins `entry`'s weights on `tiles` after a completed run (or a
    /// checkpointed preemption — the victim's weights stay put so its
    /// resume is warm).
    pub(crate) fn on_release(&mut self, entry: &ModelEntry, tiles: &[Tile], now: u64) {
        if !self.cfg.enabled || tiles.is_empty() {
            return;
        }
        let reload = self.reload_cycles(entry);
        // A resume on the same tiles refreshes the existing set instead
        // of duplicating it.
        if let Some(s) = self
            .residents
            .iter_mut()
            .find(|s| s.model == entry.name && s.tiles == tiles)
        {
            s.last_use = now;
            s.reload_cycles = reload;
            return;
        }
        let id = self.next_set;
        self.next_set += 1;
        self.residents.push(ResidentSet {
            id,
            model: entry.name.clone(),
            tiles: tiles.to_vec(),
            last_use: now,
            reload_cycles: reload,
            from_prefetch: false,
        });
    }

    /// Drops resident sets (and any in-flight prefetch) that overlap
    /// tiles fault recovery just retired — the weights died with the
    /// cells.
    pub(crate) fn retire_tiles(&mut self, retired: &[Tile]) {
        if retired.is_empty() {
            return;
        }
        let before = self.residents.len();
        self.residents.retain(|s| disjoint(&s.tiles, retired));
        self.counters.evictions += (before - self.residents.len()) as u64;
        if let Some(p) = &self.prefetch {
            if !disjoint(&p.tiles, retired) {
                self.prefetch = None;
                self.counters.prefetch_canceled += 1;
            }
        }
        // Remember the casualties: later prefetch target selection and
        // cold planning must never land a stream on them, even if the
        // caller's placement closure forgets to exclude them.
        for t in retired {
            if !self.retired.contains(t) {
                self.retired.push(*t);
            }
        }
        self.retired.sort_unstable_by_key(|t| (t.y, t.x));
    }

    /// Drops every warm state the cache holds — resident sets, the
    /// in-flight prefetch, the modeled LLC tier, and the arrival-rate
    /// window — while keeping the activity counters and the retired-tile
    /// memory. A cluster fabric that suffers a whole-fabric outage calls
    /// this when the failover drains it: the weights died with the
    /// power, so the fabric rejoins cold.
    pub(crate) fn invalidate(&mut self) {
        self.counters.evictions += self.residents.len() as u64;
        self.residents.clear();
        if self.prefetch.take().is_some() {
            self.counters.prefetch_canceled += 1;
        }
        self.llc.clear();
        self.arrivals.clear();
    }

    /// Retention ordering: protect high score first. Score is
    /// `reload_cycles × arrivals / span` compared by u128
    /// cross-multiplication; ties fall back to LRU (later `last_use`
    /// protected first), then creation order.
    fn retention_order(&self, now: u64) -> Vec<usize> {
        let rate = |model: &str| -> (u64, u64) {
            match self.arrivals.get(model) {
                Some(q) if !q.is_empty() => {
                    let span = now.saturating_sub(*q.front().expect("non-empty")).max(1);
                    (q.len() as u64, span)
                }
                _ => (0, 1),
            }
        };
        let mut order: Vec<usize> = (0..self.residents.len()).collect();
        order.sort_by(|&ia, &ib| {
            let (a, b) = (&self.residents[ia], &self.residents[ib]);
            let (ca, sa) = rate(&a.model);
            let (cb, sb) = rate(&b.model);
            let score_a = u128::from(a.reload_cycles) * u128::from(ca) * u128::from(sb);
            let score_b = u128::from(b.reload_cycles) * u128::from(cb) * u128::from(sa);
            score_b
                .cmp(&score_a)
                .then(b.last_use.cmp(&a.last_use))
                .then(a.id.cmp(&b.id))
        });
        order
    }

    /// Plans one admission. `place` maps (tiles needed, extra tiles to
    /// avoid beyond the scheduler's own busy set) to a placement; `busy`
    /// is that busy set (pool mask + degraded + running tiles). Returns
    /// `None` when the model cannot be placed even after evicting every
    /// resident set — the scheduler head-blocks exactly as before.
    ///
    /// Planning never mutates: schedulers may probe and discard.
    pub(crate) fn plan<P>(
        &self,
        entry: &ModelEntry,
        now: u64,
        busy: &[Tile],
        place: P,
    ) -> Option<AdmissionPlan>
    where
        P: Fn(usize, &[Tile]) -> Option<Vec<Tile>>,
    {
        if self.cfg.enabled {
            // Warm hit on a resident set: most recently used wins.
            let best = self
                .residents
                .iter()
                .filter(|s| {
                    s.model == entry.name
                        && s.tiles.len() == entry.tiles
                        && disjoint(&s.tiles, busy)
                })
                .max_by_key(|s| (s.last_use, s.id));
            if let Some(s) = best {
                return Some(AdmissionPlan {
                    tiles: s.tiles.clone(),
                    warm: true,
                    llc_hit: false,
                    load: LoadCost::default(),
                    hit_set: Some(s.id),
                    evict: Vec::new(),
                    use_prefetch: false,
                    cancel_prefetch: false,
                });
            }
            // Warm hit on the in-flight prefetch: wait out the remainder.
            if let Some(p) = &self.prefetch {
                if p.model == entry.name
                    && p.tiles.len() == entry.tiles
                    && disjoint(&p.tiles, busy)
                {
                    return Some(AdmissionPlan {
                        tiles: p.tiles.clone(),
                        warm: true,
                        llc_hit: false,
                        load: LoadCost {
                            cycles: p.done_at.saturating_sub(now),
                            energy_pj: 0.0,
                        },
                        hit_set: None,
                        evict: Vec::new(),
                        use_prefetch: true,
                        cancel_prefetch: false,
                    });
                }
            }
        }

        // Cold: protect resident sets greedily in retention order, then
        // the prefetch, and evict only what the placement overlaps.
        // Retired tiles seed every trial so a forgetful placement
        // closure can never land weights on dead cells (the serving
        // loop's own busy set already contains them, so this changes
        // nothing there).
        place(entry.tiles, &self.retired)?; // cannot fit at all → head-block
        let mut extra: Vec<Tile> = self.retired.clone();
        let mut protected: Vec<u64> = Vec::new();
        if self.cfg.enabled {
            for i in self.retention_order(now) {
                let s = &self.residents[i];
                let mut trial = extra.clone();
                trial.extend_from_slice(&s.tiles);
                if place(entry.tiles, &trial).is_some() {
                    protected.push(s.id);
                    extra = trial;
                }
            }
        }
        let mut keep_prefetch = false;
        if let Some(p) = &self.prefetch {
            let mut trial = extra.clone();
            trial.extend_from_slice(&p.tiles);
            if place(entry.tiles, &trial).is_some() {
                keep_prefetch = true;
                extra = trial;
            }
        }
        let tiles = place(entry.tiles, &extra).expect("protected subset still fits");
        let evict: Vec<u64> = self
            .residents
            .iter()
            .filter(|s| !protected.contains(&s.id) && !disjoint(&s.tiles, &tiles))
            .map(|s| s.id)
            .collect();
        let cancel_prefetch = match &self.prefetch {
            Some(p) => !keep_prefetch && !disjoint(&p.tiles, &tiles),
            None => false,
        };
        let (load, llc_hit) = self.peek_tier_cost(entry);
        Some(AdmissionPlan {
            tiles,
            warm: false,
            llc_hit,
            load,
            hit_set: None,
            evict,
            use_prefetch: false,
            cancel_prefetch,
        })
    }

    /// Non-mutating tier cost (planning must not touch the DRAM memo).
    fn peek_tier_cost(&self, entry: &ModelEntry) -> (LoadCost, bool) {
        let llc_hit = self.cfg.enabled && self.llc.iter().any(|(m, _)| m == &entry.name);
        let stream = if llc_hit {
            llc_load(entry.weight_bytes)
        } else {
            self.dram_memo
                .get(&entry.weight_bytes)
                .copied()
                .unwrap_or_else(|| dram_load(entry.weight_bytes))
        };
        (stream.plus(Self::write_phase(entry)), llc_hit)
    }

    /// Applies a plan the scheduler decided to admit.
    pub(crate) fn commit(&mut self, plan: &AdmissionPlan, entry: &ModelEntry, now: u64) {
        let _ = now;
        if plan.warm {
            self.counters.hits += 1;
            if let Some(id) = plan.hit_set {
                if let Some(pos) = self.residents.iter().position(|s| s.id == id) {
                    let s = self.residents.remove(pos);
                    if s.from_prefetch {
                        self.counters.prefetch_used += 1;
                    }
                }
            }
            if plan.use_prefetch {
                self.prefetch = None;
                self.counters.prefetch_used += 1;
            }
            return;
        }
        self.counters.misses += 1;
        if plan.cancel_prefetch {
            self.prefetch = None;
            self.counters.prefetch_canceled += 1;
        }
        for id in &plan.evict {
            if let Some(pos) = self.residents.iter().position(|s| s.id == *id) {
                self.residents.remove(pos);
                self.counters.evictions += 1;
            }
        }
        if self.cfg.enabled {
            if plan.llc_hit {
                self.counters.llc_hits += 1;
            }
            self.touch_llc(&entry.name, entry.weight_bytes);
            // warm the DRAM memo so later planning reuses the replay
            let _ = self.dram_cost(entry.weight_bytes);
        }
    }

    /// Marks a model's image most-recently-streamed in the LLC tier and
    /// trims the tier to capacity in LRU order.
    fn touch_llc(&mut self, model: &str, bytes: usize) {
        self.llc.retain(|(m, _)| m != model);
        self.llc.push_back((model.to_string(), bytes));
        let mut total: usize = self.llc.iter().map(|(_, b)| b).sum();
        while total > self.cfg.llc_capacity_bytes {
            match self.llc.pop_front() {
                Some((_, b)) => total -= b,
                None => break,
            }
        }
    }

    /// Issues a speculative stream for the hottest non-resident,
    /// non-running model that fits the free tiles without evicting
    /// anything. `running` holds the model names currently on the
    /// fabric; `place` is the same closure [`Self::plan`] takes.
    pub(crate) fn maybe_prefetch<P>(
        &mut self,
        now: u64,
        running: &[&str],
        registry: &ModelRegistry,
        place: P,
    ) where
        P: Fn(usize, &[Tile]) -> Option<Vec<Tile>>,
    {
        if !self.cfg.enabled || self.prefetch.is_some() {
            return;
        }
        // Rank candidates by observed arrival rate (count/span, integer
        // cross-compare), name ascending on ties.
        let mut cands: Vec<(&str, u64, u64)> = Vec::new();
        for (model, q) in &self.arrivals {
            if q.len() < 2
                || running.contains(&model.as_str())
                || self.residents.iter().any(|s| &s.model == model)
                || registry.get(model).is_none()
            {
                continue;
            }
            let span = now.saturating_sub(*q.front().expect("non-empty")).max(1);
            cands.push((model.as_str(), q.len() as u64, span));
        }
        cands.sort_by(|a, b| {
            let ra = u128::from(a.1) * u128::from(b.2);
            let rb = u128::from(b.1) * u128::from(a.2);
            rb.cmp(&ra).then(a.0.cmp(b.0))
        });
        // Protect resident weights — and exclude retired tiles, so the
        // free-tile scan can never pick a casualty as a stream target
        // even under a placement closure that forgot the retirement.
        let mut protect: Vec<Tile> = self
            .residents
            .iter()
            .flat_map(|s| s.tiles.iter().copied())
            .collect();
        protect.extend_from_slice(&self.retired);
        for (model, _, _) in cands {
            let entry = registry.get(model).expect("filtered above").clone();
            if let Some(tiles) = place(entry.tiles, &protect) {
                let (load, _llc) = self.tier_cost(&entry);
                let reload = self.reload_cycles(&entry);
                self.touch_llc(&entry.name, entry.weight_bytes);
                self.counters.prefetch_issued += 1;
                self.counters.prefetch_pj += load.energy_pj;
                self.prefetch = Some(PrefetchState {
                    model: entry.name.clone(),
                    tiles,
                    done_at: now.saturating_add(load.cycles),
                    reload_cycles: reload,
                });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maicc_sim::stream::StreamConfig;

    fn tile(x: u8) -> Tile {
        Tile { x, y: 0 }
    }

    /// A linear 1-D "fabric" of `n` tiles for placement in tests.
    fn place_fn(n: u8, busy: Vec<Tile>) -> impl Fn(usize, &[Tile]) -> Option<Vec<Tile>> {
        move |need, extra| {
            let free: Vec<Tile> = (0..n)
                .map(tile)
                .filter(|t| !busy.contains(t) && !extra.contains(t))
                .collect();
            (free.len() >= need).then(|| free[..need].to_vec())
        }
    }

    fn entry(name: &str, tiles: usize, bytes: usize) -> ModelEntry {
        ModelEntry {
            name: name.into(),
            stream: StreamConfig::small_test(),
            tiles,
            est_cycles: 1,
            golden: vec![],
            weight_bytes: bytes,
            max_tile_weight_bytes: bytes.min(49 * 256),
            weight_image: vec![],
        }
    }

    #[test]
    fn warm_hit_costs_nothing_and_consumes_the_set() {
        let mut c = WeightCache::new(WeightCacheConfig::default());
        let e = entry("a", 3, 9_216);
        c.on_release(&e, &[tile(0), tile(1), tile(2)], 100);
        let plan = c
            .plan(&e, 200, &[], place_fn(8, vec![]))
            .expect("fits");
        assert!(plan.warm);
        assert_eq!(plan.load, LoadCost::default());
        assert_eq!(plan.tiles, vec![tile(0), tile(1), tile(2)]);
        c.commit(&plan, &e, 200);
        assert_eq!(c.counters().hits, 1);
        assert!(c.residents().is_empty(), "hit consumes the set");
    }

    #[test]
    fn disabled_cache_always_pays_dram_and_keeps_nothing() {
        let cfg = WeightCacheConfig {
            enabled: false,
            ..WeightCacheConfig::default()
        };
        let mut c = WeightCache::new(cfg);
        let e = entry("a", 3, 9_216);
        c.on_release(&e, &[tile(0), tile(1), tile(2)], 100);
        assert!(c.residents().is_empty(), "disabled cache retains nothing");
        let plan = c.plan(&e, 200, &[], place_fn(8, vec![])).expect("fits");
        assert!(!plan.warm);
        assert!(!plan.llc_hit);
        assert!(plan.load.cycles > 0);
        c.commit(&plan, &e, 200);
        // a second admission still misses and still pays DRAM
        let plan2 = c.plan(&e, 300, &[], place_fn(8, vec![])).expect("fits");
        assert!(!plan2.warm && !plan2.llc_hit);
        assert_eq!(plan2.load, plan.load, "cost model is deterministic");
        assert_eq!(c.counters().hits, 0);
    }

    #[test]
    fn eviction_order_under_tied_costs_is_lru() {
        let mut c = WeightCache::new(WeightCacheConfig::default());
        let a = entry("a", 3, 9_216);
        let b = entry("b", 3, 9_216);
        // identical reload costs, identical (absent) arrival history —
        // scores tie, so LRU decides: `a` (older last_use) goes first.
        c.on_release(&a, &[tile(0), tile(1), tile(2)], 10);
        c.on_release(&b, &[tile(3), tile(4), tile(5)], 20);
        // a 6-tile model on a 9-tile fabric can protect exactly one set
        let big = entry("big", 6, 27_648);
        let plan = c.plan(&big, 30, &[], place_fn(9, vec![])).expect("fits");
        assert!(!plan.warm);
        c.commit(&plan, &big, 30);
        assert_eq!(c.counters().evictions, 1);
        let survivors: Vec<&str> =
            c.residents().iter().map(|s| s.model.as_str()).collect();
        assert_eq!(survivors, ["b"], "LRU victim under tied scores is `a`");
    }

    #[test]
    fn hot_model_outranks_recent_cold_one() {
        let mut c = WeightCache::new(WeightCacheConfig::default());
        let a = entry("a", 3, 9_216);
        let b = entry("b", 3, 9_216);
        // `a` arrives constantly; `b` arrived once long ago. Despite `b`
        // being more recently released, `a`'s retention score wins.
        for t in [10, 20, 30, 40] {
            c.record_arrival("a", t);
        }
        c.record_arrival("b", 1);
        c.on_release(&a, &[tile(0), tile(1), tile(2)], 15);
        c.on_release(&b, &[tile(3), tile(4), tile(5)], 25);
        let big = entry("big", 6, 27_648);
        let plan = c.plan(&big, 50, &[], place_fn(9, vec![])).expect("fits");
        c.commit(&plan, &big, 50);
        let survivors: Vec<&str> =
            c.residents().iter().map(|s| s.model.as_str()).collect();
        assert_eq!(survivors, ["a"], "arrival rate outweighs recency");
    }

    #[test]
    fn prefetch_cancelled_when_predicted_model_never_arrives() {
        let mut c = WeightCache::new(WeightCacheConfig::default());
        let x = entry("x", 3, 9_216);
        let (mut reg, _) = crate::registry::three_model_mix();
        // register `x` raw so the registry can resolve the prediction
        reg.insert_raw(x.clone());
        c.record_arrival("x", 10);
        c.record_arrival("x", 20);
        c.maybe_prefetch(30, &[], &reg, place_fn(8, vec![]));
        assert_eq!(c.counters().prefetch_issued, 1);
        assert!(c.prefetch_in_flight().is_some());
        // `x` never arrives; a cold placement for a fabric-filling model
        // overruns the speculative tiles and cancels the stream.
        let big = entry("big", 8, 36_864);
        let plan = c.plan(&big, 40, &[], place_fn(8, vec![])).expect("fits");
        c.commit(&plan, &big, 40);
        assert_eq!(c.counters().prefetch_canceled, 1);
        assert_eq!(c.counters().prefetch_used, 0);
        assert!(c.prefetch_in_flight().is_none());
        assert!((c.counters().prefetch_accuracy() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn prefetch_hit_waits_only_the_remainder() {
        let mut c = WeightCache::new(WeightCacheConfig::default());
        let x = entry("x", 3, 9_216);
        let (mut reg, _) = crate::registry::three_model_mix();
        reg.insert_raw(x.clone());
        c.record_arrival("x", 10);
        c.record_arrival("x", 20);
        c.maybe_prefetch(30, &[], &reg, place_fn(8, vec![]));
        let (_, done_at) = c.prefetch_in_flight().expect("issued");
        // the predicted model arrives mid-stream
        let plan = c
            .plan(&x, 30 + 5, &[], place_fn(8, vec![]))
            .expect("fits");
        assert!(plan.warm);
        assert_eq!(plan.load.cycles, done_at - 35);
        c.commit(&plan, &x, 35);
        assert_eq!(c.counters().prefetch_used, 1);
        assert_eq!(c.counters().hits, 1);
    }

    #[test]
    fn llc_tier_is_lru_bounded() {
        let cfg = WeightCacheConfig {
            llc_capacity_bytes: 10_000,
            ..WeightCacheConfig::default()
        };
        let mut c = WeightCache::new(cfg);
        let a = entry("a", 3, 9_216);
        let b = entry("b", 3, 9_216);
        let plan = c.plan(&a, 10, &[], place_fn(8, vec![])).expect("fits");
        assert!(!plan.llc_hit, "first stream is cold");
        c.commit(&plan, &a, 10);
        // `a` again: the image is within capacity → LLC tier hit
        let (cost_a2, hit) = c.tier_cost(&a);
        assert!(hit);
        assert!(cost_a2.cycles < c.tier_cost(&entry("a2", 3, 9_216)).0.cycles);
        // streaming `b` exceeds 10 kB capacity → `a` falls out, LRU
        let plan_b = c.plan(&b, 20, &[tile(0), tile(1), tile(2)], place_fn(8, vec![tile(0), tile(1), tile(2)])).expect("fits");
        c.commit(&plan_b, &b, 20);
        let (_, hit_a_after) = c.tier_cost(&a);
        assert!(!hit_a_after, "LRU trim dropped `a`");
    }

    #[test]
    fn retired_tiles_kill_overlapping_sets() {
        let mut c = WeightCache::new(WeightCacheConfig::default());
        let a = entry("a", 3, 9_216);
        c.on_release(&a, &[tile(0), tile(1), tile(2)], 10);
        c.retire_tiles(&[tile(1)]);
        assert!(c.residents().is_empty());
        assert_eq!(c.counters().evictions, 1);
    }

    #[test]
    fn retirement_during_prefetch_cancels_and_bans_the_tiles() {
        let mut c = WeightCache::new(WeightCacheConfig::default());
        let x = entry("x", 3, 9_216);
        let (mut reg, _) = crate::registry::three_model_mix();
        reg.insert_raw(x.clone());
        c.record_arrival("x", 10);
        c.record_arrival("x", 20);
        // a speculative stream is mid-flight on tiles 0..3 when recovery
        // remap retires tile 0 — the stream dies with the cells
        c.maybe_prefetch(30, &[], &reg, place_fn(8, vec![]));
        assert_eq!(c.prefetch_tiles(), Some(&[tile(0), tile(1), tile(2)][..]));
        c.retire_tiles(&[tile(0)]);
        assert!(c.prefetch_in_flight().is_none(), "in-flight stream cancelled");
        assert_eq!(c.counters().prefetch_canceled, 1);
        // the next target selection steers around the casualty even
        // though this placement closure never excludes it
        c.record_arrival("x", 40);
        c.maybe_prefetch(50, &[], &reg, place_fn(8, vec![]));
        let tiles = c.prefetch_tiles().expect("re-issued on healthy tiles");
        assert_eq!(tiles, &[tile(1), tile(2), tile(3)]);
        assert!(!tiles.contains(&tile(0)), "retired tile must never be a target");
    }

    #[test]
    fn cold_plan_excludes_retired_tiles_defensively() {
        let mut c = WeightCache::new(WeightCacheConfig::default());
        c.retire_tiles(&[tile(0), tile(1)]);
        let a = entry("a", 3, 9_216);
        // naive closure again: offers tiles 0.. freely
        let plan = c.plan(&a, 10, &[], place_fn(8, vec![])).expect("fits");
        assert_eq!(plan.tiles, vec![tile(2), tile(3), tile(4)]);
        // and when the casualties shrink the fabric below the footprint,
        // planning head-blocks instead of placing on dead cells
        let big = entry("big", 7, 36_864);
        assert!(c.plan(&big, 10, &[], place_fn(8, vec![])).is_none());
    }

    #[test]
    fn invalidate_drops_warm_state_but_keeps_counters_and_casualties() {
        let mut c = WeightCache::new(WeightCacheConfig::default());
        let a = entry("a", 3, 9_216);
        let plan = c.plan(&a, 10, &[], place_fn(8, vec![])).expect("fits");
        c.commit(&plan, &a, 10);
        c.on_release(&a, &plan.tiles, 20);
        c.retire_tiles(&[tile(7)]);
        assert_eq!(c.residents().len(), 1);
        c.invalidate();
        assert!(c.residents().is_empty());
        assert!(c.prefetch_in_flight().is_none());
        assert_eq!(c.counters().misses, 1, "history survives the outage");
        assert_eq!(c.counters().evictions, 1, "dropped set counted");
        assert_eq!(c.retired(), &[tile(7)], "casualties are permanent");
        // the LLC tier was cleared too: the next admission re-pays DRAM
        let plan2 = c.plan(&a, 30, &[], place_fn(8, vec![])).expect("fits");
        assert!(!plan2.warm && !plan2.llc_hit);
    }
}
