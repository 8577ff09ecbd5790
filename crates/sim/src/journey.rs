//! Request-journey attribution: end-to-end latency decomposition,
//! utilization accounting and the bottleneck report.
//!
//! A *journey* follows one tracked memory/accelerator request from the
//! cycle its task engine issues it to the cycle the response is matched
//! back, stamping every phase transition along the way (packer batch,
//! link flight, switch queuing, host forwarding, bank queue, bank
//! service, switch-logic service, return path). The stamp — a tiny
//! [`JStamp`] — travels *inside* the request message, so no shared
//! lookup table is needed and cross-shard journeys pair up for free in
//! parallel runs.
//!
//! Aggregation lives in the [`JourneyRecorder`] of the run's
//! [`crate::observer::Observer`], handed by argument to every transition
//! site; with no recorder a site costs one branch on a plain field.
//! Parallel shards each fill an empty fork whose order-independent
//! aggregates are absorbed back at the end of the run. Only
//! 1-in-`sample_every` requests are tracked; the choice is a pure hash of
//! `(salt, switch, module, request id, cycle)` — all bit-identical
//! across thread counts and skip modes — made through a [`JGate`] each
//! issuing model copies from the recorder at run entry, so the tracked
//! set, and hence the whole report, is deterministic.
//!
//! Nothing here feeds a run digest: attribution is observability, and
//! the differential suite pins that enabling it never changes golden
//! digests.

use std::collections::BTreeMap;

use crate::cycle::{Cycle, Duration};
use crate::json::Writer;
use crate::stats::Fnv64;

/// Phases of a request journey, in pipeline order.
///
/// Every cycle of a tracked request's life is attributed to exactly one
/// phase; [`Phase::Total`] additionally records the whole span once per
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Host/engine issue to first link send: packer batching plus any
    /// egress back-pressure at the origin module.
    Pack,
    /// On the wire: per-hop serialisation and flight time.
    Link,
    /// Inside a switch: bus arbitration, staging and egress queuing.
    SwitchQueue,
    /// Detour through the host root complex (cross-switch traffic).
    HostForward,
    /// At the serving DIMM: arrival to first DRAM command.
    BankQueue,
    /// At the serving DIMM: first DRAM command to last data beat.
    BankService,
    /// Served by the in-switch logic node (BEACON-S atomic engine).
    Serve,
    /// Response leaves the server until the requester matches it
    /// (all return hops lumped together).
    Return,
    /// Whole journey, issue to completion; recorded once per request.
    Total,
}

/// Number of [`Phase`] variants.
pub const PHASE_COUNT: usize = 9;

impl Phase {
    /// All phases in pipeline order (report row order).
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Pack,
        Phase::Link,
        Phase::SwitchQueue,
        Phase::HostForward,
        Phase::BankQueue,
        Phase::BankService,
        Phase::Serve,
        Phase::Return,
        Phase::Total,
    ];

    /// Stable lower-snake name used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Pack => "pack",
            Phase::Link => "link",
            Phase::SwitchQueue => "switch_queue",
            Phase::HostForward => "host_forward",
            Phase::BankQueue => "bank_queue",
            Phase::BankService => "bank_service",
            Phase::Serve => "serve",
            Phase::Return => "return",
            Phase::Total => "total",
        }
    }

    /// Index into per-phase arrays (position in [`Phase::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::Pack => 0,
            Phase::Link => 1,
            Phase::SwitchQueue => 2,
            Phase::HostForward => 3,
            Phase::BankQueue => 4,
            Phase::BankService => 5,
            Phase::Serve => 6,
            Phase::Return => 7,
            Phase::Total => 8,
        }
    }
}

/// The journey stamp carried inside a tracked request message.
///
/// `at` is the cycle the current `phase` started; a transition site
/// attributes `now - at` to `phase`, then rewrites `phase`/`at`.
/// Response stamps set `resp` so intermediate hop sites (links,
/// switches, host) leave them alone — the whole return path is lumped
/// into [`Phase::Return`] and recorded once at the requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JStamp {
    /// Deterministic journey id (the sampling hash); also the Perfetto
    /// flow-event id.
    pub id: u64,
    /// Cycle the request was issued.
    pub begin: Cycle,
    /// Cycle the current phase started.
    pub at: Cycle,
    /// Phase the request is currently in.
    pub phase: Phase,
    /// True on the return path (responses skip hop stamping).
    pub resp: bool,
}

impl JStamp {
    /// A just-issued stamp opening the [`Phase::Pack`] span at `now`.
    pub fn fresh(id: u64, now: Cycle) -> Self {
        JStamp {
            id,
            begin: now,
            at: now,
            phase: Phase::Pack,
            resp: false,
        }
    }
}

/// A log2-bucketed latency histogram with exact count/sum/max.
///
/// Bucket `0` holds zero-cycle samples; bucket `i >= 1` holds samples in
/// `[2^(i-1), 2^i - 1]`. Merging is bucket-wise addition, so aggregates
/// are independent of the order (and thread) samples arrived in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    #[inline]
    fn bucket_of(sample: u64) -> usize {
        (64 - sample.leading_zeros()) as usize
    }

    /// Upper bound of bucket `i`, the value a percentile query reports
    /// for samples landing there (clamped to the exact maximum).
    fn bucket_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, sample: Duration) {
        let v = sample.as_u64();
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of the samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile (`p` in `0..=100`, clamped): the upper
    /// bound of the bucket holding the rank-`ceil(p/100 * count)`
    /// sample, clamped to the exact maximum. Empty histograms return 0.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return Self::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one (order-independent).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// Exact queue-depth integral for one component queue.
///
/// Depth is piecewise-constant, so observing only at *change* points
/// (and finalizing once at run end) yields the exact time-weighted mean
/// even under event-horizon fast-forwarding — skipped spans simply
/// extend the last observed plateau.
#[derive(Debug, Clone, Default)]
pub struct QueueAcc {
    last_depth: u64,
    last_at: Cycle,
    area: u128,
    peak: u64,
}

impl QueueAcc {
    /// Accounts the plateau since the last observation and starts a new
    /// one at `depth`. Call at every point the depth changes.
    #[inline]
    pub fn observe(&mut self, depth: usize, now: Cycle) {
        let span = now.since(self.last_at).as_u64();
        self.area += self.last_depth as u128 * span as u128;
        self.last_at = now;
        self.last_depth = depth as u64;
        self.peak = self.peak.max(depth as u64);
    }

    /// [`observe`](Self::observe) that returns immediately when `depth`
    /// equals the current plateau — the hot-path form for callers that
    /// poll every tick rather than at change points.
    #[inline]
    pub fn observe_if_changed(&mut self, depth: usize, now: Cycle) {
        if depth as u64 != self.last_depth {
            self.observe(depth, now);
        }
    }

    /// Closes the final plateau at `end` (idempotent).
    pub fn finalize(&mut self, end: Cycle) {
        let depth = self.last_depth as usize;
        self.observe(depth, end);
    }

    /// Time-weighted mean depth over `[0, last observation]`.
    pub fn mean_depth(&self) -> f64 {
        let span = self.last_at.as_u64();
        if span == 0 {
            0.0
        } else {
            self.area as f64 / span as f64
        }
    }

    /// Largest depth ever observed.
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

/// Aggregate store for journey attribution.
///
/// Holds only order-independent aggregates (per-phase and per-class
/// histograms), so parallel shards can each fill a fork and the merge
/// does not care who tracked what. Sampling decisions and their tallies
/// live in the issuing models' [`JGate`]s.
#[derive(Debug, Clone)]
pub struct JourneyRecorder {
    sample_every: u64,
    salt: u64,
    /// Boxed so an observer stays small enough to travel with a
    /// parallel shard by value.
    phases: Box<[LatencyHistogram; PHASE_COUNT]>,
    classes: BTreeMap<String, LatencyHistogram>,
}

impl JourneyRecorder {
    /// A recorder tracking 1-in-`sample_every` requests (`1` tracks
    /// everything), salted with `salt` (derive it from
    /// [`crate::rng::SimRng::child`] for a deterministic stream).
    ///
    /// # Panics
    /// Panics when `sample_every` is zero.
    pub fn new(sample_every: u64, salt: u64) -> Self {
        assert!(sample_every > 0, "sample_every must be at least 1");
        JourneyRecorder {
            sample_every,
            salt,
            phases: Box::new(std::array::from_fn(|_| LatencyHistogram::new())),
            classes: BTreeMap::new(),
        }
    }

    /// The configured sampling period.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Per-phase histogram (report access).
    pub fn phase(&self, p: Phase) -> &LatencyHistogram {
        &self.phases[p.index()]
    }

    /// A fresh sampling gate for this recorder's configuration, with
    /// zero tallies — what an issuing model copies at run entry.
    pub fn gate(&self) -> JGate {
        JGate {
            salt: self.salt,
            // Precomputed so the per-access sampling decision is a
            // compare, not a hardware divide.
            threshold: u64::MAX / self.sample_every,
            seen: 0,
            tracked: 0,
        }
    }

    /// An empty recorder with the same sampling configuration — a
    /// parallel shard's private recorder.
    pub fn fork_empty(&self) -> JourneyRecorder {
        JourneyRecorder::new(self.sample_every, self.salt)
    }

    /// Merges a fork's aggregates into this one. The result is
    /// independent of how journeys were distributed across forks.
    pub fn absorb(&mut self, other: &JourneyRecorder) {
        for (a, b) in self.phases.iter_mut().zip(other.phases.iter()) {
            a.merge(b);
        }
        for (class, hist) in &other.classes {
            self.classes.entry(class.clone()).or_default().merge(hist);
        }
    }

    /// Phase transition: attributes `now - stamp.at` to the stamp's
    /// current phase, then moves the stamp to `next` starting at `now`.
    /// Response stamps (`resp`) are left untouched — intermediate hops on
    /// the return path all belong to [`Phase::Return`].
    #[inline]
    pub fn hop(&mut self, stamp: &mut JStamp, now: Cycle, next: Phase) {
        if stamp.resp {
            return;
        }
        self.record(stamp.phase, now.since(stamp.at));
        stamp.phase = next;
        stamp.at = now;
    }

    /// Attributes `now - stamp.at` to the stamp's current phase without
    /// a transition — the terminal record for that leg (e.g. `Return` at
    /// the requester).
    #[inline]
    pub fn arrive(&mut self, stamp: &JStamp, now: Cycle) {
        self.record(stamp.phase, now.since(stamp.at));
    }

    /// Records the whole-journey span ([`Phase::Total`]) plus the
    /// per-class (requesting module) rollup. Call once per tracked
    /// request, at final completion.
    pub fn total(&mut self, stamp: &JStamp, now: Cycle, class: &str) {
        let dur = now.since(stamp.begin);
        self.record(Phase::Total, dur);
        match self.classes.get_mut(class) {
            Some(h) => h.record(dur),
            None => {
                let mut h = LatencyHistogram::new();
                h.record(dur);
                self.classes.insert(class.to_owned(), h);
            }
        }
    }

    /// Attributes `dur` to `phase` directly (used where the stamp is not
    /// in hand, e.g. bank-phase splits computed from completion records).
    #[inline]
    pub fn record(&mut self, phase: Phase, dur: Duration) {
        self.phases[phase.index()].record(dur);
    }

    /// Builds the phase/class part of an [`Attribution`] report; the
    /// caller folds in its gates' `seen`/`tracked` tallies and appends
    /// utilization and queue rows from component state.
    pub fn attribution(&self) -> Attribution {
        let phases = Phase::ALL
            .iter()
            .map(|&p| {
                let h = self.phase(p);
                PhaseStat {
                    phase: p.as_str(),
                    count: h.count(),
                    mean: h.mean(),
                    p50: h.percentile(50.0),
                    p95: h.percentile(95.0),
                    p99: h.percentile(99.0),
                    max: h.max(),
                }
            })
            .collect();
        let classes = self
            .classes
            .iter()
            .map(|(class, h)| ClassStat {
                class: class.clone(),
                count: h.count(),
                mean: h.mean(),
                p95: h.percentile(95.0),
            })
            .collect();
        Attribution {
            sample_every: self.sample_every,
            seen: 0,
            tracked: 0,
            phases,
            utilization: Vec::new(),
            queues: Vec::new(),
            classes,
        }
    }
}

/// A run-local copy of the sampling decision plus its own seen/tracked
/// tallies. Models that issue requests on a hot path copy their
/// recorder's [`JourneyRecorder::gate`] into a plain field at run entry,
/// make every per-access decision through it, and surface the tallies to
/// the report at collect time. The tallies live with the model (not the
/// recorder), so a parallel run's counts ride its shards and sum
/// identically for every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JGate {
    salt: u64,
    /// `u64::MAX / sample_every`: ids at or below this are tracked.
    threshold: u64,
    /// Requests considered for tracking through this gate.
    pub seen: u64,
    /// Requests actually tracked through this gate.
    pub tracked: u64,
}

impl JGate {
    /// Sampling decision for a request identified by
    /// `(switch, module, pid)` at `now`: `Some(journey id)` when
    /// tracked. Pure in its inputs, so identical across thread counts.
    ///
    /// The id is FNV-1a folded word-wise over the request identity,
    /// finalized with two xor-shift rounds, and admitted when it falls in
    /// the bottom `1/sample_every` slice of the hash range (a compare
    /// against the precomputed threshold — this runs once per pool
    /// access, so no modulo by a runtime divisor). The finalizer matters:
    /// word-wise FNV alone leaves the high bits of nearby inputs
    /// correlated, which would bias a range threshold.
    #[inline]
    pub fn admit(&mut self, switch: u32, module: u32, pid: u64, now: Cycle) -> Option<u64> {
        self.seen += 1;
        let mut h = Fnv64::new();
        h.fold_u64(self.salt);
        h.fold_u64(u64::from(switch));
        h.fold_u64(u64::from(module));
        h.fold_u64(pid);
        h.fold_u64(now.as_u64());
        let mut id = h.finish();
        id ^= id >> 33;
        id = id.wrapping_mul(0xff51_afd7_ed55_8ccd);
        id ^= id >> 33;
        if id > self.threshold {
            return None;
        }
        self.tracked += 1;
        Some(id)
    }
}

/// Per-phase latency summary row of an [`Attribution`] report.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase name (see [`Phase::as_str`]).
    pub phase: &'static str,
    /// Samples attributed to the phase.
    pub count: u64,
    /// Mean cycles.
    pub mean: f64,
    /// Median (nearest-rank, bucket upper bound).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// Per-component busy/total utilization row.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentUtil {
    /// Component label, e.g. `sw0.dimm3` or `sw1.bus`.
    pub component: String,
    /// Cycles the component was doing useful work.
    pub busy_cycles: u64,
    /// Cycles the run spanned for this component.
    pub total_cycles: u64,
    /// Back-pressure / conflict events observed (blocked indicator).
    pub blocked_events: u64,
}

impl ComponentUtil {
    /// Busy fraction in `[0, 1]` (clamped; zero-length runs report 0).
    pub fn utilization(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            (self.busy_cycles as f64 / self.total_cycles as f64).min(1.0)
        }
    }
}

/// Time-weighted queue-depth row.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueStat {
    /// Queue label, e.g. `sw0.dimm2.bank_queue`.
    pub component: String,
    /// Time-weighted mean depth.
    pub mean_depth: f64,
    /// Peak depth.
    pub peak_depth: u64,
}

/// Per-class (requesting module / job) rollup of total latency.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStat {
    /// Class label (the requesting module, a stand-in for tenant/job).
    pub class: String,
    /// Journeys completed in this class.
    pub count: u64,
    /// Mean total latency in cycles.
    pub mean: f64,
    /// 95th-percentile total latency.
    pub p95: u64,
}

/// The bottleneck report attached (digest-excluded) to a `RunResult`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Attribution {
    /// Sampling period the run used (1 = every request).
    pub sample_every: u64,
    /// Requests considered.
    pub seen: u64,
    /// Requests tracked.
    pub tracked: u64,
    /// Per-phase latency rows in pipeline order.
    pub phases: Vec<PhaseStat>,
    /// Per-component utilization rows (deterministic component order).
    pub utilization: Vec<ComponentUtil>,
    /// Most-contended queues, sorted by mean depth descending.
    pub queues: Vec<QueueStat>,
    /// Per-class total-latency rollups in class order.
    pub classes: Vec<ClassStat>,
}

/// Queues kept in a report (`top-k` most contended).
pub const TOP_QUEUES: usize = 8;

impl Attribution {
    /// Sorts queue rows by contention (mean depth descending, label as
    /// the tiebreak) and keeps the [`TOP_QUEUES`] worst.
    pub fn rank_queues(&mut self) {
        self.queues.sort_by(|a, b| {
            b.mean_depth
                .total_cmp(&a.mean_depth)
                .then_with(|| a.component.cmp(&b.component))
        });
        self.queues.truncate(TOP_QUEUES);
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "attribution: {} tracked of {} requests (1 in {})\n",
            self.tracked, self.seen, self.sample_every
        ));
        out.push_str(&format!(
            "{:14} {:>9} {:>10} {:>8} {:>8} {:>8} {:>9}\n",
            "phase", "count", "mean", "p50", "p95", "p99", "max"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "{:14} {:>9} {:>10.1} {:>8} {:>8} {:>8} {:>9}\n",
                p.phase, p.count, p.mean, p.p50, p.p95, p.p99, p.max
            ));
        }
        if !self.utilization.is_empty() {
            out.push_str(&format!(
                "\n{:18} {:>7} {:>14} {:>14} {:>9}\n",
                "component", "util", "busy_cyc", "total_cyc", "blocked"
            ));
            for u in &self.utilization {
                out.push_str(&format!(
                    "{:18} {:>6.1}% {:>14} {:>14} {:>9}\n",
                    u.component,
                    u.utilization() * 100.0,
                    u.busy_cycles,
                    u.total_cycles,
                    u.blocked_events
                ));
            }
        }
        if !self.queues.is_empty() {
            out.push_str(&format!("\n{:24} {:>10} {:>6}\n", "queue", "mean", "peak"));
            for q in &self.queues {
                out.push_str(&format!(
                    "{:24} {:>10.2} {:>6}\n",
                    q.component, q.mean_depth, q.peak_depth
                ));
            }
        }
        if !self.classes.is_empty() {
            out.push_str(&format!(
                "\n{:18} {:>8} {:>10} {:>8}\n",
                "class", "count", "mean", "p95"
            ));
            for c in &self.classes {
                out.push_str(&format!(
                    "{:18} {:>8} {:>10.1} {:>8}\n",
                    c.class, c.count, c.mean, c.p95
                ));
            }
        }
        out
    }

    /// Writes the report as one JSON object (nested by the five-genome
    /// bottleneck report, `schemas/report.schema.json`).
    pub fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.key("sample_every").u64(self.sample_every);
            w.key("seen").u64(self.seen);
            w.key("tracked").u64(self.tracked);
            w.key("phases").objects(&self.phases, |w, p| {
                w.key("phase").str(p.phase);
                w.key("count").u64(p.count);
                w.key("mean").f64(p.mean);
                w.key("p50").u64(p.p50);
                w.key("p95").u64(p.p95);
                w.key("p99").u64(p.p99);
                w.key("max").u64(p.max);
            });
            w.key("utilization").objects(&self.utilization, |w, u| {
                w.key("component").str(&u.component);
                w.key("utilization").f64(u.utilization());
                w.key("busy_cycles").u64(u.busy_cycles);
                w.key("total_cycles").u64(u.total_cycles);
                w.key("blocked_events").u64(u.blocked_events);
            });
            w.key("queues").objects(&self.queues, |w, q| {
                w.key("component").str(&q.component);
                w.key("mean_depth").f64(q.mean_depth);
                w.key("peak_depth").u64(q.peak_depth);
            });
            w.key("classes").objects(&self.classes, |w, c| {
                w.key("class").str(&c.class);
                w.key("count").u64(c.count);
                w.key("mean").f64(c.mean);
                w.key("p95").u64(c.p95);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn dur(n: u64) -> Duration {
        Duration::new(n)
    }

    #[test]
    fn latency_histogram_percentiles_and_merge() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(dur(v));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 1000);
        assert!(h.percentile(50.0) <= h.percentile(95.0));
        // p99 reports the bucket bound clamped to the true max.
        assert_eq!(h.percentile(99.0), 1000);

        let mut a = LatencyHistogram::new();
        a.record(dur(5));
        let mut b = LatencyHistogram::new();
        b.record(dur(7));
        b.record(dur(9));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 9);
        assert!((a.mean() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn latency_histogram_empty_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn merge_order_does_not_matter() {
        let samples = [3u64, 17, 17, 200, 0, 64, 1];
        let build = |order: &[usize]| {
            let mut parts = [LatencyHistogram::new(), LatencyHistogram::new()];
            for (i, &idx) in order.iter().enumerate() {
                parts[i % 2].record(dur(samples[idx]));
            }
            let mut total = LatencyHistogram::new();
            total.merge(&parts[0]);
            total.merge(&parts[1]);
            total
        };
        let a = build(&[0, 1, 2, 3, 4, 5, 6]);
        let b = build(&[6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(a, b);
    }

    #[test]
    fn queue_acc_integrates_exactly() {
        let mut q = QueueAcc::default();
        q.observe(2, Cycle::new(10)); // depth 0 over [0,10)
        q.observe(5, Cycle::new(20)); // depth 2 over [10,20)
        q.observe(0, Cycle::new(30)); // depth 5 over [20,30)
        q.finalize(Cycle::new(100)); // depth 0 over [30,100)
                                     // area = 0*10 + 2*10 + 5*10 + 0*70 = 70 over 100 cycles.
        assert!((q.mean_depth() - 0.7).abs() < 1e-12);
        assert_eq!(q.peak(), 5);
    }

    #[test]
    fn queue_acc_finalize_is_idempotent() {
        let mut q = QueueAcc::default();
        q.observe(4, Cycle::new(5));
        q.finalize(Cycle::new(10));
        let mean = q.mean_depth();
        q.finalize(Cycle::new(10));
        assert_eq!(q.mean_depth(), mean);
    }

    #[test]
    fn sampling_is_deterministic_and_periodic() {
        let mut a = JourneyRecorder::new(4, 0xdead_beef).gate();
        let mut b = JourneyRecorder::new(4, 0xdead_beef).gate();
        let decisions_a: Vec<_> = (0..256)
            .map(|i| a.admit(0, i % 4, u64::from(i), Cycle::new(u64::from(i) * 7)))
            .collect();
        let decisions_b: Vec<_> = (0..256)
            .map(|i| b.admit(0, i % 4, u64::from(i), Cycle::new(u64::from(i) * 7)))
            .collect();
        assert_eq!(decisions_a, decisions_b);
        let hits = decisions_a.iter().filter(|d| d.is_some()).count();
        assert!(hits > 16, "1-in-4 sampling tracked only {hits}/256");
        assert_eq!(a.seen, 256);
        assert_eq!(a.tracked, hits as u64);
        // sample_every = 1 tracks everything.
        let mut all = JourneyRecorder::new(1, 1).gate();
        assert!(all.admit(0, 0, 0, Cycle::ZERO).is_some());
    }

    #[test]
    fn gate_admits_and_recorder_attributes() {
        let mut rec = JourneyRecorder::new(1, 7);
        let mut gate = rec.gate();
        let id = gate
            .admit(0, 3, 1, Cycle::new(10))
            .expect("sample_every=1 tracks all");
        let mut stamp = JStamp::fresh(id, Cycle::new(10));
        assert_eq!(stamp.phase, Phase::Pack);
        rec.hop(&mut stamp, Cycle::new(14), Phase::Link);
        assert_eq!(stamp.phase, Phase::Link);
        rec.hop(&mut stamp, Cycle::new(20), Phase::BankQueue);
        rec.total(&stamp, Cycle::new(50), "sw0.dimm3");
        assert_eq!((gate.seen, gate.tracked), (1, 1));
        assert_eq!(rec.phase(Phase::Pack).count(), 1);
        assert_eq!(rec.phase(Phase::Pack).max(), 4);
        assert_eq!(rec.phase(Phase::Link).max(), 6);
        assert_eq!(rec.phase(Phase::Total).max(), 40);
        let att = rec.attribution();
        assert_eq!(att.classes.len(), 1);
        assert_eq!(att.classes[0].class, "sw0.dimm3");
    }

    #[test]
    fn response_stamps_skip_hops() {
        let mut rec = JourneyRecorder::new(1, 3);
        let mut stamp = JStamp {
            id: 9,
            begin: Cycle::ZERO,
            at: Cycle::new(5),
            phase: Phase::Return,
            resp: true,
        };
        rec.hop(&mut stamp, Cycle::new(9), Phase::Link); // must be ignored
        assert_eq!(stamp.phase, Phase::Return);
        assert_eq!(stamp.at, Cycle::new(5));
        rec.arrive(&stamp, Cycle::new(12)); // terminal Return record
        assert_eq!(rec.phase(Phase::Link).count(), 0);
        assert_eq!(rec.phase(Phase::Return).count(), 1);
        assert_eq!(rec.phase(Phase::Return).max(), 7);
    }

    #[test]
    fn fork_absorb_is_distribution_independent() {
        let template = JourneyRecorder::new(1, 11);
        let merged = |split: &[usize]| {
            let mut workers = [template.fork_empty(), template.fork_empty()];
            for (i, &w) in split.iter().enumerate() {
                let stamp = JStamp::fresh(i as u64, Cycle::ZERO);
                workers[w].record(Phase::Link, dur(i as u64 * 3));
                workers[w].total(&stamp, Cycle::new(i as u64 * 3), "sw0.dimm0");
            }
            let mut sink = template.fork_empty();
            for w in &workers {
                sink.absorb(w);
            }
            sink
        };
        let a = merged(&[0, 1, 0, 1, 0]);
        let b = merged(&[1, 0, 1, 0, 1]);
        assert_eq!(a.phase(Phase::Link), b.phase(Phase::Link));
        assert_eq!(a.attribution().classes, b.attribution().classes);
    }

    #[test]
    fn attribution_renders_valid_json_and_text() {
        let mut rec = JourneyRecorder::new(1, 5);
        let id = rec.gate().admit(1, 2, 42, Cycle::new(3)).unwrap();
        let mut stamp = JStamp::fresh(id, Cycle::new(3));
        rec.hop(&mut stamp, Cycle::new(8), Phase::Link);
        rec.arrive(&stamp, Cycle::new(11));
        rec.total(&stamp, Cycle::new(11), "sw1.\"odd\"\\class");
        let mut att = rec.attribution();
        att.utilization.push(ComponentUtil {
            component: "sw0.bus".to_owned(),
            busy_cycles: 50,
            total_cycles: 100,
            blocked_events: 2,
        });
        att.queues.push(QueueStat {
            component: "sw0.dimm0.bank_queue".to_owned(),
            mean_depth: 1.25,
            peak_depth: 7,
        });
        let mut w = Writer::new();
        att.write_json(&mut w);
        let json = w.finish();
        JsonValue::parse(&json).expect("report must be valid JSON");
        assert!(json.contains("\"phase\":\"pack\""));
        assert!(json.contains("\"component\":\"sw0.bus\""));
        assert!(json.contains("\\\"odd\\\""));
        let text = att.render_text();
        assert!(text.contains("pack"));
        assert!(text.contains("sw0.bus"));
        assert!(text.contains("bank_queue"));
    }

    #[test]
    fn rank_queues_keeps_most_contended() {
        let mut att = Attribution::default();
        for i in 0..12 {
            att.queues.push(QueueStat {
                component: format!("q{i}"),
                mean_depth: f64::from(i),
                peak_depth: u64::from(i as u32),
            });
        }
        att.rank_queues();
        assert_eq!(att.queues.len(), TOP_QUEUES);
        assert_eq!(att.queues[0].component, "q11");
        assert!(att
            .queues
            .windows(2)
            .all(|w| w[0].mean_depth >= w[1].mean_depth));
    }

    #[test]
    fn component_util_clamps() {
        let u = ComponentUtil {
            component: "x".into(),
            busy_cycles: 200,
            total_cycles: 100,
            blocked_events: 0,
        };
        assert_eq!(u.utilization(), 1.0);
        let z = ComponentUtil {
            component: "y".into(),
            busy_cycles: 0,
            total_cycles: 0,
            blocked_events: 0,
        };
        assert_eq!(z.utilization(), 0.0);
    }
}
