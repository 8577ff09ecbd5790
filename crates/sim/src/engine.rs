//! A minimal tick-driven execution engine.
//!
//! The BEACON system models are single large components internally wired
//! together (queues between sub-blocks), so the engine's job is merely to
//! drive the top-level `tick`, detect quiescence and guard against
//! deadlocked models with a cycle limit.
//!
//! The engine fast-forwards across *dead* cycles: after every tick it
//! asks the model for its event horizon ([`Tick::next_event`]) and jumps
//! the clock straight there when it exceeds `now + 1`. Because horizons
//! are conservative (never later than the true next state change), the
//! skipped ticks would have been no-ops, so results — including
//! [`RunOutcome::finished_at`] and every digest — are bit-identical to
//! the every-cycle loop. [`Engine::with_skip`] disables the optimisation
//! for A/B comparison.
//!
//! There is one idle-terminated loop, [`Engine::run_watched`]: it runs
//! the model under a [`Watch`] (metrics samples, progress lines, the
//! stall detector), stopping every jump at the watch's next deadline.
//! [`Engine::run`] is that loop with nothing armed.

use crate::component::{Probe, Tick};
use crate::cycle::{Cycle, Duration};
use crate::horizon::Backoff;
use crate::observer::Watch;

/// How a run executes. Every field is a wall-clock choice only: all
/// combinations produce bit-identical simulated results, so the
/// non-default settings exist for differential testing and for the
/// baseline legs of performance measurements. Passed by value to each
/// run entry point; nothing about a run is ambient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Worker threads: 1 selects the sequential reference engine, more
    /// the epoch-parallel engine.
    pub threads: usize,
    /// Event-horizon fast-forwarding over provably dead cycles. Off is
    /// the per-cycle reference the conformance suites compare against.
    pub skip: bool,
}

impl Default for RunOptions {
    /// One thread with fast-forwarding on: the production
    /// configuration.
    fn default() -> Self {
        RunOptions {
            threads: 1,
            skip: true,
        }
    }
}

/// Computes the post-tick jump target: the model's horizon clamped to
/// `[stepped, cap]`. `ticked` is the cycle that was just ticked, so a
/// conservative (or immediate) horizon degenerates to `stepped`, and a
/// model with no scheduled event jumps straight to `cap`.
fn horizon_jump<T: Tick + ?Sized>(model: &T, ticked: Cycle, stepped: Cycle, cap: Cycle) -> Cycle {
    debug_assert!(cap >= stepped);
    match model.next_event(ticked) {
        Some(h) => h.max(stepped).min(cap),
        None => cap,
    }
}

/// The cycle right before `end`: the last one a loop bounded by `end`
/// must still tick, so jumps never overshoot it.
fn last_before(end: Cycle) -> Cycle {
    Cycle::new(end.as_u64().saturating_sub(1))
}

/// Outcome of running a model to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The model drained: every component reported idle.
    Drained {
        /// Cycle at which the model first reported idle.
        finished_at: Cycle,
    },
    /// The cycle limit was hit before the model drained — almost always a
    /// deadlock or starvation bug in the wiring.
    LimitReached {
        /// The limit that was hit.
        limit: Cycle,
    },
    /// The stall detector fired: the model was not idle but made no
    /// forward progress for a whole stall window (see
    /// [`ObsConfig::stall_window`](crate::observer::ObsConfig::stall_window)).
    Stalled {
        /// Cycle at which the stall was detected.
        at: Cycle,
        /// Last cycle at which the progress counter advanced.
        last_progress_at: Cycle,
    },
}

impl RunOutcome {
    /// Completion cycle.
    ///
    /// # Panics
    /// Panics when the run hit the cycle limit or stalled; callers that
    /// tolerate truncated runs should match on the enum instead.
    pub fn finished_at(self) -> Cycle {
        match self {
            RunOutcome::Drained { finished_at } => finished_at,
            RunOutcome::LimitReached { limit } => {
                panic!("simulation did not drain within {limit:?}")
            }
            RunOutcome::Stalled {
                at,
                last_progress_at,
            } => {
                panic!("simulation stalled at {at:?} (no progress since {last_progress_at:?})")
            }
        }
    }

    /// True when the model drained before the limit.
    pub fn drained(self) -> bool {
        matches!(self, RunOutcome::Drained { .. })
    }
}

/// Drives a [`Tick`] component until it reports idle.
///
/// ```
/// use beacon_sim::prelude::*;
/// use beacon_sim::engine::RunOutcome;
///
/// struct Delay { remaining: u64 }
/// impl Tick for Delay {
///     fn tick(&mut self, _now: Cycle) {
///         self.remaining = self.remaining.saturating_sub(1);
///     }
///     fn is_idle(&self) -> bool { self.remaining == 0 }
/// }
///
/// let mut engine = Engine::new();
/// let outcome = engine.run(&mut Delay { remaining: 100 });
/// assert_eq!(outcome.finished_at(), Cycle::new(100));
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    now: Cycle,
    limit: Cycle,
    skip: bool,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Default cycle limit: generous enough for every experiment in the
    /// repository while still catching deadlocks in finite time.
    pub const DEFAULT_LIMIT: u64 = 20_000_000_000;

    /// Creates an engine starting at cycle zero with the default limit.
    pub fn new() -> Self {
        Engine::starting_at(Cycle::ZERO)
    }

    /// Creates an engine whose clock starts at `at` — the resume path
    /// of checkpoint/restore, where a restored system continues from
    /// the capture cycle instead of cycle zero.
    /// `starting_at(Cycle::ZERO)` is identical to [`Engine::new`].
    pub fn starting_at(at: Cycle) -> Self {
        Engine {
            now: at,
            limit: Cycle::new(Self::DEFAULT_LIMIT),
            skip: true,
        }
    }

    /// Turns event-horizon fast-forwarding on (the default) or off. The
    /// reported outcome and all model state are identical either way;
    /// off exists for differential tests and per-cycle baselines.
    pub fn with_skip(mut self, skip: bool) -> Self {
        self.skip = skip;
        self
    }

    /// Replaces the deadlock-guard cycle limit.
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = Cycle::new(limit);
        self
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Runs `model` until it reports idle or the limit is reached: the
    /// watched loop ([`Engine::run_watched`]) with nothing armed.
    ///
    /// When fast-forwarding is enabled (the default, see
    /// [`Engine::with_skip`]) the clock jumps over spans the model's
    /// [`Tick::next_event`] horizon proves dead; the reported
    /// `finished_at` and all model state stay bit-identical either way.
    pub fn run<T: Tick + ?Sized>(&mut self, model: &mut T) -> RunOutcome {
        self.run_watched(&mut Unprobed(model), &mut Watch::off())
    }

    /// Runs `model` for exactly `cycles` additional cycles (regardless of
    /// idleness); useful for warm-up phases and open-loop experiments.
    /// Like [`Engine::run`], never advances past the deadlock-guard
    /// limit. Fast-forwarding applies here too (clamped to the window's
    /// end), which matters for periodic background work — an otherwise
    /// idle DRAM module jumps refresh-to-refresh instead of ticking every
    /// cycle.
    pub fn run_for<T: Tick + ?Sized>(&mut self, model: &mut T, cycles: u64) {
        let end = (self.now + Duration::new(cycles)).min(self.limit);
        let mut throttle = Backoff::new();
        // The window's last cycle is always ticked: models that keep an
        // internal time high-water (timestamping later enqueues) end the
        // window in exactly the per-cycle-loop state.
        let last = last_before(end);
        while self.now < end {
            self.step(model, &mut throttle, last, false);
        }
    }

    /// The loop body every run shares: ticks `model` at the current
    /// cycle, then advances the clock one cycle — or, when
    /// fast-forwarding and `throttle` allows a probe, to the model's
    /// horizon, clamped so that `last` is still ticked. With
    /// `idle_stops` a model that went idle on this tick is never
    /// jumped, so it drains at exactly the per-cycle loop's cycle.
    #[inline]
    fn step<T: Tick + ?Sized>(
        &mut self,
        model: &mut T,
        throttle: &mut Backoff,
        last: Cycle,
        idle_stops: bool,
    ) {
        model.tick(self.now);
        let stepped = self.now.next();
        self.now = if self.skip && !(idle_stops && model.is_idle()) && throttle.probe() {
            let next = horizon_jump(model, self.now, stepped, last.max(stepped));
            throttle.observe(next > stepped);
            next
        } else {
            stepped
        };
    }

    /// Runs `model` until it reports idle or the limit is reached, under
    /// `watch`: the watch samples, reports progress and checks for stalls
    /// at its deadlines, and returns [`RunOutcome::Stalled`] when its
    /// stall window passes without progress.
    ///
    /// Jumps stop at the watch's next deadline, so it fires at exactly
    /// the cycles an every-cycle run would reach: a fast-forwarded span is
    /// never misread as a stall, and series line up sample for sample.
    /// The watch only reads the model through [`Probe`], so results are
    /// bit-identical whatever it has armed.
    pub fn run_watched<T: Tick + Probe + ?Sized>(
        &mut self,
        model: &mut T,
        watch: &mut Watch<'_>,
    ) -> RunOutcome {
        watch.begin(self.now, &*model);
        let mut throttle = Backoff::new();
        let mut ticked: u64 = 0;
        // The guard cycle right before the limit is ticked like in the
        // per-cycle loop; so is every deadline.
        let mut deadline = watch.deadline();
        let mut last = last_before(self.limit).min(deadline);
        let outcome = loop {
            if model.is_idle() {
                break RunOutcome::Drained {
                    finished_at: self.now,
                };
            }
            if self.now >= self.limit {
                break RunOutcome::LimitReached { limit: self.limit };
            }
            self.step(model, &mut throttle, last, true);
            ticked += 1;
            if self.now >= deadline {
                if let Some(stalled) = watch.fire(self.now, ticked, &*model) {
                    break stalled;
                }
                deadline = watch.deadline();
                last = last_before(self.limit).min(deadline);
            }
        };
        watch.end(self.now, &*model);
        outcome
    }
}

/// A model without a [`Probe`]: reads as the trait's defaults, which an
/// unarmed watch never asks for.
struct Unprobed<'a, T: ?Sized>(&'a mut T);

impl<T: Tick + ?Sized> Tick for Unprobed<'_, T> {
    #[inline]
    fn tick(&mut self, now: Cycle) {
        self.0.tick(now);
    }

    #[inline]
    fn is_idle(&self) -> bool {
        self.0.is_idle()
    }

    #[inline]
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.0.next_event(now)
    }
}

impl<T: ?Sized> Probe for Unprobed<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{ObsConfig, Sampler};
    use std::cell::Cell;

    struct Countdown {
        n: u64,
    }

    impl Tick for Countdown {
        fn tick(&mut self, _now: Cycle) {
            self.n = self.n.saturating_sub(1);
        }
        fn is_idle(&self) -> bool {
            self.n == 0
        }
    }

    impl Probe for Countdown {
        fn progress_counter(&self) -> u64 {
            u64::MAX - self.n // grows as the countdown shrinks
        }
    }

    struct NeverIdle;

    impl Tick for NeverIdle {
        fn tick(&mut self, _now: Cycle) {}
        fn is_idle(&self) -> bool {
            false
        }
    }

    impl Probe for NeverIdle {
        fn state_snapshot(&self) -> String {
            "stuck".to_string()
        }
    }

    #[test]
    fn drains_at_expected_cycle() {
        let mut e = Engine::new();
        let out = e.run(&mut Countdown { n: 7 });
        assert_eq!(out.finished_at(), Cycle::new(7));
    }

    #[test]
    fn already_idle_model_finishes_immediately() {
        let mut e = Engine::new();
        let out = e.run(&mut Countdown { n: 0 });
        assert_eq!(out.finished_at(), Cycle::ZERO);
    }

    #[test]
    fn limit_guards_against_deadlock() {
        let mut e = Engine::new().with_limit(50);
        let out = e.run(&mut NeverIdle);
        assert!(!out.drained());
    }

    #[test]
    #[should_panic(expected = "did not drain")]
    fn finished_at_panics_on_limit() {
        let mut e = Engine::new().with_limit(5);
        e.run(&mut NeverIdle).finished_at();
    }

    #[test]
    fn run_for_advances_exactly() {
        let mut e = Engine::new();
        let mut m = Countdown { n: 1000 };
        e.run_for(&mut m, 10);
        assert_eq!(e.now(), Cycle::new(10));
        assert_eq!(m.n, 990);
    }

    #[test]
    fn run_for_respects_limit() {
        let mut e = Engine::new().with_limit(5);
        e.run_for(&mut NeverIdle, 100);
        assert_eq!(e.now(), Cycle::new(5));
        // Further calls stay clamped at the limit.
        e.run_for(&mut NeverIdle, 100);
        assert_eq!(e.now(), Cycle::new(5));
    }

    /// A sampler arming the watch at these cadences (0 = off).
    fn sampler(metrics_every: u64, progress_every: u64, stall_window: u64) -> Sampler {
        Sampler::new(ObsConfig {
            metrics_every,
            progress_every,
            stall_window,
        })
    }

    fn sampled_cycles(s: &Sampler) -> Vec<u64> {
        s.series.samples().iter().map(|x| x.cycle).collect()
    }

    #[test]
    fn instrumented_default_hooks_match_plain_run() {
        let mut plain = Engine::new();
        let plain_out = plain.run(&mut Countdown { n: 64 });
        for mut watch in [Watch::off(), Watch::new(None)] {
            let mut inst = Engine::new();
            let inst_out = inst.run_watched(&mut Countdown { n: 64 }, &mut watch);
            assert_eq!(plain_out, inst_out);
            assert_eq!(plain.now(), inst.now());
        }
    }

    #[test]
    fn instrumented_samples_at_cadence_and_ends() {
        let mut s = sampler(10, 0, 0);
        let out =
            Engine::new().run_watched(&mut Countdown { n: 35 }, &mut Watch::new(Some(&mut s)));
        assert!(out.drained());
        assert_eq!(sampled_cycles(&s), vec![0, 10, 20, 30, 35]);
    }

    #[test]
    fn instrumented_reports_progress() {
        // The watch as an engine drives it: fire whenever the clock
        // reaches its deadline.
        let mut s = sampler(0, 25, 0);
        let mut watch = Watch::new(Some(&mut s));
        let mut model = Countdown { n: 100 };
        watch.begin(Cycle::ZERO, &model);
        let mut reports: Vec<(u64, u64, u64)> = Vec::new();
        for t in 0..100 {
            model.tick(Cycle::new(t));
            let now = Cycle::new(t + 1);
            if now >= watch.deadline() {
                assert!(watch.fire(now, t + 1, &model).is_none());
                let p = watch.progress().expect("a progress report fired");
                reports.push((p.now.as_u64(), p.cycles, p.events));
            }
        }
        let at: Vec<u64> = reports.iter().map(|r| r.0).collect();
        assert_eq!(at, vec![25, 50, 75, 100]);
        assert!(reports.windows(2).all(|w| w[0].1 < w[1].1));
        assert!(reports.windows(2).all(|w| w[0].2 <= w[1].2));
    }

    #[test]
    fn stall_detector_fires_with_snapshot() {
        let mut s = sampler(0, 0, 10);
        let mut watch = Watch::new(Some(&mut s));
        let outcome = Engine::new().run_watched(&mut NeverIdle, &mut watch);
        match outcome {
            RunOutcome::Stalled {
                at,
                last_progress_at,
            } => {
                assert_eq!(at, Cycle::new(10));
                assert_eq!(last_progress_at, Cycle::ZERO);
            }
            other => panic!("expected a stall, got {other:?}"),
        }
        let report = watch.stall().expect("the stall was reported");
        assert_eq!(report.snapshot, "stuck");
        assert_eq!(report.at, Cycle::new(10));
    }

    #[test]
    fn stall_detector_ignores_progressing_models() {
        // Countdown's progress counter advances every tick, so even a
        // tiny window never fires.
        let mut s = sampler(0, 0, 3);
        let out =
            Engine::new().run_watched(&mut Countdown { n: 50 }, &mut Watch::new(Some(&mut s)));
        assert_eq!(out.finished_at(), Cycle::new(50));
    }

    #[test]
    #[should_panic(expected = "stalled")]
    fn finished_at_panics_on_stall() {
        let mut s = sampler(0, 0, 4);
        Engine::new()
            .run_watched(&mut NeverIdle, &mut Watch::new(Some(&mut s)))
            .finished_at();
    }

    #[test]
    fn successive_runs_continue_time() {
        let mut e = Engine::new();
        e.run(&mut Countdown { n: 5 });
        let out = e.run(&mut Countdown { n: 5 });
        assert_eq!(out.finished_at(), Cycle::new(10));
    }

    /// Fires at fixed cycles, dead in between; counts its ticks so tests
    /// can prove spans were (or were not) skipped.
    struct Sparse {
        events: Vec<u64>,
        fired: usize,
        ticks: u64,
    }

    impl Sparse {
        fn at(events: &[u64]) -> Self {
            Sparse {
                events: events.to_vec(),
                fired: 0,
                ticks: 0,
            }
        }
    }

    impl Tick for Sparse {
        fn tick(&mut self, now: Cycle) {
            self.ticks += 1;
            if self.fired < self.events.len() && now.as_u64() == self.events[self.fired] {
                self.fired += 1;
            }
        }
        fn is_idle(&self) -> bool {
            self.fired == self.events.len()
        }
        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            self.events[self.fired..]
                .iter()
                .map(|&e| Cycle::new(e))
                .find(|&e| e > now)
        }
    }

    impl Probe for Sparse {
        fn progress_counter(&self) -> u64 {
            self.fired as u64
        }
    }

    #[test]
    fn fast_forward_skips_dead_cycles_bit_identically() {
        let mut slow = Sparse::at(&[5, 100, 10_000]);
        let slow_out = Engine::new().with_skip(false).run(&mut slow);
        let mut fast = Sparse::at(&[5, 100, 10_000]);
        let fast_out = Engine::new().run(&mut fast);

        assert_eq!(slow_out, fast_out);
        assert_eq!(fast_out.finished_at(), Cycle::new(10_001));
        assert_eq!(slow.ticks, 10_001);
        // tick at 0 (first loop iteration), then only the event cycles.
        assert_eq!(fast.ticks, 4);
    }

    /// Always-idle component with periodic background work, like DRAM
    /// refresh: `run_for` must still fire it at exactly the right cycles.
    struct Periodic {
        every: u64,
        fired: u64,
        ticks: u64,
    }

    impl Tick for Periodic {
        fn tick(&mut self, now: Cycle) {
            self.ticks += 1;
            if now.as_u64().is_multiple_of(self.every) {
                self.fired += 1;
            }
        }
        fn is_idle(&self) -> bool {
            true
        }
        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            Some(Cycle::new((now.as_u64() / self.every + 1) * self.every))
        }
    }

    #[test]
    fn run_for_fast_forwards_periodic_background_work() {
        let mut m = Periodic {
            every: 50,
            fired: 0,
            ticks: 0,
        };
        let mut e = Engine::new();
        e.run_for(&mut m, 200);
        assert_eq!(e.now(), Cycle::new(200));
        assert_eq!(m.fired, 4); // cycles 0, 50, 100, 150
                                // Event cycles plus the guaranteed tick on the window's last
                                // cycle (199), which keeps time high-waters per-cycle-exact.
        assert_eq!(m.ticks, 5);
    }

    #[test]
    fn wedged_model_with_no_horizon_jumps_to_limit() {
        struct Wedged {
            ticks: u64,
        }
        impl Tick for Wedged {
            fn tick(&mut self, _now: Cycle) {
                self.ticks += 1;
            }
            fn is_idle(&self) -> bool {
                false
            }
            fn next_event(&self, _now: Cycle) -> Option<Cycle> {
                None
            }
        }
        let mut m = Wedged { ticks: 0 };
        let out = Engine::new().with_limit(1_000_000).run(&mut m);
        assert_eq!(
            out,
            RunOutcome::LimitReached {
                limit: Cycle::new(1_000_000)
            }
        );
        // One tick at 0 jumping to `limit - 1`, one tick there.
        assert_eq!(m.ticks, 2);
    }

    #[test]
    fn instrumented_hooks_fire_at_identical_cycles_under_skip() {
        let run = |skip: bool| {
            let mut s = sampler(64, 128, 200);
            let mut watch = Watch::new(Some(&mut s));
            let out = Engine::new()
                .with_skip(skip)
                .run_watched(&mut Sparse::at(&[5, 100, 700]), &mut watch);
            let p = watch.progress().expect("progress reported");
            let progress = (p.now.as_u64(), p.cycles, p.events);
            (out, progress, sampled_cycles(&s))
        };
        let slow = run(false);
        let fast = run(true);
        assert_eq!(slow, fast);
    }

    #[test]
    fn stall_outcomes_match_with_and_without_skip() {
        // A 10_000-cycle dead span with a 200-cycle stall window: the
        // every-cycle engine declares a stall, so the fast-forwarding
        // engine must declare the *same* stall at the *same* cycle — and
        // conversely must never invent one on a span the every-cycle
        // engine survives.
        let run = |skip: bool, events: &[u64]| {
            let mut s = sampler(0, 0, 200);
            Engine::new()
                .with_skip(skip)
                .run_watched(&mut Sparse::at(events), &mut Watch::new(Some(&mut s)))
        };
        let slow = run(false, &[5, 100, 10_000]);
        let fast = run(true, &[5, 100, 10_000]);
        assert_eq!(slow, fast);
        assert!(matches!(slow, RunOutcome::Stalled { .. }));

        let slow_ok = run(false, &[5, 100, 150]);
        let fast_ok = run(true, &[5, 100, 150]);
        assert_eq!(slow_ok, fast_ok);
        assert!(slow_ok.drained());
    }

    #[test]
    fn progress_reports_raw_and_effective_rates() {
        let mut s = sampler(0, 1_000, 0);
        let mut watch = Watch::new(Some(&mut s));
        Engine::new().run_watched(&mut Sparse::at(&[5, 4_000]), &mut watch);
        let p = watch.progress().expect("progress reported");
        assert_eq!((p.now, p.cycles), (Cycle::new(4_000), 4_000));
        assert!(
            p.ticked <= p.cycles,
            "raw ticks cannot exceed effective span"
        );
        // The dead span 6..4_000 is skipped (modulo progress-deadline
        // ticks), so far fewer raw ticks than effective cycles.
        assert!(p.ticked < p.cycles / 100);
    }

    /// Dense model: an event every cycle for `n` cycles; counts horizon
    /// probes so tests can prove the throttle amortises them.
    struct Dense {
        n: u64,
        done: u64,
        probes: Cell<u64>,
    }

    impl Tick for Dense {
        fn tick(&mut self, _now: Cycle) {
            self.done += 1;
        }
        fn is_idle(&self) -> bool {
            self.done >= self.n
        }
        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            self.probes.set(self.probes.get() + 1);
            Some(now.next())
        }
    }

    #[test]
    fn dense_runs_throttle_horizon_probes() {
        let mut m = Dense {
            n: 10_000,
            done: 0,
            probes: Cell::new(0),
        };
        let out = Engine::new().run(&mut m);
        assert_eq!(out.finished_at(), Cycle::new(10_000));
        // Every probe fails (the horizon is always `now + 1`), so the
        // throttle backs off to `Backoff::MAX` and steady state probes
        // only once per `Backoff::MAX + 1` ticks.
        let probes = m.probes.get();
        assert!(
            probes < 10_000 / u64::from(Backoff::MAX) * 2,
            "dense run probed the horizon {probes} times over 10_000 ticks"
        );
    }

    #[test]
    fn probe_throttle_backs_off_and_rearms() {
        let mut t = Backoff::new();
        assert!(t.probe());
        t.observe(false); // defer 1 tick
        assert!(!t.probe());
        assert!(t.probe());
        t.observe(false); // defer 2 ticks
        assert!(!t.probe());
        assert!(!t.probe());
        assert!(t.probe());
        t.observe(true); // success: probe every tick again
        assert!(t.probe());
        for _ in 0..16 {
            t.observe(false);
            while !t.probe() {}
        }
        // Saturated: exactly `Backoff::MAX` deferred ticks per probe.
        t.observe(false);
        let mut deferred = 0;
        while !t.probe() {
            deferred += 1;
        }
        assert_eq!(deferred, Backoff::MAX);
    }
}
