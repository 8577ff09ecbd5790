//! The run's observer: one value holding the trace ring, the journey
//! recorder and the metrics sampler, each optional.
//!
//! Nothing here is ambient. The caller owns an [`Observer`] and hands it
//! to a run beside its `RunOptions`; the run hands it down by argument
//! to every emit site ([`Tick::tick_observed`]). With a part absent, each
//! of its sites costs one predictable branch on a plain field.
//!
//! Parallel runs give each shard an empty [`Observer::fork`] that
//! travels with the shard to whichever worker advances it; work done on
//! the coordinator (the hub, the final catch-up ticks) records into the
//! run's own observer. [`Observer::absorb`] merges the forks back in one
//! explicit step at the end of the run: trace events in canonical order,
//! journey aggregates by order-independent addition.
//!
//! The sampler is driven through a [`Watch`], built per run from it (or
//! from nothing, for the default stall window alone). Both engines run
//! under the same watch: they stop at its deadline and let it fire, so a
//! metrics series, its progress lines and a stall verdict do not depend
//! on the engine, the thread count or fast-forwarding.

use std::time::Instant;

use crate::component::{Probe, Tick};
use crate::cycle::{Cycle, Duration};
use crate::engine::RunOutcome;
use crate::journey::JourneyRecorder;
use crate::metrics::{MetricsSample, MetricsSeries};
use crate::trace::{TraceBuffer, TraceLevel};

/// Default stall-detection window in cycles (~0.125 s of DDR4-1600 bus
/// time): long enough that refresh storms and deep backlogs never trip
/// it, short enough to turn an infinite hang into a diagnosis.
pub const DEFAULT_STALL_WINDOW: u64 = 100_000_000;

/// What a [`Sampler`] observes during driven runs. Zero cadences disable
/// the corresponding hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Sample gauges every this many cycles (0 = no metrics).
    pub metrics_every: u64,
    /// Print a progress line every this many cycles (0 = silent).
    pub progress_every: u64,
    /// Declare a stall after this many cycles without forward progress
    /// (0 = stall detection off).
    pub stall_window: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            metrics_every: 0,
            progress_every: 0,
            stall_window: DEFAULT_STALL_WINDOW,
        }
    }
}

/// The metrics part of an [`Observer`]: its configuration, the series
/// collected across every run it observed, and the index the next run
/// gets (the series' `run` column).
#[derive(Debug, Clone, Default)]
pub struct Sampler {
    /// Cadences of the sampling, progress and stall hooks.
    pub cfg: ObsConfig,
    /// Samples of every observed run, in run order.
    pub series: MetricsSeries,
    /// Index assigned to the next observed run.
    pub runs: u32,
}

impl Sampler {
    /// A sampler with an empty series, starting at run 0.
    pub fn new(cfg: ObsConfig) -> Self {
        Sampler {
            cfg,
            ..Sampler::default()
        }
    }
}

/// A progress report, printed by a [`Watch`] at its progress cadence.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Current simulation time.
    pub now: Cycle,
    /// Cycles simulated since this run started, fast-forwarded spans
    /// included (the *effective* span).
    pub cycles: u64,
    /// Cycles actually ticked since this run started — skipped spans
    /// excluded (the *raw* work the host CPU performed).
    pub ticked: u64,
    /// The model's progress counter (events retired so far).
    pub events: u64,
    /// Wall-clock seconds since this run started.
    pub wall_secs: f64,
    /// Effective simulated cycles per wall-clock second (skip-inclusive;
    /// this is the headline simulator-throughput number).
    pub cycles_per_sec: f64,
    /// Raw ticked cycles per wall-clock second (skip-exclusive), so a
    /// fast-forwarded run cannot masquerade as a faster inner loop.
    pub ticked_per_sec: f64,
}

/// A stall diagnosis, printed by a [`Watch`] when its stall window
/// passes without progress.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Cycle at which the stall was detected.
    pub at: Cycle,
    /// Last cycle at which the progress counter advanced.
    pub last_progress_at: Cycle,
    /// The stuck progress-counter value.
    pub events: u64,
    /// The model's [`Probe::state_snapshot`] at detection time.
    pub snapshot: String,
}

/// One run's watch: the metrics, progress and stall deadlines and what
/// fires at them. Both engines hold it beside their loop and ask it two
/// things — [`Watch::deadline`], at which every jump (sequential) or
/// epoch (parallel) stops, and [`Watch::fire`] once the clock reaches
/// it — so samples, progress lines and stall verdicts land on the same
/// cycles whichever engine runs and however far it skips. It reads the
/// model only through [`Probe`].
#[derive(Debug)]
pub struct Watch<'a> {
    /// The series samples go to (present only when sampling).
    series: Option<&'a mut MetricsSeries>,
    /// This run's index: the series' `run` column and the progress tag.
    run: u32,
    cfg: ObsConfig,
    next_sample: Cycle,
    next_progress: Cycle,
    next_stall: Cycle,
    started_at: Cycle,
    wall_start: Instant,
    last_events: u64,
    last_progress_at: Cycle,
    progress: Option<Progress>,
    stall: Option<StallReport>,
}

impl<'a> Watch<'a> {
    /// The watch of `sampler`'s next run: samples go to its series under
    /// the run's index, progress and stall reports to stderr, at its
    /// cadences. Without a sampler only the default stall window is
    /// armed, so a wiring bug dies with a diagnosis instead of spinning.
    pub fn new(sampler: Option<&'a mut Sampler>) -> Self {
        match sampler {
            Some(s) => {
                let run = s.runs;
                s.runs += 1;
                let series = (s.cfg.metrics_every > 0).then_some(&mut s.series);
                Watch::armed(s.cfg, series, run)
            }
            None => Watch::armed(ObsConfig::default(), None, 0),
        }
    }

    /// A watch with nothing armed: it never fires.
    pub fn off() -> Self {
        let cfg = ObsConfig {
            stall_window: 0,
            ..ObsConfig::default()
        };
        Watch::armed(cfg, None, 0)
    }

    fn armed(cfg: ObsConfig, series: Option<&'a mut MetricsSeries>, run: u32) -> Self {
        Watch {
            series,
            run,
            cfg,
            next_sample: Cycle::NEVER,
            next_progress: Cycle::NEVER,
            next_stall: Cycle::NEVER,
            started_at: Cycle::ZERO,
            wall_start: Instant::now(),
            last_events: 0,
            last_progress_at: Cycle::ZERO,
            progress: None,
            stall: None,
        }
    }

    /// Starts the run at `now`: arms every deadline one cadence ahead
    /// and takes the start sample.
    pub fn begin<P: Probe + ?Sized>(&mut self, now: Cycle, model: &P) {
        let after = |every: u64| match every {
            0 => Cycle::NEVER,
            n => now + Duration::new(n),
        };
        self.started_at = now;
        self.wall_start = Instant::now();
        self.next_progress = after(self.cfg.progress_every);
        self.next_stall = after(self.cfg.stall_window);
        if self.series.is_some() {
            self.next_sample = after(self.cfg.metrics_every);
            self.sample(now, model);
        }
        self.last_events = model.progress_counter();
        self.last_progress_at = now;
    }

    /// The next cycle at which something fires ([`Cycle::NEVER`] when
    /// nothing is armed). The clock must stop here: a jump or an epoch
    /// never crosses it.
    #[inline]
    pub fn deadline(&self) -> Cycle {
        self.next_sample
            .min(self.next_progress)
            .min(self.next_stall)
    }

    /// Fires everything due at `now` — a sample, a progress line, a
    /// stall check — in that order, with `ticked` the cycles actually
    /// ticked since the run began. Returns the outcome when the stall
    /// check finds no progress over its whole window.
    pub fn fire<P: Probe + ?Sized>(
        &mut self,
        now: Cycle,
        ticked: u64,
        model: &P,
    ) -> Option<RunOutcome> {
        if now >= self.next_sample {
            self.sample(now, model);
            self.next_sample = now + Duration::new(self.cfg.metrics_every);
        }
        if now >= self.next_progress {
            let cycles = now.since(self.started_at).as_u64();
            let wall_secs = self.wall_start.elapsed().as_secs_f64();
            let per_sec = |n: u64| {
                if wall_secs > 0.0 {
                    n as f64 / wall_secs
                } else {
                    0.0
                }
            };
            let p = Progress {
                now,
                cycles,
                ticked,
                events: model.progress_counter(),
                wall_secs,
                cycles_per_sec: per_sec(cycles),
                ticked_per_sec: per_sec(ticked),
            };
            eprintln!(
                "[beacon run {}] cycle {} | {} events | {:.1} Mcyc/s effective ({:.1} ticked)",
                self.run,
                now.as_u64(),
                p.events,
                p.cycles_per_sec / 1e6,
                p.ticked_per_sec / 1e6,
            );
            self.progress = Some(p);
            self.next_progress = now + Duration::new(self.cfg.progress_every);
        }
        if now >= self.next_stall {
            let events = model.progress_counter();
            if events <= self.last_events {
                let r = StallReport {
                    at: now,
                    last_progress_at: self.last_progress_at,
                    events,
                    snapshot: model.state_snapshot(),
                };
                eprintln!(
                    "[beacon] STALL at cycle {} (no progress since {}, {} events):\n{}",
                    r.at.as_u64(),
                    r.last_progress_at.as_u64(),
                    r.events,
                    r.snapshot,
                );
                self.stall = Some(r);
                return Some(RunOutcome::Stalled {
                    at: now,
                    last_progress_at: self.last_progress_at,
                });
            }
            self.last_events = events;
            self.last_progress_at = now;
            self.next_stall = now + Duration::new(self.cfg.stall_window);
        }
        None
    }

    /// Ends the run at `now` with the closing sample, so any sampled run
    /// yields at least two.
    pub fn end<P: Probe + ?Sized>(&mut self, now: Cycle, model: &P) {
        self.sample(now, model);
    }

    /// The latest progress report, if one fired.
    pub fn progress(&self) -> Option<&Progress> {
        self.progress.as_ref()
    }

    /// The stall report, once the stall check fired.
    pub fn stall(&self) -> Option<&StallReport> {
        self.stall.as_ref()
    }

    fn sample<P: Probe + ?Sized>(&mut self, now: Cycle, model: &P) {
        if let Some(series) = self.series.as_deref_mut() {
            let mut values = Vec::new();
            model.gauges(&mut values);
            values.push(("events".to_owned(), model.progress_counter() as f64));
            series.push(MetricsSample {
                run: self.run,
                cycle: now.as_u64(),
                values,
            });
        }
    }
}

/// The trace ring, journey recorder and metrics sampler of one run (or
/// of a harness's sequence of runs), each optional. `Observer::default()`
/// observes nothing.
#[derive(Debug, Default)]
pub struct Observer {
    /// Cycle-stamped event ring.
    pub trace: Option<TraceBuffer>,
    /// Request-journey attribution aggregates.
    pub journey: Option<JourneyRecorder>,
    /// Gauge sampling, progress reports and the stall window.
    pub metrics: Option<Sampler>,
}

impl Observer {
    /// The trace ring when it records events at `level` — the guard
    /// every trace emit site takes before building its event.
    #[inline]
    pub fn trace_at(&mut self, level: TraceLevel) -> Option<&mut TraceBuffer> {
        match &mut self.trace {
            Some(t) if t.level() >= level => Some(t),
            _ => None,
        }
    }

    /// An empty observer with this one's trace level and capacity and
    /// journey sampling — a parallel shard's private sink. Metrics are
    /// sampled by the coordinator, so forks carry none.
    pub fn fork(&self) -> Observer {
        Observer {
            trace: self.trace.as_ref().map(TraceBuffer::fork_empty),
            journey: self.journey.as_ref().map(JourneyRecorder::fork_empty),
            metrics: None,
        }
    }

    /// Merges `forks` back: trace events in canonical order (so the
    /// result is independent of how work was split), journey aggregates
    /// by addition. Parts this observer lacks are dropped.
    pub fn absorb(&mut self, forks: Vec<Observer>) {
        let mut traces = Vec::new();
        for fork in forks {
            if let (Some(j), Some(f)) = (&mut self.journey, &fork.journey) {
                j.absorb(f);
            }
            traces.extend(fork.trace);
        }
        if let Some(t) = &mut self.trace {
            t.absorb_canonical(traces);
        }
    }
}

/// A model paired with the observer its ticks record into, so an engine
/// that ticks through [`Tick::tick`] drives it observed.
pub struct Observed<'a, T: ?Sized> {
    model: &'a mut T,
    obs: &'a mut Observer,
}

impl<'a, T: Tick + ?Sized> Observed<'a, T> {
    /// Pairs `model` with `obs`.
    pub fn new(model: &'a mut T, obs: &'a mut Observer) -> Self {
        Observed { model, obs }
    }
}

impl<T: Tick + ?Sized> Tick for Observed<'_, T> {
    #[inline]
    fn tick(&mut self, now: Cycle) {
        self.model.tick_observed(now, self.obs);
    }

    fn is_idle(&self) -> bool {
        self.model.is_idle()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.model.next_event(now)
    }
}

impl<T: Tick + Probe + ?Sized> Probe for Observed<'_, T> {
    fn progress_counter(&self) -> u64 {
        self.model.progress_counter()
    }

    fn gauges(&self, out: &mut Vec<(String, f64)>) {
        self.model.gauges(out);
    }

    fn state_snapshot(&self) -> String {
        self.model.state_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journey::{JStamp, Phase};
    use crate::trace::{TraceCategory, TraceEvent};

    fn ev(cycle: u64, level: TraceLevel) -> TraceEvent {
        TraceEvent::instant(cycle, level, TraceCategory::Engine, "test.ev", cycle)
    }

    #[test]
    fn trace_at_gates_on_the_ring_level() {
        let mut obs = Observer::default();
        assert!(obs.trace_at(TraceLevel::Task).is_none());
        obs.trace = Some(TraceBuffer::new(TraceLevel::Flit, 16));
        assert!(obs.trace_at(TraceLevel::Task).is_some());
        assert!(obs.trace_at(TraceLevel::Flit).is_some());
        assert!(obs.trace_at(TraceLevel::Command).is_none());
        obs.trace_at(TraceLevel::Task)
            .expect("ring records Task")
            .record("a", ev(2, TraceLevel::Task));
        let buf = obs.trace.take().expect("ring present");
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.iter().next().unwrap().1.cycle, 2);
    }

    #[test]
    fn fork_and_absorb_round_trip() {
        let mut obs = Observer {
            trace: Some(TraceBuffer::new(TraceLevel::Flit, 32)),
            journey: Some(JourneyRecorder::new(1, 5)),
            metrics: Some(Sampler::new(ObsConfig::default())),
        };
        let mut fork = obs.fork();
        assert!(fork.metrics.is_none());
        fork.trace_at(TraceLevel::Task)
            .expect("fork keeps the level")
            .record("w", ev(2, TraceLevel::Task));
        let mut stamp = JStamp::fresh(9, Cycle::new(1));
        fork.journey.as_mut().expect("fork keeps the recorder").hop(
            &mut stamp,
            Cycle::new(4),
            Phase::Link,
        );
        obs.trace_at(TraceLevel::Task)
            .expect("ring present")
            .record("m", ev(1, TraceLevel::Task));
        obs.absorb(vec![fork]);
        let cycles: Vec<u64> = obs
            .trace
            .as_ref()
            .expect("ring present")
            .canonical_events()
            .iter()
            .map(|(_, e)| e.cycle)
            .collect();
        assert_eq!(cycles, vec![1, 2]);
        let j = obs.journey.as_ref().expect("recorder present");
        assert_eq!(j.phase(Phase::Pack).count(), 1);
        assert_eq!(j.phase(Phase::Pack).max(), 3);
        assert!(Observer::default().fork().trace.is_none());
    }
}
