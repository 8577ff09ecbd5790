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

use crate::component::{Probe, Tick};
use crate::cycle::Cycle;
use crate::journey::JourneyRecorder;
use crate::metrics::MetricsSeries;
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
