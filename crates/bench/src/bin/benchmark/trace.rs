//! Wall-clock spans recorded around the benchmark's calls into each
//! layer, and a forwarding [`Tick`] + [`Probe`] that times every `tick`
//! and horizon probe the engine makes.
//!
//! Spans are kept in memory as (count, total) aggregates keyed by a
//! `/`-separated path; a span's self time is its total minus the totals
//! of its direct children. Nothing is written until the run ends.

use std::cell::Cell;
use std::time::{Duration, Instant};

use beacon_sim::component::{Probe, Tick};
use beacon_sim::cycle::Cycle;

/// Aggregate of every call recorded under one span path.
#[derive(Debug, Clone)]
pub struct Span {
    /// `/`-separated path, parent first (`run/core.tick`).
    pub path: String,
    /// Calls recorded.
    pub count: u64,
    /// Summed wall time of those calls.
    pub total: Duration,
}

/// The spans of one or more reps.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Adds `calls` calls taking `total` altogether to the span at `path`.
    pub fn add_n(&mut self, path: &str, calls: u64, total: Duration) {
        match self.spans.iter_mut().find(|s| s.path == path) {
            Some(s) => {
                s.count += calls;
                s.total += total;
            }
            None => self.spans.push(Span {
                path: path.to_owned(),
                count: calls,
                total,
            }),
        }
    }

    /// Adds one call of `d` to the span at `path`.
    pub fn add(&mut self, path: &str, d: Duration) {
        self.add_n(path, 1, d);
    }

    /// Folds every span of `other` into this one.
    pub fn merge(&mut self, other: &Spans) {
        for s in &other.spans {
            self.add_n(&s.path, s.count, s.total);
        }
    }

    /// Total seconds under `path` (0 when never recorded).
    pub fn total_s(&self, path: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.path == path)
            .map_or(0.0, |s| s.total.as_secs_f64())
    }

    /// Calls recorded under `path`.
    pub fn count(&self, path: &str) -> u64 {
        self.spans
            .iter()
            .find(|s| s.path == path)
            .map_or(0, |s| s.count)
    }

    /// Summed total seconds of every top-level span whose name starts
    /// with `prefix`.
    pub fn prefix_s(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.path.starts_with(prefix) && !s.path.contains('/'))
            .map(|s| s.total.as_secs_f64())
            .sum()
    }

    /// Self seconds of `path`: its total minus its direct children's.
    pub fn self_s(&self, path: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| {
                s.path
                    .strip_prefix(path)
                    .and_then(|rest| rest.strip_prefix('/'))
                    .is_some_and(|name| !name.contains('/'))
            })
            .map(|s| s.total.as_secs_f64())
            .sum();
        self.total_s(path) - children
    }

    /// Every span, in first-recorded order.
    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }
}

/// Forwards a model's [`Tick`] and [`Probe`] calls and times the two the
/// engine's inner loop pays for: `tick` and the `next_event` horizon
/// probe. `is_idle` and the [`Probe`] reads of the stall detector are
/// left untimed; they land in the loop's self time.
pub struct Timed<'a, T> {
    inner: &'a mut T,
    tick: Duration,
    ticks: u64,
    // `next_event` takes `&self`, hence the cells.
    probe: Cell<Duration>,
    probes: Cell<u64>,
    jumps: Cell<u64>,
}

/// What a [`Timed`] run recorded.
#[derive(Debug, Clone, Copy)]
pub struct TickTimes {
    /// Time inside `tick`.
    pub tick: Duration,
    /// `tick` calls, i.e. cycles actually simulated.
    pub ticks: u64,
    /// Time inside `next_event`.
    pub probe: Duration,
    /// `next_event` calls.
    pub probes: u64,
    /// Probes whose horizon let the engine jump past the next cycle.
    pub jumps: u64,
}

impl<'a, T: Tick> Timed<'a, T> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut T) -> Self {
        Timed {
            inner,
            tick: Duration::ZERO,
            ticks: 0,
            probe: Cell::new(Duration::ZERO),
            probes: Cell::new(0),
            jumps: Cell::new(0),
        }
    }

    /// The recorded times and counts.
    pub fn times(&self) -> TickTimes {
        TickTimes {
            tick: self.tick,
            ticks: self.ticks,
            probe: self.probe.get(),
            probes: self.probes.get(),
            jumps: self.jumps.get(),
        }
    }
}

impl<T: Tick> Tick for Timed<'_, T> {
    fn tick(&mut self, now: Cycle) {
        let t = Instant::now();
        self.inner.tick(now);
        self.tick += t.elapsed();
        self.ticks += 1;
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let t = Instant::now();
        let h = self.inner.next_event(now);
        self.probe.set(self.probe.get() + t.elapsed());
        self.probes.set(self.probes.get() + 1);
        // The engine jumps whenever the horizon lies past the next cycle.
        if h.is_none_or(|h| h > now.next()) {
            self.jumps.set(self.jumps.get() + 1);
        }
        h
    }
}

impl<T: Probe> Probe for Timed<'_, T> {
    fn progress_counter(&self) -> u64 {
        self.inner.progress_counter()
    }

    fn gauges(&self, out: &mut Vec<(String, f64)>) {
        self.inner.gauges(out);
    }

    fn state_snapshot(&self) -> String {
        self.inner.state_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let ms = Duration::from_millis;
        let mut s = Spans::default();
        s.add("run", ms(10));
        s.add("run/core.tick", ms(6));
        s.add("run/core.tick/inner", ms(5));
        s.add("run/sim.probe", ms(1));
        s.add("runner", ms(100));
        assert!((s.self_s("run") - 0.003).abs() < 1e-9);
        assert!((s.self_s("run/core.tick") - 0.001).abs() < 1e-9);
        assert!((s.prefix_s("run") - 0.110).abs() < 1e-9);
        let mut twice = s.clone();
        twice.merge(&s);
        assert_eq!(twice.iter().next().map(|s| s.count), Some(2));
    }
}
