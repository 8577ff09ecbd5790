//! Run-level observability: metrics time-series, progress reporting and
//! stall detection for [`crate::system::BeaconSystem`] runs.
//!
//! Harnesses (the `figures` binary, integration tests) call [`install`]
//! once with an [`ObsConfig`]; every subsequent [`drive`]n run on the
//! same thread then samples the system's gauges, prints periodic
//! progress lines and watches for stalls. [`take`] collects the
//! accumulated [`MetricsSeries`] at the end. When nothing is installed,
//! [`drive`] degrades to a plain `Engine::run` with only the stall
//! detector's default window active — zero observable overhead.

use std::cell::RefCell;

use beacon_sim::component::{Probe, Tick};
use beacon_sim::cycle::Cycle;
use beacon_sim::engine::{Engine, EngineHooks, Progress, RunOutcome, StallReport};
use beacon_sim::metrics::{MetricsSample, MetricsSeries};

/// Default stall-detection window in cycles (~0.125 s of DDR4-1600 bus
/// time): long enough that refresh storms and deep backlogs never trip
/// it, short enough to turn an infinite hang into a diagnosis.
pub const DEFAULT_STALL_WINDOW: u64 = 100_000_000;

/// What to observe during driven runs. Zero cadences disable the
/// corresponding hook.
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

struct ObsState {
    cfg: ObsConfig,
    series: MetricsSeries,
    /// Index assigned to the next driven run (the `run` column).
    runs: u32,
}

thread_local! {
    static STATE: RefCell<Option<ObsState>> = const { RefCell::new(None) };
}

/// Installs `cfg` for subsequent [`drive`]n runs on this thread,
/// discarding any previously accumulated series.
pub fn install(cfg: ObsConfig) {
    STATE.with(|s| {
        *s.borrow_mut() = Some(ObsState {
            cfg,
            series: MetricsSeries::new(),
            runs: 0,
        });
    });
}

/// Uninstalls the configuration and returns the metrics accumulated
/// across every run since [`install`]; `None` when nothing is installed.
pub fn take() -> Option<MetricsSeries> {
    STATE.with(|s| s.borrow_mut().take().map(|st| st.series))
}

/// True when an [`ObsConfig`] is installed on this thread.
pub fn active() -> bool {
    STATE.with(|s| s.borrow().is_some())
}

/// The installed configuration and the index the next driven run will
/// get, without mutating either. The parallel driver mirrors [`drive`]
/// with this plus [`commit`].
pub(crate) fn snapshot() -> Option<(ObsConfig, u32)> {
    STATE.with(|s| s.borrow().as_ref().map(|st| (st.cfg, st.runs)))
}

/// Records one finished run: bumps the run index and appends the
/// samples it collected to the thread-local series.
pub(crate) fn commit(samples: Vec<MetricsSample>) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.runs += 1;
            for sample in samples {
                st.series.push(sample);
            }
        }
    });
}

/// Runs `model` to completion on `engine`, honouring the installed
/// [`ObsConfig`] (if any). Samples land in the thread-local series for
/// [`take`]; progress and stall reports go to stderr.
pub fn drive<T: Tick + Probe>(engine: &mut Engine, model: &mut T) -> RunOutcome {
    let Some((cfg, run)) = snapshot() else {
        // No harness config: plain run, but keep the stall safety net so
        // a wiring bug dies with a diagnosis instead of spinning forever.
        let mut hooks = EngineHooks {
            stall_window: DEFAULT_STALL_WINDOW,
            on_stall: Some(Box::new(report_stall)),
            ..EngineHooks::default()
        };
        return engine.run_instrumented(model, &mut hooks);
    };

    let mut samples: Vec<MetricsSample> = Vec::new();
    let mut hooks = EngineHooks {
        stall_window: cfg.stall_window,
        on_stall: Some(Box::new(report_stall)),
        ..EngineHooks::default()
    };
    if cfg.metrics_every > 0 {
        hooks.sample_every = cfg.metrics_every;
        hooks.on_sample = Some(Box::new(|now: Cycle, probe: &dyn Probe| {
            let mut values = Vec::new();
            probe.gauges(&mut values);
            values.push(("events".to_owned(), probe.progress_counter() as f64));
            samples.push(MetricsSample {
                run,
                cycle: now.as_u64(),
                values,
            });
        }));
    }
    if cfg.progress_every > 0 {
        hooks.progress_every = cfg.progress_every;
        hooks.on_progress = Some(Box::new(move |p: &Progress| print_progress(run, p)));
    }

    let outcome = engine.run_instrumented(model, &mut hooks);
    drop(hooks);
    commit(samples);
    outcome
}

/// Prints driven run `run`'s progress line to stderr.
pub(crate) fn print_progress(run: u32, p: &Progress) {
    eprintln!(
        "[beacon run {run}] cycle {} | {} events | {:.1} Mcyc/s effective ({:.1} ticked)",
        p.now.as_u64(),
        p.events,
        p.cycles_per_sec / 1e6,
        p.ticked_per_sec / 1e6,
    );
}

pub(crate) fn report_stall(r: &StallReport) {
    eprintln!(
        "[beacon] STALL at cycle {} (no progress since {}, {} events):\n{}",
        r.at.as_u64(),
        r.last_progress_at.as_u64(),
        r.events,
        r.snapshot,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_sim::component::Tick;
    use beacon_sim::cycle::Cycle;

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
            u64::MAX - self.n
        }
        fn gauges(&self, out: &mut Vec<(String, f64)>) {
            out.push(("n".to_owned(), self.n as f64));
        }
    }

    #[test]
    fn drive_without_install_matches_plain_run() {
        let mut engine = Engine::new();
        let outcome = drive(&mut engine, &mut Countdown { n: 25 });
        assert_eq!(outcome.finished_at(), Cycle::new(25));
        assert!(take().is_none());
    }

    #[test]
    fn drive_collects_samples_across_runs() {
        install(ObsConfig {
            metrics_every: 10,
            progress_every: 0,
            stall_window: DEFAULT_STALL_WINDOW,
        });
        assert!(active());
        drive(&mut Engine::new(), &mut Countdown { n: 25 });
        drive(&mut Engine::new(), &mut Countdown { n: 5 });
        let series = take().expect("installed");
        assert!(!active());
        // Run 0: cycles 0, 10, 20, 25; run 1: cycles 0, 5.
        assert_eq!(series.len(), 6);
        assert_eq!(series.samples()[0].run, 0);
        assert_eq!(series.samples()[4].run, 1);
        let jsonl = series.to_jsonl();
        assert!(jsonl.contains("\"n\":"));
        assert!(jsonl.contains("\"events\":"));
    }

    #[test]
    fn install_resets_previous_series() {
        install(ObsConfig {
            metrics_every: 10,
            ..ObsConfig::default()
        });
        drive(&mut Engine::new(), &mut Countdown { n: 15 });
        install(ObsConfig {
            metrics_every: 10,
            ..ObsConfig::default()
        });
        drive(&mut Engine::new(), &mut Countdown { n: 5 });
        let series = take().expect("installed");
        assert_eq!(series.len(), 2); // only the second run's samples
        assert_eq!(series.samples()[0].run, 0);
    }
}
