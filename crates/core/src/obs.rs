//! Run-level observability: the engine loops that drive a model under
//! a [`Sampler`] — metrics time-series, progress reporting and stall
//! detection for [`crate::system::BeaconSystem`] runs.
//!
//! The sampler is a value the caller owns, normally the metrics part of
//! the run's [`beacon_sim::observer::Observer`]. [`drive_with`] samples
//! the model's gauges into it, prints periodic progress lines and
//! watches for stalls; [`drive`] is the unobserved loop, with only the
//! stall detector's default window armed.

use beacon_sim::component::{Probe, Tick};
use beacon_sim::cycle::Cycle;
use beacon_sim::engine::{Engine, EngineHooks, Progress, RunOutcome, StallReport};
use beacon_sim::metrics::MetricsSample;
use beacon_sim::observer::Sampler;

/// Runs `model` to completion on `engine` unobserved: a plain run, but
/// with the default stall window armed so a wiring bug dies with a
/// diagnosis instead of spinning forever.
pub fn drive<T: Tick + Probe>(engine: &mut Engine, model: &mut T) -> RunOutcome {
    drive_with(engine, model, &mut Sampler::default())
}

/// Runs `model` to completion on `engine` as the next run of `sampler`:
/// samples land in its series under the run's index, progress and stall
/// reports go to stderr.
pub fn drive_with<T: Tick + Probe>(
    engine: &mut Engine,
    model: &mut T,
    sampler: &mut Sampler,
) -> RunOutcome {
    let cfg = sampler.cfg;
    let run = sampler.runs;
    sampler.runs += 1;
    let series = &mut sampler.series;
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
            series.push(MetricsSample {
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
    engine.run_instrumented(model, &mut hooks)
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
    use beacon_sim::observer::{ObsConfig, DEFAULT_STALL_WINDOW};

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
    }

    #[test]
    fn drive_collects_samples_across_runs() {
        let mut sampler = Sampler::new(ObsConfig {
            metrics_every: 10,
            progress_every: 0,
            stall_window: DEFAULT_STALL_WINDOW,
        });
        drive_with(&mut Engine::new(), &mut Countdown { n: 25 }, &mut sampler);
        drive_with(&mut Engine::new(), &mut Countdown { n: 5 }, &mut sampler);
        let series = sampler.series;
        assert_eq!(sampler.runs, 2);
        // Run 0: cycles 0, 10, 20, 25; run 1: cycles 0, 5.
        assert_eq!(series.len(), 6);
        assert_eq!(series.samples()[0].run, 0);
        assert_eq!(series.samples()[4].run, 1);
        let jsonl = series.to_jsonl();
        assert!(jsonl.contains("\"n\":"));
        assert!(jsonl.contains("\"events\":"));
    }
}
