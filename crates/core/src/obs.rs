//! The unobserved run loop for [`crate::system::BeaconSystem`]-like
//! models: [`drive`] runs a model on the sequential engine under a
//! [`Watch`] with only the default stall window armed.
//!
//! Observed runs build their watch from the run's
//! [`beacon_sim::observer::Sampler`] instead
//! ([`crate::system::BeaconSystem::run_with`]), and hand the same watch
//! to whichever engine runs them.

use beacon_sim::component::{Probe, Tick};
use beacon_sim::engine::{Engine, RunOutcome};
use beacon_sim::observer::Watch;

/// Runs `model` to completion on `engine` unobserved: a plain run, but
/// with the default stall window armed so a wiring bug dies with a
/// diagnosis instead of spinning forever.
pub fn drive<T: Tick + Probe>(engine: &mut Engine, model: &mut T) -> RunOutcome {
    engine.run_watched(model, &mut Watch::new(None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_sim::component::Tick;
    use beacon_sim::cycle::Cycle;
    use beacon_sim::observer::{ObsConfig, Sampler, DEFAULT_STALL_WINDOW};

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
        for n in [25, 5] {
            let mut watch = Watch::new(Some(&mut sampler));
            Engine::new().run_watched(&mut Countdown { n }, &mut watch);
        }
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
