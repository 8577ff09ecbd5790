//! The component abstraction: anything that advances cycle by cycle.

use crate::cycle::Cycle;
use crate::observer::Observer;

/// A simulated hardware component advanced by the engine once per cycle.
///
/// Implementations must be *monotone*: `tick` is called with strictly
/// increasing `now` values and must never look into the future.
///
/// ```
/// use beacon_sim::component::Tick;
/// use beacon_sim::cycle::Cycle;
///
/// struct Counter(u64);
/// impl Tick for Counter {
///     fn tick(&mut self, _now: Cycle) { self.0 += 1; }
///     fn is_idle(&self) -> bool { self.0 >= 10 }
/// }
/// ```
pub trait Tick {
    /// Advances the component to cycle `now`.
    fn tick(&mut self, now: Cycle);

    /// [`Tick::tick`] recording into `obs`: components with trace or
    /// journey emit sites override this, and their `tick` runs it with
    /// an empty observer. The default ignores `obs`.
    fn tick_observed(&mut self, now: Cycle, obs: &mut Observer) {
        let _ = obs;
        self.tick(now);
    }

    /// True when the component holds no in-flight work. The engine stops
    /// once every component reports idle and no external work remains.
    fn is_idle(&self) -> bool;

    /// Event-horizon hint for fast-forwarding, queried right after
    /// `tick(now)`: the earliest cycle **strictly after** `now` at which
    /// ticking this component could change any observable state (issue a
    /// command, move a queue entry, fire a refresh, retire a task, ...).
    /// `None` means no internally scheduled future event — the component
    /// will only act again in response to external input.
    ///
    /// The contract is *conservative-only*: returning a cycle **earlier**
    /// than the true next event merely wastes a no-op tick, but returning
    /// a **later** cycle (or `None` while an event is pending) lets the
    /// engine skip a state change and breaks bit-identical replay. When
    /// in doubt, under-shoot. The default, `now + 1`, claims an event may
    /// happen on the very next cycle, so components that do not implement
    /// the hint are never skipped and behave exactly as before.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now.next())
    }
}

/// Read-only observability surface of a model, read by the run's
/// [`Watch`](crate::observer::Watch) at its sample, progress and stall
/// deadlines.
///
/// Every method has a default implementation, so any model can opt in
/// with `impl Probe for M {}` and refine incrementally. Implementations
/// must not mutate model state — probing a run must leave its simulated
/// behaviour bit-identical.
pub trait Probe {
    /// A monotonically non-decreasing count of useful work performed
    /// (commands issued, tasks retired, flits forwarded, ...). The stall
    /// detector watches this counter: if it does not advance for a whole
    /// window the run is declared stalled. Components whose activity
    /// should *not* count as forward progress (e.g. DRAM refresh) must be
    /// excluded, or a livelocked model will look alive forever.
    fn progress_counter(&self) -> u64 {
        0
    }

    /// Appends current gauge readings (`(name, value)` pairs: queue
    /// depths, busy counts, occupancies) to `out` for the metrics
    /// sampler.
    fn gauges(&self, _out: &mut Vec<(String, f64)>) {}

    /// A human-readable dump of internal state for stall diagnostics.
    fn state_snapshot(&self) -> String {
        String::new()
    }
}
