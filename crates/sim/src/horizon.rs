//! Memoized event horizons with dirty-flag invalidation.
//!
//! Computing a component's event horizon (see
//! [`Tick::next_event`](crate::component::Tick::next_event)) from scratch
//! is typically a scan over every queue entry, bank timer and bus lane the
//! component owns. Under fast-forwarding the engine queries the horizon
//! after *every* tick, so on dense workloads — where most cycles issue a
//! command — the recomputation dominates and can make skipping slower
//! than plain per-cycle ticking.
//!
//! [`HorizonCache`] memoizes the last computed horizon together with a
//! dirty flag. The contract:
//!
//! * every mutating operation that could change the component's horizon
//!   calls [`HorizonCache::invalidate`];
//! * the component's `next_event` calls [`HorizonCache::get_or`] with the
//!   from-scratch recomputation as the fallback;
//! * a tick gate, which needs only "is anything due by `now`?", may call
//!   [`HorizonCache::due`] with a fold that stops at the first due term.
//!
//! Because component horizons are *absolute* cycles derived from internal
//! state only (never from the query cycle `now`), a clean cached value is
//! bit-identical to a recompute: staleness is impossible as long as every
//! mutation invalidates. "When in doubt, invalidate" is always safe — a
//! spurious invalidation merely costs one recompute.
//!
//! The cache uses [`Cell`] so `next_event(&self)` can fill it through a
//! shared reference. `Cell<T>` is `Send` (not `Sync`), which matches how
//! the parallel engine uses components: each shard owns its components
//! and may move across threads between epochs, but two threads never
//! share one component concurrently.

use std::cell::Cell;

use crate::cycle::Cycle;

/// A memoized absolute event horizon, invalidated on mutation.
#[derive(Debug, Clone)]
pub struct HorizonCache {
    /// The horizon when clean. When dirty, a cycle the horizon is known
    /// not to exceed (a due term a [`HorizonCache::due`] probe found), or
    /// [`Cycle::NEVER`] when nothing is known.
    cached: Cell<Cycle>,
    dirty: Cell<bool>,
}

impl Default for HorizonCache {
    fn default() -> Self {
        HorizonCache::new()
    }
}

impl HorizonCache {
    /// A cache that starts dirty, forcing the first query to recompute.
    pub const fn new() -> Self {
        HorizonCache {
            cached: Cell::new(Cycle::NEVER),
            dirty: Cell::new(true),
        }
    }

    /// Marks the cached horizon stale. Call from every mutating
    /// operation that could change the component's next event.
    #[inline]
    pub fn invalidate(&self) {
        self.cached.set(Cycle::NEVER);
        self.dirty.set(true);
    }

    /// True when the next [`HorizonCache::get_or`] will recompute.
    #[inline]
    pub fn is_dirty(&self) -> bool {
        self.dirty.get()
    }

    /// The cached horizon when clean, without recomputing; `None` when
    /// dirty. For gates that must not pay a recompute.
    #[inline]
    pub fn clean(&self) -> Option<Cycle> {
        (!self.dirty.get()).then_some(self.cached.get())
    }

    /// Returns the cached horizon, recomputing it via `recompute` first
    /// when dirty.
    #[inline]
    pub fn get_or(&self, recompute: impl FnOnce() -> Cycle) -> Cycle {
        if self.dirty.get() {
            self.cached.set(recompute());
            self.dirty.set(false);
        }
        self.cached.get()
    }

    /// True when the horizon is at or before `now`, answered without
    /// the exact horizon where possible. `fold(until)` folds the
    /// component's terms and may stop at the first one before `until`,
    /// returning it; otherwise it returns their minimum.
    ///
    /// A clean cache, or a due term an earlier probe found since the last
    /// invalidation, answers at once. Otherwise `fold` runs: a term at or
    /// before `now` is remembered as a bound (the cache stays dirty), and
    /// a fold that finds none has computed the exact horizon and leaves
    /// the cache clean.
    #[inline]
    pub fn due(&self, now: Cycle, fold: impl FnOnce(Cycle) -> Cycle) -> bool {
        if self.cached.get() <= now {
            return true;
        }
        if !self.dirty.get() {
            return false;
        }
        let h = fold(now.next());
        self.cached.set(h);
        if h <= now {
            return true;
        }
        self.dirty.set(false);
        false
    }

    /// The per-component tick gate: true when the component's tick at
    /// `now` is provably a no-op and can be skipped. Skipping is
    /// conservative-exact for the same reason engine-level jumps are,
    /// and ticking when a skip was possible is always safe, so the
    /// gate is pure wall-clock state: results are bit-identical with
    /// or without it, and neither it nor `backoff` is snapshotted.
    ///
    /// A clean cache makes the probe a load and compare, taken every
    /// cycle. A dirty one forces `recompute` — and in a dense phase,
    /// where a mutation dirties the cache every cycle and the answer is
    /// always "must tick", per-cycle recomputes tax exactly the busiest
    /// components. So dirty probes go through `backoff`: each failure
    /// doubles the ticks until the next one, and any skip re-arms it.
    #[inline]
    pub fn gate(
        &self,
        backoff: &Cell<Backoff>,
        now: Cycle,
        recompute: impl FnOnce() -> Cycle,
    ) -> bool {
        if !self.dirty.get() && self.cached.get() <= now {
            // A clean "must tick" is free and leaves the backoff alone.
            return false;
        }
        let mut b = backoff.get();
        if self.dirty.get() && !b.probe() {
            // Inside the backoff window: tick rather than recompute.
            backoff.set(b);
            return false;
        }
        let skip = self.get_or(recompute) > now;
        b.observe(skip);
        backoff.set(b);
        skip
    }
}

/// Exponential backoff for horizon probes that keep failing.
///
/// A horizon probe — the engine's jump query, or a component's tick
/// gate — pays for itself only when it finds dead cycles. In a *dense*
/// phase, with an event every cycle, it never does, so probing every
/// cycle taxes exactly the busiest work. After each failed probe the
/// next one is deferred by 1 cycle, then 2, 4, … up to [`Backoff::MAX`];
/// the first success re-arms per-cycle probing.
///
/// Correctness is unaffected: a deferred probe only means ticking
/// cycles a probe might have proven dead, and those ticks are no-ops by
/// the horizon contract. The cost is bounded — a dense phase amortises
/// the probe over up to `MAX` ticks, and a dead span is entered at most
/// `MAX - 1` no-op ticks late. The same argument makes backoff state
/// **snapshot-exempt**: a resumed run starts from [`Backoff::new`],
/// deterministically.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// Ticks remaining until the next probe.
    defer: u32,
    /// Deferral to apply after the next failed probe.
    backoff: u32,
}

impl Backoff {
    /// Longest stretch of ticks between probes.
    pub const MAX: u32 = 64;

    /// A backoff that probes on the first tick.
    pub const fn new() -> Self {
        Backoff {
            defer: 0,
            backoff: 1,
        }
    }

    /// True when this tick should probe; otherwise counts the tick
    /// against the current deferral.
    #[inline]
    pub fn probe(&mut self) -> bool {
        if self.defer == 0 {
            true
        } else {
            self.defer -= 1;
            false
        }
    }

    /// Records a probe's outcome: a success re-arms per-tick probing, a
    /// failure doubles the deferral (saturating at [`Backoff::MAX`]).
    #[inline]
    pub fn observe(&mut self, success: bool) {
        if success {
            *self = Backoff::new();
        } else {
            self.defer = self.backoff;
            self.backoff = (self.backoff * 2).min(Self::MAX);
        }
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_dirty_and_caches_after_first_query() {
        let c = HorizonCache::new();
        assert!(c.is_dirty());
        assert_eq!(c.clean(), None);
        let mut calls = 0;
        let h = c.get_or(|| {
            calls += 1;
            Cycle::new(42)
        });
        assert_eq!(h, Cycle::new(42));
        assert_eq!(calls, 1);
        assert!(!c.is_dirty());
        assert_eq!(c.clean(), Some(Cycle::new(42)));
        // Clean: fallback must not run again.
        let h = c.get_or(|| unreachable!("cache is clean"));
        assert_eq!(h, Cycle::new(42));
    }

    #[test]
    fn invalidate_forces_recompute() {
        let c = HorizonCache::new();
        assert_eq!(c.get_or(|| Cycle::new(1)), Cycle::new(1));
        c.invalidate();
        assert!(c.is_dirty());
        assert_eq!(c.get_or(|| Cycle::new(7)), Cycle::new(7));
        assert_eq!(c.get_or(|| unreachable!()), Cycle::new(7));
    }

    #[test]
    fn due_keeps_a_found_term_and_fills_a_full_fold() {
        let c = HorizonCache::new();
        // A term at or before `now` is a bound: later probes at or after
        // it answer without folding, but the exact horizon is unknown.
        assert!(c.due(Cycle::new(10), |until| {
            assert_eq!(until, Cycle::new(11));
            Cycle::new(8)
        }));
        assert!(c.due(Cycle::new(8), |_| unreachable!("bound known")));
        assert!(c.is_dirty());
        // A probe before the bound folds again; finding nothing due, its
        // fold is exact and leaves the cache clean.
        assert!(!c.due(Cycle::new(7), |_| Cycle::new(8)));
        assert!(!c.is_dirty());
        assert_eq!(c.get_or(|| unreachable!("filled")), Cycle::new(8));
        assert!(c.due(Cycle::new(8), |_| unreachable!("clean")));
        // Invalidation forgets bounds and values alike.
        c.invalidate();
        assert!(!c.due(Cycle::new(9), |_| Cycle::NEVER));
        assert_eq!(c.get_or(|| unreachable!("filled")), Cycle::NEVER);
    }

    #[test]
    fn clone_copies_the_cached_state() {
        let c = HorizonCache::new();
        let _ = c.get_or(|| Cycle::new(9));
        let d = c.clone();
        assert!(!d.is_dirty());
        assert_eq!(d.get_or(|| unreachable!()), Cycle::new(9));
        // Independent after the clone.
        d.invalidate();
        assert!(!c.is_dirty());
    }
}
