//! Property tests for the batched-completion tick (DESIGN.md §15.5).
//!
//! Two equivalences, each over random task mixes driven through a
//! deterministic memory model (fixed per-token latency):
//!
//! * **Event-driven vs every-cycle ticking.** An engine ticked only at
//!   its own `next_event` horizon (plus submission and data-return
//!   cycles — exactly the schedule the owning system produces under
//!   dead-cycle skipping) must issue the same accesses at the same
//!   cycles, retire the same tasks, report the same counters and
//!   accumulate the same busy-PE integral as one ticked on every cycle.
//!   A bucket drained out of order, a dropped completion or a stale
//!   `next_event` all diverge here.
//!
//! * **Coarse-tick conservation.** An engine ticked only every `stride`
//!   cycles drains several completion buckets in a single `tick_into` —
//!   the multi-bucket batch path. Issue *cycles* legitimately shift
//!   (work is processed late), but nothing may be lost or duplicated:
//!   the multiset of issued access tokens, the retirement count and the
//!   flushed `engine.accesses_issued` counter must match the every-cycle
//!   reference.
//!
//! The in-crate `CompletionQueue` proptest (crates/accel/src/task.rs)
//! pins the drain order itself against a retained
//! `BinaryHeap<Reverse<(Cycle, TaskId)>>` oracle.

use beacon_accel::task::{AccessToken, TaskEngine};
use beacon_genomics::trace::{Access, AccessKind, AppKind, Region, Step, TaskTrace};
use beacon_sim::cycle::Cycle;
use beacon_sim::observer::Observer;
use proptest::prelude::*;

/// Deterministic memory latency for a returned datum, keyed only by the
/// access token so every driver sees the same value: 1..=16 cycles.
fn mem_latency(token: AccessToken) -> u64 {
    1 + (token.encode().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60)
}

/// Builds one task trace from a raw sample: 1–3 steps, each blocking or
/// posted with 0–2 accesses, plus an app kind so per-app PE latencies
/// mix on one engine (multiple live completion buckets).
fn trace_from(r: u64) -> (TaskTrace, bool) {
    let steps = (1 + r % 3) as usize;
    let mk = |s: u64| Access {
        region: Region::FmIndex,
        offset: (s % 512) * 32,
        bytes: 32,
        kind: AccessKind::Read,
    };
    let steps = (0..steps)
        .map(|i| {
            let s = r.rotate_left(7 * (i as u32 + 1));
            let accesses = (0..s % 3).map(|j| mk(s >> (8 + j))).collect();
            if s.is_multiple_of(2) {
                Step::blocking(accesses)
            } else {
                Step::posted(accesses)
            }
        })
        .collect();
    let app = match r % 3 {
        0 => AppKind::FmSeeding,
        1 => AppKind::KmerCounting,
        _ => AppKind::PreAlignment,
    };
    (TaskTrace::new(app, steps), r.is_multiple_of(5))
}

/// The submission schedule: `(cycle, trace, via_app)` triples with
/// non-decreasing cycles.
fn schedule(ops: &[u64]) -> Vec<(u64, TaskTrace, bool)> {
    let mut at = 0u64;
    ops.iter()
        .map(|&r| {
            at += r % 4;
            let (trace, via_app) = trace_from(r);
            (at, trace, via_app)
        })
        .collect()
}

/// Everything observable about one run.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    issued: Vec<(u64, u64)>,
    completed: usize,
    busy_pe_cycles: u64,
    counters: Vec<(String, u64)>,
}

/// Drives `engine` over `subs`, ticking according to `pick_next`:
/// given `(floor, engine, earliest_submission, earliest_delivery)` it
/// returns the next tick cycle, or `None` for "tick every cycle".
/// Data returns are delivered at the first tick at-or-after their due
/// cycle, ordered by `(due, token)`.
fn run(
    mut engine: TaskEngine,
    subs: &[(u64, TaskTrace, bool)],
    next_tick: impl Fn(u64, &TaskEngine, Option<u64>, Option<u64>) -> u64,
) -> Observed {
    let mut issued: Vec<(u64, u64)> = Vec::new();
    let mut pending: Vec<(u64, AccessToken)> = Vec::new();
    let mut sub_i = 0;
    let mut out = Vec::new();
    let mut floor = 0u64;
    let mut obs = Observer::default();
    for _guard in 0..200_000 {
        let next_sub = subs.get(sub_i).map(|&(c, ..)| c);
        let next_ret = pending.iter().map(|&(d, _)| d).min();
        if next_sub.is_none() && next_ret.is_none() && engine.next_event() == Cycle::NEVER {
            break;
        }
        let at = next_tick(floor, &engine, next_sub, next_ret);
        assert!(at >= floor, "tick cycles must not regress");
        let now = Cycle::new(at);
        while subs.get(sub_i).is_some_and(|&(c, ..)| c <= at) {
            let (_, ref trace, via_app) = subs[sub_i];
            if via_app {
                engine.submit_for_app(trace.clone(), &mut obs);
            } else {
                engine.submit(trace.clone(), &mut obs);
            }
            sub_i += 1;
        }
        let mut due: Vec<(u64, AccessToken)> = Vec::new();
        pending.retain(|&(d, t)| {
            if d <= at {
                due.push((d, t));
                false
            } else {
                true
            }
        });
        due.sort_unstable_by_key(|&(d, t)| (d, t.encode()));
        for (_, token) in due {
            engine.on_data(token, now, &mut obs);
        }
        out.clear();
        engine.tick_into(now, &mut out, &mut obs);
        for a in &out {
            issued.push((at, a.token.encode()));
            pending.push((at + mem_latency(a.token), a.token));
        }
        floor = at + 1;
    }
    assert!(
        engine.all_done(),
        "engine failed to drain under this tick schedule"
    );
    Observed {
        issued,
        completed: engine.completed(),
        busy_pe_cycles: engine.busy_pe_cycles(),
        counters: engine
            .stats()
            .iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    }
}

/// Tick on every cycle (the exhaustive reference).
fn eager(floor: u64, _e: &TaskEngine, _s: Option<u64>, _r: Option<u64>) -> u64 {
    floor
}

/// Tick only at event horizons: the engine's own `next_event`, the next
/// submission, the next data return — whichever is earliest.
fn lazy(floor: u64, e: &TaskEngine, s: Option<u64>, r: Option<u64>) -> u64 {
    let mut at = u64::MAX;
    if let Some(c) = s {
        at = at.min(c.max(floor));
    }
    if let Some(c) = r {
        at = at.min(c.max(floor));
    }
    match e.next_event() {
        c if c == Cycle::NEVER => {}
        c => at = at.min(c.as_u64().max(floor)),
    }
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Event-driven ticking is bit-identical to every-cycle ticking.
    #[test]
    fn event_driven_tick_matches_every_cycle(
        ops in prop::collection::vec(0u64..u64::MAX, 1..60),
        n_pes in 1usize..9,
    ) {
        let subs = schedule(&ops);
        let fine = run(TaskEngine::new(n_pes, 16), &subs, eager);
        let skip = run(TaskEngine::new(n_pes, 16), &subs, lazy);
        prop_assert_eq!(&fine.issued, &skip.issued, "issue streams diverged");
        prop_assert_eq!(fine.completed, skip.completed);
        prop_assert_eq!(fine.busy_pe_cycles, skip.busy_pe_cycles);
        prop_assert_eq!(&fine.counters, &skip.counters, "stat counters diverged");
    }

    /// Coarse ticks drain several buckets per call; work is conserved.
    #[test]
    fn coarse_tick_conserves_work(
        ops in prop::collection::vec(0u64..u64::MAX, 1..60),
        stride in 2u64..40,
    ) {
        let subs = schedule(&ops);
        let fine = run(TaskEngine::new(4, 16), &subs, eager);
        let coarse = run(
            TaskEngine::new(4, 16),
            &subs,
            move |floor, _e, _s, _r| floor.next_multiple_of(stride),
        );
        let key = |v: &[(u64, u64)]| {
            let mut toks: Vec<u64> = v.iter().map(|&(_, t)| t).collect();
            toks.sort_unstable();
            toks
        };
        prop_assert_eq!(key(&fine.issued), key(&coarse.issued), "issued token multisets diverged");
        prop_assert_eq!(fine.completed, coarse.completed);
        prop_assert_eq!(
            fine.counters.iter().find(|(k, _)| k == "engine.accesses_issued"),
            coarse.counters.iter().find(|(k, _)| k == "engine.accesses_issued"),
            "flushed access counter diverged"
        );
    }
}
