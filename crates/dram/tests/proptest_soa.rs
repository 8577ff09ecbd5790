//! Property tests for the batched SoA bank tick.
//!
//! Two equivalences, each over random request streams:
//!
//! * **Gated vs ungated tick.** The tick gate in [`Dimm::tick`] may
//!   skip a tick only when the memoized horizon proves it a no-op, so
//!   a DIMM driven through [`Dimm::tick`] must retire the same requests
//!   at the same cycles, issue the same command mix (stats counters)
//!   and report the same horizon after every cycle as one whose every
//!   tick runs the full [`Dimm::tick_banks`] sweep.
//!
//! * **SoA columns vs per-bank oracle.** Built with the `soa-oracle`
//!   feature (CI runs this suite that way, in the dev profile so
//!   `debug_assert!` is live), every `BankSoa` mutation these streams
//!   trigger is also applied to a retained `Vec<BankTimer>` shadow and
//!   cross-checked field by field inside the dram crate — a divergence
//!   between the batched column sweep and the scalar per-bank state
//!   machine aborts the test. The streams here are the driver; the
//!   assertions live next to the state they guard.

use beacon_dram::address::DramCoord;
use beacon_dram::module::{AccessMode, Dimm, DimmConfig};
use beacon_dram::request::MemRequest;
use beacon_sim::component::Tick;
use beacon_sim::cycle::Cycle;
use beacon_sim::observer::Observer;
use proptest::prelude::*;

/// Everything observable about one replay: `(tag, finished_at)` per
/// retirement in drain order, the post-tick horizon per cycle, and the
/// final command-mix counters.
struct Observed {
    retired: Vec<(u64, u64)>,
    horizons: Vec<Cycle>,
    counters: Vec<(String, u64)>,
}

/// Replays `ops` (one raw 64-bit sample per cycle, same derivation as
/// `proptest_module.rs`) against a fresh DIMM, then drains the queue
/// with trailing ticks so every enqueued request retires. `gated`
/// ticks through [`Dimm::tick`]; otherwise every cycle runs the full
/// sweep, which is `Dimm::tick` without its gate.
fn replay(cfg: DimmConfig, ops: &[u64], gated: bool) -> Observed {
    let mut d = Dimm::new(cfg);
    let tick = |d: &mut Dimm, now: Cycle| {
        if gated {
            d.tick(now);
        } else {
            d.tick_banks(now, &mut Observer::default());
            d.sync_time(now.next());
        }
    };
    let groups = d.groups_per_rank() as u64;
    let banks = d.config().geometry.banks as u64;
    let ranks = d.config().geometry.ranks as u64;
    let mut o = Observed {
        retired: Vec::new(),
        horizons: Vec::new(),
        counters: Vec::new(),
    };
    let drain = |d: &mut Dimm, o: &mut Observed| {
        for c in d.drain_completed() {
            o.retired.push((c.request.tag, c.finished_at.as_u64()));
        }
    };
    let mut now = Cycle::ZERO;
    for (step, &r) in ops.iter().enumerate() {
        now = Cycle::new(step as u64);
        if r % 3 != 0 {
            let coord = DramCoord {
                rank: ((r >> 48) % ranks) as u32,
                group: ((r >> 32) % groups) as u32,
                bank: ((r >> 16) % banks) as u32,
                row: r % 4,
                col: ((r >> 8) % 4) as u32,
            };
            let bytes = [4u32, 32, 64, 256][(r % 4) as usize];
            let req = if r % 5 == 0 {
                MemRequest::write(coord, bytes)
            } else {
                MemRequest::read(coord, bytes)
            };
            d.sync_time(now);
            let _ = d.enqueue(req);
        }
        tick(&mut d, now);
        o.horizons.push(Dimm::next_event(&d));
        if r % 7 == 0 {
            drain(&mut d, &mut o);
        }
    }
    // Trailing drain: run the clock until everything retires so the two
    // replays are compared over complete, identical request lifetimes.
    while d.queue_len() > 0 {
        now = now.next();
        tick(&mut d, now);
        o.horizons.push(Dimm::next_event(&d));
        drain(&mut d, &mut o);
    }
    drain(&mut d, &mut o);
    o.counters = d.stats().iter().map(|(k, v)| (k.to_owned(), v)).collect();
    o
}

/// Replays the same stream with the tick gate on and off and requires
/// bit-identical observations.
fn check_gate_equivalence(cfg: DimmConfig, ops: &[u64]) {
    let gated = replay(cfg, ops, true);
    let ungated = replay(cfg, ops, false);
    prop_assert_eq!(
        &gated.retired,
        &ungated.retired,
        "gated and ungated ticks retired different sequences"
    );
    prop_assert_eq!(
        &gated.horizons,
        &ungated.horizons,
        "gated and ungated ticks reported different horizons"
    );
    prop_assert_eq!(
        &gated.counters,
        &ungated.counters,
        "gated and ungated ticks issued different command mixes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn gated_tick_matches_full_sweep_perchip(
        ops in prop::collection::vec(0u64..u64::MAX, 50..400)
    ) {
        check_gate_equivalence(DimmConfig::paper_ndp(AccessMode::PerChip), &ops);
    }

    #[test]
    fn gated_tick_matches_full_sweep_lockstep_refresh(
        ops in prop::collection::vec(0u64..u64::MAX, 50..400)
    ) {
        let mut cfg = DimmConfig::paper(AccessMode::RankLockstep);
        cfg.refresh_enabled = true;
        check_gate_equivalence(cfg, &ops);
    }

    /// Pure oracle driver: with `soa-oracle` the in-crate shadow
    /// cross-checks every bank transition this stream causes; without
    /// it the replay still validates the memoized horizon against the
    /// from-scratch recompute at every cycle.
    #[test]
    fn soa_columns_match_bank_timer_oracle(
        ops in prop::collection::vec(0u64..u64::MAX, 50..400)
    ) {
        let mut d = Dimm::new(DimmConfig::paper_ndp(AccessMode::PerChip));
        let groups = d.groups_per_rank() as u64;
        let banks = d.config().geometry.banks as u64;
        let ranks = d.config().geometry.ranks as u64;
        for (step, &r) in ops.iter().enumerate() {
            let now = Cycle::new(step as u64);
            if r % 2 != 0 {
                let coord = DramCoord {
                    rank: ((r >> 48) % ranks) as u32,
                    group: ((r >> 32) % groups) as u32,
                    bank: ((r >> 16) % banks) as u32,
                    row: r % 4,
                    col: ((r >> 8) % 4) as u32,
                };
                d.sync_time(now);
                let _ = d.enqueue(MemRequest::read(coord, 64));
            }
            d.tick(now);
            prop_assert_eq!(
                Dimm::next_event(&d),
                d.reference_next_event(),
                "memoized horizon diverged from recompute at cycle {}",
                step
            );
            if r % 11 == 0 {
                let _ = d.drain_completed();
            }
        }
    }
}
