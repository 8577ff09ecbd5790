//! Property tests for the indexed scheduler and the cached horizon.
//!
//! The `Dimm` keeps two `#[doc(hidden)]` oracles precisely for this
//! suite: `reference_choice` (the pre-index linear two-pass FR-FCFS
//! scan) and `reference_next_event` (the from-scratch whole-queue
//! horizon). On random operation sequences, at every step:
//!
//! * the per-bank ready-list scheduler must pick **exactly** the request
//!   the linear scan would pick (same id, same command kind), and
//! * the memoized `next_event` must equal the from-scratch recompute —
//!   i.e. no mutating operation ever forgets to invalidate the cache.

use beacon_dram::address::DramCoord;
use beacon_dram::module::{AccessMode, Dimm, DimmConfig};
use beacon_dram::request::MemRequest;
use beacon_sim::component::Tick;
use beacon_sim::cycle::Cycle;
use proptest::prelude::*;

/// Replays `ops` (one raw 64-bit sample per cycle) against one DIMM,
/// checking both oracles at every step. Few distinct rows and banks so
/// open-row hits, conflicts and chained candidates all occur.
fn check(cfg: DimmConfig, ops: &[u64]) {
    let mut d = Dimm::new(cfg);
    let groups = d.groups_per_rank() as u64;
    let banks = d.config().geometry.banks as u64;
    let ranks = d.config().geometry.ranks as u64;
    for (step, &r) in ops.iter().enumerate() {
        let now = Cycle::new(step as u64);
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
        prop_assert_eq!(
            d.indexed_choice(now),
            d.reference_choice(now),
            "scheduling divergence at cycle {}",
            step
        );
        d.tick(now);
        prop_assert_eq!(
            Dimm::next_event(&d),
            d.reference_next_event(),
            "horizon divergence after cycle {}",
            step
        );
        if r % 7 == 0 {
            let _ = d.drain_completed();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frfcfs_lockstep_matches_reference(ops in prop::collection::vec(0u64..u64::MAX, 50..400)) {
        let mut cfg = DimmConfig::paper(AccessMode::RankLockstep);
        cfg.refresh_enabled = true;
        check(cfg, &ops);
    }

    #[test]
    fn frfcfs_perchip_ndp_matches_reference(ops in prop::collection::vec(0u64..u64::MAX, 50..400)) {
        check(DimmConfig::paper_ndp(AccessMode::PerChip), &ops);
    }

    #[test]
    fn frfcfs_coalesced_matches_reference(ops in prop::collection::vec(0u64..u64::MAX, 50..400)) {
        check(DimmConfig::paper(AccessMode::Coalesced { chips: 8 }), &ops);
    }
}
