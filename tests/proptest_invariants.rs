//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use beacon_accel::translate::{Placement, RegionMap};
use beacon_core::allocator::{AllocError, PoolAllocator, RowGrant};
use beacon_core::parallel::{canonical_merge, HubEntry};
use beacon_cxl::bundle::Bundle;
use beacon_cxl::message::{Message, NodeId};
use beacon_cxl::packer::{unpack, DataPacker};
use beacon_dram::address::{DramCoord, Interleave};
use beacon_dram::bank::BankTimer;
use beacon_dram::command::CmdKind;
use beacon_dram::params::{DimmGeometry, TimingParams};
use beacon_genomics::alphabet::Base;
use beacon_genomics::kmer::CountingBloom;
use beacon_genomics::prelude::FmIndex;
use beacon_genomics::sequence::PackedSeq;
use beacon_genomics::trace::{Access, AccessKind, Region};
use beacon_sim::cycle::Cycle;
use beacon_sim::observer::Observer;

fn arb_bases(max_len: usize) -> impl Strategy<Value = Vec<Base>> {
    prop::collection::vec(0u8..4, 1..max_len)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

/// Hub entries as the epoch barrier would collect them, decoded from
/// packed codes (`arrival = c % 50`, `src = c / 50 % 4`,
/// `dst = c / 200 % 4`): FIFO-consistent per source (sequence numbers
/// increase with arrival), destinations spread over four switches,
/// every message tagged uniquely.
fn build_hub_entries(codes: &[u64]) -> Vec<HubEntry> {
    let mut raw: Vec<(u64, u32, u32)> = codes
        .iter()
        .map(|&c| (c % 50, (c / 50 % 4) as u32, (c / 200 % 4) as u32))
        .collect();
    raw.sort_by_key(|&(at, src, _)| (src, at));
    let mut seq = [0u64; 4];
    raw.into_iter()
        .enumerate()
        .map(|(tag, (at, src, dst))| {
            let s = seq[src as usize];
            seq[src as usize] += 1;
            let msg = Message::read_req(NodeId::dimm(src, 0), NodeId::dimm(dst, 0), 64, tag as u64);
            (Cycle::new(at), src, s, Bundle::single(msg))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- sequences ----------------------------------------------------

    #[test]
    fn packed_seq_round_trips(bases in arb_bases(512)) {
        let seq: PackedSeq = bases.iter().copied().collect();
        prop_assert_eq!(seq.len(), bases.len());
        for (i, &b) in bases.iter().enumerate() {
            prop_assert_eq!(seq.get(i), b);
        }
    }

    #[test]
    fn reverse_complement_is_involution(bases in arb_bases(256)) {
        let seq: PackedSeq = bases.iter().copied().collect();
        prop_assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }

    // ---- FM-index -----------------------------------------------------

    #[test]
    fn backward_search_counts_match_naive(
        text in arb_bases(300),
        pattern in arb_bases(8),
    ) {
        let seq: PackedSeq = text.iter().copied().collect();
        let index = FmIndex::build(&seq);
        let naive = if pattern.len() > text.len() {
            0
        } else {
            (0..=text.len() - pattern.len())
                .filter(|&i| (0..pattern.len()).all(|j| text[i + j] == pattern[j]))
                .count() as u32
        };
        prop_assert_eq!(index.backward_search(&pattern).count(), naive);
    }

    #[test]
    fn locate_positions_are_true_matches(text in arb_bases(300), start in 0usize..250) {
        prop_assume!(text.len() >= 16);
        let start = start % (text.len() - 8);
        let pattern: Vec<Base> = text[start..start + 8].to_vec();
        let seq: PackedSeq = text.iter().copied().collect();
        let index = FmIndex::build(&seq);
        let range = index.backward_search(&pattern);
        for pos in index.locate(range, 512) {
            let pos = pos as usize;
            prop_assert!(pos + 8 <= text.len());
            prop_assert_eq!(&text[pos..pos + 8], &pattern[..]);
        }
    }

    #[test]
    fn sais_equals_prefix_doubling(text in arb_bases(400)) {
        let seq: PackedSeq = text.iter().copied().collect();
        prop_assert_eq!(
            beacon_genomics::fm::suffix_array_sais(&seq),
            beacon_genomics::fm::suffix_array(&seq)
        );
    }

    // ---- address mapping ----------------------------------------------

    #[test]
    fn interleave_decodes_are_injective(
        scheme_idx in 0usize..4,
        blocks in prop::collection::hash_set(0u64..100_000, 1..200),
    ) {
        let g = DimmGeometry::sim_scaled();
        let (scheme, granule) = match scheme_idx {
            0 => (Interleave::RankLevel { line_bytes: 64 }, 64),
            1 => (Interleave::ChipLevel { block_bytes: 32, groups: 16 }, 32),
            2 => (Interleave::ChipLevel { block_bytes: 32, groups: 4 }, 32),
            _ => (Interleave::RowMajor { groups: 1 }, 1024),
        };
        let mut seen = std::collections::HashSet::new();
        for &b in &blocks {
            let c = scheme.decode(&g, b * granule);
            prop_assert!(
                seen.insert((c.rank, c.group, c.bank, c.row, c.col)),
                "collision at block {b}"
            );
        }
    }

    #[test]
    fn translation_preserves_bytes_and_stays_sparse_safe(
        offset in 0u64..1_000_000,
        bytes in 1u32..512,
    ) {
        let g = DimmGeometry::sim_scaled();
        let mut map = RegionMap::new(g);
        map.place(
            Region::FmIndex,
            Placement::striped(
                vec![NodeId::dimm(0, 0), NodeId::dimm(0, 1)],
                512,
                0,
                Interleave::ChipLevel { block_bytes: 32, groups: 16 },
            )
            .with_row_offset(3)
            .with_sparse_rows(64),
        );
        let access = Access { region: Region::FmIndex, offset, bytes, kind: AccessKind::Read };
        let segs = map.translate(&access);
        let total: u64 = segs.iter().map(|s| s.bytes as u64).sum();
        prop_assert_eq!(total, bytes as u64);
        for s in &segs {
            prop_assert!(s.coord.row < g.rows);
            prop_assert!(s.coord.col < g.cols_per_row());
            prop_assert!(s.coord.group < 16);
        }
    }

    #[test]
    fn coord_pack_unpack_round_trips(
        rank in 0u32..4, group in 0u32..16, bank in 0u32..16,
        row in 0u64..(1 << 17), col in 0u32..128,
    ) {
        let c = DramCoord { rank, group, bank, row, col };
        prop_assert_eq!(DramCoord::unpack(c.pack()), c);
    }

    // ---- bank FSM -----------------------------------------------------

    #[test]
    fn bank_fsm_never_allows_illegal_sequences(cmds in prop::collection::vec(0u8..3, 1..64)) {
        // Drive the bank with an arbitrary command mix, only issuing when
        // the FSM says legal; the FSM must stay consistent (no panics,
        // open_row only set between ACT and PRE).
        let t = TimingParams::ddr4_1600_22();
        let mut bank = BankTimer::new();
        let mut now = Cycle::ZERO;
        for c in cmds {
            let cmd = match c {
                0 => CmdKind::Activate,
                1 => CmdKind::Read,
                _ => CmdKind::Precharge,
            };
            // advance until legal or give up after a bounded wait
            for _ in 0..200 {
                if bank.can_issue(cmd, now) {
                    bank.apply(cmd, 7, now, &t);
                    match cmd {
                        CmdKind::Activate => prop_assert_eq!(bank.open_row(), Some(7)),
                        CmdKind::Precharge => prop_assert_eq!(bank.open_row(), None),
                        _ => {}
                    }
                    break;
                }
                now = now.next();
            }
            now = now.next();
        }
    }

    // ---- data packer ----------------------------------------------------

    #[test]
    fn packer_preserves_every_message(payloads in prop::collection::vec(1u32..48, 1..64)) {
        let mut packer = DataPacker::new(4);
        let mut sent = Vec::new();
        for (i, &p) in payloads.iter().enumerate() {
            let req = Message::read_req(NodeId::dimm(0, (i % 3) as u32), NodeId::dimm(1, 0), p, i as u64);
            let resp = Message::read_resp(&req);
            sent.push(resp);
            packer.push(resp, Cycle::new(i as u64), &mut Observer::default());
        }
        packer.flush_all(Cycle::new(payloads.len() as u64));
        let mut received = Vec::new();
        while let Some(bundle) = packer.pop_ready() {
            // All messages of a bundle share a destination.
            let dst = bundle.messages[0].dst;
            prop_assert!(bundle.messages.iter().all(|m| m.dst == dst));
            received.extend(unpack(bundle));
        }
        received.sort_by_key(|m| m.tag);
        sent.sort_by_key(|m| m.tag);
        prop_assert_eq!(received, sent);
    }

    #[test]
    fn bundle_wire_bytes_cover_useful_bytes(
        payloads in prop::collection::vec(1u32..100, 1..16),
        granule in prop::sample::select(vec![1u32, 8, 16, 64]),
    ) {
        let msgs: Vec<Message> = payloads
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let req = Message::read_req(NodeId::Host, NodeId::dimm(0, 0), p, i as u64);
                Message::read_resp(&req)
            })
            .collect();
        let bundle = Bundle::packed(msgs);
        prop_assert!(bundle.wire_bytes_at(granule) >= bundle.useful_bytes());
        prop_assert_eq!(bundle.wire_bytes_at(granule) % granule, 0);
    }

    // ---- parallel hub merge ---------------------------------------------

    #[test]
    fn hub_merge_is_interleaving_independent(
        codes in prop::collection::vec(0u64..800, 1..48),
        shuffle_seed in 0u64..1_000_000,
    ) {
        // However the worker threads' outboxes interleave at the epoch
        // barrier, the canonical merge must recover one total order —
        // so every destination switch sees an identical delivery
        // sequence (and therefore identical per-switch stats).
        let mut a = build_hub_entries(&codes);
        let mut b = a.clone();
        // Seeded Fisher–Yates: an arbitrary thread-completion order.
        let mut rng = beacon_sim::rng::SimRng::from_seed(shuffle_seed);
        for i in (1..b.len()).rev() {
            b.swap(i, rng.index(i + 1));
        }
        canonical_merge(&mut a);
        canonical_merge(&mut b);
        prop_assert_eq!(&a, &b);

        // The sort key is a strict total order: no ties survive.
        for w in a.windows(2) {
            let ka = (w[0].0, w[0].1, w[0].2);
            let kb = (w[1].0, w[1].1, w[1].2);
            prop_assert!(ka < kb, "tie or inversion between {ka:?} and {kb:?}");
        }

        // Per-destination delivery sequences are a function of the
        // multiset alone.
        for dst in 0u32..4 {
            let of = |v: &[HubEntry]| -> Vec<u64> {
                v.iter()
                    .filter(|e| e.3.messages[0].dst == NodeId::dimm(dst, 0))
                    .map(|e| e.3.messages[0].tag)
                    .collect()
            };
            prop_assert_eq!(of(&a), of(&b));
        }
    }

    // ---- event horizons -------------------------------------------------

    #[test]
    fn dimm_server_horizon_never_undershoots(
        // Packed op codes: group = c % 8, bank = c / 8 % 8,
        // row = c / 64 % 32, op kind = c / 2048 % 3.
        ops in prop::collection::vec(0u64..100_000, 1..24),
        refresh in 0u8..2,
    ) {
        // The conservative-horizon contract: after `tick(now)`, no
        // observable state may change strictly before `next_event()`.
        // Drive a DimmServer per-cycle (exactly the no-skip loop) and
        // assert every span the horizon declares dead really is.
        use beacon_accel::server::{DimmServer, ServiceOp};
        use beacon_dram::module::{AccessMode, DimmConfig};
        use beacon_sim::component::Tick;

        let mut cfg = DimmConfig::paper(AccessMode::PerChip);
        cfg.refresh_enabled = refresh == 1;
        let mut s = DimmServer::new(cfg);
        for (i, &c) in ops.iter().enumerate() {
            let coord = DramCoord {
                rank: 0,
                group: (c % 8) as u32,
                bank: (c / 8 % 8) as u32,
                row: c / 64 % 32,
                col: 0,
            };
            let op = match c / 2048 % 3 {
                0 => ServiceOp::Read,
                1 => ServiceOp::Write,
                _ => ServiceOp::Rmw,
            };
            s.request(i as u64, coord, 4, op);
        }
        let fingerprint = |s: &DimmServer| {
            format!(
                "{:?}|{}|{}|{:?}",
                s.dimm().stats(),
                s.dimm().queue_len(),
                s.backlog_len(),
                s.stats(),
            )
        };
        let mut completions = 0usize;
        let mut now = Cycle::ZERO;
        while !s.is_idle() {
            prop_assert!(now.as_u64() < 2_000_000, "run did not drain");
            s.tick(now);
            completions += s.drain_done().len();
            let horizon = match Tick::next_event(&s, now) {
                Some(h) => h,
                None => break, // nothing scheduled and is_idle soon
            };
            let fp = fingerprint(&s);
            let mut c = now.next();
            while c < horizon {
                s.tick(c);
                prop_assert_eq!(
                    &fingerprint(&s), &fp,
                    "state changed at {:?}, before the declared horizon {:?}",
                    c, horizon
                );
                c = c.next();
            }
            now = c;
        }
        prop_assert_eq!(completions, ops.len());
    }

    // ---- pool allocator (RAS failure paths) -----------------------------

    #[test]
    fn allocator_respects_exclusions_and_conserves_rows(
        // Packed op codes interpreted as an allocate / deallocate /
        // exclude script over a 6-DIMM pool (2 switches × 3 slots).
        ops in prop::collection::vec(0u64..1_000_000, 1..60),
    ) {
        let g = DimmGeometry::sim_scaled();
        let pool_nodes: Vec<NodeId> = (0..2u32)
            .flat_map(|s| (0..3u32).map(move |d| NodeId::dimm(s, d)))
            .collect();
        let mut pool = PoolAllocator::new(g, &pool_nodes);
        let total_rows = g.rows;
        let mut grants: Vec<RowGrant> = Vec::new();
        let mut excluded: Vec<NodeId> = Vec::new();
        for &c in &ops {
            match c % 4 {
                0 | 1 => {
                    // Allocate on a contiguous window of the pool.
                    let start = (c / 4 % 6) as usize;
                    let len = 1 + (c / 24 % 3) as usize;
                    let homes: Vec<NodeId> = pool_nodes
                        .iter()
                        .cycle()
                        .skip(start)
                        .take(len)
                        .copied()
                        .collect();
                    let bytes = (1 + c / 72 % 8) * pool.row_sweep_bytes();
                    match pool.allocate(&homes, bytes, 1) {
                        Ok(grant) => {
                            // A grant must never land on a failed DIMM.
                            for h in &grant.homes {
                                prop_assert!(
                                    !pool.is_excluded(*h),
                                    "grant landed on excluded {h:?}"
                                );
                            }
                            grants.push(grant);
                        }
                        Err(AllocError::NodeExcluded(n)) => {
                            prop_assert!(excluded.contains(&n));
                        }
                        Err(AllocError::OutOfRows { .. }) => {}
                        Err(AllocError::UnknownNode(n)) => {
                            prop_assert!(false, "pool nodes are all known, got {n:?}");
                        }
                    }
                }
                2 => {
                    // Return a random outstanding grant.
                    if !grants.is_empty() {
                        let grant = grants.swap_remove((c / 4) as usize % grants.len());
                        pool.deallocate(&grant).unwrap();
                    }
                }
                _ => {
                    // Fail a DIMM (at most two, to keep the pool usable).
                    if excluded.len() < 2 {
                        let n = pool_nodes[(c / 4) as usize % pool_nodes.len()];
                        let free_before = pool.free_bytes(n).unwrap();
                        match pool.exclude(n) {
                            Some((free, used)) => {
                                // Lost-capacity accounting is exact.
                                prop_assert_eq!(free, free_before);
                                prop_assert_eq!(
                                    free + used,
                                    total_rows * pool.row_sweep_bytes()
                                );
                                excluded.push(n);
                            }
                            // Double-exclusion is an idempotent no-op.
                            None => prop_assert!(excluded.contains(&n)),
                        }
                    }
                }
            }
        }
        // Row conservation: per node, free + outstanding == capacity.
        for &n in &pool_nodes {
            let granted: u64 = grants
                .iter()
                .filter(|grant| grant.homes.contains(&n))
                .map(|grant| grant.rows)
                .sum();
            prop_assert_eq!(pool.free_rows(n).unwrap() + granted, total_rows);
        }
        // Dealloc/realloc round-trip: draining every grant coalesces
        // each node back to one fully-free range, proven by a
        // full-capacity allocation succeeding on a surviving node.
        for grant in grants.drain(..) {
            pool.deallocate(&grant).unwrap();
        }
        for &n in &pool_nodes {
            prop_assert_eq!(pool.free_rows(n).unwrap(), total_rows);
        }
        if let Some(&n) = pool_nodes.iter().find(|n| !pool.is_excluded(**n)) {
            let grant = pool
                .allocate(&[n], total_rows * pool.row_sweep_bytes(), 1)
                .expect("drained node must coalesce to one full range");
            prop_assert_eq!(grant.rows, total_rows);
            pool.deallocate(&grant).unwrap();
        }
    }

    #[test]
    fn allocate_after_exclude_always_fails_on_the_dead_node(
        dead_idx in 0usize..4,
        rows in 1u64..16,
    ) {
        let g = DimmGeometry::sim_scaled();
        let pool_nodes: Vec<NodeId> = (0..4u32).map(|d| NodeId::dimm(0, d)).collect();
        let mut pool = PoolAllocator::new(g, &pool_nodes);
        let dead = pool_nodes[dead_idx];
        pool.exclude(dead).unwrap();
        let bytes = rows * pool.row_sweep_bytes();
        // Any home set containing the dead DIMM is rejected by name…
        prop_assert_eq!(
            pool.allocate(&pool_nodes, bytes, 1).unwrap_err(),
            AllocError::NodeExcluded(dead)
        );
        prop_assert_eq!(
            pool.allocate(&[dead], bytes, 1).unwrap_err(),
            AllocError::NodeExcluded(dead)
        );
        // …while the survivors still serve allocations.
        let survivors: Vec<NodeId> =
            pool_nodes.iter().copied().filter(|&n| n != dead).collect();
        let grant = pool.allocate(&survivors, bytes, 1).unwrap();
        prop_assert!(!grant.homes.contains(&dead));
        pool.deallocate(&grant).unwrap();
    }

    // ---- counting Bloom filter ------------------------------------------

    #[test]
    fn bloom_estimate_upper_bounds_truth(keys in prop::collection::vec(0u64..512, 1..200)) {
        let mut cbf = CountingBloom::new(1 << 12, 3, 9);
        let mut truth = std::collections::HashMap::new();
        for &k in &keys {
            cbf.insert(k);
            *truth.entry(k).or_insert(0u32) += 1;
        }
        for (&k, &count) in &truth {
            prop_assert!(u32::from(cbf.estimate(k)) >= count.min(255));
        }
    }

    #[test]
    fn bloom_merge_commutes(a in prop::collection::vec(0u64..256, 0..64),
                            b in prop::collection::vec(0u64..256, 0..64)) {
        let mut x = CountingBloom::new(1 << 10, 3, 5);
        let mut y = CountingBloom::new(1 << 10, 3, 5);
        for &k in &a { x.insert(k); }
        for &k in &b { y.insert(k); }
        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        for k in 0..256u64 {
            prop_assert_eq!(xy.estimate(k), yx.estimate(k));
        }
    }
}
