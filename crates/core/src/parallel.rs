//! Deterministic parallel execution of a [`BeaconSystem`].
//!
//! The pool is sharded per switch: one [`PoolShard`] owns a
//! `SwitchNode` (fabric + in-switch logic + the DIMMs behind it) and
//! advances it independently on a worker thread. Everything a shard
//! exchanges with the rest of the pool crosses the host root complex,
//! whose forwarding latency (`cfg.host_latency`) is therefore the
//! model's *lookahead*: traffic leaving a shard during the epoch
//! `[t0, t0 + E)` cannot influence any shard before `t0 + E` as long as
//! `E <= host_latency`. Epochs are `host_latency` long unless the run's
//! watch ends one earlier, and every exchange delivers all traffic due
//! within `host_latency`, so every barrier fully drains the hub.
//!
//! At each barrier the [`HostHub`] collects the shards' uplink egress
//! and merges it with [`canonical_merge`] into the order the sequential
//! `pump_host` would have observed — by arrival cycle, then source
//! switch index, then per-source FIFO sequence — making the run
//! **bit-identical** to [`BeaconSystem::run`] for any thread count and
//! any OS schedule. The conformance suite in `tests/differential.rs`
//! holds that contract down to the digest of every counter and the
//! canonicalised trace stream; `tests/observability.rs` holds the
//! metrics series, which the watch samples through the hub's view of
//! the pool, to the sequential one byte for byte.

use std::collections::VecDeque;

use beacon_accel::translate::RegionMap;
use beacon_cxl::bundle::Bundle;
use beacon_sim::component::Probe;
use beacon_sim::cycle::{Cycle, Duration};
use beacon_sim::engine::{RunOptions, RunOutcome};
use beacon_sim::horizon::Backoff;
use beacon_sim::journey::Phase;
use beacon_sim::observer::{Observer, Watch};
use beacon_sim::parallel::{EpochHub, EpochShard, ParallelEngine};

use crate::config::BeaconConfig;
use crate::node::{PoolProbe, SwitchNode, SysCtx};
use crate::system::BeaconSystem;

/// One host-bound bundle drained from a shard's uplink: `(arrival cycle
/// at the uplink endpoint, source switch index, per-source drain
/// sequence, payload)`.
pub type HubEntry = (Cycle, u32, u64, Bundle);

/// Sorts hub entries into the canonical host-forwarding order:
/// arrival cycle, then source switch index, then per-source FIFO
/// sequence. This is a total order (source + sequence are unique), and
/// it equals the order the sequential `pump_host` stages traffic in —
/// per cycle it drains switch 0's uplink to exhaustion, then switch
/// 1's, and each uplink pops in FIFO order. Exposed so the conformance
/// suite can shuffle entries and assert the merge is permutation
/// independent.
pub fn canonical_merge(entries: &mut [HubEntry]) {
    entries.sort_unstable_by_key(|e| (e.0, e.1, e.2));
}

/// One switch subtree plus its epoch-exchange buffers.
pub(crate) struct PoolShard<'a> {
    cfg: &'a BeaconConfig,
    maps: &'a [RegionMap],
    remap: Option<&'a crate::mmf::RemapPlan>,
    rmw_alu_cycles: u64,
    pub(crate) node: SwitchNode,
    /// Next cycle this shard will simulate.
    pos: Cycle,
    /// Host-forwarded deliveries scheduled into this shard, ready-ordered:
    /// `(ready cycle, bundle)`.
    pub(crate) inbox: VecDeque<(Cycle, Bundle)>,
    /// Uplink egress drained this epoch, awaiting hub collection.
    outbox: Vec<HubEntry>,
    /// Monotone per-shard drain counter (the FIFO tiebreaker).
    seq: u64,
    index: u32,
    /// Event-horizon fast-forwarding, from the run's [`RunOptions`].
    skip: bool,
    /// Backs horizon probes off in dense phases (see [`Backoff`]);
    /// deferred probes only tick provably-dead cycles, so shard state
    /// stays bit-identical.
    throttle: Backoff,
    /// Cycles actually ticked (diverges from `pos` under skipping).
    ticked: u64,
}

impl<'a> PoolShard<'a> {
    /// The context is built from the shard's own borrows (`'a`, not
    /// `'_`), so callers can keep mutating `node` while holding it.
    fn ctx(&self) -> SysCtx<'a> {
        SysCtx {
            cfg: self.cfg,
            maps: self.maps,
            rmw_alu_cycles: self.rmw_alu_cycles,
            remap: self.remap,
        }
    }
}

impl EpochShard for PoolShard<'_> {
    fn advance(&mut self, to: Cycle, obs: &mut Observer) {
        while self.pos < to {
            if self.inbox.is_empty() && self.node.subtree_idle() {
                return; // pause — resumable if the hub delivers more
            }
            let now = self.pos;
            // 1. Drain our own uplink egress, exactly what the
            //    sequential pump_host would pop at `now` (the egress is
            //    drained every cycle, so arrivals surface the cycle
            //    they complete).
            while let Some((arrival, bundle)) = self.node.uplink_recv_before(now.next(), obs) {
                self.outbox.push((arrival, self.index, self.seq, bundle));
                self.seq += 1;
            }
            // 2. Inject host deliveries due by `now`. On ingress
            //    back-pressure the head blocks the rest of the queue —
            //    the sequential scan behaves identically, because a
            //    full uplink ingress stays full for the remainder of
            //    that cycle's host_stage sweep.
            while let Some(&(ready, _)) = self.inbox.front() {
                if ready > now {
                    break;
                }
                let (ready, bundle) = self.inbox.pop_front().expect("checked front");
                match self.node.uplink_send(bundle, now, obs) {
                    Ok(()) => {}
                    Err(e) => {
                        self.inbox.push_front((ready, e.into_bundle()));
                        break;
                    }
                }
            }
            // 3. The per-switch slice of the sequential tick.
            self.node.tick_cycle(self.ctx(), now, obs);
            self.ticked += 1;
            // 4. Fast-forward over dead cycles. The subtree horizon
            //    already covers uplink-egress arrivals (they are fabric
            //    link events), and the inbox clamp keeps host
            //    injections on their exact cycle — a bundle offered to
            //    the uplink ingress at a different cycle would
            //    serialise differently. A back-pressured inbox head
            //    (ready <= now) degenerates to a per-cycle retry.
            let stepped = now.next();
            // Never jump a shard that just went quiescent: its pause
            // position is part of the finished-cycle computation and
            // must stay exactly one past its last busy tick.
            self.pos = if self.skip
                && !(self.inbox.is_empty() && self.node.subtree_idle())
                && self.throttle.probe()
            {
                let mut h = self.node.subtree_next_event();
                if let Some(&(ready, _)) = self.inbox.front() {
                    h = h.min(ready);
                }
                let next = h.max(stepped).min(to);
                self.throttle.observe(next > stepped);
                next
            } else {
                stepped
            };
        }
    }

    fn finish_to(&mut self, to: Cycle, obs: &mut Observer) {
        // Only reached when quiescent: no egress to drain, no inbox to
        // inject. Background state (DRAM refresh) still advances
        // exactly as the sequential engine's idle-subtree ticks do —
        // under skipping the shard jumps refresh-to-refresh.
        while self.pos < to {
            self.node.tick_cycle(self.ctx(), self.pos, obs);
            self.ticked += 1;
            let stepped = self.pos.next();
            self.pos = if self.skip {
                self.node.subtree_next_event().max(stepped).min(to)
            } else {
                stepped
            };
        }
    }

    fn position(&self) -> Cycle {
        self.pos
    }

    fn ticked(&self) -> u64 {
        self.ticked
    }

    fn quiescent(&self) -> bool {
        // The outbox needs no check: the hub empties every outbox
        // before the engine's drained test runs.
        self.inbox.is_empty() && self.node.subtree_idle()
    }
}

/// The host root complex as an epoch hub: collects uplink egress at
/// every barrier, merges it canonically and schedules each bundle into
/// its destination shard `host_latency` cycles after arrival.
pub(crate) struct HostHub {
    latency: Duration,
    /// Undelivered forwarded traffic in canonical order:
    /// `(ready cycle, destination switch, bundle)`. Non-empty after an
    /// exchange only when the horizon was clamped by the cycle limit.
    pending: VecDeque<(Cycle, u32, Bundle)>,
}

impl HostHub {
    pub(crate) fn new(host_latency: u64) -> Self {
        HostHub {
            latency: Duration::new(host_latency),
            pending: VecDeque::new(),
        }
    }
}

impl<'a> EpochHub<PoolShard<'a>> for HostHub {
    fn exchange(
        &mut self,
        shards: &mut [PoolShard<'a>],
        horizon: Cycle,
        obs: &mut Observer,
    ) -> bool {
        let mut collected: Vec<HubEntry> = Vec::new();
        for shard in shards.iter_mut() {
            collected.append(&mut shard.outbox);
        }
        canonical_merge(&mut collected);
        // Append keeps `pending` canonically ordered: retained entries
        // arrived in an earlier epoch, so their ready cycles precede
        // every new one.
        for (arrival, _src, _seq, mut bundle) in collected {
            if let Some(j) = &mut obs.journey {
                // Same transition the sequential `pump_host` records on
                // uplink receive, at the same canonical arrival cycle —
                // phase aggregates stay thread-count-independent.
                for m in &mut bundle.messages {
                    if let Some(stamp) = &mut m.jny {
                        j.hop(stamp, arrival, Phase::HostForward);
                    }
                }
            }
            for m in &mut bundle.messages {
                *m = m.cleared_via_host();
            }
            let dst = bundle.messages[0]
                .dst
                .switch()
                .expect("pool destinations only");
            self.pending
                .push_back((arrival + self.latency, dst, bundle));
        }
        while let Some(&(ready, _, _)) = self.pending.front() {
            if ready >= horizon {
                break;
            }
            let (ready, dst, bundle) = self.pending.pop_front().expect("checked front");
            shards[dst as usize].inbox.push_back((ready, bundle));
        }
        !self.pending.is_empty()
    }

    /// The pool as `Probe for BeaconSystem` reads it. At a barrier the
    /// sequential host stage's bundles are spread over three places —
    /// shard outboxes (drained, not yet collected), the hub (collected,
    /// not yet due) and shard inboxes (due, not yet injected) — and
    /// their sum is what it holds at that cycle.
    fn view<'v>(&'v self, shards: &'v [PoolShard<'a>]) -> impl Probe + 'v {
        let staged: usize = shards.iter().map(|s| s.inbox.len() + s.outbox.len()).sum();
        PoolProbe {
            nodes: shards.iter().map(|s| &s.node),
            host_staged: self.pending.len() + staged,
        }
    }
}

impl BeaconSystem {
    /// Runs until the workload drains on `run.threads` worker threads,
    /// **bit-identical** to the sequential engine (the
    /// [`BeaconSystem::run_with`] route for more than one thread): same
    /// `RunResult` digest, same per-component stats, same canonicalised
    /// trace stream, for any thread count. Trace events and journeys go
    /// to `obs`, through per-shard forks merged at the end of the run;
    /// `watch` samples, reports progress and checks for stalls at the
    /// same cycles, with the same values, as on the sequential engine.
    ///
    /// # Panics
    /// Panics when `host_latency` is zero (the epoch scheme's lookahead
    /// would vanish).
    pub(crate) fn run_parallel(
        &mut self,
        run: RunOptions,
        watch: &mut Watch<'_>,
        obs: &mut Observer,
    ) -> RunOutcome {
        assert!(
            self.cfg.host_latency >= 1,
            "parallel runs need host_latency >= 1 for a non-zero lookahead"
        );
        let cfg = self.cfg;
        let start = self.clock;
        let maps = std::mem::take(&mut self.maps);
        let remap = self.remap.take();
        let rmw_alu_cycles = self.rmw_alu_cycles;
        // A restored checkpoint resumes with host-staged traffic in
        // flight: seed the hub with it, applying exactly the transform
        // `pump_host` would at delivery (clear the host-bias detour
        // flag, route by destination switch). The stage is ready-cycle
        // sorted, so the hub's canonical order is preserved, and the
        // first exchange runs before any shard advances — a bundle due
        // at the capture cycle is delivered on it.
        let mut hub = HostHub::new(cfg.host_latency);
        for (ready, mut bundle) in self.host_stage.drain(..) {
            for m in &mut bundle.messages {
                *m = m.cleared_via_host();
            }
            let dst = bundle.messages[0]
                .dst
                .switch()
                .expect("pool destinations only");
            hub.pending.push_back((ready, dst, bundle));
        }
        let mut shards: Vec<PoolShard<'_>> = std::mem::take(&mut self.switches)
            .into_iter()
            .enumerate()
            .map(|(i, node)| PoolShard {
                cfg: &cfg,
                maps: &maps,
                remap: remap.as_deref(),
                rmw_alu_cycles,
                node,
                pos: start,
                inbox: VecDeque::new(),
                outbox: Vec::new(),
                seq: 0,
                index: i as u32,
                skip: run.skip,
                throttle: Backoff::new(),
                ticked: 0,
            })
            .collect();
        let engine = ParallelEngine::new(cfg.host_latency, run.threads).starting_at(start);

        let outcome = engine.run_watched(&mut shards, &mut hub, watch, obs);

        self.switches = shards.into_iter().map(|s| s.node).collect();
        self.maps = maps;
        self.remap = remap;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BeaconVariant, Optimizations};
    use crate::mmf::{build_layout, LayoutSpec};
    use beacon_accel::result::RunResult;
    use beacon_genomics::genome::{Genome, GenomeId};
    use beacon_genomics::prelude::FmIndex;
    use beacon_genomics::reads::ReadSampler;
    use beacon_genomics::trace::{AppKind, Region, TaskTrace};

    fn fm_workload(n: usize) -> (Vec<TaskTrace>, u64) {
        let g = Genome::synthetic(GenomeId::Pt, 3000, 5);
        let idx = FmIndex::build(g.sequence());
        let mut sampler = ReadSampler::new(&g, 24, 0.0, 9);
        let traces = (0..n)
            .map(|_| idx.trace_search(sampler.next_read().bases()))
            .collect();
        (traces, idx.index_bytes())
    }

    fn build(variant: BeaconVariant, traces: &[TaskTrace], bytes: u64) -> BeaconSystem {
        let app = AppKind::FmSeeding;
        let mut cfg =
            BeaconConfig::paper(variant, app).with_opts(Optimizations::full(variant, app));
        cfg.pes_per_module = 8;
        let layout = build_layout(&cfg, &[LayoutSpec::shared_random(Region::FmIndex, bytes)]);
        let mut sys = BeaconSystem::new(cfg, layout);
        sys.submit_round_robin(traces.iter().cloned());
        sys
    }

    /// Runs `sys` on the epoch engine, even at one thread.
    fn run_epochs(mut sys: BeaconSystem, threads: usize) -> RunResult {
        let run = RunOptions {
            threads,
            ..RunOptions::default()
        };
        let outcome = sys.run_parallel(run, &mut Watch::off(), &mut Observer::default());
        sys.finished_at = outcome.finished_at();
        sys.collect()
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let (traces, bytes) = fm_workload(16);
        let reference = build(BeaconVariant::D, &traces, bytes).run();
        for threads in [1, 2, 4] {
            let got = run_epochs(build(BeaconVariant::D, &traces, bytes), threads);
            assert_eq!(
                got.digest(),
                reference.digest(),
                "diverged at {threads} threads:\n{}",
                got.diff(&reference).unwrap_or_default()
            );
        }
    }

    #[test]
    fn parallel_matches_on_switch_logic_variant() {
        let (traces, bytes) = fm_workload(12);
        let reference = build(BeaconVariant::S, &traces, bytes).run();
        let got = run_epochs(build(BeaconVariant::S, &traces, bytes), 4);
        assert_eq!(
            got.digest(),
            reference.digest(),
            "{}",
            got.diff(&reference).unwrap_or_default()
        );
    }

    #[test]
    fn run_with_routes_on_thread_count() {
        let (traces, bytes) = fm_workload(8);
        let reference = build(BeaconVariant::D, &traces, bytes).run();
        let two = RunOptions {
            threads: 2,
            ..RunOptions::default()
        };
        let got = build(BeaconVariant::D, &traces, bytes).run_with(two, &mut Observer::default());
        assert_eq!(got.digest(), reference.digest());
    }

    #[test]
    fn canonical_merge_is_permutation_independent() {
        use beacon_cxl::message::{Message, NodeId};
        let mk = |tag: u64| {
            Bundle::single(Message::read_req(
                NodeId::dimm(0, 0),
                NodeId::dimm(1, 0),
                64,
                tag,
            ))
        };
        let mut a: Vec<HubEntry> = vec![
            (Cycle::new(5), 1, 0, mk(0)),
            (Cycle::new(3), 0, 0, mk(1)),
            (Cycle::new(3), 0, 1, mk(2)),
            (Cycle::new(3), 1, 0, mk(3)),
            (Cycle::new(9), 0, 2, mk(4)),
        ];
        let mut b: Vec<HubEntry> = a.iter().rev().cloned().collect();
        canonical_merge(&mut a);
        canonical_merge(&mut b);
        assert_eq!(a, b);
        let keys: Vec<(u64, u32, u64)> = a.iter().map(|e| (e.0.as_u64(), e.1, e.2)).collect();
        assert_eq!(
            keys,
            vec![(3, 0, 0), (3, 0, 1), (3, 1, 0), (5, 1, 0), (9, 0, 2)]
        );
    }
}
