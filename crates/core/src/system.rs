//! The BEACON system model: BEACON-D and BEACON-S (paper Fig. 4/5).
//!
//! One [`BeaconSystem`] instantiates the full pool: one switch subtree
//! per CXL switch (`crate::node`: the fabric, the in-switch logic and
//! the DIMM slots behind it) and a host root complex that forwards
//! cross-switch and host-bias traffic. A slot holds a CXLG-DIMM
//! (BEACON-D's compute modules: NDP engine + fine-grained DIMM) or an
//! unmodified CXL-DIMM (the memory-expansion pool); the in-switch logic
//! holds BEACON-S's compute modules, and the switch MC + Atomic Engine
//! in both variants.
//!
//! The optimisation toggles of [`crate::config::Optimizations`] map to
//! mechanisms:
//!
//! * `data_packing` → [`beacon_cxl::packer::DataPacker`]s on every NDP
//!   sender,
//! * `mem_access_opt` → requests to unmodified DIMMs carry
//!   `via_host = false` (device bias) instead of detouring off the host,
//! * `placement_mapping` / `multi_chip_coalescing` → consumed by
//!   [`crate::mmf::build_layout`] before the system is built,
//! * `ideal_comm` → every link, bus and forwarding latency becomes free.

use std::collections::VecDeque;

use beacon_sim::component::{Probe, Tick};
use beacon_sim::cycle::{Cycle, Duration};
use beacon_sim::engine::{Engine, RunOptions, RunOutcome};
use beacon_sim::journey::{
    Attribution, ComponentUtil, JourneyRecorder, Phase, QueueAcc, QueueStat,
};
use beacon_sim::observer::{Observed, Observer, Watch};
use beacon_sim::stats::Stats;

use beacon_accel::result::RunResult;
use beacon_accel::translate::RegionMap;
use beacon_cxl::bundle::Bundle;
use beacon_cxl::switch::{Switch, SwitchConfig};
use beacon_dram::module::{AccessMode, DimmConfig};
use beacon_dram::params::TimingParams;
use beacon_genomics::trace::TaskTrace;

use crate::config::{BeaconConfig, BeaconVariant};
use crate::mmf::{MemoryLayout, RemapPlan};
use crate::node::{PoolProbe, SwitchNode, SysCtx};

/// The assembled BEACON-D / BEACON-S system.
#[derive(Debug)]
pub struct BeaconSystem {
    pub(crate) cfg: BeaconConfig,
    pub(crate) maps: Vec<RegionMap>,
    pub(crate) switches: Vec<SwitchNode>,
    pub(crate) host_stage: VecDeque<(Cycle, Bundle)>,
    /// Reusable buffer for back-pressured host-stage entries.
    host_scratch: VecDeque<(Cycle, Bundle)>,
    /// Host-stage queue-depth integral (attribution only, not digested).
    q_host: QueueAcc,
    pub(crate) finished_at: Cycle,
    pub(crate) rmw_alu_cycles: u64,
    /// Precomputed graceful-degradation plan for the scheduled DIMM
    /// failure (see [`crate::mmf::plan_dimm_loss`]).
    pub(crate) remap: Option<Box<RemapPlan>>,
    /// The next cycle this system will simulate: zero on a fresh build,
    /// the capture cycle on a restored checkpoint, the finish cycle
    /// after a drained run. Every engine the system spawns starts here.
    pub(crate) clock: Cycle,
    /// The pool allocator holding this system's layout grants, retained
    /// so checkpoints can serialise it and resume can rebuild the
    /// degradation plan from identical pre-run state.
    pub(crate) allocator: crate::allocator::PoolAllocator,
}

impl BeaconSystem {
    /// Builds the system from a configuration and the memory layout
    /// produced by [`crate::mmf::build_layout`].
    ///
    /// # Panics
    /// Panics when the configuration is invalid or the layout's map
    /// count does not match the number of compute modules.
    pub fn new(cfg: BeaconConfig, layout: MemoryLayout) -> Self {
        cfg.validate().expect("invalid configuration");
        assert_eq!(
            layout.maps.len(),
            cfg.compute_modules() as usize,
            "layout must have one map per compute module"
        );

        let mut switch_cfg = SwitchConfig {
            index: 0,
            dimm_slots: cfg.slots_per_switch(),
            dimm_link: cfg.dimm_link,
            uplink: cfg.uplink,
            bus_bytes_per_cycle: cfg.switch_bus_bytes_per_cycle,
            forward_latency: cfg.switch_latency,
            atomic_intercept_from: cfg.cxlg_per_switch,
        };
        if cfg.opts.ideal_comm {
            switch_cfg = switch_cfg.idealized();
            switch_cfg.atomic_intercept_from = cfg.cxlg_per_switch;
        }

        let mut cxlg_cfg = DimmConfig::paper_ndp(layout.cxlg_mode);
        cxlg_cfg.geometry = cfg.geometry;
        cxlg_cfg.refresh_enabled = cfg.refresh_enabled;
        cxlg_cfg.queue_depth = cfg.dimm_queue_depth;
        // Unmodified CXL-DIMMs are commodity memory-expander devices: the
        // CXL buffer chip drives each rank over its own internal channel,
        // so they also get per-rank command issue (but no chip-select
        // customisation and no chained fine-grained commands -- those are
        // the CXLG modifications).
        let mut unmod_cfg = DimmConfig::paper(AccessMode::RankLockstep);
        unmod_cfg.per_rank_cmd_bus = true;
        unmod_cfg.geometry = cfg.geometry;
        unmod_cfg.refresh_enabled = cfg.refresh_enabled;
        unmod_cfg.queue_depth = cfg.dimm_queue_depth;

        let switches = (0..cfg.switches)
            .map(|s| SwitchNode::new(&cfg, s, switch_cfg, cxlg_cfg, unmod_cfg))
            .collect();
        let remap = cfg
            .faults
            .as_ref()
            .and_then(|fc| crate::mmf::plan_dimm_loss(&cfg, &layout, fc))
            .map(Box::new);

        BeaconSystem {
            cfg,
            maps: layout.maps,
            switches,
            host_stage: VecDeque::new(),
            host_scratch: VecDeque::new(),
            q_host: QueueAcc::default(),
            finished_at: Cycle::ZERO,
            rmw_alu_cycles: 4,
            remap,
            clock: Cycle::ZERO,
            allocator: layout.allocator,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BeaconConfig {
        &self.cfg
    }

    /// Submits a task to compute module `module`, tracing the submission
    /// into `obs`.
    pub fn submit_to(&mut self, module: usize, trace: TaskTrace, obs: &mut Observer) {
        match self.cfg.variant {
            BeaconVariant::D => {
                let per_switch = self.cfg.cxlg_per_switch as usize;
                self.switches[module / per_switch].submit_to_slot(module % per_switch, trace, obs);
            }
            BeaconVariant::S => {
                self.switches[module]
                    .logic
                    .engine
                    .as_mut()
                    .expect("S has logic engines")
                    .submit_for_app(trace, obs);
            }
        }
    }

    /// Distributes tasks round-robin over the compute modules (the host's
    /// task dispatch through the framework interface), unobserved.
    pub fn submit_round_robin<I: IntoIterator<Item = TaskTrace>>(&mut self, traces: I) {
        self.submit_observed(traces, &mut Observer::default());
    }

    /// [`BeaconSystem::submit_round_robin`] tracing each submission into
    /// `obs`.
    pub fn submit_observed<I: IntoIterator<Item = TaskTrace>>(
        &mut self,
        traces: I,
        obs: &mut Observer,
    ) {
        let n = self.cfg.compute_modules() as usize;
        for (i, t) in traces.into_iter().enumerate() {
            self.submit_to(i % n, t, obs);
        }
    }

    /// Runs until the workload drains and returns the measurements, on
    /// the production configuration ([`RunOptions::default`]) and
    /// unobserved.
    ///
    /// # Panics
    /// Panics when the model deadlocks (cycle limit / stall).
    pub fn run(&mut self) -> RunResult {
        self.run_with(RunOptions::default(), &mut Observer::default())
    }

    /// Runs until the workload drains under `run` and returns the
    /// measurements — bit-identical for every option value and every
    /// observer. More than one thread routes through the epoch-parallel
    /// engine; one thread is the sequential reference. Trace events,
    /// journeys and metrics go to `obs`; with a journey recorder the
    /// result carries its attribution report.
    ///
    /// # Panics
    /// Panics when `run.threads` is zero or the model deadlocks (cycle
    /// limit / stall).
    pub fn run_with(&mut self, run: RunOptions, obs: &mut Observer) -> RunResult {
        assert!(run.threads > 0, "need at least one thread");
        self.arm(obs);
        // The sampler's watch runs beside the ticks, which take the rest
        // of the observer.
        let mut sampler = obs.metrics.take();
        let mut watch = Watch::new(sampler.as_mut());
        let outcome = if run.threads > 1 {
            self.run_parallel(run, &mut watch, obs)
        } else {
            Engine::starting_at(self.clock)
                .with_skip(run.skip)
                .run_watched(&mut Observed::new(&mut *self, &mut *obs), &mut watch)
        };
        drop(watch);
        obs.metrics = sampler;
        self.finished_at = outcome.finished_at();
        self.clock = self.finished_at;
        self.collect_with(obs.journey.as_ref())
    }

    /// Runs the sequential engine up to cycle `to` (an epoch boundary
    /// for checkpointing) or until the workload drains, whichever comes
    /// first, honouring `run.skip` (`run.threads` does not apply).
    /// Returns `true` when the run drained. The system's state at the
    /// pause is bit-identical to an uninterrupted run passing through
    /// `to`, so [`BeaconSystem::snapshot`] here captures
    /// a resumable checkpoint; calling [`BeaconSystem::run`] afterwards
    /// continues to completion. Trace events and journeys go to `obs`.
    pub fn run_to(&mut self, to: u64, run: RunOptions, obs: &mut Observer) -> bool {
        self.arm(obs);
        let mut engine = Engine::starting_at(self.clock)
            .with_limit(to)
            .with_skip(run.skip);
        let outcome = engine.run(&mut Observed::new(&mut *self, obs));
        self.clock = engine.now();
        match outcome {
            RunOutcome::Drained { finished_at } => {
                self.finished_at = finished_at;
                true
            }
            _ => false,
        }
    }

    /// The next cycle this system will simulate (the capture cycle of a
    /// checkpoint taken now).
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    /// Run entry: arms the per-switch sampling gates from the run's
    /// journey recorder, or disarms them when it has none.
    pub(crate) fn arm(&mut self, obs: &Observer) {
        let gate = obs.journey.as_ref().map(JourneyRecorder::gate);
        for sw in &mut self.switches {
            sw.jgate = gate;
        }
    }

    /// Assembles the measurement bundle after a run, without an
    /// attribution report.
    pub fn collect(&self) -> RunResult {
        self.collect_with(None)
    }

    /// Assembles the measurement bundle after a run; with `journey`, the
    /// run's recorder, it carries the attribution report.
    pub(crate) fn collect_with(&self, journey: Option<&JourneyRecorder>) -> RunResult {
        let mut dram = Stats::new();
        let mut comm = Stats::new();
        let mut eng = Stats::new();
        let mut pe_busy = 0;
        let mut tasks = 0;
        let mut hists = Vec::new();
        for sw in &self.switches {
            comm.merge(&sw.fabric.merged_stats());
            eng.merge(&sw.logic.stats);
            if let Some(e) = &sw.logic.engine {
                eng.merge(e.stats());
                pe_busy += e.busy_pe_cycles();
                tasks += e.completed();
            }
            if let Some(ps) = sw.logic.egress.stats() {
                comm.merge(ps);
            }
            for d in &sw.dimms {
                dram.merge(d.server.dimm().stats());
                if let Some(c) = &d.compute {
                    eng.merge(c.engine.stats());
                    pe_busy += c.engine.busy_pe_cycles();
                    tasks += c.engine.completed();
                }
                eng.merge(d.server.stats());
                hists.push(d.server.chip_histogram().clone());
                if let Some(ps) = d.egress.stats() {
                    comm.merge(ps);
                }
            }
        }
        // RAS report: only for runs armed with a fault schedule. The
        // re-map accounting applies only when the failure actually
        // executed (a run can drain before its scheduled death).
        let degraded = self.cfg.faults.as_ref().map(|fc| {
            let plan = self
                .remap
                .as_deref()
                .filter(|_| eng.get("ras.dimm_killed") > 0);
            beacon_accel::result::DegradedRun {
                seed: fc.seed,
                failed_dimms: eng.get("ras.dimm_killed"),
                lost_capacity_bytes: plan.map_or(0, |r| r.lost_capacity_bytes),
                crc_errors: comm.get("ras.crc_errors"),
                retry_cycles: comm.get("ras.retry_cycles"),
                port_flaps: comm.get("ras.port_flaps"),
                dimm_ue: dram.get("ras.dimm_ue"),
                naks: eng.get("ras.naks"),
                requeued: eng.get("ras.requeued"),
                dropped: eng.get("ras.dropped"),
                remap_regions: plan.map_or(0, |r| r.remap_regions),
                moved_bytes: plan.map_or(0, |r| r.moved_bytes),
                remap_cost_cycles: plan.map_or(0, |r| r.remap_cost_cycles),
            }
        });
        let attribution = journey.map(|rec| self.build_attribution(rec));
        let geometry = self.cfg.geometry;
        RunResult {
            cycles: self.finished_at.as_u64(),
            tasks,
            dram,
            comm,
            engine: eng,
            pe_busy_cycles: pe_busy,
            total_chips: (geometry.ranks * geometry.chips_per_rank) as u64
                * self.cfg.total_dimms() as u64,
            chip_histograms: hists,
            degraded,
            attribution,
        }
    }

    /// Assembles the full bottleneck report from the phase/class
    /// aggregates in `rec` plus component state: utilization rows from
    /// busy-cycle counters and queue rows from the plain (never
    /// digested) depth accumulators.
    fn build_attribution(&self, rec: &JourneyRecorder) -> Attribution {
        let mut attr = rec.attribution();
        // The hot-path sampling decisions count into the per-switch
        // run-local gates, not the recorder; fold their tallies in.
        for g in self.switches.iter().filter_map(|sw| sw.jgate.as_ref()) {
            attr.seen += g.seen;
            attr.tracked += g.tracked;
        }
        let end = self.finished_at;
        let total = end.as_u64();
        let push_q = |queues: &mut Vec<QueueStat>, label: String, acc: &QueueAcc| {
            let mut acc = acc.clone();
            acc.finalize(end);
            queues.push(QueueStat {
                component: label,
                mean_depth: acc.mean_depth(),
                peak_depth: acc.peak(),
            });
        };
        push_q(&mut attr.queues, "host.stage".to_owned(), &self.q_host);
        for sw in &self.switches {
            let i = sw.index;
            // Bus bytes are the switch's own counter, not a link's.
            let bus_bytes = sw.fabric.stats().get("switch.bus_bytes");
            let bus_bpc = sw.fabric.config().bus_bytes_per_cycle;
            attr.utilization.push(ComponentUtil {
                component: format!("sw{i}.bus"),
                busy_cycles: (bus_bytes as f64 / bus_bpc).ceil() as u64,
                total_cycles: total,
                blocked_events: 0,
            });
            for pl in sw.fabric.port_link_loads() {
                attr.utilization.push(ComponentUtil {
                    component: format!("sw{i}.port{}.{}", pl.port, pl.dir),
                    busy_cycles: (pl.wire_bytes as f64 / pl.bytes_per_cycle).ceil() as u64,
                    total_cycles: total,
                    blocked_events: pl.backpressure,
                });
            }
            if let Some(e) = &sw.logic.engine {
                attr.utilization.push(ComponentUtil {
                    component: format!("sw{i}.logic.pe"),
                    busy_cycles: e.busy_pe_cycles(),
                    total_cycles: e.pe_count() as u64 * total,
                    blocked_events: 0,
                });
            }
            push_q(&mut attr.queues, format!("sw{i}.staged"), &sw.q_staged);
            push_q(&mut attr.queues, format!("sw{i}.logic_inbox"), &sw.q_inbox);
            for (slot, d) in sw.dimms.iter().enumerate() {
                push_q(
                    &mut attr.queues,
                    format!("sw{i}.dimm{slot}.backlog"),
                    &d.q_backlog,
                );
                if let Some(c) = &d.compute {
                    attr.utilization.push(ComponentUtil {
                        component: format!("sw{i}.dimm{slot}.pe"),
                        busy_cycles: c.engine.busy_pe_cycles(),
                        total_cycles: c.engine.pe_count() as u64 * total,
                        blocked_events: 0,
                    });
                }
                let dimm = d.server.dimm();
                attr.utilization.push(ComponentUtil {
                    component: format!("sw{i}.dimm{slot}.data"),
                    busy_cycles: dimm.data_lane_cycles(),
                    total_cycles: dimm.data_lane_count() as u64 * total,
                    blocked_events: dimm.stats().get("dram.row_conflict"),
                });
            }
        }
        attr.rank_queues();
        attr
    }

    /// Per-chip access histogram of the CXLG-DIMMs only (Fig. 13 data).
    pub fn cxlg_chip_histogram(&self) -> Option<beacon_sim::stats::Histogram> {
        let mut merged: Option<beacon_sim::stats::Histogram> = None;
        for sw in &self.switches {
            for d in sw.dimms.iter().filter(|d| d.compute.is_some()) {
                match &mut merged {
                    Some(h) => h.merge(d.server.chip_histogram()),
                    None => merged = Some(d.server.chip_histogram().clone()),
                }
            }
        }
        merged
    }

    // ----- host root complex -------------------------------------------

    pub(crate) fn pump_host(&mut self, now: Cycle, obs: &mut Observer) {
        for s in 0..self.switches.len() {
            while let Some(mut bundle) =
                self.switches[s]
                    .fabric
                    .endpoint_recv(Switch::UPLINK, now, obs)
            {
                if let Some(j) = &mut obs.journey {
                    // Everything accrued on the uplink is charged to
                    // `Link` here; residency in the host stage becomes
                    // `HostForward` (closed by the next downlink send).
                    for m in &mut bundle.messages {
                        if let Some(stamp) = &mut m.jny {
                            j.hop(stamp, now, Phase::HostForward);
                        }
                    }
                }
                let ready = now + Duration::new(self.cfg.host_latency);
                // The stage stays sorted by ready cycle: `now` is
                // nondecreasing across pumps and the latency constant.
                debug_assert!(self.host_stage.back().is_none_or(|&(r, _)| r <= ready));
                self.host_stage.push_back((ready, bundle));
            }
        }
        // Sorted stage: the due entries form a prefix, so the sweep stops
        // at the first not-yet-ready deadline instead of cycling the whole
        // queue. Back-pressured bundles go to a reusable scratch and
        // return to the front in their original order — exactly the
        // sequence the old whole-queue rebuild produced.
        debug_assert!(self.host_scratch.is_empty());
        let mut rest = std::mem::take(&mut self.host_scratch);
        while let Some(&(ready, _)) = self.host_stage.front() {
            if ready > now {
                break;
            }
            let (ready, mut bundle) = self.host_stage.pop_front().expect("front checked");
            for m in &mut bundle.messages {
                *m = m.cleared_via_host();
            }
            let dst_switch = bundle.messages[0]
                .dst
                .switch()
                .expect("pool destinations only") as usize;
            match self.switches[dst_switch]
                .fabric
                .endpoint_send(Switch::UPLINK, bundle, now, obs)
            {
                Ok(()) => {}
                Err(e) => rest.push_back((ready, e.into_bundle())),
            }
        }
        while let Some(entry) = rest.pop_back() {
            self.host_stage.push_front(entry);
        }
        self.host_scratch = rest;
        if obs.journey.is_some() {
            self.q_host.observe_if_changed(self.host_stage.len(), now);
        }
    }

    /// The wall-clock seconds of the finished run at DDR4-1600 tCK.
    pub fn seconds(&self) -> f64 {
        self.finished_at
            .to_seconds(TimingParams::ddr4_1600_22().tck_ps)
    }
}

impl BeaconSystem {
    /// Clears restore-transient host-side state: the back-pressure
    /// scratch, the staged queue (about to be overwritten) and the
    /// digest-excluded queue-depth integral.
    pub(crate) fn reset_host_for_restore(&mut self) {
        self.host_stage.clear();
        self.host_scratch.clear();
        self.q_host = QueueAcc::default();
    }
}

impl Tick for BeaconSystem {
    fn tick(&mut self, now: Cycle) {
        self.tick_observed(now, &mut Observer::default());
    }

    fn tick_observed(&mut self, now: Cycle, obs: &mut Observer) {
        self.pump_host(now, obs);
        let ctx = SysCtx {
            cfg: &self.cfg,
            maps: &self.maps,
            rmw_alu_cycles: self.rmw_alu_cycles,
            remap: self.remap.as_deref(),
        };
        for sw in &mut self.switches {
            sw.tick_cycle(ctx, now, obs);
        }
    }

    fn is_idle(&self) -> bool {
        self.host_stage.is_empty() && self.switches.iter().all(SwitchNode::subtree_idle)
    }

    /// The whole pool's event horizon: the minimum over the host stage's
    /// forwarding deadlines and every switch subtree. Lets the engine
    /// fast-forward dead spans (e.g. all PEs computing, DRAM between
    /// refreshes) without changing a single observable cycle.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut h = Cycle::NEVER;
        // The host stage is sorted by ready cycle (see `pump_host`), so
        // its horizon is just the front deadline.
        if let Some(&(ready, _)) = self.host_stage.front() {
            h = h.min(ready);
        }
        for sw in &self.switches {
            h = h.min(sw.subtree_next_event());
            if h == Cycle::ZERO {
                // Already the global minimum: something is actionable
                // immediately, the remaining subtrees cannot lower it.
                break;
            }
        }
        if h == Cycle::NEVER {
            None
        } else {
            Some(h.max(now.next()))
        }
    }
}

impl BeaconSystem {
    fn probe(&self) -> PoolProbe<std::slice::Iter<'_, SwitchNode>> {
        PoolProbe {
            nodes: self.switches.iter(),
            host_staged: self.host_stage.len(),
        }
    }
}

impl Probe for BeaconSystem {
    fn progress_counter(&self) -> u64 {
        self.probe().progress_counter()
    }

    fn gauges(&self, out: &mut Vec<(String, f64)>) {
        self.probe().gauges(out);
    }

    fn state_snapshot(&self) -> String {
        self.probe().state_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use crate::mmf::{build_layout, LayoutSpec};
    use beacon_genomics::genome::{Genome, GenomeId};
    use beacon_genomics::prelude::FmIndex;
    use beacon_genomics::reads::ReadSampler;
    use beacon_genomics::trace::Region;

    fn fm_workload(n: usize) -> (Vec<TaskTrace>, u64) {
        let g = Genome::synthetic(GenomeId::Pt, 3000, 5);
        let idx = FmIndex::build(g.sequence());
        let mut sampler = ReadSampler::new(&g, 24, 0.0, 9);
        let traces = (0..n)
            .map(|_| idx.trace_search(sampler.next_read().bases()))
            .collect();
        (traces, idx.index_bytes())
    }

    fn small(cfg: &mut BeaconConfig) {
        cfg.pes_per_module = 8;
        cfg.refresh_enabled = false;
    }

    fn build(cfg: BeaconConfig, index_bytes: u64) -> BeaconSystem {
        let specs = [LayoutSpec::shared_random(Region::FmIndex, index_bytes)];
        let layout = build_layout(&cfg, &specs);
        BeaconSystem::new(cfg, layout)
    }

    fn run_point(
        variant: BeaconVariant,
        opts: Optimizations,
        traces: &[TaskTrace],
        bytes: u64,
    ) -> RunResult {
        let app = beacon_genomics::trace::AppKind::FmSeeding;
        let mut cfg = BeaconConfig::paper(variant, app).with_opts(opts);
        small(&mut cfg);
        let mut sys = build(cfg, bytes);
        sys.submit_round_robin(traces.iter().cloned());
        sys.run()
    }

    #[test]
    fn beacon_d_vanilla_drains() {
        let (traces, bytes) = fm_workload(16);
        let r = run_point(BeaconVariant::D, Optimizations::vanilla(), &traces, bytes);
        assert_eq!(r.tasks, 16);
        assert!(r.cycles > 0);
        assert!(r.dram.get("dram.cmd.read") > 0);
        assert!(r.comm.get("cxl.flits") > 0);
    }

    #[test]
    fn beacon_s_vanilla_drains() {
        let (traces, bytes) = fm_workload(16);
        let r = run_point(BeaconVariant::S, Optimizations::vanilla(), &traces, bytes);
        assert_eq!(r.tasks, 16);
        assert!(r.comm.get("cxl.flits") > 0);
    }

    #[test]
    fn full_opts_beat_vanilla_on_d() {
        let (traces, bytes) = fm_workload(24);
        let app = beacon_genomics::trace::AppKind::FmSeeding;
        let v = run_point(BeaconVariant::D, Optimizations::vanilla(), &traces, bytes);
        let f = run_point(
            BeaconVariant::D,
            Optimizations::full(BeaconVariant::D, app),
            &traces,
            bytes,
        );
        assert!(
            f.cycles < v.cycles,
            "full ({}) should beat vanilla ({})",
            f.cycles,
            v.cycles
        );
    }

    #[test]
    fn mem_access_opt_removes_host_traffic() {
        let (traces, bytes) = fm_workload(12);
        let mut no_opt = Optimizations::vanilla();
        no_opt.data_packing = true;
        let mut with_opt = no_opt;
        with_opt.mem_access_opt = true;
        let a = run_point(BeaconVariant::S, no_opt, &traces, bytes);
        let b = run_point(BeaconVariant::S, with_opt, &traces, bytes);
        assert!(
            b.cycles < a.cycles,
            "device bias must help ({} vs {})",
            b.cycles,
            a.cycles
        );
    }

    #[test]
    fn ideal_comm_is_fastest() {
        let (traces, bytes) = fm_workload(16);
        let app = beacon_genomics::trace::AppKind::FmSeeding;
        let full = run_point(
            BeaconVariant::D,
            Optimizations::full(BeaconVariant::D, app),
            &traces,
            bytes,
        );
        let ideal = run_point(
            BeaconVariant::D,
            Optimizations::full_ideal(BeaconVariant::D, app),
            &traces,
            bytes,
        );
        assert!(ideal.cycles <= full.cycles);
    }

    #[test]
    fn d_uses_cxlg_dram_under_placement() {
        let (traces, bytes) = fm_workload(8);
        let app = beacon_genomics::trace::AppKind::FmSeeding;
        let mut cfg =
            BeaconConfig::paper_d(app).with_opts(Optimizations::full(BeaconVariant::D, app));
        small(&mut cfg);
        let mut sys = build(cfg, bytes);
        sys.submit_round_robin(traces);
        let r = sys.run();
        // The FM index lives on the CXLG-DIMMs; their chip histograms are
        // the only ones with traffic.
        let hist = sys.cxlg_chip_histogram().unwrap();
        assert!(hist.total() > 0);
        assert_eq!(r.tasks, 8);
    }

    #[test]
    fn kmer_atomics_reach_switch_logic_on_s() {
        // k-mer counting on BEACON-S: RMWs are served by the switch PEs.
        let g = Genome::synthetic(GenomeId::Human, 2000, 3);
        let counter = beacon_genomics::kmer::KmerCounter::new(28, 1 << 16, 3, 7);
        let mut sampler = ReadSampler::new(&g, 60, 0.01, 4);
        let traces: Vec<TaskTrace> = (0..8)
            .map(|_| counter.trace_read(&sampler.next_read()))
            .collect();

        let app = beacon_genomics::trace::AppKind::KmerCounting;
        let mut cfg =
            BeaconConfig::paper_s(app).with_opts(Optimizations::full(BeaconVariant::S, app));
        small(&mut cfg);
        let specs = [LayoutSpec::shared_random(Region::Bloom, 1 << 16)];
        let layout = build_layout(&cfg, &specs);
        let mut sys = BeaconSystem::new(cfg, layout);
        sys.submit_round_robin(traces);
        let r = sys.run();
        assert_eq!(r.tasks, 8);
        assert!(r.engine.get("logic.atomics") > 0);
        // Both the read and write phase hit DRAM.
        assert!(r.dram.get("dram.cmd.write") > 0);
    }
}
