//! MEDAL: the DDR-DIMM based NDP baseline (MICRO'19).
//!
//! MEDAL places NDP logic on each DDR-DIMM and gives the DIMM per-chip
//! chip-selects for fine-grained access. Its Achilles heel — the reason
//! BEACON exists — is inter-DIMM communication: remote accesses traverse
//! the shared DDR memory channel through the host, whose bandwidth is an
//! order of magnitude below the aggregate intra-DIMM bandwidth.
//!
//! The model: `channels × dimms_per_channel` DIMM modules, each a
//! [`TaskEngine`] + [`DimmServer`] pair; per-channel uplink/downlink
//! [`Link`]s at DDR4 channel bandwidth shared by the channel's DIMMs; a
//! host stage that forwards between channels with a fixed latency. The
//! NEST baseline ([`crate::nest`]) reuses this system with its k-mer
//! workload orchestration.

use std::collections::VecDeque;

use beacon_sim::component::Tick;
use beacon_sim::cycle::{Cycle, Duration};
use beacon_sim::engine::Engine;
use beacon_sim::observer::{Observed, Observer};
use beacon_sim::stats::Stats;

use beacon_cxl::bundle::Bundle;
use beacon_cxl::link::Link;
use beacon_cxl::message::{Message, MsgKind, NodeId};
use beacon_cxl::packer::DataPacker;
use beacon_cxl::params::LinkParams;
use beacon_dram::address::DramCoord;
use beacon_dram::module::{AccessMode, DimmConfig};
use beacon_dram::params::DimmGeometry;
use beacon_genomics::trace::{AccessKind, Region, TaskTrace};

use crate::pending::PendingTable;
use crate::result::RunResult;
use crate::server::{DimmServer, ServiceOp};
use crate::task::{IssuedAccess, TaskEngine};
use crate::translate::{Placement, RegionMap};

/// Marks a service id as serving a remote request (vs completing a local
/// pending access).
const SERVE_BIT: u64 = 1 << 60;

/// Size/locality description of one memory region of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSpec {
    /// The region.
    pub region: Region,
    /// Its size in bytes.
    pub bytes: u64,
    /// Whether it has spatial locality (row-major placement).
    pub spatial: bool,
}

impl RegionSpec {
    /// A fine-grained random-access region.
    pub fn random(region: Region, bytes: u64) -> Self {
        RegionSpec {
            region,
            bytes,
            spatial: false,
        }
    }

    /// A spatially-local region.
    pub fn spatial(region: Region, bytes: u64) -> Self {
        RegionSpec {
            region,
            bytes,
            spatial: true,
        }
    }
}

/// Configuration of the MEDAL/NEST hardware (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MedalConfig {
    /// DDR channels.
    pub channels: u32,
    /// DIMMs per channel.
    pub dimms_per_channel: u32,
    /// PEs per DIMM.
    pub pes_per_dimm: usize,
    /// PE compute latency per step in cycles.
    pub pe_latency: u32,
    /// Channel link parameters (overridden by [`MedalConfig::idealized`]).
    pub channel_link: LinkParams,
    /// Host forwarding latency between channels, in cycles.
    pub host_latency: u64,
    /// Whether DRAM refresh is modelled.
    pub refresh_enabled: bool,
    /// Striping granularity of shared regions across DIMMs, in bytes.
    pub stripe_bytes: u64,
    /// DRAM controller queue depth per DIMM.
    pub dimm_queue_depth: usize,
    /// DIMM geometry (simulation-scaled by default).
    pub geometry: DimmGeometry,
}

impl MedalConfig {
    /// The paper's configuration: 512 PEs over 2 channels × 2 DIMMs with
    /// the given per-step PE latency.
    pub fn paper(pe_latency: u32) -> Self {
        MedalConfig {
            channels: 2,
            dimms_per_channel: 2,
            pes_per_dimm: 128,
            pe_latency,
            channel_link: LinkParams::ddr4_channel(),
            host_latency: 50,
            refresh_enabled: true,
            stripe_bytes: 1024,
            dimm_queue_depth: 192,
            geometry: DimmGeometry::sim_scaled(),
        }
    }

    /// Idealised communication variant (Fig. 3): links free, host free.
    pub fn idealized(mut self) -> Self {
        self.channel_link = LinkParams::ideal();
        self.host_latency = 0;
        self
    }

    /// Total DIMMs.
    pub fn dimm_count(&self) -> u32 {
        self.channels * self.dimms_per_channel
    }

    /// Node id of DIMM module `i` (channel index doubles as
    /// `switch_idx`).
    pub fn node(&self, i: u32) -> NodeId {
        NodeId::Dimm {
            switch_idx: i / self.dimms_per_channel,
            slot: i % self.dimms_per_channel,
        }
    }

    /// All module nodes in order.
    pub fn nodes(&self) -> Vec<NodeId> {
        (0..self.dimm_count()).map(|i| self.node(i)).collect()
    }

    /// Module index of a node.
    ///
    /// # Panics
    /// Panics for nodes that are not MEDAL DIMMs.
    pub fn module_of(&self, node: NodeId) -> usize {
        match node {
            NodeId::Dimm { switch_idx, slot } => {
                assert!(switch_idx < self.channels && slot < self.dimms_per_channel);
                (switch_idx * self.dimms_per_channel + slot) as usize
            }
            other => panic!("{other:?} is not a MEDAL DIMM"),
        }
    }

    /// Builds the region map MEDAL uses: every region striped across all
    /// DIMMs, chip-level interleave for random regions (MEDAL's
    /// fine-grained access), row-major for spatial regions.
    pub fn region_map(&self, specs: &[RegionSpec]) -> RegionMap {
        use beacon_dram::address::Interleave;

        let geometry = self.geometry;
        let homes = self.nodes();
        let n = homes.len() as u64;
        // One DRAM row index sweeps ranks × chips × banks × row bytes.
        let row_sweep = (geometry.ranks * geometry.chips_per_rank * geometry.banks) as u64
            * geometry.row_bytes_per_chip as u64;
        let mut map = RegionMap::new(geometry);
        let mut row_cursor = 0u64;
        for spec in specs {
            // Random regions scatter their blocks across a row window so
            // that fine-grained random accesses miss the row buffer, as
            // they would at full dataset size.
            let (interleave, window) = if spec.spatial {
                (
                    Interleave::RowMajor {
                        groups: geometry.chips_per_rank,
                    },
                    1,
                )
            } else {
                (
                    Interleave::ChipLevel {
                        block_bytes: 32,
                        groups: geometry.chips_per_rank,
                    },
                    64,
                )
            };
            map.place(
                spec.region,
                Placement::striped(homes.clone(), self.stripe_bytes, 0, interleave)
                    .with_row_offset(row_cursor)
                    .with_sparse_rows(window),
            );
            let per_node = (spec.bytes.div_ceil(self.stripe_bytes * n)) * self.stripe_bytes;
            row_cursor += per_node.div_ceil(row_sweep).max(1) * window;
        }
        map
    }
}

#[derive(Debug, Clone, Copy)]
struct ServeEntry {
    requester: NodeId,
    orig_tag: u64,
    kind: MsgKind,
    bytes: u32,
    in_use: bool,
}

#[derive(Debug)]
struct Module {
    node: NodeId,
    engine: TaskEngine,
    server: DimmServer,
    map: RegionMap,
    pending: PendingTable,
    serve: Vec<ServeEntry>,
    free_serve: Vec<u32>,
    /// MEDAL batches fine-grained messages before the channel transfer.
    packer: DataPacker,
    outbound: VecDeque<Bundle>,
}

impl Module {
    fn alloc_serve(&mut self, entry: ServeEntry) -> u32 {
        match self.free_serve.pop() {
            Some(i) => {
                self.serve[i as usize] = entry;
                i
            }
            None => {
                self.serve.push(entry);
                (self.serve.len() - 1) as u32
            }
        }
    }
}

/// The MEDAL system: DDR-DIMM NDP modules behind shared memory channels.
#[derive(Debug)]
pub struct Medal {
    cfg: MedalConfig,
    modules: Vec<Module>,
    /// Per channel: DIMMs → host.
    up: Vec<Link>,
    /// Per channel: host → DIMMs.
    down: Vec<Link>,
    host_stage: VecDeque<(Cycle, Bundle)>,
    finished_at: Cycle,
    /// Reused engine-issue buffer (`TaskEngine::tick_into`).
    issued_scratch: Vec<IssuedAccess>,
}

impl Medal {
    /// Builds the system. `maps` holds one [`RegionMap`] per module (use
    /// [`Medal::with_shared_map`] when all modules share one view).
    ///
    /// # Panics
    /// Panics when `maps.len()` differs from the DIMM count.
    pub fn new(cfg: MedalConfig, maps: Vec<RegionMap>) -> Self {
        assert_eq!(
            maps.len(),
            cfg.dimm_count() as usize,
            "need one region map per module"
        );
        let mut dimm_cfg = DimmConfig::paper_ndp(AccessMode::PerChip);
        dimm_cfg.geometry = cfg.geometry;
        dimm_cfg.refresh_enabled = cfg.refresh_enabled;
        dimm_cfg.queue_depth = cfg.dimm_queue_depth;

        let modules = maps
            .into_iter()
            .enumerate()
            .map(|(i, map)| Module {
                node: cfg.node(i as u32),
                engine: TaskEngine::new(cfg.pes_per_dimm, cfg.pe_latency),
                server: DimmServer::new(dimm_cfg),
                map,
                pending: PendingTable::new(),
                serve: Vec::new(),
                free_serve: Vec::new(),
                packer: DataPacker::new(8),
                outbound: VecDeque::new(),
            })
            .collect();

        Medal {
            modules,
            up: (0..cfg.channels)
                .map(|_| Link::new(cfg.channel_link))
                .collect(),
            down: (0..cfg.channels)
                .map(|_| Link::new(cfg.channel_link))
                .collect(),
            host_stage: VecDeque::new(),
            finished_at: Cycle::ZERO,
            issued_scratch: Vec::new(),
            cfg,
        }
    }

    /// Builds the system with every module sharing the same region map.
    pub fn with_shared_map(cfg: MedalConfig, map: RegionMap) -> Self {
        let maps = vec![map; cfg.dimm_count() as usize];
        Medal::new(cfg, maps)
    }

    /// The configuration.
    pub fn config(&self) -> &MedalConfig {
        &self.cfg
    }

    /// Submits one task to a specific module, tracing the submission
    /// into `obs`.
    pub fn submit_to(&mut self, module: usize, trace: TaskTrace, obs: &mut Observer) {
        self.modules[module].engine.submit(trace, obs);
    }

    /// Distributes tasks round-robin over the modules (the host's task
    /// dispatch), unobserved.
    pub fn submit_round_robin<I: IntoIterator<Item = TaskTrace>>(&mut self, traces: I) {
        self.submit_observed(traces, &mut Observer::default());
    }

    /// [`Medal::submit_round_robin`] tracing each submission into `obs`.
    pub fn submit_observed<I: IntoIterator<Item = TaskTrace>>(
        &mut self,
        traces: I,
        obs: &mut Observer,
    ) {
        let n = self.modules.len();
        for (i, t) in traces.into_iter().enumerate() {
            self.modules[i % n].engine.submit(t, obs);
        }
    }

    /// Runs until the workload drains and returns the measurements,
    /// unobserved.
    ///
    /// # Panics
    /// Panics when the model deadlocks (cycle limit).
    pub fn run(&mut self) -> RunResult {
        self.run_observed(&mut Observer::default())
    }

    /// [`Medal::run`] recording trace events into `obs`.
    ///
    /// # Panics
    /// Panics when the model deadlocks (cycle limit).
    pub fn run_observed(&mut self, obs: &mut Observer) -> RunResult {
        let mut engine = Engine::new();
        let outcome = engine.run(&mut Observed::new(self, obs));
        self.finished_at = outcome.finished_at();
        self.collect()
    }

    /// Assembles the measurement bundle after a run.
    pub fn collect(&self) -> RunResult {
        let mut dram = Stats::new();
        let mut comm = Stats::new();
        let mut eng = Stats::new();
        let mut pe_busy = 0;
        let mut tasks = 0;
        let mut hists = Vec::new();
        for m in &self.modules {
            dram.merge(m.server.dimm().stats());
            eng.merge(m.engine.stats());
            eng.merge(m.server.stats());
            pe_busy += m.engine.busy_pe_cycles();
            tasks += m.engine.completed();
            hists.push(m.server.chip_histogram().clone());
        }
        for l in self.up.iter().chain(&self.down) {
            comm.merge(l.stats());
        }
        for m in &self.modules {
            comm.merge(m.packer.stats());
        }
        RunResult {
            cycles: self.finished_at.as_u64(),
            tasks,
            dram,
            comm,
            engine: eng,
            pe_busy_cycles: pe_busy,
            total_chips: (self.cfg.geometry.ranks * self.cfg.geometry.chips_per_rank) as u64
                * self.modules.len() as u64,
            chip_histograms: hists,
            degraded: None,
            attribution: None,
        }
    }

    fn op_of(kind: AccessKind) -> (ServiceOp, MsgKind) {
        match kind {
            AccessKind::Read => (ServiceOp::Read, MsgKind::ReadReq),
            AccessKind::Write => (ServiceOp::Write, MsgKind::WriteReq),
            AccessKind::Rmw => (ServiceOp::Rmw, MsgKind::AtomicReq),
        }
    }

    fn drive_engines(&mut self, now: Cycle, obs: &mut Observer) {
        let mut issued = std::mem::take(&mut self.issued_scratch);
        for mi in 0..self.modules.len() {
            issued.clear();
            self.modules[mi].engine.tick_into(now, &mut issued, obs);
            for &ia in &issued {
                let segments = self.modules[mi].map.translate(&ia.access);
                let pid =
                    self.modules[mi]
                        .pending
                        .alloc(ia.token, segments.len() as u32, ia.blocking);
                let (op, msg_kind) = Self::op_of(ia.access.kind);
                for seg in segments {
                    if seg.node == self.modules[mi].node {
                        self.modules[mi]
                            .server
                            .request(pid, seg.coord, seg.bytes, op);
                    } else {
                        let src = self.modules[mi].node;
                        let msg = Message {
                            src,
                            dst: seg.node,
                            kind: msg_kind,
                            payload_bytes: seg.bytes,
                            tag: pid,
                            aux: seg.coord.pack(),
                            via_host: false,
                            jny: None,
                        };
                        self.modules[mi].packer.push(msg, now, obs);
                    }
                }
            }
        }
        self.issued_scratch = issued;
    }

    fn pump_outbound(&mut self, now: Cycle, obs: &mut Observer) {
        // Drain packers, then round-robin across a channel's DIMMs for
        // fairness on the shared channel.
        for m in &mut self.modules {
            m.packer.tick(now, obs);
            while let Some(b) = m.packer.pop_ready() {
                m.outbound.push_back(b);
            }
        }
        let dpc = self.cfg.dimms_per_channel as usize;
        for c in 0..self.cfg.channels as usize {
            let start = (now.as_u64() as usize) % dpc;
            for k in 0..dpc {
                let mi = c * dpc + (start + k) % dpc;
                while let Some(bundle) = self.modules[mi].outbound.front().cloned() {
                    if !self.up[c].can_send(now) {
                        break;
                    }
                    self.up[c]
                        .try_send(bundle, now, obs)
                        .expect("can_send checked");
                    self.modules[mi].outbound.pop_front();
                }
            }
        }
    }

    fn pump_host(&mut self, now: Cycle, obs: &mut Observer) {
        for c in 0..self.cfg.channels as usize {
            while let Some(bundle) = self.up[c].deliver(now, obs) {
                let ready = now + Duration::new(self.cfg.host_latency);
                self.host_stage.push_back((ready, bundle));
            }
        }
        let mut rest = VecDeque::new();
        while let Some((ready, bundle)) = self.host_stage.pop_front() {
            if ready > now {
                rest.push_back((ready, bundle));
                continue;
            }
            let channel = bundle.messages[0].dst.switch().expect("DIMM destination") as usize;
            match self.down[channel].try_send(bundle, now, obs) {
                Ok(()) => {}
                Err(e) => rest.push_back((ready, e.into_bundle())),
            }
        }
        self.host_stage = rest;
    }

    fn deliver_incoming(&mut self, now: Cycle, obs: &mut Observer) {
        for c in 0..self.cfg.channels as usize {
            while let Some(bundle) = self.down[c].deliver(now, obs) {
                for msg in bundle.messages {
                    let mi = self.cfg.module_of(msg.dst);
                    self.handle_message(mi, msg, now, obs);
                }
            }
        }
    }

    fn handle_message(&mut self, mi: usize, msg: Message, now: Cycle, obs: &mut Observer) {
        match msg.kind {
            MsgKind::ReadReq | MsgKind::WriteReq | MsgKind::AtomicReq => {
                let entry = ServeEntry {
                    requester: msg.src,
                    orig_tag: msg.tag,
                    kind: msg.kind,
                    bytes: msg.payload_bytes,
                    in_use: true,
                };
                let sid = self.modules[mi].alloc_serve(entry);
                let op = match msg.kind {
                    MsgKind::ReadReq => ServiceOp::Read,
                    MsgKind::WriteReq => ServiceOp::Write,
                    MsgKind::AtomicReq => ServiceOp::Rmw,
                    _ => unreachable!(),
                };
                let coord = DramCoord::unpack(msg.aux);
                self.modules[mi].server.request(
                    SERVE_BIT | sid as u64,
                    coord,
                    msg.payload_bytes,
                    op,
                );
            }
            MsgKind::ReadResp | MsgKind::Ack => {
                if let Some((token, _)) = self.modules[mi].pending.complete_one(msg.tag) {
                    self.modules[mi].engine.on_data(token, now, obs);
                }
            }
            // MEDAL's baseline pool is always healthy: naks never occur.
            MsgKind::Nak | MsgKind::Control => {}
        }
    }

    fn drive_servers(&mut self, now: Cycle, obs: &mut Observer) {
        for mi in 0..self.modules.len() {
            self.modules[mi].server.tick_observed(now, obs);
            for (id, _at) in self.modules[mi].server.drain_done() {
                if id & SERVE_BIT != 0 {
                    let sidx = (id & !SERVE_BIT) as usize;
                    let entry = self.modules[mi].serve[sidx];
                    debug_assert!(entry.in_use);
                    self.modules[mi].serve[sidx].in_use = false;
                    self.modules[mi].free_serve.push(sidx as u32);
                    let resp = match entry.kind {
                        MsgKind::ReadReq => Message {
                            src: self.modules[mi].node,
                            dst: entry.requester,
                            kind: MsgKind::ReadResp,
                            payload_bytes: entry.bytes,
                            tag: entry.orig_tag,
                            aux: 0,
                            via_host: false,
                            jny: None,
                        },
                        _ => Message {
                            src: self.modules[mi].node,
                            dst: entry.requester,
                            kind: MsgKind::Ack,
                            payload_bytes: 0,
                            tag: entry.orig_tag,
                            aux: 0,
                            via_host: false,
                            jny: None,
                        },
                    };
                    self.modules[mi].packer.push(resp, now, obs);
                } else if let Some((token, _)) = self.modules[mi].pending.complete_one(id) {
                    self.modules[mi].engine.on_data(token, now, obs);
                }
            }
        }
    }
}

impl Tick for Medal {
    fn tick(&mut self, now: Cycle) {
        self.tick_observed(now, &mut Observer::default());
    }

    fn tick_observed(&mut self, now: Cycle, obs: &mut Observer) {
        self.deliver_incoming(now, obs);
        self.drive_engines(now, obs);
        self.drive_servers(now, obs);
        self.pump_outbound(now, obs);
        self.pump_host(now, obs);
    }

    fn is_idle(&self) -> bool {
        self.host_stage.is_empty()
            && self.up.iter().all(Link::is_idle)
            && self.down.iter().all(Link::is_idle)
            && self.modules.iter().all(|m| {
                m.engine.all_done()
                    && m.server.is_idle()
                    && m.outbound.is_empty()
                    && m.packer.is_idle()
                    && m.pending.is_empty()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_genomics::genome::{Genome, GenomeId};
    use beacon_genomics::prelude::FmIndex;
    use beacon_genomics::reads::ReadSampler;

    fn small_fm_workload() -> (Vec<TaskTrace>, u64) {
        let g = Genome::synthetic(GenomeId::Pt, 3000, 5);
        let idx = FmIndex::build(g.sequence());
        let mut sampler = ReadSampler::new(&g, 24, 0.0, 9);
        let traces: Vec<TaskTrace> = (0..24)
            .map(|_| idx.trace_search(sampler.next_read().bases()))
            .collect();
        (traces, idx.index_bytes())
    }

    fn build(cfg: MedalConfig, index_bytes: u64) -> Medal {
        let map = cfg.region_map(&[RegionSpec::random(Region::FmIndex, index_bytes)]);
        Medal::with_shared_map(cfg, map)
    }

    #[test]
    fn workload_drains_and_counts_tasks() {
        let (traces, bytes) = small_fm_workload();
        let n = traces.len();
        let mut cfg = MedalConfig::paper(16);
        cfg.pes_per_dimm = 8;
        cfg.refresh_enabled = false;
        let mut medal = build(cfg, bytes);
        medal.submit_round_robin(traces);
        let result = medal.run();
        assert_eq!(result.tasks, n);
        assert!(result.cycles > 0);
        assert!(result.dram.get("dram.cmd.read") > 0);
    }

    #[test]
    fn remote_accesses_generate_channel_traffic() {
        let (traces, bytes) = small_fm_workload();
        let mut cfg = MedalConfig::paper(16);
        cfg.pes_per_dimm = 8;
        cfg.refresh_enabled = false;
        let mut medal = build(cfg, bytes);
        medal.submit_round_robin(traces);
        let result = medal.run();
        // Index striped over 4 DIMMs: ~3/4 of accesses are remote.
        assert!(result.comm.get("cxl.flits") > 0);
    }

    #[test]
    fn idealized_communication_is_faster() {
        let (traces, bytes) = small_fm_workload();
        let mut cfg = MedalConfig::paper(16);
        cfg.pes_per_dimm = 8;
        cfg.refresh_enabled = false;

        let mut real = build(cfg, bytes);
        real.submit_round_robin(traces.clone());
        let t_real = real.run().cycles;

        let mut ideal = build(cfg.idealized(), bytes);
        ideal.submit_round_robin(traces);
        let t_ideal = ideal.run().cycles;

        assert!(
            t_ideal < t_real,
            "ideal {t_ideal} should beat real {t_real}"
        );
    }

    #[test]
    fn chip_histogram_records_fine_grained_access() {
        let (traces, bytes) = small_fm_workload();
        let mut cfg = MedalConfig::paper(16);
        cfg.pes_per_dimm = 8;
        cfg.refresh_enabled = false;
        let mut medal = build(cfg, bytes);
        medal.submit_round_robin(traces);
        let result = medal.run();
        let hist = result.merged_chip_histogram().unwrap();
        assert!(hist.total() > 0);
    }

    #[test]
    fn more_pes_help_compute_bound_workloads() {
        // Under idealised communication and a long PE latency the system
        // is compute-bound, so PE count must scale throughput.
        let (traces, bytes) = small_fm_workload();
        let mut few = MedalConfig::paper(200).idealized();
        few.pes_per_dimm = 1;
        few.refresh_enabled = false;
        let mut many = few;
        many.pes_per_dimm = 8;

        let mut a = build(few, bytes);
        a.submit_round_robin(traces.clone());
        let t_few = a.run().cycles;

        let mut b = build(many, bytes);
        b.submit_round_robin(traces);
        let t_many = b.run().cycles;
        assert!(
            t_many * 2 < t_few,
            "8 PEs ({t_many}) not ≥2x faster than 1 PE ({t_few})"
        );
    }
}
