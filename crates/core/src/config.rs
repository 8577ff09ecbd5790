//! BEACON system configuration (paper Table I) and the optimisation
//! ladder.

use beacon_cxl::message::NodeId;
use beacon_cxl::params::LinkParams;
use beacon_dram::params::DimmGeometry;
use beacon_genomics::trace::AppKind;

/// Which BEACON design is instantiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeaconVariant {
    /// BEACON-D: computation inside enhanced CXLG-DIMMs.
    D,
    /// BEACON-S: computation inside enhanced CXL-Switches.
    S,
}

impl BeaconVariant {
    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            BeaconVariant::D => "BEACON-D",
            BeaconVariant::S => "BEACON-S",
        }
    }
}

/// The paper's step-by-step optimisation toggles (§IV, evaluated
/// cumulatively in Figs. 12/14/15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Optimizations {
    /// Data packing in the CXL interfaces and switch logic (Fig. 6).
    pub data_packing: bool,
    /// Memory-access optimisation: device-bias access to unmodified
    /// CXL-DIMMs, skipping the host round-trip (Fig. 9).
    pub mem_access_opt: bool,
    /// Architecture- and data-aware data placement + address mapping
    /// (Fig. 10).
    pub placement_mapping: bool,
    /// Multi-chip coalescing in CXLG-DIMMs: chips ganged per access
    /// (Fig. 11 c). `None` = per-chip access. BEACON-D + FM-index only.
    pub multi_chip_coalescing: Option<u32>,
    /// Single-pass k-mer counting (BEACON-S only, §IV-D).
    pub single_pass_kmer: bool,
    /// Idealised communication: infinite bandwidth, zero latency.
    pub ideal_comm: bool,
}

impl Optimizations {
    /// CXL-vanilla: the naïve NDP accelerator near the pool.
    pub fn vanilla() -> Self {
        Optimizations {
            data_packing: false,
            mem_access_opt: false,
            placement_mapping: false,
            multi_chip_coalescing: None,
            single_pass_kmer: false,
            ideal_comm: false,
        }
    }

    /// Everything on (the full BEACON design point for `variant`).
    pub fn full(variant: BeaconVariant, app: AppKind) -> Self {
        Optimizations {
            data_packing: true,
            mem_access_opt: true,
            placement_mapping: true,
            multi_chip_coalescing: if variant == BeaconVariant::D && app == AppKind::FmSeeding {
                Some(4)
            } else {
                None
            },
            single_pass_kmer: variant == BeaconVariant::S && app == AppKind::KmerCounting,
            ideal_comm: false,
        }
    }

    /// The full design point with idealised communication (for the
    /// "% of ideal" statistics).
    pub fn full_ideal(variant: BeaconVariant, app: AppKind) -> Self {
        let mut o = Optimizations::full(variant, app);
        o.ideal_comm = true;
        o
    }

    /// The cumulative optimisation ladder evaluated in the figures, in
    /// paper order, as `(label, toggles)` pairs. The ladder depends on
    /// variant and application (e.g. coalescing only exists for
    /// FM-index on BEACON-D).
    pub fn ladder(variant: BeaconVariant, app: AppKind) -> Vec<(&'static str, Optimizations)> {
        let mut points = vec![("CXL-vanilla", Optimizations::vanilla())];
        let mut cur = Optimizations::vanilla();

        cur.data_packing = true;
        points.push(("+data packing", cur));

        cur.mem_access_opt = true;
        points.push(("+mem access opt", cur));

        cur.placement_mapping = true;
        points.push(("+placement/mapping", cur));

        if variant == BeaconVariant::D && app == AppKind::FmSeeding {
            cur.multi_chip_coalescing = Some(4);
            points.push(("+multi-chip coalescing", cur));
        }
        if variant == BeaconVariant::S && app == AppKind::KmerCounting {
            cur.single_pass_kmer = true;
            points.push(("+single-pass k-mer", cur));
        }
        points
    }
}

/// Deterministic fault-injection configuration (RAS model).
///
/// All fault streams are derived from `seed` with
/// [`beacon_sim::faults::FaultSchedule`]; a given seed yields the
/// identical schedule regardless of thread count or event-horizon
/// skipping. Rates are expressed per *million* cycles so paper-scale
/// runs (tens of Mcycles) see a handful of events at rate 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultsConfig {
    /// Master seed for every per-component fault stream.
    pub seed: u64,
    /// CRC flit errors per million cycles, per link direction.
    pub link_crc_per_mcycle: f64,
    /// Switch-port flaps per million cycles, per DIMM port.
    pub port_flap_per_mcycle: f64,
    /// How long a flapped port stays down, in cycles.
    pub flap_down_cycles: u64,
    /// Uncorrectable DRAM errors per million cycles, per unmodified
    /// DIMM (reads only; CXLG-DIMM accesses are ECC-scrubbed locally).
    pub dimm_ue_per_mcycle: f64,
    /// Cycle at which one whole DIMM fails hard (0 = never).
    pub dimm_fail_at: u64,
    /// Switch hosting the failing DIMM.
    pub dimm_fail_switch: u32,
    /// Slot (within the switch) of the failing DIMM. Must name an
    /// unmodified slot; CXLG-DIMMs hold compute state and are out of
    /// scope for whole-module failure.
    pub dimm_fail_slot: u32,
    /// Horizon (in cycles) out to which fault stamps are pre-drawn.
    pub horizon: u64,
}

impl FaultsConfig {
    /// A quiet schedule: seeded, but every rate zero and no DIMM
    /// failure. Useful as a differential baseline — running with this
    /// config must reproduce the fault-free digests bit-for-bit.
    pub fn quiet(seed: u64) -> Self {
        FaultsConfig {
            seed,
            link_crc_per_mcycle: 0.0,
            port_flap_per_mcycle: 0.0,
            flap_down_cycles: 0,
            dimm_ue_per_mcycle: 0.0,
            dimm_fail_at: 0,
            dimm_fail_switch: 0,
            dimm_fail_slot: 0,
            horizon: 200_000_000,
        }
    }

    /// A lively schedule exercising every fault class at `rate`
    /// events per million cycles (no hard DIMM failure).
    pub fn noisy(seed: u64, rate: f64) -> Self {
        let mut f = FaultsConfig::quiet(seed);
        f.link_crc_per_mcycle = rate;
        f.port_flap_per_mcycle = rate / 4.0;
        f.flap_down_cycles = 2_000;
        f.dimm_ue_per_mcycle = rate / 2.0;
        f
    }

    /// Kills the unmodified DIMM in `slot` of `switch` at cycle `at`,
    /// on top of an otherwise quiet schedule.
    pub fn dimm_loss(seed: u64, switch: u32, slot: u32, at: u64) -> Self {
        let mut f = FaultsConfig::quiet(seed);
        f.dimm_fail_at = at;
        f.dimm_fail_switch = switch;
        f.dimm_fail_slot = slot;
        f
    }

    /// True when no fault of any kind can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.link_crc_per_mcycle == 0.0
            && self.port_flap_per_mcycle == 0.0
            && self.dimm_ue_per_mcycle == 0.0
            && self.dimm_fail_at == 0
    }
}

/// Full system configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconConfig {
    /// Design variant.
    pub variant: BeaconVariant,
    /// Number of CXL switches in the pool.
    pub switches: u32,
    /// CXLG-DIMMs per switch (BEACON-D; 0 for BEACON-S).
    pub cxlg_per_switch: u32,
    /// Unmodified CXL-DIMMs per switch (the memory-expansion pool).
    pub unmodified_per_switch: u32,
    /// PEs per compute module (per CXLG-DIMM for D, per switch for S).
    pub pes_per_module: usize,
    /// PE compute latency per step, in cycles.
    pub pe_latency: u32,
    /// Per-DIMM CXL link.
    pub dimm_link: LinkParams,
    /// Host uplink per switch.
    pub uplink: LinkParams,
    /// Host forwarding latency between switches, in cycles.
    pub host_latency: u64,
    /// Switch-bus bandwidth, bytes/cycle.
    pub switch_bus_bytes_per_cycle: f64,
    /// Switch port-to-port latency, cycles.
    pub switch_latency: u64,
    /// DRAM refresh modelling.
    pub refresh_enabled: bool,
    /// DRAM controller queue depth.
    pub dimm_queue_depth: usize,
    /// Striping granularity for the vanilla (locality-blind) mapping.
    pub vanilla_stripe_bytes: u64,
    /// Striping granularity for the optimised mapping.
    pub opt_stripe_bytes: u64,
    /// Data-packer flush age in cycles.
    pub packer_flush_age: u64,
    /// DIMM geometry (simulation-scaled by default).
    pub geometry: DimmGeometry,
    /// The optimisation toggles.
    pub opts: Optimizations,
    /// Fault injection / RAS model. `None` (the default) is the
    /// pristine machine: no fault state is allocated and the hot path
    /// pays nothing.
    pub faults: Option<FaultsConfig>,
}

impl BeaconConfig {
    /// Paper Table I for BEACON-D: 2 switches × 2 CXLG-DIMMs × 128 PEs
    /// (512 total), 2 unmodified CXL-DIMMs per switch.
    pub fn paper_d(app: AppKind) -> Self {
        BeaconConfig {
            variant: BeaconVariant::D,
            switches: 2,
            cxlg_per_switch: 2,
            unmodified_per_switch: 2,
            pes_per_module: 128,
            pe_latency: app.pe_latency_cycles(),
            dimm_link: LinkParams::cxl_x8(),
            uplink: LinkParams::cxl_x8(),
            host_latency: 60,
            switch_bus_bytes_per_cycle: 512.0,
            switch_latency: 20,
            refresh_enabled: true,
            dimm_queue_depth: 192,
            vanilla_stripe_bytes: 1024,
            opt_stripe_bytes: 512,
            packer_flush_age: 8,
            geometry: DimmGeometry::sim_scaled(),
            opts: Optimizations::vanilla(),
            faults: None,
        }
    }

    /// Paper Table I for BEACON-S: 2 switches × 256 PEs, 4 unmodified
    /// CXL-DIMMs per switch (no CXLG-DIMMs at all).
    pub fn paper_s(app: AppKind) -> Self {
        let mut cfg = BeaconConfig::paper_d(app);
        cfg.variant = BeaconVariant::S;
        cfg.cxlg_per_switch = 0;
        cfg.unmodified_per_switch = 4;
        cfg.pes_per_module = 256;
        cfg
    }

    /// Paper configuration for a variant.
    pub fn paper(variant: BeaconVariant, app: AppKind) -> Self {
        match variant {
            BeaconVariant::D => BeaconConfig::paper_d(app),
            BeaconVariant::S => BeaconConfig::paper_s(app),
        }
    }

    /// Applies an optimisation point.
    pub fn with_opts(mut self, opts: Optimizations) -> Self {
        self.opts = opts;
        self
    }

    /// Installs a fault schedule.
    pub fn with_faults(mut self, faults: FaultsConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// DIMM slots per switch (CXLG first, then unmodified).
    pub fn slots_per_switch(&self) -> u32 {
        self.cxlg_per_switch + self.unmodified_per_switch
    }

    /// Total DIMMs in the pool.
    pub fn total_dimms(&self) -> u32 {
        self.switches * self.slots_per_switch()
    }

    /// True when slot `slot` of any switch is a CXLG-DIMM.
    pub fn slot_is_cxlg(&self, slot: u32) -> bool {
        slot < self.cxlg_per_switch
    }

    /// Nodes of all CXLG-DIMMs.
    pub fn cxlg_nodes(&self) -> Vec<NodeId> {
        (0..self.switches)
            .flat_map(|s| (0..self.cxlg_per_switch).map(move |d| NodeId::dimm(s, d)))
            .collect()
    }

    /// Nodes of all unmodified CXL-DIMMs.
    pub fn unmodified_nodes(&self) -> Vec<NodeId> {
        (0..self.switches)
            .flat_map(|s| {
                (self.cxlg_per_switch..self.slots_per_switch()).map(move |d| NodeId::dimm(s, d))
            })
            .collect()
    }

    /// Every DIMM node in the pool.
    pub fn all_dimm_nodes(&self) -> Vec<NodeId> {
        (0..self.switches)
            .flat_map(|s| (0..self.slots_per_switch()).map(move |d| NodeId::dimm(s, d)))
            .collect()
    }

    /// Number of compute modules (CXLG-DIMMs for D, switches for S).
    pub fn compute_modules(&self) -> u32 {
        match self.variant {
            BeaconVariant::D => self.switches * self.cxlg_per_switch,
            BeaconVariant::S => self.switches,
        }
    }

    /// Total PEs in the system.
    pub fn total_pes(&self) -> usize {
        self.compute_modules() as usize * self.pes_per_module
    }

    /// Validates structural consistency.
    ///
    /// # Errors
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.switches == 0 {
            return Err("need at least one switch".into());
        }
        match self.variant {
            BeaconVariant::D if self.cxlg_per_switch == 0 => {
                Err("BEACON-D needs CXLG-DIMMs".into())
            }
            BeaconVariant::S if self.cxlg_per_switch != 0 => {
                Err("BEACON-S has no CXLG-DIMMs".into())
            }
            _ if self.total_dimms() == 0 => Err("pool has no DIMMs".into()),
            _ if self.pes_per_module == 0 => Err("need PEs".into()),
            _ => match &self.faults {
                Some(f) if f.dimm_fail_at > 0 && f.dimm_fail_switch >= self.switches => {
                    Err("failing DIMM names a switch outside the pool".into())
                }
                Some(f)
                    if f.dimm_fail_at > 0
                        && (f.dimm_fail_slot >= self.slots_per_switch()
                            || self.slot_is_cxlg(f.dimm_fail_slot)) =>
                {
                    Err("failing DIMM must be an unmodified slot".into())
                }
                _ => Ok(()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_d_matches_table1() {
        let cfg = BeaconConfig::paper_d(AppKind::FmSeeding);
        assert_eq!(cfg.total_pes(), 512);
        assert_eq!(cfg.compute_modules(), 4);
        assert_eq!(cfg.total_dimms(), 8);
        assert_eq!(cfg.pe_latency, 16);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn paper_s_matches_table1() {
        let cfg = BeaconConfig::paper_s(AppKind::KmerCounting);
        assert_eq!(cfg.total_pes(), 512);
        assert_eq!(cfg.compute_modules(), 2);
        assert_eq!(cfg.total_dimms(), 8);
        assert_eq!(cfg.pe_latency, 59);
        assert!(cfg.cxlg_nodes().is_empty());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn node_partition_is_complete() {
        let cfg = BeaconConfig::paper_d(AppKind::FmSeeding);
        let mut all = cfg.cxlg_nodes();
        all.extend(cfg.unmodified_nodes());
        all.sort();
        let mut expected = cfg.all_dimm_nodes();
        expected.sort();
        assert_eq!(all, expected);
    }

    #[test]
    fn ladder_order_and_length() {
        let d_fm = Optimizations::ladder(BeaconVariant::D, AppKind::FmSeeding);
        assert_eq!(d_fm.len(), 5);
        assert_eq!(d_fm[0].0, "CXL-vanilla");
        assert_eq!(d_fm[4].0, "+multi-chip coalescing");

        let s_fm = Optimizations::ladder(BeaconVariant::S, AppKind::FmSeeding);
        assert_eq!(s_fm.len(), 4);

        let s_kmer = Optimizations::ladder(BeaconVariant::S, AppKind::KmerCounting);
        assert_eq!(s_kmer.last().unwrap().0, "+single-pass k-mer");

        let d_kmer = Optimizations::ladder(BeaconVariant::D, AppKind::KmerCounting);
        assert_eq!(d_kmer.len(), 4);
    }

    #[test]
    fn ladder_is_cumulative() {
        let pts = Optimizations::ladder(BeaconVariant::D, AppKind::FmSeeding);
        assert!(!pts[0].1.data_packing);
        assert!(pts[1].1.data_packing && !pts[1].1.mem_access_opt);
        assert!(pts[2].1.mem_access_opt && !pts[2].1.placement_mapping);
        assert!(pts[3].1.placement_mapping);
        assert!(pts[4].1.multi_chip_coalescing.is_some());
    }

    #[test]
    fn full_matches_ladder_top() {
        let pts = Optimizations::ladder(BeaconVariant::D, AppKind::FmSeeding);
        assert_eq!(
            pts.last().unwrap().1,
            Optimizations::full(BeaconVariant::D, AppKind::FmSeeding)
        );
    }

    #[test]
    fn invalid_configs_detected() {
        let mut cfg = BeaconConfig::paper_d(AppKind::FmSeeding);
        cfg.cxlg_per_switch = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = BeaconConfig::paper_s(AppKind::FmSeeding);
        cfg.cxlg_per_switch = 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn fault_configs_validate() {
        let cfg = BeaconConfig::paper_d(AppKind::FmSeeding);
        assert!(FaultsConfig::quiet(1).is_quiet());
        assert!(!FaultsConfig::noisy(1, 5.0).is_quiet());

        // Slot 2 is unmodified on paper-D: fine.
        let ok = cfg.with_faults(FaultsConfig::dimm_loss(1, 0, 2, 1000));
        assert!(ok.validate().is_ok());
        // Slot 0 is a CXLG-DIMM: rejected.
        let bad = cfg.with_faults(FaultsConfig::dimm_loss(1, 0, 0, 1000));
        assert!(bad.validate().is_err());
        // Switch out of range: rejected.
        let bad = cfg.with_faults(FaultsConfig::dimm_loss(1, 9, 2, 1000));
        assert!(bad.validate().is_err());
        // fail_at == 0 means "never": target fields ignored.
        let ok = cfg.with_faults(FaultsConfig::dimm_loss(1, 9, 0, 0));
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn slot_classification() {
        let cfg = BeaconConfig::paper_d(AppKind::FmSeeding);
        assert!(cfg.slot_is_cxlg(0));
        assert!(cfg.slot_is_cxlg(1));
        assert!(!cfg.slot_is_cxlg(2));
        assert!(!cfg.slot_is_cxlg(3));
    }
}
