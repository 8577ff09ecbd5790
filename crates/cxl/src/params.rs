//! Link parameters and protocol constants.
//!
//! Bandwidths are expressed in bytes per **DRAM cycle** (the global time
//! base, 1.25 ns at DDR4-1600) so the transport composes directly with the
//! DRAM model.

/// CXL transfer granularity: one 64 B flit.
pub const FLIT_BYTES: u32 = 64;

/// Per-message header/metadata overhead on the wire (request id, address,
/// opcode). Fine-grained payloads therefore never pack perfectly — matching
/// the paper's observation that packing removes *useless data*, not all
/// overhead.
pub const MSG_HEADER_BYTES: u32 = 4;

/// Bandwidth/latency of one CXL channel direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Peak bandwidth in bytes per DRAM cycle.
    pub bytes_per_cycle: f64,
    /// Propagation + protocol latency in DRAM cycles.
    pub latency_cycles: u64,
    /// Sender-side queue depth (bundles) before back-pressure.
    pub queue_depth: usize,
    /// Wire granularity in bytes: transfers round up to whole slots
    /// (16 B CXL flit slots; 8 B DDR bus beats).
    pub slot_bytes: u32,
}

impl LinkParams {
    /// CXL x8 (PCIe 5.0): 32 GB/s per direction ⇒ 40 B per 1.25 ns cycle.
    /// Used for the per-DIMM links of the paper's pool.
    pub fn cxl_x8() -> Self {
        LinkParams {
            bytes_per_cycle: 40.0,
            latency_cycles: 20, // ~25 ns port-to-endpoint
            queue_depth: 128,
            slot_bytes: 16,
        }
    }

    /// CXL x16: 64 GB/s per direction ⇒ 80 B per cycle. Used for the
    /// host-to-switch uplinks.
    pub fn cxl_x16() -> Self {
        LinkParams {
            bytes_per_cycle: 80.0,
            latency_cycles: 20,
            queue_depth: 128,
            slot_bytes: 16,
        }
    }

    /// A shared DDR4-1600 channel (12.8 GB/s peak) used as the
    /// inter-DIMM message transport of the MEDAL/NEST baselines. The bus
    /// carries requests and data in both directions at its full 16 B per
    /// cycle in each modelled direction.
    pub fn ddr4_channel() -> Self {
        LinkParams {
            bytes_per_cycle: 16.0,
            latency_cycles: 10,
            queue_depth: 64,
            slot_bytes: 8,
        }
    }

    /// Idealised communication: effectively infinite bandwidth and zero
    /// latency (Fig. 3 and the "% of ideal" studies).
    pub fn ideal() -> Self {
        LinkParams {
            bytes_per_cycle: 1e12,
            latency_cycles: 0,
            queue_depth: 1 << 20,
            slot_bytes: 1,
        }
    }

    /// Serialisation time of `bytes` on this link, in fractional cycles.
    pub fn serialize_cycles(&self, bytes: u32) -> f64 {
        bytes as f64 / self.bytes_per_cycle
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.bytes_per_cycle <= 0.0 || self.bytes_per_cycle.is_nan() {
            return Err("bandwidth must be positive".into());
        }
        if self.queue_depth == 0 {
            return Err("queue depth must be positive".into());
        }
        if self.slot_bytes == 0 {
            return Err("slot granularity must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for p in [
            LinkParams::cxl_x8(),
            LinkParams::cxl_x16(),
            LinkParams::ddr4_channel(),
            LinkParams::ideal(),
        ] {
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn x16_is_twice_x8() {
        assert_eq!(
            LinkParams::cxl_x16().bytes_per_cycle,
            2.0 * LinkParams::cxl_x8().bytes_per_cycle
        );
    }

    #[test]
    fn serialization_scales_with_bytes() {
        let p = LinkParams::cxl_x8();
        assert_eq!(p.serialize_cycles(80), 2.0);
        assert!(p.serialize_cycles(64) < p.serialize_cycles(128));
    }

    #[test]
    fn ideal_link_is_effectively_free() {
        let p = LinkParams::ideal();
        assert!(p.serialize_cycles(1_000_000) < 1e-3);
        assert_eq!(p.latency_cycles, 0);
    }

    #[test]
    fn zero_bandwidth_is_invalid() {
        let mut p = LinkParams::cxl_x8();
        p.bytes_per_cycle = 0.0;
        assert!(p.validate().is_err());
    }
}
