//! Deterministic checkpoint/restore for a whole [`BeaconSystem`].
//!
//! A snapshot is a self-describing container:
//!
//! * a one-line JSON header (magic, format version, capture cycle and
//!   the headline topology — enough to identify a file without decoding
//!   the body), then
//! * a binary body in [`beacon_sim::snap`] wire format: the full
//!   configuration, the capture clock, the pool allocator, the region
//!   maps, the staged host traffic and one component section per
//!   switch subtree.
//!
//! Restore is *restore-into*: [`BeaconSystem::resume`] rebuilds the
//! topology from the decoded configuration via [`BeaconSystem::new`]
//! (re-deriving every static — trace labels, fault streams, the
//! graceful-degradation plan) and then overwrites the dynamic state of
//! every component from the body. A resumed system continues
//! **bit-identically**: same [`RunResult`](beacon_accel::result::RunResult)
//! digest as the uninterrupted run, across thread counts and with
//! event-horizon skipping on or off (the conformance suite in
//! `tests/snapshot.rs` holds that contract).
//!
//! Digest-excluded state — attribution aggregates, journey stamps,
//! queue-depth integrals, trace rings, horizon caches, probe-throttle
//! counters — is deliberately *not* captured: it restores empty (or
//! deterministically reset), exactly as DESIGN.md §14 specifies.

use beacon_sim::cycle::Cycle;
use beacon_sim::json::{JsonValue, Writer};
use beacon_sim::snap::{SnapError, SnapReader, SnapWriter};

use beacon_accel::translate::RegionMap;
use beacon_cxl::params::LinkParams;

use crate::allocator::PoolAllocator;
use crate::config::{BeaconConfig, BeaconVariant, FaultsConfig, Optimizations};
use crate::mmf::MemoryLayout;
use crate::system::BeaconSystem;

/// First bytes of every snapshot file (inside the JSON header).
pub const MAGIC: &str = "BEACONSNAP";
/// Container format version; bumped on any incompatible layout change.
pub const FORMAT_VERSION: u16 = 1;

// ----- configuration codec --------------------------------------------

fn put_link(w: &mut SnapWriter, l: &LinkParams) {
    w.f64(l.bytes_per_cycle);
    w.u64(l.latency_cycles);
    w.usize(l.queue_depth);
    w.u32(l.slot_bytes);
}

fn get_link(r: &mut SnapReader<'_>) -> Result<LinkParams, SnapError> {
    Ok(LinkParams {
        bytes_per_cycle: r.f64()?,
        latency_cycles: r.u64()?,
        queue_depth: r.usize()?,
        slot_bytes: r.u32()?,
    })
}

fn put_opts(w: &mut SnapWriter, o: &Optimizations) {
    w.bool(o.data_packing);
    w.bool(o.mem_access_opt);
    w.bool(o.placement_mapping);
    match o.multi_chip_coalescing {
        None => w.bool(false),
        Some(c) => {
            w.bool(true);
            w.u32(c);
        }
    }
    w.bool(o.single_pass_kmer);
    w.bool(o.ideal_comm);
}

fn get_opts(r: &mut SnapReader<'_>) -> Result<Optimizations, SnapError> {
    Ok(Optimizations {
        data_packing: r.bool()?,
        mem_access_opt: r.bool()?,
        placement_mapping: r.bool()?,
        multi_chip_coalescing: if r.bool()? { Some(r.u32()?) } else { None },
        single_pass_kmer: r.bool()?,
        ideal_comm: r.bool()?,
    })
}

fn put_faults(w: &mut SnapWriter, f: &FaultsConfig) {
    w.u64(f.seed);
    w.f64(f.link_crc_per_mcycle);
    w.f64(f.port_flap_per_mcycle);
    w.u64(f.flap_down_cycles);
    w.f64(f.dimm_ue_per_mcycle);
    w.u64(f.dimm_fail_at);
    w.u32(f.dimm_fail_switch);
    w.u32(f.dimm_fail_slot);
    w.u64(f.horizon);
}

fn get_faults(r: &mut SnapReader<'_>) -> Result<FaultsConfig, SnapError> {
    Ok(FaultsConfig {
        seed: r.u64()?,
        link_crc_per_mcycle: r.f64()?,
        port_flap_per_mcycle: r.f64()?,
        flap_down_cycles: r.u64()?,
        dimm_ue_per_mcycle: r.f64()?,
        dimm_fail_at: r.u64()?,
        dimm_fail_switch: r.u32()?,
        dimm_fail_slot: r.u32()?,
        horizon: r.u64()?,
    })
}

/// Encodes a full [`BeaconConfig`] (floats as exact bit patterns, so
/// the round trip is identity).
pub fn put_config(w: &mut SnapWriter, cfg: &BeaconConfig) {
    w.u8(match cfg.variant {
        BeaconVariant::D => 0,
        BeaconVariant::S => 1,
    });
    w.u32(cfg.switches);
    w.u32(cfg.cxlg_per_switch);
    w.u32(cfg.unmodified_per_switch);
    w.usize(cfg.pes_per_module);
    w.u32(cfg.pe_latency);
    put_link(w, &cfg.dimm_link);
    put_link(w, &cfg.uplink);
    w.u64(cfg.host_latency);
    w.f64(cfg.switch_bus_bytes_per_cycle);
    w.u64(cfg.switch_latency);
    w.bool(cfg.refresh_enabled);
    w.usize(cfg.dimm_queue_depth);
    w.u64(cfg.vanilla_stripe_bytes);
    w.u64(cfg.opt_stripe_bytes);
    w.u64(cfg.packer_flush_age);
    beacon_dram::snap::put_geometry(w, &cfg.geometry);
    put_opts(w, &cfg.opts);
    match &cfg.faults {
        None => w.bool(false),
        Some(f) => {
            w.bool(true);
            put_faults(w, f);
        }
    }
}

/// Decodes a [`BeaconConfig`] written by [`put_config`].
///
/// # Errors
/// [`SnapError::Corrupt`] on unknown enum tags; any read error on short
/// input.
pub fn get_config(r: &mut SnapReader<'_>) -> Result<BeaconConfig, SnapError> {
    let variant = match r.u8()? {
        0 => BeaconVariant::D,
        1 => BeaconVariant::S,
        t => return Err(SnapError::Corrupt(format!("unknown BeaconVariant tag {t}"))),
    };
    Ok(BeaconConfig {
        variant,
        switches: r.u32()?,
        cxlg_per_switch: r.u32()?,
        unmodified_per_switch: r.u32()?,
        pes_per_module: r.usize()?,
        pe_latency: r.u32()?,
        dimm_link: get_link(r)?,
        uplink: get_link(r)?,
        host_latency: r.u64()?,
        switch_bus_bytes_per_cycle: r.f64()?,
        switch_latency: r.u64()?,
        refresh_enabled: r.bool()?,
        dimm_queue_depth: r.usize()?,
        vanilla_stripe_bytes: r.u64()?,
        opt_stripe_bytes: r.u64()?,
        packer_flush_age: r.u64()?,
        geometry: beacon_dram::snap::get_geometry(r)?,
        opts: get_opts(r)?,
        faults: if r.bool()? {
            Some(get_faults(r)?)
        } else {
            None
        },
    })
}

// ----- container ------------------------------------------------------

fn header_line(cfg: &BeaconConfig, cycle: Cycle, body_bytes: usize) -> String {
    // Fixed key order: the header bytes are a pure function of
    // (config, cycle, body), so they are golden-file stable.
    let mut w = Writer::new();
    w.object(|w| {
        w.key("magic").str(MAGIC);
        w.key("format").u64(u64::from(FORMAT_VERSION));
        w.key("cycle").u64(cycle.as_u64());
        w.key("variant").str(match cfg.variant {
            BeaconVariant::D => "D",
            BeaconVariant::S => "S",
        });
        w.key("switches").u64(u64::from(cfg.switches));
        w.key("cxlg_per_switch").u64(u64::from(cfg.cxlg_per_switch));
        w.key("unmodified_per_switch")
            .u64(u64::from(cfg.unmodified_per_switch));
        w.key("pes_per_module").u64(cfg.pes_per_module as u64);
        w.key("fault_seed")
            .u64(cfg.faults.as_ref().map_or(0, |f| f.seed));
        w.key("body_bytes").u64(body_bytes as u64);
    });
    format!("{}\n", w.finish())
}

fn header_u64(h: &JsonValue, key: &str) -> Result<u64, SnapError> {
    h.get(key)
        .and_then(JsonValue::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| SnapError::Header(format!("missing numeric header field `{key}`")))
}

impl BeaconSystem {
    /// Serialises the complete dynamic state of this system at its
    /// current clock into a self-describing snapshot. Valid at any
    /// point the system is between ticks — before a run, after
    /// [`BeaconSystem::run_to`] paused at an epoch boundary, or after a
    /// drained run.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.section("cfg", 1);
        put_config(&mut w, &self.cfg);
        w.section("clk", 1);
        w.cycle(self.clock);
        w.cycle(self.finished_at);
        w.u64(self.rmw_alu_cycles);
        w.section("alloc", 1);
        self.allocator.snap_into(&mut w);
        w.section("maps", 1);
        w.usize(self.maps.len());
        for map in &self.maps {
            map.snap_into(&mut w);
        }
        w.section("host", 1);
        w.usize(self.host_stage.len());
        for (ready, bundle) in &self.host_stage {
            w.cycle(*ready);
            beacon_cxl::snap::put_bundle(&mut w, bundle);
        }
        for sw in &self.switches {
            w.component(sw);
        }
        w.section("end", 1);
        let body = w.into_bytes();
        let mut out = header_line(&self.cfg, self.clock, body.len()).into_bytes();
        out.extend_from_slice(&body);
        out
    }

    /// Reconstructs a system from snapshot bytes; the result continues
    /// the captured run bit-identically (call [`BeaconSystem::run`] to
    /// complete it).
    ///
    /// # Errors
    /// Typed [`SnapError`]s — never panics on malformed input: bad
    /// magic, unsupported format or component versions, truncation,
    /// corrupt encodings, trailing bytes.
    pub fn resume(bytes: &[u8]) -> Result<Self, SnapError> {
        Self::resume_impl(bytes, None)
    }

    /// Like [`BeaconSystem::resume`], but additionally rejects (with
    /// [`SnapError::Topology`]) a snapshot whose configuration differs
    /// from `expect` — the guard a driver uses when a snapshot file
    /// must belong to the experiment it is resuming.
    ///
    /// # Errors
    /// Everything [`BeaconSystem::resume`] returns, plus the topology
    /// mismatch.
    pub fn resume_expecting(bytes: &[u8], expect: &BeaconConfig) -> Result<Self, SnapError> {
        Self::resume_impl(bytes, Some(expect))
    }

    fn resume_impl(bytes: &[u8], expect: Option<&BeaconConfig>) -> Result<Self, SnapError> {
        // 1. The header line.
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| SnapError::Header("no header line (missing newline)".into()))?;
        let text = std::str::from_utf8(&bytes[..nl])
            .map_err(|e| SnapError::Header(format!("header is not UTF-8: {e}")))?;
        if !text.contains(MAGIC) {
            return Err(SnapError::BadMagic(
                text.chars().take(24).collect::<String>(),
            ));
        }
        let header = JsonValue::parse(text)
            .map_err(|e| SnapError::Header(format!("header is not valid JSON: {e}")))?;
        match header.get("magic").and_then(JsonValue::as_str) {
            Some(m) if m == MAGIC => {}
            other => return Err(SnapError::BadMagic(other.unwrap_or("<none>").to_owned())),
        }
        let format = header_u64(&header, "format")? as u16;
        if format != FORMAT_VERSION {
            return Err(SnapError::FormatVersion {
                found: u32::from(format),
                supported: u32::from(FORMAT_VERSION),
            });
        }
        let body_bytes = header_u64(&header, "body_bytes")? as usize;
        let body = &bytes[nl + 1..];
        if body.len() < body_bytes {
            return Err(SnapError::Truncated {
                wanted: body_bytes,
                available: body.len(),
            });
        }
        if body.len() > body_bytes {
            return Err(SnapError::TrailingBytes(body.len() - body_bytes));
        }

        // 2. Configuration, and the rebuildable layout inputs.
        let mut r = SnapReader::new(body);
        r.section("cfg", 1)?;
        let cfg = get_config(&mut r)?;
        if let Some(e) = expect {
            let mut got = SnapWriter::new();
            put_config(&mut got, &cfg);
            let mut want = SnapWriter::new();
            put_config(&mut want, e);
            if got.into_bytes() != want.into_bytes() {
                return Err(SnapError::Topology(format!(
                    "snapshot is for {} × {} switches ({} CXLG + {} unmodified per \
                     switch), which does not match the expected configuration",
                    cfg.variant.label(),
                    cfg.switches,
                    cfg.cxlg_per_switch,
                    cfg.unmodified_per_switch,
                )));
            }
        }
        cfg.validate()
            .map_err(|e| SnapError::Corrupt(format!("snapshot configuration invalid: {e}")))?;
        r.section("clk", 1)?;
        let clock = r.cycle()?;
        let finished_at = r.cycle()?;
        let rmw_alu_cycles = r.u64()?;
        r.section("alloc", 1)?;
        let allocator = PoolAllocator::from_snap(&mut r)?;
        r.section("maps", 1)?;
        let n_maps = r.seq_len()?;
        if n_maps != cfg.compute_modules() as usize {
            return Err(SnapError::Topology(format!(
                "snapshot has {n_maps} region maps, configuration needs {}",
                cfg.compute_modules()
            )));
        }
        let mut maps = Vec::with_capacity(n_maps);
        for _ in 0..n_maps {
            maps.push(RegionMap::from_snap(&mut r)?);
        }

        // 3. Rebuild the topology (statics re-derived from the config),
        // then overwrite its dynamic state.
        let layout = MemoryLayout {
            maps,
            cxlg_mode: crate::mmf::cxlg_mode_for(&cfg),
            allocator,
        };
        let mut sys = BeaconSystem::new(cfg, layout);
        sys.reset_host_for_restore();
        r.section("host", 1)?;
        let n = r.seq_len()?;
        for _ in 0..n {
            let ready = r.cycle()?;
            let bundle = beacon_cxl::snap::get_bundle(&mut r)?;
            sys.host_stage.push_back((ready, bundle));
        }
        for sw in &mut sys.switches {
            r.component(sw)?;
        }
        r.section("end", 1)?;
        r.finish()?;
        sys.clock = clock;
        sys.finished_at = finished_at;
        sys.rmw_alu_cycles = rmw_alu_cycles;
        Ok(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmf::{build_layout, LayoutSpec};
    use beacon_genomics::genome::{Genome, GenomeId};
    use beacon_genomics::prelude::FmIndex;
    use beacon_genomics::reads::ReadSampler;
    use beacon_genomics::trace::{AppKind, Region, TaskTrace};
    use beacon_sim::engine::RunOptions;
    use beacon_sim::observer::Observer;

    fn workload(n: usize) -> (Vec<TaskTrace>, u64) {
        let g = Genome::synthetic(GenomeId::Pt, 3000, 5);
        let idx = FmIndex::build(g.sequence());
        let mut sampler = ReadSampler::new(&g, 24, 0.0, 9);
        let traces = (0..n)
            .map(|_| idx.trace_search(sampler.next_read().bases()))
            .collect();
        (traces, idx.index_bytes())
    }

    fn build(variant: BeaconVariant) -> BeaconSystem {
        let app = AppKind::FmSeeding;
        let mut cfg =
            BeaconConfig::paper(variant, app).with_opts(Optimizations::full(variant, app));
        cfg.pes_per_module = 8;
        let (traces, bytes) = workload(12);
        let layout = build_layout(&cfg, &[LayoutSpec::shared_random(Region::FmIndex, bytes)]);
        let mut sys = BeaconSystem::new(cfg, layout);
        sys.submit_round_robin(traces);
        sys
    }

    #[test]
    fn config_roundtrips_exactly() {
        for cfg in [
            BeaconConfig::paper_d(AppKind::FmSeeding),
            BeaconConfig::paper_s(AppKind::KmerCounting).with_faults(FaultsConfig::noisy(7, 3.5)),
            BeaconConfig::paper_d(AppKind::PreAlignment)
                .with_opts(Optimizations::full(BeaconVariant::D, AppKind::FmSeeding))
                .with_faults(FaultsConfig::dimm_loss(42, 1, 2, 9999)),
        ] {
            let mut w = SnapWriter::new();
            put_config(&mut w, &cfg);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let back = get_config(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn fresh_snapshot_resumes_to_identical_run() {
        let golden = build(BeaconVariant::D).run();
        let sys = build(BeaconVariant::D);
        let bytes = sys.snapshot();
        let mut resumed = BeaconSystem::resume(&bytes).unwrap();
        let got = resumed.run();
        assert_eq!(
            got.digest(),
            golden.digest(),
            "{}",
            got.diff(&golden).unwrap_or_default()
        );
    }

    #[test]
    fn midrun_snapshot_resumes_bit_identically() {
        let golden = build(BeaconVariant::S).run();
        let mut sys = build(BeaconVariant::S);
        let run = RunOptions::default();
        assert!(
            !sys.run_to(golden.cycles / 2, run, &mut Observer::default()),
            "should pause mid-run"
        );
        let bytes = sys.snapshot();
        let mut resumed = BeaconSystem::resume(&bytes).unwrap();
        let got = resumed.run();
        assert_eq!(
            got.digest(),
            golden.digest(),
            "{}",
            got.diff(&golden).unwrap_or_default()
        );
    }

    #[test]
    fn wrong_topology_is_rejected_typed() {
        let sys = build(BeaconVariant::D);
        let bytes = sys.snapshot();
        let other = BeaconConfig::paper_s(AppKind::FmSeeding);
        match BeaconSystem::resume_expecting(&bytes, &other) {
            Err(SnapError::Topology(_)) => {}
            other => panic!("expected Topology error, got {other:?}"),
        }
        // The matching config passes.
        BeaconSystem::resume_expecting(&bytes, sys.config()).unwrap();
    }

    #[test]
    fn header_is_greppable_and_parsable() {
        let sys = build(BeaconVariant::D);
        let bytes = sys.snapshot();
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        let text = std::str::from_utf8(&bytes[..nl]).unwrap();
        assert!(text.starts_with("{\"magic\":\"BEACONSNAP\""));
        let h = JsonValue::parse(text).unwrap();
        assert_eq!(h.get("variant").unwrap().as_str().unwrap(), "D");
        assert_eq!(h.get("cycle").unwrap().as_f64().unwrap(), 0.0);
        assert_eq!(
            h.get("body_bytes").unwrap().as_f64().unwrap() as usize,
            bytes.len() - nl - 1
        );
    }

    #[test]
    fn truncated_and_trailing_bytes_are_typed_errors() {
        let sys = build(BeaconVariant::D);
        let bytes = sys.snapshot();
        assert!(matches!(
            BeaconSystem::resume(&bytes[..bytes.len() - 10]),
            Err(SnapError::Truncated { .. })
        ));
        let mut padded = bytes.clone();
        padded.extend_from_slice(b"junk");
        assert!(matches!(
            BeaconSystem::resume(&padded),
            Err(SnapError::TrailingBytes(4))
        ));
        assert!(matches!(
            BeaconSystem::resume(b"not a snapshot"),
            Err(SnapError::Header(_))
        ));
        // Nesting past the parser's depth bound is a header error, not
        // a stack overflow.
        let deep = format!("{{\"magic\":\"BEACONSNAP\",\"x\":{}\n", "[".repeat(100_000));
        assert!(matches!(
            BeaconSystem::resume(deep.as_bytes()),
            Err(SnapError::Header(_))
        ));
        assert!(matches!(
            BeaconSystem::resume(b"{\"magic\":\"OTHER\"}\n"),
            Err(SnapError::BadMagic(_))
        ));
    }

    #[test]
    fn future_format_version_is_rejected() {
        let sys = build(BeaconVariant::D);
        let bytes = sys.snapshot();
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        let text = std::str::from_utf8(&bytes[..nl]).unwrap();
        let bumped = text.replace("\"format\":1,", "\"format\":99,");
        let mut forged = bumped.into_bytes();
        forged.push(b'\n');
        forged.extend_from_slice(&bytes[nl + 1..]);
        assert!(matches!(
            BeaconSystem::resume(&forged),
            Err(SnapError::FormatVersion {
                found: 99,
                supported: 1
            })
        ));
    }
}
