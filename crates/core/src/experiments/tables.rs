//! Tables I and II of the paper.

use beacon_dram::params::{DimmGeometry, TimingParams};
use beacon_genomics::trace::AppKind;

use crate::config::BeaconConfig;
use crate::energy::PeHardware;
use crate::report::Table;

/// Renders Table I: the experimental configuration used everywhere.
pub fn table1() -> String {
    let d = BeaconConfig::paper_d(AppKind::FmSeeding);
    let s = BeaconConfig::paper_s(AppKind::FmSeeding);
    let geom = DimmGeometry::ddr4_8gb_x4();
    let t = TimingParams::ddr4_1600_22();

    let mut out = String::new();
    let mut cpu = Table::new("Table I — CPU baseline", &["parameter", "value"]);
    cpu.row(&[
        "processor".into(),
        "2x Xeon E5-2680 v3, 48 threads @ 2.5 GHz".into(),
    ]);
    cpu.row(&["memory".into(), "4x DDR4-1600 channels, 32 MB LLC".into()]);
    out.push_str(&cpu.render());

    let mut base = Table::new("Table I — MEDAL / NEST", &["parameter", "value"]);
    base.row(&["PEs / DIMMs".into(), "512 / 4".into()]);
    base.row(&["memory channels".into(), "2".into()]);
    out.push_str(&base.render());

    let mut beacon = Table::new("Table I — BEACON", &["parameter", "value"]);
    beacon.row(&[
        "PEs / switches / CXLG-DIMMs (D)".into(),
        format!(
            "{} / {} / {}",
            d.total_pes(),
            d.switches,
            d.switches * d.cxlg_per_switch
        ),
    ]);
    beacon.row(&[
        "PEs / switches (S)".into(),
        format!("{} / {}", s.total_pes(), s.switches),
    ]);
    beacon.row(&[
        "unmodified CXL-DIMMs per switch (D/S)".into(),
        format!("{} / {}", d.unmodified_per_switch, s.unmodified_per_switch),
    ]);
    out.push_str(&beacon.render());

    let mut dimm = Table::new("Table I — DIMM", &["parameter", "value"]);
    dimm.row(&[
        "capacity / devices".into(),
        format!("{} GB / 8Gb x4", geom.capacity_bytes() >> 30),
    ]);
    dimm.row(&[
        "ranks / chips per rank".into(),
        format!("{} / {}", geom.ranks, geom.chips_per_rank),
    ]);
    dimm.row(&["bank groups / banks".into(), format!("4 / {}", geom.banks)]);
    dimm.row(&[
        "speed / timing".into(),
        format!("DDR4-1600 / {}-{}-{}", t.cl, t.trcd, t.trp),
    ]);
    out.push_str(&dimm.render());

    let mut pe = Table::new(
        "Table I — PE compute latencies (DRAM cycles)",
        &["application", "latency"],
    );
    for app in [
        AppKind::FmSeeding,
        AppKind::HashSeeding,
        AppKind::KmerCounting,
        AppKind::PreAlignment,
    ] {
        pe.row(&[app.label().into(), app.pe_latency_cycles().to_string()]);
    }
    out.push_str(&pe.render());
    out
}

/// Renders Table II: PE synthesis results at 28 nm.
pub fn table2() -> String {
    let mut t = Table::new(
        "Table II — hardware overhead of the PE in different architectures (28 nm)",
        &[
            "architecture",
            "area (um^2)",
            "dynamic power (mW)",
            "leakage power (uW)",
        ],
    );
    for hw in PeHardware::TABLE2 {
        t.row(&[
            hw.name.into(),
            format!("{:.2}", hw.area_um2),
            format!("{:.2}", hw.dynamic_mw),
            format!("{:.2}", hw.leakage_uw),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_key_parameters() {
        let t = table1();
        assert!(t.contains("512"));
        assert!(t.contains("DDR4-1600"));
        assert!(t.contains("22-22-22"));
        assert!(t.contains("64 GB"));
    }

    #[test]
    fn table2_matches_paper_numbers() {
        let t = table2();
        assert!(t.contains("8941.39"));
        assert!(t.contains("16721.12"));
        assert!(t.contains("14090.23"));
        assert!(t.contains("18.97"));
    }
}
