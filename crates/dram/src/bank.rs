//! The per-bank timing state machine.
//!
//! Each modelled bank (one per `(rank, chip-group, bank)` tuple) tracks its
//! open row and the earliest cycles at which the next ACT / column / PRE
//! command may legally issue. The rules implemented here are the DDR4
//! same-bank constraints; cross-bank constraints (tRRD, tFAW, command bus,
//! data bus) live in [`crate::module`].

use beacon_sim::cycle::{Cycle, Duration};

use crate::command::CmdKind;
use crate::params::TimingParams;

/// Timing state of one bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankTimer {
    open_row: Option<u64>,
    /// Earliest cycle an ACT may issue.
    act_allowed: Cycle,
    /// Earliest cycle a READ/WRITE may issue.
    col_allowed: Cycle,
    /// Earliest cycle a PRE may issue.
    pre_allowed: Cycle,
}

impl Default for BankTimer {
    fn default() -> Self {
        BankTimer::new()
    }
}

impl BankTimer {
    /// A fresh, precharged bank.
    pub fn new() -> Self {
        BankTimer {
            open_row: None,
            act_allowed: Cycle::ZERO,
            col_allowed: Cycle::NEVER, // no row open: no column command legal
            pre_allowed: Cycle::ZERO,
        }
    }

    /// Currently open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// The command this bank needs next in order to serve an access to
    /// `row`: a column command when the row is open, ACT when the bank is
    /// precharged, PRE when another row is open.
    pub fn next_cmd_for(&self, row: u64, kind: CmdKind) -> CmdKind {
        debug_assert!(kind.is_column());
        match self.open_row {
            Some(open) if open == row => kind,
            Some(_) => CmdKind::Precharge,
            None => CmdKind::Activate,
        }
    }

    /// True when `cmd` may legally issue at `now`.
    pub fn can_issue(&self, cmd: CmdKind, now: Cycle) -> bool {
        match cmd {
            CmdKind::Activate => self.open_row.is_none() && now >= self.act_allowed,
            CmdKind::Precharge => self.open_row.is_some() && now >= self.pre_allowed,
            CmdKind::Read | CmdKind::Write => self.open_row.is_some() && now >= self.col_allowed,
            CmdKind::Refresh => self.open_row.is_none() && now >= self.act_allowed,
        }
    }

    /// Earliest cycle at which `cmd` could issue (for scheduler look-ahead).
    pub fn earliest(&self, cmd: CmdKind) -> Cycle {
        match cmd {
            CmdKind::Activate | CmdKind::Refresh => {
                if self.open_row.is_some() {
                    Cycle::NEVER
                } else {
                    self.act_allowed
                }
            }
            CmdKind::Precharge => {
                if self.open_row.is_none() {
                    Cycle::NEVER
                } else {
                    self.pre_allowed
                }
            }
            CmdKind::Read | CmdKind::Write => {
                if self.open_row.is_none() {
                    Cycle::NEVER
                } else {
                    self.col_allowed
                }
            }
        }
    }

    /// Applies `cmd` at `now`, updating the same-bank constraints.
    ///
    /// For column commands, returns the half-open data window
    /// `(first_beat, after_last_beat)` on the data bus.
    ///
    /// # Panics
    /// Panics (debug) when the command is not legal at `now`; the
    /// controller must check [`BankTimer::can_issue`] first.
    pub fn apply(
        &mut self,
        cmd: CmdKind,
        row: u64,
        now: Cycle,
        t: &TimingParams,
    ) -> Option<(Cycle, Cycle)> {
        debug_assert!(self.can_issue(cmd, now), "illegal {cmd:?} at {now:?}");
        match cmd {
            CmdKind::Activate => {
                self.open_row = Some(row);
                self.col_allowed = now + Duration::new(t.trcd);
                self.pre_allowed = now + Duration::new(t.tras);
                self.act_allowed = now + Duration::new(t.trc());
                None
            }
            CmdKind::Precharge => {
                self.open_row = None;
                self.col_allowed = Cycle::NEVER;
                self.act_allowed = self.act_allowed.max(now + Duration::new(t.trp));
                None
            }
            CmdKind::Read => self.apply_column_chain(CmdKind::Read, now, t, 1),
            CmdKind::Write => self.apply_column_chain(CmdKind::Write, now, t, 1),
            CmdKind::Refresh => {
                // Handled at rank granularity by the module; at the bank we
                // just push out the next ACT.
                self.act_allowed = self.act_allowed.max(now + Duration::new(t.trfc));
                None
            }
        }
    }

    /// Applies a chain of `n` back-to-back column bursts issued as one
    /// command (custom on-DIMM memory controllers expand multi-burst
    /// fine-grained reads internally; the chip still pays full data-bus
    /// occupancy). Returns the data window covering all `n` bursts.
    ///
    /// # Panics
    /// Panics (debug) when a column command is not legal at `now` or
    /// `n == 0`.
    pub fn apply_column_chain(
        &mut self,
        kind: CmdKind,
        now: Cycle,
        t: &TimingParams,
        n: u64,
    ) -> Option<(Cycle, Cycle)> {
        debug_assert!(kind.is_column() && n > 0);
        debug_assert!(self.can_issue(kind, now), "illegal {kind:?} at {now:?}");
        let occupancy = Duration::new(t.tbl).saturating_mul(n);
        match kind {
            CmdKind::Read => {
                let first = now + Duration::new(t.cl);
                let end = first + occupancy;
                self.col_allowed = now + Duration::new(t.tccd).saturating_mul(n.max(1));
                self.pre_allowed = self
                    .pre_allowed
                    .max(now + Duration::new(t.tccd).saturating_mul(n - 1) + Duration::new(t.trtp));
                Some((first, end))
            }
            CmdKind::Write => {
                let first = now + Duration::new(t.cwl);
                let end = first + occupancy;
                self.col_allowed = now + Duration::new(t.tccd).saturating_mul(n.max(1));
                self.pre_allowed = self.pre_allowed.max(end + Duration::new(t.twr));
                Some((first, end))
            }
            _ => unreachable!("column chain on non-column command"),
        }
    }
}

/// Sentinel stored in [`BankSoa`]'s open-row column for a precharged bank.
/// Real row numbers are bounded by the geometry (`row < rows`), so the
/// all-ones pattern can never collide with a legitimate row.
pub const ROW_NONE: u64 = u64::MAX;

/// Struct-of-arrays timing state for every bank of a DIMM.
///
/// Semantically a `Vec<BankTimer>`, stored as four parallel columns so the
/// controller's hot sweeps (FR-FCFS candidate selection, horizon recompute,
/// the batched `Dimm::tick_banks`) walk dense `u64` cache lines instead of
/// hopping across per-bank structs with `Option` niches. Every operation
/// mirrors the corresponding [`BankTimer`] transition rule exactly; with the
/// `soa-oracle` feature each mutation is also applied to a retained
/// `Vec<BankTimer>` shadow and cross-checked, proving the columns and the
/// scalar state machine never diverge.
#[derive(Debug, Clone)]
pub struct BankSoa {
    /// Open row per bank, [`ROW_NONE`] when precharged.
    open_row: Vec<u64>,
    /// Earliest cycle an ACT may issue, per bank.
    act_allowed: Vec<Cycle>,
    /// Earliest cycle a READ/WRITE may issue, per bank.
    col_allowed: Vec<Cycle>,
    /// Earliest cycle a PRE may issue, per bank.
    pre_allowed: Vec<Cycle>,
    #[cfg(feature = "soa-oracle")]
    shadow: Vec<BankTimer>,
}

impl BankSoa {
    /// `n` fresh, precharged banks.
    pub fn new(n: usize) -> Self {
        BankSoa {
            open_row: vec![ROW_NONE; n],
            act_allowed: vec![Cycle::ZERO; n],
            col_allowed: vec![Cycle::NEVER; n],
            pre_allowed: vec![Cycle::ZERO; n],
            #[cfg(feature = "soa-oracle")]
            shadow: vec![BankTimer::new(); n],
        }
    }

    /// Number of banks.
    pub fn len(&self) -> usize {
        self.open_row.len()
    }

    /// True when the SoA holds no banks.
    pub fn is_empty(&self) -> bool {
        self.open_row.is_empty()
    }

    /// Currently open row of bank `b`, if any.
    #[inline]
    pub fn open_row(&self, b: usize) -> Option<u64> {
        let raw = self.open_row[b];
        if raw == ROW_NONE {
            None
        } else {
            Some(raw)
        }
    }

    /// True when bank `b` has an open row.
    #[inline]
    pub fn is_open(&self, b: usize) -> bool {
        self.open_row[b] != ROW_NONE
    }

    /// The command bank `b` needs next to serve an access to `row`
    /// (mirrors [`BankTimer::next_cmd_for`]).
    #[inline]
    pub fn next_cmd_for(&self, b: usize, row: u64, kind: CmdKind) -> CmdKind {
        debug_assert!(kind.is_column());
        match self.open_row[b] {
            open if open == row => kind,
            ROW_NONE => CmdKind::Activate,
            _ => CmdKind::Precharge,
        }
    }

    /// True when `cmd` may legally issue on bank `b` at `now`
    /// (mirrors [`BankTimer::can_issue`]).
    #[inline]
    pub fn can_issue(&self, b: usize, cmd: CmdKind, now: Cycle) -> bool {
        let open = self.open_row[b] != ROW_NONE;
        match cmd {
            CmdKind::Activate | CmdKind::Refresh => !open && now >= self.act_allowed[b],
            CmdKind::Precharge => open && now >= self.pre_allowed[b],
            CmdKind::Read | CmdKind::Write => open && now >= self.col_allowed[b],
        }
    }

    /// Earliest cycle at which `cmd` could issue on bank `b`
    /// (mirrors [`BankTimer::earliest`]).
    #[inline]
    pub fn earliest(&self, b: usize, cmd: CmdKind) -> Cycle {
        let open = self.open_row[b] != ROW_NONE;
        match cmd {
            CmdKind::Activate | CmdKind::Refresh => {
                if open {
                    Cycle::NEVER
                } else {
                    self.act_allowed[b]
                }
            }
            CmdKind::Precharge => {
                if open {
                    self.pre_allowed[b]
                } else {
                    Cycle::NEVER
                }
            }
            CmdKind::Read | CmdKind::Write => {
                if open {
                    self.col_allowed[b]
                } else {
                    Cycle::NEVER
                }
            }
        }
    }

    /// Applies `cmd` to bank `b` at `now` (mirrors [`BankTimer::apply`],
    /// single-burst column semantics — the module extends chained data
    /// windows itself). Returns the data window for column commands.
    pub fn apply(
        &mut self,
        b: usize,
        cmd: CmdKind,
        row: u64,
        now: Cycle,
        t: &TimingParams,
    ) -> Option<(Cycle, Cycle)> {
        #[cfg(feature = "soa-oracle")]
        self.shadow[b].apply(cmd, row, now, t);
        debug_assert!(self.can_issue(b, cmd, now), "illegal {cmd:?} at {now:?}");
        let out = match cmd {
            CmdKind::Activate => {
                debug_assert_ne!(row, ROW_NONE);
                self.open_row[b] = row;
                self.col_allowed[b] = now + Duration::new(t.trcd);
                self.pre_allowed[b] = now + Duration::new(t.tras);
                self.act_allowed[b] = now + Duration::new(t.trc());
                None
            }
            CmdKind::Precharge => {
                self.open_row[b] = ROW_NONE;
                self.col_allowed[b] = Cycle::NEVER;
                self.act_allowed[b] = self.act_allowed[b].max(now + Duration::new(t.trp));
                None
            }
            CmdKind::Read => {
                let first = now + Duration::new(t.cl);
                let end = first + Duration::new(t.tbl);
                self.col_allowed[b] = now + Duration::new(t.tccd);
                self.pre_allowed[b] = self.pre_allowed[b].max(now + Duration::new(t.trtp));
                Some((first, end))
            }
            CmdKind::Write => {
                let first = now + Duration::new(t.cwl);
                let end = first + Duration::new(t.tbl);
                self.col_allowed[b] = now + Duration::new(t.tccd);
                self.pre_allowed[b] = self.pre_allowed[b].max(end + Duration::new(t.twr));
                Some((first, end))
            }
            CmdKind::Refresh => {
                self.act_allowed[b] = self.act_allowed[b].max(now + Duration::new(t.trfc));
                None
            }
        };
        #[cfg(feature = "soa-oracle")]
        self.check(b);
        out
    }

    /// Resets bank `b` to the fresh precharged state (rank refresh closes
    /// every open row; mirrors replacing the bank with `BankTimer::new()`).
    pub fn reset(&mut self, b: usize) {
        self.open_row[b] = ROW_NONE;
        self.act_allowed[b] = Cycle::ZERO;
        self.col_allowed[b] = Cycle::NEVER;
        self.pre_allowed[b] = Cycle::ZERO;
        #[cfg(feature = "soa-oracle")]
        {
            self.shadow[b] = BankTimer::new();
            self.check(b);
        }
    }

    /// `(open, act_allowed, col_allowed, pre_allowed)` of bank `b`, the
    /// raw timers the controller copies into its per-bank hot records.
    #[inline]
    pub(crate) fn timers(&self, b: usize) -> (bool, Cycle, Cycle, Cycle) {
        (
            self.open_row[b] != ROW_NONE,
            self.act_allowed[b],
            self.col_allowed[b],
            self.pre_allowed[b],
        )
    }

    /// Materializes bank `b` as a scalar [`BankTimer`] (tests, oracles).
    pub fn timer(&self, b: usize) -> BankTimer {
        BankTimer {
            open_row: self.open_row(b),
            act_allowed: self.act_allowed[b],
            col_allowed: self.col_allowed[b],
            pre_allowed: self.pre_allowed[b],
        }
    }

    /// Raw column access for the snapshot writer: `(open_row, act, col,
    /// pre)`, where `open_row` uses the [`ROW_NONE`] sentinel.
    pub(crate) fn columns(&self) -> (&[u64], &[Cycle], &[Cycle], &[Cycle]) {
        (
            &self.open_row,
            &self.act_allowed,
            &self.col_allowed,
            &self.pre_allowed,
        )
    }

    /// Raw column write access for the snapshot reader. The caller must
    /// keep the four columns the same length and use [`ROW_NONE`]
    /// consistently.
    pub(crate) fn columns_mut(
        &mut self,
    ) -> (
        &mut Vec<u64>,
        &mut Vec<Cycle>,
        &mut Vec<Cycle>,
        &mut Vec<Cycle>,
    ) {
        (
            &mut self.open_row,
            &mut self.act_allowed,
            &mut self.col_allowed,
            &mut self.pre_allowed,
        )
    }

    /// Rebuilds the `soa-oracle` shadow from the columns (after a restore).
    #[cfg(feature = "soa-oracle")]
    pub(crate) fn rebuild_shadow(&mut self) {
        self.shadow = (0..self.len()).map(|b| self.timer(b)).collect();
    }

    /// Cross-checks bank `b` against the retained scalar oracle.
    #[cfg(feature = "soa-oracle")]
    fn check(&self, b: usize) {
        debug_assert_eq!(
            self.timer(b),
            self.shadow[b],
            "SoA bank {b} diverged from BankTimer oracle"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr4_1600_22()
    }

    #[test]
    fn fresh_bank_needs_activate() {
        let b = BankTimer::new();
        assert_eq!(b.next_cmd_for(5, CmdKind::Read), CmdKind::Activate);
        assert!(b.can_issue(CmdKind::Activate, Cycle::ZERO));
        assert!(!b.can_issue(CmdKind::Read, Cycle::ZERO));
        assert!(!b.can_issue(CmdKind::Precharge, Cycle::ZERO));
    }

    #[test]
    fn read_after_activate_waits_trcd() {
        let timing = t();
        let mut b = BankTimer::new();
        b.apply(CmdKind::Activate, 5, Cycle::ZERO, &timing);
        assert_eq!(b.next_cmd_for(5, CmdKind::Read), CmdKind::Read);
        assert!(!b.can_issue(CmdKind::Read, Cycle::new(timing.trcd - 1)));
        assert!(b.can_issue(CmdKind::Read, Cycle::new(timing.trcd)));
    }

    #[test]
    fn row_conflict_requires_precharge() {
        let timing = t();
        let mut b = BankTimer::new();
        b.apply(CmdKind::Activate, 5, Cycle::ZERO, &timing);
        assert_eq!(b.next_cmd_for(9, CmdKind::Read), CmdKind::Precharge);
    }

    #[test]
    fn precharge_respects_tras() {
        let timing = t();
        let mut b = BankTimer::new();
        b.apply(CmdKind::Activate, 5, Cycle::ZERO, &timing);
        assert!(!b.can_issue(CmdKind::Precharge, Cycle::new(timing.tras - 1)));
        assert!(b.can_issue(CmdKind::Precharge, Cycle::new(timing.tras)));
    }

    #[test]
    fn read_data_window_is_cl_to_cl_plus_bl() {
        let timing = t();
        let mut b = BankTimer::new();
        b.apply(CmdKind::Activate, 5, Cycle::ZERO, &timing);
        let now = Cycle::new(timing.trcd);
        let (start, end) = b.apply(CmdKind::Read, 5, now, &timing).unwrap();
        assert_eq!(start, now + Duration::new(timing.cl));
        assert_eq!(end - start, Duration::new(timing.tbl));
    }

    #[test]
    fn consecutive_reads_spaced_by_tccd() {
        let timing = t();
        let mut b = BankTimer::new();
        b.apply(CmdKind::Activate, 5, Cycle::ZERO, &timing);
        let now = Cycle::new(timing.trcd);
        b.apply(CmdKind::Read, 5, now, &timing);
        assert!(!b.can_issue(CmdKind::Read, now + Duration::new(timing.tccd - 1)));
        assert!(b.can_issue(CmdKind::Read, now + Duration::new(timing.tccd)));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let timing = t();
        let mut b = BankTimer::new();
        b.apply(CmdKind::Activate, 5, Cycle::ZERO, &timing);
        let now = Cycle::new(timing.trcd);
        b.apply(CmdKind::Write, 5, now, &timing);
        let burst_end = now + Duration::new(timing.cwl + timing.tbl);
        let pre_ok = burst_end + Duration::new(timing.twr);
        assert!(!b.can_issue(CmdKind::Precharge, Cycle::new(pre_ok.as_u64() - 1)));
        assert!(b.can_issue(CmdKind::Precharge, pre_ok));
    }

    #[test]
    fn activate_after_precharge_waits_trp() {
        let timing = t();
        let mut b = BankTimer::new();
        b.apply(CmdKind::Activate, 5, Cycle::ZERO, &timing);
        let pre_at = Cycle::new(timing.tras);
        b.apply(CmdKind::Precharge, 0, pre_at, &timing);
        assert!(!b.can_issue(CmdKind::Activate, pre_at + Duration::new(timing.trp - 1)));
        // trc from the original ACT may dominate; check both constraints.
        let ok = (pre_at + Duration::new(timing.trp)).max(Cycle::new(timing.trc()));
        assert!(b.can_issue(CmdKind::Activate, ok));
    }

    #[test]
    fn earliest_matches_can_issue_boundary() {
        let timing = t();
        let mut b = BankTimer::new();
        b.apply(CmdKind::Activate, 1, Cycle::ZERO, &timing);
        let e = b.earliest(CmdKind::Read);
        assert!(!b.can_issue(CmdKind::Read, Cycle::new(e.as_u64() - 1)));
        assert!(b.can_issue(CmdKind::Read, e));
    }
}
