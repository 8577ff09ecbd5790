//! The CXL switch: ports, routing, switch-bus and bus controller.
//!
//! A [`Switch`] owns the duplex links of its ports (port 0 is the host
//! uplink, ports 1..=N are DIMM slots) plus the *Switch-Bus* added by
//! BEACON (paper Fig. 5 a): an internal transport that routes traffic
//! port-to-port — and to/from the in-switch logic — without a detour
//! through the host. The bus controller is the bandwidth arbiter
//! modelled by `bus_bytes_per_cycle`.

use std::cell::Cell;
use std::collections::VecDeque;

use beacon_sim::component::Tick;
use beacon_sim::cycle::{Cycle, Duration};
use beacon_sim::faults::FaultStream;
use beacon_sim::horizon::{Backoff, HorizonCache};
use beacon_sim::journey::Phase;
use beacon_sim::observer::Observer;
use beacon_sim::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use beacon_sim::stats::{StatId, Stats};
use beacon_sim::trace::{TraceCategory, TraceEvent, TraceLevel};

use crate::bundle::Bundle;
use crate::link::{Link, SendError};
use crate::message::NodeId;
use crate::params::LinkParams;

/// Static configuration of a switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchConfig {
    /// This switch's index (matches `NodeId::SwitchLogic(idx)` and the
    /// `switch_idx` of its DIMMs).
    pub index: u32,
    /// Number of downstream DIMM slots.
    pub dimm_slots: u32,
    /// Link parameters of each downstream DIMM port.
    pub dimm_link: LinkParams,
    /// Link parameters of the host uplink.
    pub uplink: LinkParams,
    /// Internal switch-bus bandwidth in bytes per cycle.
    pub bus_bytes_per_cycle: f64,
    /// Port-to-port forwarding latency in cycles.
    pub forward_latency: u64,
    /// Atomic requests addressed to local DIMM slots at or above this
    /// index divert to the in-switch logic (the Atomic Engine serves
    /// unmodified DIMMs; paper Fig. 7). `u32::MAX` disables interception.
    pub atomic_intercept_from: u32,
}

impl SwitchConfig {
    /// The paper's switch: 4 DIMM slots on x8 links, x16 uplink, an
    /// internal bus matching the aggregate downstream bandwidth, ~25 ns
    /// hop latency.
    pub fn paper(index: u32, dimm_slots: u32) -> Self {
        SwitchConfig {
            index,
            dimm_slots,
            dimm_link: LinkParams::cxl_x8(),
            uplink: LinkParams::cxl_x16(),
            bus_bytes_per_cycle: 512.0,
            forward_latency: 20,
            atomic_intercept_from: u32::MAX,
        }
    }

    /// Idealised communication variant: every link and the bus become
    /// free and instantaneous.
    pub fn idealized(mut self) -> Self {
        self.dimm_link = LinkParams::ideal();
        self.uplink = LinkParams::ideal();
        self.bus_bytes_per_cycle = 1e12;
        self.forward_latency = 0;
        self
    }
}

/// A CXL switch with `1 + dimm_slots` duplex ports and in-switch logic.
#[derive(Debug, Clone)]
pub struct Switch {
    cfg: SwitchConfig,
    /// `ingress[p]`: endpoint → switch direction of port `p`.
    ingress: Vec<Link>,
    /// `egress[p]`: switch → endpoint direction of port `p`.
    egress: Vec<Link>,
    /// Bundles routed and waiting for their egress link (or logic inbox):
    /// `(ready_at, egress_port_or_logic, bundle)`. Ready cycles are
    /// nondecreasing front to back (the switch-bus serialises in FIFO
    /// order), so the front entry is always the earliest.
    staged: VecDeque<(Cycle, RouteTarget, Bundle)>,
    /// Bundles addressed to this switch's internal logic.
    logic_inbox: VecDeque<Bundle>,
    bus_busy_until: f64,
    stats: Stats,
    /// Pre-resolved handles for the two per-bundle counters `stage`
    /// bumps (O(1) adds on the hot path).
    fwd_id: StatId,
    bus_bytes_id: StatId,
    horizon: HorizonCache,
    /// Backoff for the tick gate (wall-clock only).
    gate: Cell<Backoff>,
    /// Reusable buffer for back-pressured staged entries during a pump.
    pump_scratch: Vec<(Cycle, RouteTarget, Bundle)>,
    /// Trace-track label for switch-bus arbitration events.
    track: String,
    /// RAS fault state; `None` on healthy switches (the common case).
    faults: Option<Box<SwitchFaults>>,
}

/// Pre-drawn port-flap events. Each stamp downs both directions of its
/// port for `down` cycles; staged traffic toward the port holds in the
/// switch (lossless) and retries once the window ends.
#[derive(Debug, Clone, Default)]
struct SwitchFaults {
    /// `(port, pending flap stamps)` pairs.
    flaps: Vec<(usize, FaultStream)>,
    /// Down-window length per flap.
    down: Duration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RouteTarget {
    Port(usize),
    Logic,
}

/// Cumulative load snapshot of one directional port link (see
/// [`Switch::port_link_loads`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PortLinkLoad {
    /// Port index (0 is the host uplink).
    pub port: usize,
    /// `"in"` for endpoint→switch, `"out"` for switch→endpoint.
    pub dir: &'static str,
    /// Total bytes serialised onto the wire so far.
    pub wire_bytes: u64,
    /// Configured link bandwidth.
    pub bytes_per_cycle: f64,
    /// Back-pressured send attempts observed at the sender queue.
    pub backpressure: u64,
}

impl Switch {
    /// Port index of the host uplink.
    pub const UPLINK: usize = 0;

    /// Builds an idle switch.
    pub fn new(cfg: SwitchConfig) -> Self {
        let mut stats = Stats::new();
        let fwd_id = stats.id("switch.forwarded");
        let bus_bytes_id = stats.id("switch.bus_bytes");
        let ports = 1 + cfg.dimm_slots as usize;
        let mut ingress = Vec::with_capacity(ports);
        let mut egress = Vec::with_capacity(ports);
        for p in 0..ports {
            let params = if p == Self::UPLINK {
                cfg.uplink
            } else {
                cfg.dimm_link
            };
            let mut inl = Link::new(params);
            inl.set_trace_id(format!("switch{}.port{}.in", cfg.index, p));
            let mut outl = Link::new(params);
            outl.set_trace_id(format!("switch{}.port{}.out", cfg.index, p));
            ingress.push(inl);
            egress.push(outl);
        }
        Switch {
            cfg,
            ingress,
            egress,
            staged: VecDeque::new(),
            logic_inbox: VecDeque::new(),
            bus_busy_until: 0.0,
            stats,
            fwd_id,
            bus_bytes_id,
            horizon: HorizonCache::new(),
            gate: Cell::new(Backoff::new()),
            pump_scratch: Vec::new(),
            track: format!("switch{}", cfg.index),
            faults: None,
        }
    }

    /// Installs a pre-drawn flap stream for `port`: each stamp downs
    /// both directions for `down_cycles`. Pending flap stamps are event
    /// horizons — fast-forwarding cannot skip over them.
    pub fn install_port_flaps(&mut self, port: usize, flaps: FaultStream, down_cycles: u64) {
        assert!(port < self.ingress.len(), "port out of range");
        if flaps.is_empty() {
            return;
        }
        let f = self.faults.get_or_insert_with(Default::default);
        f.down = Duration::new(down_cycles);
        f.flaps.push((port, flaps));
        self.horizon.invalidate();
    }

    /// Installs flit CRC-error streams on both directions of `port`
    /// (`to_switch` corrupts endpoint→switch traffic, `to_endpoint` the
    /// reverse).
    pub fn install_crc_faults(
        &mut self,
        port: usize,
        to_switch: FaultStream,
        to_endpoint: FaultStream,
    ) {
        self.ingress[port].set_crc_faults(to_switch);
        self.egress[port].set_crc_faults(to_endpoint);
    }

    /// Applies every flap stamped at or before `now`. Returns true when
    /// a window opened (the caller invalidates the horizon).
    fn apply_flaps(&mut self, now: Cycle) -> bool {
        let Some(f) = &mut self.faults else {
            return false;
        };
        let mut changed = false;
        for (port, stream) in &mut f.flaps {
            while let Some(at) = stream.pop_due(now) {
                let until = at + f.down;
                self.ingress[*port].set_down_until(until);
                self.egress[*port].set_down_until(until);
                self.stats.incr("ras.port_flaps");
                changed = true;
            }
        }
        changed
    }

    /// This switch's configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Port index serving DIMM `slot`.
    pub fn dimm_port(&self, slot: u32) -> usize {
        assert!(slot < self.cfg.dimm_slots, "slot out of range");
        1 + slot as usize
    }

    /// An endpoint attached to `port` sends a bundle toward the switch,
    /// recording into `obs`.
    ///
    /// # Errors
    /// Hands the bundle back when the port's ingress link is saturated.
    pub fn endpoint_send(
        &mut self,
        port: usize,
        bundle: Bundle,
        now: Cycle,
        obs: &mut Observer,
    ) -> Result<(), SendError> {
        let r = self.ingress[port].try_send(bundle, now, obs);
        if r.is_ok() {
            self.horizon.invalidate();
        }
        r
    }

    /// Arrival cycle of the oldest bundle in flight toward the endpoint
    /// on `port` ([`Cycle::NEVER`] when none): before this cycle,
    /// [`Switch::endpoint_recv`] is guaranteed to return `None`, so an
    /// idle endpoint can skip its receive pump entirely.
    pub fn port_arrival(&self, port: usize) -> Cycle {
        self.egress[port].next_arrival()
    }

    /// The endpoint attached to `port` receives the next arrived bundle,
    /// tracing the receive into `obs`.
    pub fn endpoint_recv(&mut self, port: usize, now: Cycle, obs: &mut Observer) -> Option<Bundle> {
        let b = self.egress[port].deliver(now, obs);
        if b.is_some() {
            self.horizon.invalidate();
        }
        b
    }

    /// Epoch-buffered receive: pops the next bundle that arrived at
    /// `port` strictly before `horizon`, with its exact arrival cycle
    /// (see [`Link::deliver_before`]).
    pub fn endpoint_recv_before(
        &mut self,
        port: usize,
        horizon: Cycle,
        obs: &mut Observer,
    ) -> Option<(Cycle, Bundle)> {
        let b = self.egress[port].deliver_before(horizon, obs);
        if b.is_some() {
            self.horizon.invalidate();
        }
        b
    }

    /// The in-switch logic injects a bundle onto the switch-bus,
    /// recording into `obs`.
    pub fn logic_send(&mut self, bundle: Bundle, now: Cycle, obs: &mut Observer) {
        let target = self.route(&bundle);
        self.stage(target, bundle, now, obs);
        self.horizon.invalidate();
    }

    /// The in-switch logic receives the next bundle addressed to it.
    pub fn logic_recv(&mut self) -> Option<Bundle> {
        let b = self.logic_inbox.pop_front();
        if b.is_some() {
            self.horizon.invalidate();
        }
        b
    }

    /// Bundles waiting in the logic inbox.
    #[inline]
    pub fn logic_inbox_len(&self) -> usize {
        self.logic_inbox.len()
    }

    /// Bundles routed but still waiting for their egress link.
    #[inline]
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Total sender-queue occupancy across every port link (both
    /// directions) — a gauge of how loaded the switch fabric is.
    pub fn link_occupancy(&self) -> usize {
        self.ingress
            .iter()
            .chain(self.egress.iter())
            .map(Link::queued)
            .sum()
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Cumulative load of each directional port link, for the
    /// attribution report's utilization accounting. One entry per
    /// direction per port, ingress first.
    pub fn port_link_loads(&self) -> Vec<PortLinkLoad> {
        let mut out = Vec::with_capacity(2 * self.ingress.len());
        for (dir, links) in [("in", &self.ingress), ("out", &self.egress)] {
            for (port, l) in links.iter().enumerate() {
                out.push(PortLinkLoad {
                    port,
                    dir,
                    wire_bytes: l.stats().get("cxl.wire_bytes"),
                    bytes_per_cycle: l.params().bytes_per_cycle,
                    backpressure: l.stats().get("cxl.backpressure"),
                });
            }
        }
        out
    }

    /// Merged statistics of every port link plus the switch itself.
    pub fn merged_stats(&self) -> Stats {
        let mut s = self.stats.clone();
        for l in self.ingress.iter().chain(self.egress.iter()) {
            s.merge(l.stats());
        }
        s
    }

    fn route(&self, bundle: &Bundle) -> RouteTarget {
        // All messages in a bundle share a destination (packer invariant).
        let dst = bundle.messages[0].dst;
        debug_assert!(
            bundle.messages.iter().all(|m| m.dst == dst),
            "bundle with mixed destinations"
        );
        if bundle.messages[0].via_host {
            // Host-bias: everything detours through the root port.
            return RouteTarget::Port(Self::UPLINK);
        }
        if bundle.messages[0].kind == crate::message::MsgKind::AtomicReq {
            if let NodeId::Dimm { switch_idx, slot } = dst {
                if switch_idx == self.cfg.index && slot >= self.cfg.atomic_intercept_from {
                    return RouteTarget::Logic;
                }
            }
        }
        match dst {
            NodeId::SwitchLogic(s) if s == self.cfg.index => RouteTarget::Logic,
            NodeId::Dimm { switch_idx, slot } if switch_idx == self.cfg.index => {
                RouteTarget::Port(1 + slot as usize)
            }
            // Anything else (host, other switches' nodes) leaves via the
            // uplink.
            _ => RouteTarget::Port(Self::UPLINK),
        }
    }

    fn stage(&mut self, target: RouteTarget, mut bundle: Bundle, now: Cycle, obs: &mut Observer) {
        if let Some(j) = &mut obs.journey {
            // The link hop ends here: whatever accrues until the egress
            // link accepts the bundle is switch residency (bus + queue).
            for msg in &mut bundle.messages {
                if let Some(stamp) = &mut msg.jny {
                    j.hop(stamp, now, Phase::SwitchQueue);
                }
            }
        }
        // Pay the switch-bus serialisation and hop latency.
        let wire = bundle.wire_bytes_at(16);
        let start = self.bus_busy_until.max(now.as_u64() as f64);
        let ser = wire as f64 / self.cfg.bus_bytes_per_cycle;
        self.bus_busy_until = start + ser;
        let ready =
            Cycle::new((start + ser).ceil() as u64) + Duration::new(self.cfg.forward_latency);
        self.stats.incr_id(self.fwd_id);
        self.stats.add_id(self.bus_bytes_id, wire as u64);
        if let Some(tr) = obs.trace_at(TraceLevel::Flit) {
            tr.record(
                &self.track,
                TraceEvent::span(
                    now.as_u64(),
                    ready.since(now).as_u64().max(1),
                    TraceLevel::Flit,
                    TraceCategory::Switch,
                    "switch.bus",
                    wire as u64,
                ),
            );
        }
        debug_assert!(
            self.staged.back().is_none_or(|&(r, _, _)| r <= ready),
            "staged ready cycles must be nondecreasing"
        );
        self.staged.push_back((ready, target, bundle));
    }

    /// The switch's event horizon as an absolute cycle: the earliest
    /// moment ticking the fabric (or its owning node) could move a
    /// bundle. [`Cycle::NEVER`] when the fabric holds nothing at all.
    ///
    /// Contributors, each conservative:
    /// * staged bundles — their switch-bus ready cycles (a ready-but-
    ///   back-pressured entry reports its past ready cycle, which the
    ///   caller clamps to "immediately", preserving per-cycle retry);
    /// * ingress links — the head bundle's arrival at the switch;
    /// * egress links — the head bundle's arrival at the endpoint (the
    ///   *owner* pops these, so its horizon must wake it up for them);
    /// * a non-empty logic inbox — immediate, the owner's logic drains
    ///   it every awake cycle.
    ///
    /// The value is memoized: it depends only on internal state, every
    /// mutating operation invalidates the cache, and a clean hit is O(1).
    pub fn next_event(&self) -> Cycle {
        self.horizon.get_or(|| self.compute_next_event())
    }

    fn compute_next_event(&self) -> Cycle {
        let mut h = Cycle::NEVER;
        if !self.logic_inbox.is_empty() {
            return Cycle::ZERO;
        }
        // Staged ready cycles are nondecreasing: the front is the min.
        if let Some(&(ready, _, _)) = self.staged.front() {
            h = h.min(ready);
        }
        for l in self.ingress.iter().chain(self.egress.iter()) {
            h = h.min(l.next_arrival());
        }
        // A pending flap is an event horizon: skipping must wake the
        // switch at the stamp so the down window opens on time.
        if let Some(f) = &self.faults {
            for (_, stream) in &f.flaps {
                h = h.min(stream.next_at());
            }
        }
        h
    }

    fn pump_staged(&mut self, now: Cycle, obs: &mut Observer) -> bool {
        // Try to move ready staged bundles onto their egress links; retry
        // on back-pressure, preserving per-target order (head-of-line
        // blocking is intentional — it is a real switch-bus effect).
        // Ready cycles are nondecreasing, so the due entries form a
        // prefix: stop at the first not-yet-ready entry and return the
        // back-pressured ones to the front, avoiding a whole-queue
        // rebuild (and its allocation) every call.
        let mut moved = false;
        while let Some(&(ready, _, _)) = self.staged.front() {
            if ready > now {
                break;
            }
            let (ready, target, bundle) = self.staged.pop_front().expect("front checked");
            match target {
                RouteTarget::Logic => {
                    self.logic_inbox.push_back(bundle);
                    moved = true;
                }
                RouteTarget::Port(p) => match self.egress[p].try_send(bundle, now, obs) {
                    Ok(()) => moved = true,
                    Err(e) => self.pump_scratch.push((ready, target, e.into_bundle())),
                },
            }
        }
        for entry in self.pump_scratch.drain(..).rev() {
            self.staged.push_front(entry);
        }
        moved
    }
}

impl Snapshot for Switch {
    const TAG: &'static str = "cxl.switch";
    const VERSION: u16 = 1;
    fn snap(&self, w: &mut SnapWriter) {
        // `cfg` and `track` are rebuilt by the topology constructor;
        // `pump_scratch` is drained empty at every tick boundary and the
        // horizon cache restores dirty, so neither travels.
        w.usize(self.ingress.len());
        for link in &self.ingress {
            w.component(link);
        }
        for link in &self.egress {
            w.component(link);
        }
        w.usize(self.staged.len());
        for (ready, target, bundle) in &self.staged {
            w.cycle(*ready);
            match target {
                RouteTarget::Logic => w.u8(0),
                RouteTarget::Port(p) => {
                    w.u8(1);
                    w.usize(*p);
                }
            }
            crate::snap::put_bundle(w, bundle);
        }
        w.usize(self.logic_inbox.len());
        for bundle in &self.logic_inbox {
            crate::snap::put_bundle(w, bundle);
        }
        w.f64(self.bus_busy_until);
        w.component(&self.stats);
        match &self.faults {
            None => w.bool(false),
            Some(f) => {
                w.bool(true);
                w.usize(f.flaps.len());
                for (port, stream) in &f.flaps {
                    w.usize(*port);
                    w.component(stream);
                }
                w.duration(f.down);
            }
        }
    }
}

impl Restore for Switch {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let ports = r.seq_len()?;
        if ports != self.ingress.len() {
            return Err(SnapError::Topology(format!(
                "switch {} has {} ports, snapshot has {ports}",
                self.cfg.index,
                self.ingress.len()
            )));
        }
        for link in &mut self.ingress {
            r.component(link)?;
        }
        for link in &mut self.egress {
            r.component(link)?;
        }
        let n = r.seq_len()?;
        let mut staged = VecDeque::with_capacity(n);
        for _ in 0..n {
            let ready = r.cycle()?;
            let target = match r.u8()? {
                0 => RouteTarget::Logic,
                1 => {
                    let p = r.usize()?;
                    if p >= ports {
                        return Err(SnapError::Corrupt(format!(
                            "staged route to port {p} of {ports}"
                        )));
                    }
                    RouteTarget::Port(p)
                }
                t => return Err(SnapError::Corrupt(format!("unknown RouteTarget tag {t}"))),
            };
            staged.push_back((ready, target, crate::snap::get_bundle(r)?));
        }
        self.staged = staged;
        let n = r.seq_len()?;
        let mut logic_inbox = VecDeque::with_capacity(n);
        for _ in 0..n {
            logic_inbox.push_back(crate::snap::get_bundle(r)?);
        }
        self.logic_inbox = logic_inbox;
        self.bus_busy_until = r.f64()?;
        r.component(&mut self.stats)?;
        if r.bool()? {
            let n = r.seq_len()?;
            let mut flaps = Vec::with_capacity(n);
            for _ in 0..n {
                let port = r.usize()?;
                if port >= ports {
                    return Err(SnapError::Corrupt(format!(
                        "flap stream on port {port} of {ports}"
                    )));
                }
                let mut stream = FaultStream::empty();
                r.component(&mut stream)?;
                flaps.push((port, stream));
            }
            let down = r.duration()?;
            self.faults = Some(Box::new(SwitchFaults { flaps, down }));
        } else {
            self.faults = None;
        }
        self.pump_scratch.clear();
        self.horizon.invalidate();
        Ok(())
    }
}

impl Tick for Switch {
    fn tick(&mut self, now: Cycle) {
        self.tick_observed(now, &mut Observer::default());
    }

    fn tick_observed(&mut self, now: Cycle, obs: &mut Observer) {
        // Tick gate: the memoized horizon covers every contributor below
        // (flap stamps, ingress/egress arrivals, staged ready cycles,
        // logic inbox), so beyond it this tick is provably a state no-op.
        // The gate throttle keeps the probe off the busy path: when
        // traffic dirties the horizon every cycle a recompute here is an
        // O(staged + ports) sweep that always answers "must tick", so
        // failed probes back off exponentially.
        if self
            .horizon
            .gate(&self.gate, now, || self.compute_next_event())
        {
            return;
        }
        // Open any flap windows due this cycle before moving traffic.
        let mut changed = self.apply_flaps(now);
        // Ingest arrived bundles from every port and route them.
        for port in 0..self.ingress.len() {
            while let Some(bundle) = self.ingress[port].deliver(now, obs) {
                let target = self.route(&bundle);
                self.stage(target, bundle, now, obs);
                changed = true;
            }
        }
        changed |= self.pump_staged(now, obs);
        if changed {
            self.horizon.invalidate();
        }
    }

    fn is_idle(&self) -> bool {
        self.staged.is_empty()
            && self.ingress.iter().all(Link::is_idle)
            && self.egress.iter().all(Link::is_idle)
            && self.logic_inbox.is_empty()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let h = Switch::next_event(self);
        if h == Cycle::NEVER {
            None
        } else {
            Some(h.max(now.next()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    fn run_until<F: FnMut(&mut Switch, Cycle) -> bool>(
        sw: &mut Switch,
        mut f: F,
        max: u64,
    ) -> Option<Cycle> {
        for t in 0..max {
            let now = Cycle::new(t);
            sw.tick(now);
            if f(sw, now) {
                return Some(now);
            }
        }
        None
    }

    #[test]
    fn dimm_to_dimm_stays_inside_switch() {
        let mut obs = Observer::default();
        let mut sw = Switch::new(SwitchConfig::paper(0, 4));
        let msg = Message::read_req(NodeId::dimm(0, 0), NodeId::dimm(0, 2), 32, 1);
        let port = sw.dimm_port(0);
        sw.endpoint_send(port, Bundle::single(msg), Cycle::ZERO, &mut obs)
            .unwrap();

        let dst_port = sw.dimm_port(2);
        let at = run_until(
            &mut sw,
            |s, now| s.endpoint_recv(dst_port, now, &mut obs).is_some(),
            10_000,
        );
        assert!(at.is_some());
        assert_eq!(sw.stats().get("switch.forwarded"), 1);
    }

    #[test]
    fn logic_destination_lands_in_inbox() {
        let mut sw = Switch::new(SwitchConfig::paper(3, 2));
        let msg = Message::read_req(NodeId::dimm(3, 0), NodeId::SwitchLogic(3), 32, 2);
        let port = sw.dimm_port(0);
        sw.endpoint_send(
            port,
            Bundle::single(msg),
            Cycle::ZERO,
            &mut Observer::default(),
        )
        .unwrap();
        let at = run_until(&mut sw, |s, _| s.logic_inbox_len() > 0, 10_000);
        assert!(at.is_some());
        assert!(sw.logic_recv().is_some());
    }

    #[test]
    fn foreign_destination_leaves_via_uplink() {
        let mut obs = Observer::default();
        let mut sw = Switch::new(SwitchConfig::paper(0, 2));
        // Destination on another switch.
        let msg = Message::read_req(NodeId::dimm(0, 0), NodeId::dimm(1, 0), 32, 3);
        let port = sw.dimm_port(0);
        sw.endpoint_send(port, Bundle::single(msg), Cycle::ZERO, &mut obs)
            .unwrap();
        let at = run_until(
            &mut sw,
            |s, now| s.endpoint_recv(Switch::UPLINK, now, &mut obs).is_some(),
            10_000,
        );
        assert!(at.is_some());
    }

    #[test]
    fn recv_before_reports_the_sequential_delivery_cycle() {
        let mut obs = Observer::default();
        // Same traffic through two identical switches: per-cycle
        // endpoint_recv and epoch-buffered endpoint_recv_before must see
        // the bundle at the same cycle.
        let mut a = Switch::new(SwitchConfig::paper(0, 2));
        let mut b = Switch::new(SwitchConfig::paper(0, 2));
        let msg = Message::read_req(NodeId::dimm(0, 0), NodeId::dimm(1, 0), 32, 3);
        for sw in [&mut a, &mut b] {
            let port = sw.dimm_port(0);
            sw.endpoint_send(port, Bundle::single(msg), Cycle::ZERO, &mut obs)
                .unwrap();
        }
        let at = run_until(
            &mut a,
            |s, now| s.endpoint_recv(Switch::UPLINK, now, &mut obs).is_some(),
            10_000,
        )
        .expect("delivered");
        let mut got = None;
        run_until(
            &mut b,
            |s, now| {
                got = s.endpoint_recv_before(Switch::UPLINK, now.next(), &mut obs);
                got.is_some()
            },
            10_000,
        )
        .expect("delivered");
        let (arrival, _) = got.expect("checked");
        assert_eq!(arrival, at);
    }

    #[test]
    fn logic_send_reaches_dimm_port() {
        let mut obs = Observer::default();
        let mut sw = Switch::new(SwitchConfig::paper(0, 2));
        let msg = Message::read_req(NodeId::SwitchLogic(0), NodeId::dimm(0, 1), 32, 4);
        sw.logic_send(Bundle::single(msg), Cycle::ZERO, &mut obs);
        let p = sw.dimm_port(1);
        let at = run_until(
            &mut sw,
            |s, now| s.endpoint_recv(p, now, &mut obs).is_some(),
            10_000,
        );
        assert!(at.is_some());
    }

    #[test]
    fn idealized_switch_is_fast() {
        let mut obs = Observer::default();
        let mut fast = Switch::new(SwitchConfig::paper(0, 2).idealized());
        let mut slow = Switch::new(SwitchConfig::paper(0, 2));
        let msg = Message::read_req(NodeId::dimm(0, 0), NodeId::dimm(0, 1), 32, 5);
        fast.endpoint_send(1, Bundle::single(msg), Cycle::ZERO, &mut obs)
            .unwrap();
        slow.endpoint_send(1, Bundle::single(msg), Cycle::ZERO, &mut obs)
            .unwrap();
        let tf = run_until(
            &mut fast,
            |s, now| s.endpoint_recv(2, now, &mut obs).is_some(),
            10_000,
        )
        .unwrap();
        let ts = run_until(
            &mut slow,
            |s, now| s.endpoint_recv(2, now, &mut obs).is_some(),
            10_000,
        )
        .unwrap();
        assert!(tf < ts);
    }

    #[test]
    fn is_idle_after_drain() {
        let mut obs = Observer::default();
        let mut sw = Switch::new(SwitchConfig::paper(0, 2));
        assert!(sw.is_idle());
        let msg = Message::read_req(NodeId::dimm(0, 0), NodeId::dimm(0, 1), 32, 6);
        sw.endpoint_send(1, Bundle::single(msg), Cycle::ZERO, &mut obs)
            .unwrap();
        assert!(!sw.is_idle());
        run_until(
            &mut sw,
            |s, now| s.endpoint_recv(2, now, &mut obs).is_some(),
            10_000,
        )
        .unwrap();
        assert!(sw.is_idle());
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn dimm_port_validates_slot() {
        let sw = Switch::new(SwitchConfig::paper(0, 2));
        let _ = sw.dimm_port(2);
    }

    #[test]
    fn atomics_to_managed_slots_divert_to_logic() {
        let mut obs = Observer::default();
        let mut cfg = SwitchConfig::paper(0, 4);
        cfg.atomic_intercept_from = 2; // slots 2 and 3 are unmodified
        let mut sw = Switch::new(cfg);

        // Atomic to a managed (unmodified) slot lands in the logic inbox.
        let to_unmod = Message::atomic_req(NodeId::dimm(0, 0), NodeId::dimm(0, 3), 1, 1);
        sw.endpoint_send(1, Bundle::single(to_unmod), Cycle::ZERO, &mut obs)
            .unwrap();
        let hit = run_until(&mut sw, |s, _| s.logic_inbox_len() > 0, 10_000);
        assert!(hit.is_some(), "atomic should divert to the switch logic");

        // Atomic to a CXLG slot (below the threshold) goes to the DIMM port.
        let to_cxlg = Message::atomic_req(NodeId::dimm(0, 0), NodeId::dimm(0, 1), 1, 2);
        sw.endpoint_send(1, Bundle::single(to_cxlg), Cycle::ZERO, &mut obs)
            .unwrap();
        let p = sw.dimm_port(1);
        let hit = run_until(
            &mut sw,
            |s, now| s.endpoint_recv(p, now, &mut obs).is_some(),
            10_000,
        );
        assert!(hit.is_some(), "atomic to CXLG must reach the DIMM directly");
    }

    #[test]
    fn via_host_bundles_always_go_up() {
        let mut obs = Observer::default();
        let mut sw = Switch::new(SwitchConfig::paper(0, 2));
        // Even a same-switch destination leaves via the uplink when the
        // host-bias flag is set.
        let msg =
            Message::read_req(NodeId::dimm(0, 0), NodeId::dimm(0, 1), 32, 3).routed_via_host(true);
        sw.endpoint_send(1, Bundle::single(msg), Cycle::ZERO, &mut obs)
            .unwrap();
        let hit = run_until(
            &mut sw,
            |s, now| s.endpoint_recv(Switch::UPLINK, now, &mut obs).is_some(),
            10_000,
        );
        assert!(hit.is_some());
    }

    #[test]
    fn port_flap_holds_traffic_until_the_window_ends() {
        let mut obs = Observer::default();
        let mut sw = Switch::new(SwitchConfig::paper(0, 2));
        let mut healthy = Switch::new(SwitchConfig::paper(0, 2));
        // Flap the destination port at cycle 0 for 500 cycles.
        sw.install_port_flaps(2, FaultStream::one_shot(Cycle::ZERO), 500);
        // A pending flap is visible as an event horizon.
        assert_eq!(Switch::next_event(&sw), Cycle::ZERO);

        let msg = Message::read_req(NodeId::dimm(0, 0), NodeId::dimm(0, 1), 32, 1);
        sw.endpoint_send(1, Bundle::single(msg), Cycle::ZERO, &mut obs)
            .unwrap();
        healthy
            .endpoint_send(1, Bundle::single(msg), Cycle::ZERO, &mut obs)
            .unwrap();

        let t_flapped = run_until(
            &mut sw,
            |s, now| s.endpoint_recv(2, now, &mut obs).is_some(),
            10_000,
        )
        .expect("flap must not drop the bundle");
        let t_healthy = run_until(
            &mut healthy,
            |s, now| s.endpoint_recv(2, now, &mut obs).is_some(),
            10_000,
        )
        .unwrap();
        assert!(
            t_flapped > t_healthy,
            "down window must delay delivery ({t_flapped:?} vs {t_healthy:?})"
        );
        assert!(t_flapped >= Cycle::new(500), "held until the window ended");
        assert_eq!(sw.stats().get("ras.port_flaps"), 1);
        assert!(sw.is_idle());
    }

    #[test]
    fn merged_stats_include_link_counters() {
        let mut obs = Observer::default();
        let mut sw = Switch::new(SwitchConfig::paper(0, 2));
        let msg = Message::read_req(NodeId::dimm(0, 0), NodeId::dimm(0, 1), 32, 4);
        sw.endpoint_send(1, Bundle::single(msg), Cycle::ZERO, &mut obs)
            .unwrap();
        run_until(
            &mut sw,
            |s, now| s.endpoint_recv(2, now, &mut obs).is_some(),
            10_000,
        )
        .unwrap();
        let stats = sw.merged_stats();
        assert!(stats.get("cxl.wire_bytes") > 0);
        assert!(stats.get("switch.forwarded") > 0);
    }
}
