//! The Data Packer (paper §IV-B, Fig. 6).
//!
//! Genome analysis moves fine-grained data (32 B FM-index buckets, single
//! bits of Bloom filters) while CXL transfers 64 B flits. The Data Packer
//! sits in the CXL interfaces and switch logic: it buffers outbound
//! fine-grained messages per destination and emits them as shared-flit
//! [`Bundle`]s, either when a flit fills up or when the oldest message
//! exceeds a flush age.

use std::collections::VecDeque;

use beacon_sim::cycle::{Cycle, Duration};
use beacon_sim::horizon::HorizonCache;
use beacon_sim::observer::Observer;
use beacon_sim::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use beacon_sim::stats::Stats;
use beacon_sim::trace::{TraceCategory, TraceEvent, TraceLevel};

use crate::bundle::Bundle;
use crate::message::{Message, NodeId};
use crate::params::FLIT_BYTES;

#[derive(Debug, Clone)]
struct Slot {
    msgs: Vec<Message>,
    bytes: u32,
    oldest: Cycle,
}

/// Packs fine-grained messages into shared flits per destination.
#[derive(Debug, Clone)]
pub struct DataPacker {
    /// Maximum age of the oldest buffered message before a forced flush.
    flush_age: Duration,
    /// Per-destination slots, kept sorted by `NodeId` so the hot tick
    /// sweep is one linear pass over a dense array in exactly the
    /// destination order the former tree map produced. The set of
    /// destinations is small and stabilizes early, so inserts (binary
    /// search + shift) are rare after warm-up.
    slots: Vec<(NodeId, Slot)>,
    ready: VecDeque<Bundle>,
    stats: Stats,
    horizon: HorizonCache,
    /// Trace-track label; `None` falls back to `"packer"`.
    trace_id: Option<Box<str>>,
}

impl DataPacker {
    /// Creates a packer that flushes at one full flit or after
    /// `flush_age_cycles`, whichever comes first.
    pub fn new(flush_age_cycles: u64) -> Self {
        DataPacker {
            flush_age: Duration::new(flush_age_cycles),
            slots: Vec::new(),
            ready: VecDeque::new(),
            stats: Stats::new(),
            horizon: HorizonCache::new(),
            trace_id: None,
        }
    }

    /// Sets the track label this packer's trace events are emitted under.
    pub fn set_trace_id(&mut self, id: impl Into<String>) {
        self.trace_id = Some(id.into().into_boxed_str());
    }

    fn trace_flush(&self, now: Cycle, name: &'static str, msgs: u64, obs: &mut Observer) {
        if let Some(tr) = obs.trace_at(TraceLevel::Flit) {
            tr.record(
                self.trace_id.as_deref().unwrap_or("packer"),
                TraceEvent::instant(
                    now.as_u64(),
                    TraceLevel::Flit,
                    TraceCategory::Packer,
                    name,
                    msgs,
                ),
            );
        }
    }

    /// Accepts an outbound message at `now`, tracing flushes into `obs`.
    ///
    /// Messages of a full flit or more bypass buffering entirely and are
    /// emitted as their own bundle.
    pub fn push(&mut self, msg: Message, now: Cycle, obs: &mut Observer) {
        self.horizon.invalidate();
        if msg.wire_bytes() >= FLIT_BYTES {
            self.stats.incr("packer.bypass");
            self.trace_flush(now, "packer.bypass", 1, obs);
            self.ready.push_back(Bundle::single(msg));
            return;
        }
        let idx = match self.slots.binary_search_by_key(&msg.dst, |(d, _)| *d) {
            Ok(i) => i,
            Err(i) => {
                self.slots.insert(
                    i,
                    (
                        msg.dst,
                        Slot {
                            msgs: Vec::new(),
                            bytes: 0,
                            oldest: now,
                        },
                    ),
                );
                i
            }
        };
        let slot = &mut self.slots[idx].1;
        if slot.msgs.is_empty() {
            slot.oldest = now;
        }
        slot.bytes += msg.wire_bytes();
        slot.msgs.push(msg);
        self.stats.incr("packer.buffered");
        if slot.bytes >= FLIT_BYTES {
            let full = std::mem::replace(
                slot,
                Slot {
                    msgs: Vec::new(),
                    bytes: 0,
                    oldest: now,
                },
            );
            self.stats.incr("packer.flush_full");
            self.trace_flush(now, "packer.flush_full", full.msgs.len() as u64, obs);
            self.ready.push_back(Bundle::packed(full.msgs));
        }
    }

    /// Flushes destinations whose oldest message has exceeded the flush
    /// age, tracing them into `obs`. Call once per cycle.
    pub fn tick(&mut self, now: Cycle, obs: &mut Observer) {
        // O(1) early-exit: before the memoized horizon nothing can age
        // out (and nothing is ready to pop either).
        if self.next_event() > now {
            return;
        }
        let age = self.flush_age;
        // Flush in place — the sorted slot array iterates in destination
        // order, exactly the order the old tree map produced, as one
        // linear sweep over contiguous memory.
        let DataPacker {
            slots,
            ready,
            stats,
            trace_id,
            ..
        } = self;
        let mut flushed = false;
        for (_, slot) in slots.iter_mut() {
            if slot.msgs.is_empty() || now.since(slot.oldest) < age {
                continue;
            }
            let full = std::mem::replace(
                slot,
                Slot {
                    msgs: Vec::new(),
                    bytes: 0,
                    oldest: now,
                },
            );
            stats.incr("packer.flush_age");
            if let Some(tr) = obs.trace_at(TraceLevel::Flit) {
                tr.record(
                    trace_id.as_deref().unwrap_or("packer"),
                    TraceEvent::instant(
                        now.as_u64(),
                        TraceLevel::Flit,
                        TraceCategory::Packer,
                        "packer.flush_age",
                        full.msgs.len() as u64,
                    ),
                );
            }
            ready.push_back(Bundle::packed(full.msgs));
            flushed = true;
        }
        if flushed {
            self.horizon.invalidate();
        }
    }

    /// Forces out every buffered message (end of simulation drain).
    pub fn flush_all(&mut self, now: Cycle) {
        let mut emitted = false;
        let DataPacker { slots, ready, .. } = self;
        for (_, slot) in slots.iter_mut() {
            if slot.msgs.is_empty() {
                continue;
            }
            let full = std::mem::replace(
                slot,
                Slot {
                    msgs: Vec::new(),
                    bytes: 0,
                    oldest: now,
                },
            );
            ready.push_back(Bundle::packed(full.msgs));
            emitted = true;
        }
        if emitted {
            self.horizon.invalidate();
        }
    }

    /// Pops the next ready bundle.
    pub fn pop_ready(&mut self) -> Option<Bundle> {
        let b = self.ready.pop_front();
        if b.is_some() {
            self.horizon.invalidate();
        }
        b
    }

    /// True when nothing is buffered or ready.
    pub fn is_idle(&self) -> bool {
        self.ready.is_empty() && self.slots.iter().all(|(_, s)| s.msgs.is_empty())
    }

    /// The packer's event horizon: the earliest cycle at which it can
    /// act on its own. [`Cycle::ZERO`] (immediately) when bundles are
    /// already waiting in the ready queue, otherwise the earliest
    /// age-flush deadline (`oldest + flush_age`) over the non-empty
    /// slots, [`Cycle::NEVER`] when fully idle. Fill-triggered flushes
    /// need no horizon: they happen inside `push`, which only runs on
    /// cycles the owner is awake anyway.
    ///
    /// The value is memoized: it depends only on internal state, every
    /// mutating operation invalidates the cache, and a clean hit is O(1).
    pub fn next_event(&self) -> Cycle {
        self.horizon.get_or(|| self.compute_next_event())
    }

    /// [`DataPacker::next_event`] from scratch, past its memo: the
    /// oracle its owners' gates are checked against.
    #[doc(hidden)]
    pub fn compute_next_event(&self) -> Cycle {
        if !self.ready.is_empty() {
            return Cycle::ZERO;
        }
        self.slots
            .iter()
            .filter(|(_, s)| !s.msgs.is_empty())
            .map(|(_, s)| s.oldest + self.flush_age)
            .min()
            .unwrap_or(Cycle::NEVER)
    }

    /// Packer statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }
}

impl Snapshot for DataPacker {
    const TAG: &'static str = "cxl.packer";
    const VERSION: u16 = 1;
    fn snap(&self, w: &mut SnapWriter) {
        // `flush_age` and `trace_id` are construction-time
        // configuration; the horizon cache restores dirty.
        w.usize(self.slots.len());
        for (dst, slot) in &self.slots {
            crate::snap::put_node(w, *dst);
            w.usize(slot.msgs.len());
            for msg in &slot.msgs {
                crate::snap::put_message(w, msg);
            }
            w.u32(slot.bytes);
            w.cycle(slot.oldest);
        }
        w.usize(self.ready.len());
        for bundle in &self.ready {
            crate::snap::put_bundle(w, bundle);
        }
        w.component(&self.stats);
    }
}

impl Restore for DataPacker {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.seq_len()?;
        let mut slots: Vec<(NodeId, Slot)> = Vec::with_capacity(n);
        for _ in 0..n {
            let dst = crate::snap::get_node(r)?;
            let m = r.seq_len()?;
            let mut msgs = Vec::with_capacity(m);
            for _ in 0..m {
                msgs.push(crate::snap::get_message(r)?);
            }
            let bytes = r.u32()?;
            let oldest = r.cycle()?;
            // Snapshots write slots in ascending destination order; a
            // violation means a corrupt or hand-edited image, not a
            // different-but-valid layout.
            if let Some((prev, _)) = slots.last() {
                if *prev >= dst {
                    return Err(SnapError::Corrupt(format!(
                        "packer slots out of order: {prev:?} then {dst:?}"
                    )));
                }
            }
            slots.push((
                dst,
                Slot {
                    msgs,
                    bytes,
                    oldest,
                },
            ));
        }
        self.slots = slots;
        let n = r.seq_len()?;
        let mut ready = VecDeque::with_capacity(n);
        for _ in 0..n {
            ready.push_back(crate::snap::get_bundle(r)?);
        }
        self.ready = ready;
        r.component(&mut self.stats)?;
        self.horizon.invalidate();
        Ok(())
    }
}

/// Unpacks a bundle back into its messages (receive side).
pub fn unpack(bundle: Bundle) -> Vec<Message> {
    bundle.messages
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(dst_slot: u32, tag: u64) -> Message {
        // A 2-byte response heading for dimm(0, dst_slot).
        let req = Message::read_req(NodeId::dimm(0, dst_slot), NodeId::dimm(0, 7), 2, tag);
        Message::read_resp(&req)
    }

    #[test]
    fn fills_one_flit_then_emits() {
        let mut obs = Observer::default();
        let mut p = DataPacker::new(100);
        // 6 B each on the wire; 11 messages cross 64 B.
        for i in 0..10 {
            p.push(small(1, i), Cycle::ZERO, &mut obs);
            assert!(p.pop_ready().is_none());
        }
        p.push(small(1, 10), Cycle::ZERO, &mut obs);
        let b = p.pop_ready().expect("flit filled");
        assert_eq!(b.messages.len(), 11);
        assert_eq!(b.flits(), 2); // 66 B -> 2 flits (spill)
    }

    #[test]
    fn age_flush_releases_partial_bundles() {
        let mut obs = Observer::default();
        let mut p = DataPacker::new(8);
        p.push(small(1, 0), Cycle::ZERO, &mut obs);
        p.tick(Cycle::new(7), &mut obs);
        assert!(p.pop_ready().is_none());
        p.tick(Cycle::new(8), &mut obs);
        let b = p.pop_ready().expect("age flush");
        assert_eq!(b.messages.len(), 1);
    }

    #[test]
    fn destinations_are_packed_separately() {
        let mut obs = Observer::default();
        let mut p = DataPacker::new(100);
        p.push(small(1, 0), Cycle::ZERO, &mut obs);
        p.push(small(2, 1), Cycle::ZERO, &mut obs);
        p.flush_all(Cycle::ZERO);
        let a = p.pop_ready().unwrap();
        let b = p.pop_ready().unwrap();
        assert_ne!(a.messages[0].dst, b.messages[0].dst);
        assert!(p.is_idle());
    }

    #[test]
    fn large_messages_bypass() {
        let mut p = DataPacker::new(100);
        let req = Message::read_req(NodeId::Host, NodeId::dimm(0, 1), 64, 0);
        let resp = Message::read_resp(&req);
        p.push(resp, Cycle::ZERO, &mut Observer::default());
        assert!(p.pop_ready().is_some());
        assert_eq!(p.stats().get("packer.bypass"), 1);
    }

    #[test]
    fn unpack_returns_all_messages() {
        let msgs: Vec<Message> = (0..5).map(|i| small(1, i)).collect();
        let b = Bundle::packed(msgs.clone());
        assert_eq!(unpack(b), msgs);
    }

    #[test]
    fn packing_reduces_flits_versus_unpacked() {
        let mut p = DataPacker::new(100);
        for i in 0..8 {
            p.push(small(1, i), Cycle::ZERO, &mut Observer::default());
        }
        p.flush_all(Cycle::ZERO);
        let packed_flits: u32 = std::iter::from_fn(|| p.pop_ready())
            .map(|b| b.flits())
            .sum();
        let unpacked_flits: u32 = (0..8).map(|i| Bundle::single(small(1, i)).flits()).sum();
        assert!(packed_flits < unpacked_flits);
        assert_eq!(packed_flits, 1);
        assert_eq!(unpacked_flits, 8);
    }
}
