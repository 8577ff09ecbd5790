//! Memory requests and completions as seen by the DIMM front-end.

use beacon_sim::cycle::Cycle;

use crate::address::DramCoord;

/// Unique identifier of a request within one `Dimm` instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// Direction of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// Data flows from DRAM to the requester.
    Read,
    /// Data flows from the requester to DRAM.
    Write,
}

/// One memory request: `bytes` starting at burst-aligned `coord`.
///
/// Requests larger than one burst occupy consecutive columns of the same
/// row (the BEACON placement layer never splits a fine-grained object
/// across rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Direction.
    pub kind: ReqKind,
    /// Starting coordinate (burst aligned).
    pub coord: DramCoord,
    /// Payload size in bytes.
    pub bytes: u32,
    /// Opaque tag the caller can use to route the completion (e.g. an
    /// encoded (PE, task) pair). Not interpreted by the DIMM.
    pub tag: u64,
}

impl MemRequest {
    /// Creates a read request.
    pub fn read(coord: DramCoord, bytes: u32) -> Self {
        MemRequest {
            kind: ReqKind::Read,
            coord,
            bytes,
            tag: 0,
        }
    }

    /// Creates a write request.
    pub fn write(coord: DramCoord, bytes: u32) -> Self {
        MemRequest {
            kind: ReqKind::Write,
            coord,
            bytes,
            tag: 0,
        }
    }

    /// Attaches a routing tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

/// A finished request, handed back by `Dimm::drain_completed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedAccess {
    /// Identifier returned by `enqueue`.
    pub id: ReqId,
    /// The original request.
    pub request: MemRequest,
    /// Cycle at which the last data beat left (read) or was written
    /// (write).
    pub finished_at: Cycle,
    /// Cycle at which the request entered the controller queue.
    pub enqueued_at: Cycle,
    /// Cycle at which the controller issued the first DRAM command for
    /// this request (ACT of the first segment). Everything before this
    /// is queueing; everything after is bank service. Equal to
    /// `enqueued_at` when the request issued the cycle it arrived.
    pub service_started_at: Cycle,
    /// RAS: the data beat hit an uncorrectable error — the payload is
    /// garbage and the consumer must retry or re-map. Always `false`
    /// unless fault injection armed a UE stream on the DIMM.
    pub poisoned: bool,
}

impl CompletedAccess {
    /// Queueing + service latency of the access.
    pub fn latency(&self) -> beacon_sim::cycle::Duration {
        self.finished_at - self.enqueued_at
    }

    /// Time spent waiting in the controller queue before the first DRAM
    /// command issued.
    pub fn queue_latency(&self) -> beacon_sim::cycle::Duration {
        self.service_started_at - self.enqueued_at
    }

    /// Time from the first DRAM command to the last data beat.
    pub fn service_latency(&self) -> beacon_sim::cycle::Duration {
        self.finished_at - self.service_started_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_fields() {
        let c = DramCoord::zero();
        let r = MemRequest::read(c, 32).with_tag(99);
        assert_eq!(r.kind, ReqKind::Read);
        assert_eq!(r.bytes, 32);
        assert_eq!(r.tag, 99);
        let w = MemRequest::write(c, 8);
        assert_eq!(w.kind, ReqKind::Write);
    }

    #[test]
    fn latency_is_difference() {
        let done = CompletedAccess {
            id: ReqId(1),
            request: MemRequest::read(DramCoord::zero(), 4),
            finished_at: Cycle::new(100),
            enqueued_at: Cycle::new(40),
            service_started_at: Cycle::new(55),
            poisoned: false,
        };
        assert_eq!(done.latency().as_u64(), 60);
        assert_eq!(done.queue_latency().as_u64(), 15);
        assert_eq!(done.service_latency().as_u64(), 45);
    }
}
