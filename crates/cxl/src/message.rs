//! Messages and endpoint addressing on the CXL fabric.

/// An endpoint of the modelled fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// The host root port.
    Host,
    /// The NDP/switch logic inside CXL switch `0`-indexed.
    SwitchLogic(u32),
    /// DIMM `slot` behind switch `switch_idx` (CXLG-DIMM or unmodified
    /// CXL-DIMM — the system model knows which).
    Dimm {
        /// Switch the DIMM hangs off.
        switch_idx: u32,
        /// Downstream slot index.
        slot: u32,
    },
}

impl NodeId {
    /// Shorthand constructor for a DIMM endpoint.
    pub fn dimm(switch_idx: u32, slot: u32) -> Self {
        NodeId::Dimm { switch_idx, slot }
    }

    /// The switch a node hangs off, if any.
    pub fn switch(&self) -> Option<u32> {
        match *self {
            NodeId::Host => None,
            NodeId::SwitchLogic(s) => Some(s),
            NodeId::Dimm { switch_idx, .. } => Some(switch_idx),
        }
    }
}

/// Kinds of traffic carried by the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Memory read request; `payload_bytes` is the *requested* size (the
    /// request itself is header-only on the wire).
    ReadReq,
    /// Memory write request carrying its data.
    WriteReq,
    /// Atomic read-modify-write request (small operand).
    AtomicReq,
    /// Read response carrying data.
    ReadResp,
    /// Write/atomic acknowledgement (header-only).
    Ack,
    /// Negative acknowledgement (header-only): the target cannot serve
    /// the tagged request — dead DIMM, timed-out service, or poisoned
    /// data — and the requester must retry or re-map.
    Nak,
    /// Task dispatch / management traffic.
    Control,
}

impl MsgKind {
    /// Bytes of payload that actually travel on the wire for a message of
    /// this kind with logical payload `payload_bytes`.
    pub fn wire_payload(self, payload_bytes: u32) -> u32 {
        match self {
            // Requests carry an address/opcode, not the data.
            MsgKind::ReadReq => 0,
            MsgKind::Ack | MsgKind::Nak => 0,
            // Atomics carry an 8 B opcode+operand regardless of the
            // logical counter width.
            MsgKind::AtomicReq => 8,
            MsgKind::WriteReq | MsgKind::ReadResp | MsgKind::Control => payload_bytes,
        }
    }
}

/// One message between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Traffic class.
    pub kind: MsgKind,
    /// Logical payload size in bytes (requested size for reads).
    pub payload_bytes: u32,
    /// Opaque routing/matching tag, carried end to end.
    pub tag: u64,
    /// Opaque auxiliary word (systems use it to carry a packed physical
    /// coordinate inside requests). Counted as part of the header.
    pub aux: u64,
    /// Host-bias routing: when set, switches forward the message to the
    /// host root port first (paper Fig. 9 a/c); the host clears the flag
    /// and re-injects it toward `dst`.
    pub via_host: bool,
    /// Journey attribution stamp for tracked requests (`None` for
    /// untracked traffic and whenever attribution is off). Travels with
    /// the message so phase transitions pair up without a shared map.
    pub jny: Option<beacon_sim::journey::JStamp>,
}

impl Message {
    /// A read request for `bytes` bytes.
    pub fn read_req(src: NodeId, dst: NodeId, bytes: u32, tag: u64) -> Self {
        Message {
            src,
            dst,
            kind: MsgKind::ReadReq,
            payload_bytes: bytes,
            tag,
            aux: 0,
            via_host: false,
            jny: None,
        }
    }

    /// A write request carrying `bytes` bytes.
    pub fn write_req(src: NodeId, dst: NodeId, bytes: u32, tag: u64) -> Self {
        Message {
            src,
            dst,
            kind: MsgKind::WriteReq,
            payload_bytes: bytes,
            tag,
            aux: 0,
            via_host: false,
            jny: None,
        }
    }

    /// An atomic RMW request.
    pub fn atomic_req(src: NodeId, dst: NodeId, bytes: u32, tag: u64) -> Self {
        Message {
            src,
            dst,
            kind: MsgKind::AtomicReq,
            payload_bytes: bytes,
            tag,
            aux: 0,
            via_host: false,
            jny: None,
        }
    }

    /// The data response answering a read request.
    pub fn read_resp(req: &Message) -> Self {
        Message {
            src: req.dst,
            dst: req.src,
            kind: MsgKind::ReadResp,
            payload_bytes: req.payload_bytes,
            tag: req.tag,
            aux: 0,
            via_host: req.via_host,
            jny: None,
        }
    }

    /// The acknowledgement answering a write/atomic request.
    pub fn ack(req: &Message) -> Self {
        Message {
            src: req.dst,
            dst: req.src,
            kind: MsgKind::Ack,
            payload_bytes: 0,
            tag: req.tag,
            aux: 0,
            via_host: req.via_host,
            jny: None,
        }
    }

    /// The negative acknowledgement answering an unservable request.
    pub fn nak(req: &Message) -> Self {
        Message {
            src: req.dst,
            dst: req.src,
            kind: MsgKind::Nak,
            payload_bytes: 0,
            tag: req.tag,
            aux: 0,
            via_host: req.via_host,
            jny: None,
        }
    }

    /// A negative acknowledgement built from raw endpoints, for sweeps
    /// where the original request message is no longer at hand.
    pub fn nak_to(src: NodeId, dst: NodeId, tag: u64, via_host: bool) -> Self {
        Message {
            src,
            dst,
            kind: MsgKind::Nak,
            payload_bytes: 0,
            tag,
            aux: 0,
            via_host,
            jny: None,
        }
    }

    /// Attaches an auxiliary word (e.g. a packed physical coordinate).
    pub fn with_aux(mut self, aux: u64) -> Self {
        self.aux = aux;
        self
    }

    /// Marks the message for host-bias routing (detour via the host).
    pub fn routed_via_host(mut self, via_host: bool) -> Self {
        self.via_host = via_host;
        self
    }

    /// Clears the host-bias flag (done by the host when re-injecting).
    pub fn cleared_via_host(mut self) -> Self {
        self.via_host = false;
        self
    }

    /// Bytes this message occupies on the wire, header included, before
    /// flit rounding.
    pub fn wire_bytes(&self) -> u32 {
        crate::params::MSG_HEADER_BYTES + self.kind.wire_payload(self.payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MSG_HEADER_BYTES;

    #[test]
    fn node_switch_lookup() {
        assert_eq!(NodeId::Host.switch(), None);
        assert_eq!(NodeId::SwitchLogic(1).switch(), Some(1));
        assert_eq!(NodeId::dimm(2, 3).switch(), Some(2));
    }

    #[test]
    fn read_request_is_header_only() {
        let m = Message::read_req(NodeId::Host, NodeId::dimm(0, 0), 4096, 1);
        assert_eq!(m.wire_bytes(), MSG_HEADER_BYTES);
    }

    #[test]
    fn read_response_carries_data() {
        let req = Message::read_req(NodeId::dimm(0, 0), NodeId::dimm(0, 1), 32, 5);
        let resp = Message::read_resp(&req);
        assert_eq!(resp.src, req.dst);
        assert_eq!(resp.dst, req.src);
        assert_eq!(resp.tag, 5);
        assert_eq!(resp.wire_bytes(), MSG_HEADER_BYTES + 32);
    }

    #[test]
    fn ack_is_header_only() {
        let req = Message::write_req(NodeId::Host, NodeId::dimm(0, 0), 64, 9);
        assert_eq!(req.wire_bytes(), MSG_HEADER_BYTES + 64);
        let ack = Message::ack(&req);
        assert_eq!(ack.wire_bytes(), MSG_HEADER_BYTES);
    }

    #[test]
    fn atomic_carries_operand() {
        let m = Message::atomic_req(NodeId::SwitchLogic(0), NodeId::dimm(0, 1), 4, 2);
        assert_eq!(m.wire_bytes(), MSG_HEADER_BYTES + 8);
    }

    #[test]
    fn responses_inherit_host_bias_routing() {
        // Fig. 9 a/c: under host bias both the request and its response
        // detour through the host, so the flag must survive the reply.
        let req = Message::read_req(NodeId::SwitchLogic(0), NodeId::dimm(0, 2), 32, 5)
            .routed_via_host(true);
        assert!(Message::read_resp(&req).via_host);
        assert!(Message::ack(&req).via_host);
        // The host clears it before re-injecting.
        assert!(!Message::read_resp(&req).cleared_via_host().via_host);
    }

    #[test]
    fn aux_word_travels_with_the_builder() {
        let m = Message::write_req(NodeId::Host, NodeId::dimm(1, 0), 8, 1).with_aux(0xDEAD);
        assert_eq!(m.aux, 0xDEAD);
        // aux is request-side metadata; replies don't need it.
        assert_eq!(Message::ack(&m).aux, 0);
    }
}
