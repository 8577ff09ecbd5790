//! Flit bundles: what actually travels on a link.
//!
//! Without data packing every message occupies its own whole flit(s); the
//! [`crate::packer::DataPacker`] merges several fine-grained messages into
//! one bundle so they share flits (paper Fig. 6).

use crate::message::Message;
use crate::params::FLIT_BYTES;

/// A group of messages serialised together on a link.
#[derive(Debug, Clone)]
pub struct Bundle {
    /// The messages sharing this bundle's flits. In-place mutation (hop
    /// stamping, `via_host` rewrites) must not change any message's wire
    /// size: byte accounting is decoded once at construction, so the
    /// fabric hot loops do pure arithmetic instead of re-walking the
    /// message list (debug builds verify the cache on every read).
    pub messages: Vec<Message>,
    /// Total useful wire bytes, summed once at construction.
    useful: u32,
}

impl PartialEq for Bundle {
    fn eq(&self, other: &Self) -> bool {
        self.messages == other.messages
    }
}

impl Eq for Bundle {}

impl Bundle {
    /// A bundle holding a single message (the unpacked transfer scheme).
    pub fn single(msg: Message) -> Self {
        let useful = msg.wire_bytes();
        Bundle {
            messages: vec![msg],
            useful,
        }
    }

    /// A bundle of several messages sharing flits (the packed scheme).
    ///
    /// # Panics
    /// Panics when `messages` is empty.
    pub fn packed(messages: Vec<Message>) -> Self {
        assert!(!messages.is_empty(), "empty bundle");
        let useful = messages.iter().map(Message::wire_bytes).sum();
        Bundle { messages, useful }
    }

    /// Total useful wire bytes (headers + live payloads). O(1): decoded
    /// once at construction.
    pub fn useful_bytes(&self) -> u32 {
        debug_assert_eq!(
            self.useful,
            self.messages.iter().map(Message::wire_bytes).sum::<u32>(),
            "bundle byte cache diverged from its messages"
        );
        self.useful
    }

    /// Bytes occupied on the wire at slot granularity `granule`.
    ///
    /// # Panics
    /// Panics when `granule` is zero.
    pub fn wire_bytes_at(&self, granule: u32) -> u32 {
        assert!(granule > 0, "granule must be positive");
        self.useful_bytes().div_ceil(granule).max(1) * granule
    }

    /// Flits occupied on the wire (64 B flit accounting).
    pub fn flits(&self) -> u32 {
        self.useful_bytes().div_ceil(FLIT_BYTES).max(1)
    }

    /// Bytes occupied on the wire after 64 B flit rounding.
    pub fn wire_bytes(&self) -> u32 {
        self.flits() * FLIT_BYTES
    }

    /// Fraction of occupied wire bytes that are useful (1.0 = perfectly
    /// packed), at 64 B flit accounting.
    pub fn efficiency(&self) -> f64 {
        self.useful_bytes() as f64 / self.wire_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, NodeId};

    fn small(tag: u64) -> Message {
        // 2-byte payload response: 4 B header + 2 B data = 6 B on the wire.
        let req = Message::read_req(NodeId::dimm(0, 0), NodeId::dimm(0, 1), 2, tag);
        Message::read_resp(&req)
    }

    #[test]
    fn single_small_message_occupies_one_flit() {
        let b = Bundle::single(small(1));
        assert_eq!(b.flits(), 1);
        assert_eq!(b.wire_bytes(), 64);
        assert!(b.efficiency() < 0.2);
    }

    #[test]
    fn packing_improves_efficiency() {
        let unpacked: u32 = (0..8).map(|i| Bundle::single(small(i)).wire_bytes()).sum();
        let packed = Bundle::packed((0..8).map(small).collect());
        assert_eq!(unpacked, 8 * 64);
        assert_eq!(packed.flits(), 1); // 8 × 6 B = 48 B fits one flit
        assert!(packed.efficiency() > 0.7);
    }

    #[test]
    fn large_message_spans_multiple_flits() {
        let req = Message::read_req(NodeId::Host, NodeId::dimm(0, 0), 256, 0);
        let resp = Message::read_resp(&req);
        let b = Bundle::single(resp);
        // 4 + 256 = 260 B -> 5 flits.
        assert_eq!(b.flits(), 5);
    }

    #[test]
    #[should_panic(expected = "empty bundle")]
    fn empty_bundle_panics() {
        let _ = Bundle::packed(vec![]);
    }
}
