//! # beacon-cxl — flit-level CXL transport model
//!
//! Models the communication substrate of the BEACON architecture:
//!
//! * [`message::Message`] — memory requests/responses and control traffic
//!   between [`message::NodeId`] endpoints (host, switch logic, DIMMs),
//! * [`link::Link`] — a serialised, fixed-latency, bandwidth-limited CXL
//!   channel that transports flit [`bundle::Bundle`]s,
//! * [`packer::DataPacker`] — BEACON's data-packing optimisation: packing
//!   fine-grained payloads into shared 64 B flits (paper Fig. 6),
//! * [`switch::Switch`] — a CXL switch with per-port duplex links, a
//!   routing table and an internal switch-bus bandwidth constraint
//!   (paper Fig. 5 a), and
//! * [`params::LinkParams`] — bandwidth/latency presets for the x8 DIMM
//!   links and x16 host uplinks of the paper's configuration.
//!
//! ```
//! use beacon_cxl::prelude::*;
//! use beacon_sim::prelude::*;
//!
//! let mut link = Link::new(LinkParams::cxl_x8());
//! let mut obs = Observer::default(); // records nothing
//! let msg = Message::read_req(NodeId::dimm(0, 0), NodeId::dimm(0, 1), 32, 7);
//! link.try_send(Bundle::single(msg), Cycle::ZERO, &mut obs).unwrap();
//! // After serialisation + propagation the bundle pops out.
//! let mut t = Cycle::ZERO;
//! loop {
//!     if let Some(b) = link.deliver(t, &mut obs) { assert_eq!(b.messages[0].tag, 7); break; }
//!     t = t.next();
//! }
//! ```

#![warn(missing_docs)]

pub mod bundle;
pub mod link;
pub mod message;
pub mod packer;
pub mod params;
pub mod snap;
pub mod switch;

/// Commonly used items.
pub mod prelude {
    pub use crate::bundle::Bundle;
    pub use crate::link::{Link, SendError};
    pub use crate::message::{Message, MsgKind, NodeId};
    pub use crate::packer::DataPacker;
    pub use crate::params::{LinkParams, FLIT_BYTES, MSG_HEADER_BYTES};
    pub use crate::switch::{PortLinkLoad, Switch, SwitchConfig};
}
