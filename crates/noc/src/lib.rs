#![warn(missing_docs)]

//! # maicc-noc — the 2D-mesh network-on-chip
//!
//! MAICC's 256 tiles (host, 210 compute cores, 32 LLC tiles, spares) are
//! connected by a 2D mesh with **X-Y dimension-order routing** (§3.1). This
//! crate is the workspace's substitute for booksim2: a flit-level,
//! cycle-stepped wormhole mesh with five-port routers, round-robin output
//! arbitration and buffer-credit backpressure, plus the statistics the
//! energy model consumes (5.4 pJ per flit per hop, §5).
//!
//! The payload type is generic so `maicc-sim` can route its remote
//! load/store/AMO/row messages while the crate's own tests use plain
//! integers.
//!
//! ## Example
//!
//! ```
//! use maicc_noc::{Coord, Mesh, Packet};
//!
//! let mut mesh: Mesh<&str> = Mesh::new(4, 4);
//! mesh.send(Packet::new(Coord::new(0, 0), Coord::new(3, 3), 1, "hello"));
//! let delivered = mesh.run_until_idle(1_000);
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].packet.payload, "hello");
//! // X-Y routing: 3 + 3 hops plus injection/ejection
//! assert!(delivered[0].arrived_at >= 6);
//! ```

pub mod fault;
pub mod mesh;
pub mod router;
pub mod stats;

pub use fault::{NocError, NocFaultPlan, NocFaultStats, RetryPolicy};
pub use mesh::{Delivered, Mesh, Packet};
pub use router::{Coord, Direction};
pub use stats::NocStats;

/// Default per-input-port buffer capacity in flits.
pub(crate) const DEFAULT_BUFFER: usize = 4;

/// Flits in a single-word remote load/store packet (§3.1: "a package
/// containing 32-bit data" — head/address + payload).
pub const WORD_PACKET_FLITS: usize = 2;

/// Flits in a 256-bit row packet (`LoadRow.RC`/`StoreRow.RC`): head plus
/// eight 32-bit payload flits.
pub const ROW_PACKET_FLITS: usize = 9;
