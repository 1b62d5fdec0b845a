#![warn(missing_docs)]

//! # maicc-mem — many-core DRAM and last-level cache models
//!
//! MAICC's memory system (§3.1, Table 1): the 2 GB many-core DRAM is
//! striped over **32 channels**, each attached to one last-level-cache tile
//! in the top/bottom rows of the mesh. This crate is the workspace's
//! substitute for DRAMsim3:
//!
//! * [`dram`] — a banked, row-buffer-aware channel timing model with
//!   open-page policy and per-access energy accounting;
//! * [`llc`] — a set-associative write-back cache with LRU replacement;
//! * [`system`] — the 32-tile memory system combining both, as the mesh's
//!   edge tiles see it;
//! * [`tier`] — replay-derived load costs for streaming whole model weight
//!   images out of either tier (the serving layer's weight cache prices
//!   cold vs. warm loads with these).
//!
//! ## Example
//!
//! ```
//! use maicc_mem::system::MemorySystem;
//!
//! let mut mem = MemorySystem::new_maicc();
//! // a cold read misses the LLC and pays DRAM timing
//! let t1 = mem.access(0x0000_0100, false, 0);
//! // the hot re-read hits the LLC
//! let t2 = mem.access(0x0000_0100, false, t1);
//! assert!(t2 - t1 < t1);
//! ```

pub mod dram;
pub mod llc;
pub mod system;
pub mod tier;

/// Cache-line / DRAM-burst size in bytes (one transposed CMem row is 32 B).
pub(crate) const LINE_BYTES: u32 = 32;

/// Number of DRAM channels / LLC tiles (Table 1).
pub(crate) const CHANNELS: usize = 32;
