#![warn(missing_docs)]

//! # maicc-sim — full-system simulation of the many-core array
//!
//! This crate ties the workspace's substrates together and *runs* the
//! paper's execution model, checking every result against the golden
//! `maicc-nn` reference:
//!
//! * [`stream`] — the behaviour-level many-core streaming simulator of
//!   §4.2: a data-collection core transposing and injecting ifmap vectors
//!   into the mesh, a chain of computing cores with *real bit-level CMems*
//!   MAC-ing resident filters and forwarding rows, partial sums
//!   accumulated per core — one or more node groups pipelined back to
//!   back, all traffic through the flit-level `maicc-noc` mesh;
//! * [`multi_dnn`] — multi-DNN parallel inference: several networks mapped
//!   onto disjoint core regions of one array, the scenario MAICC's MIMD
//!   control mode exists for (§1, §8);
//! * [`campaign`] — fault-injection campaigns: sweep CMem/NoC fault rates
//!   over a ResNet-18 segment, compare each run against the golden model,
//!   and classify outcomes (masked / SDC / detected / degraded).
//!
//! ## Example — one streaming CONV group, checked against the golden conv
//!
//! ```
//! use maicc_sim::stream::{StreamConfig, StreamSim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = StreamConfig::small_test();
//! let mut sim = StreamSim::new(&cfg)?;
//! let result = sim.run(2_000_000)?;
//! assert_eq!(result.ofmap, cfg.golden());
//! assert!(result.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub mod campaign;
pub mod multi_dnn;
pub mod stream;

mod error;

pub use error::{ComponentError, SimError};
pub use stream::{Engine, RecoveryPolicy};
