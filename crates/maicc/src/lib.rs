#![warn(missing_docs)]

//! # MAICC — a lightweight many-core architecture with in-cache computing
//!
//! This crate is the façade of the MAICC reproduction workspace
//! (Fan et al., MICRO 2023). It re-exports every subsystem:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sram`] | `maicc-sram` | bit-serial in-SRAM computing, the CMem, the Neural Cache baseline |
//! | [`isa`] | `maicc-isa` | RV32IMA + the CMem instruction extension, assembler |
//! | [`core`] | `maicc-core` | the node: functional interpreter + cycle-accurate pipeline, kernels |
//! | [`noc`] | `maicc-noc` | the flit-level 2D-mesh network |
//! | [`mem`] | `maicc-mem` | banked DRAM channels and the LLC tiles |
//! | [`nn`] | `maicc-nn` | tensors, quantized layers, ResNet-18, the golden model |
//! | [`exec`] | `maicc-exec` | segmentation, zig-zag mapping, the pipelined execution model |
//! | [`model`] | `maicc-model` | area/power/energy models and CPU/GPU baselines |
//! | [`sim`] | `maicc-sim` | full-system streaming simulation and multi-DNN scenarios |
//! | [`serve`] | `maicc-serve` | online multi-tenant serving: traces, fabric schedulers, SLO accounting |
//!
//! [`cli`] is the strict command-line reader the workspace's binaries
//! share.
//!
//! ## Quickstart
//!
//! ```
//! use maicc::sram::cmem::Cmem;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // a dot product computed inside the cache, Figure 4(b) style
//! let mut cmem = Cmem::new();
//! cmem.write_vector_i8(1, 0, &[3i8; 256])?;
//! cmem.write_vector_i8(1, 8, &[-2i8; 256])?;
//! assert_eq!(cmem.mac_i8(1, 0, 8)?, 256 * 3 * -2);
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios: the Table-4
//! node comparison, ResNet-18 mapping (Table 6), a live streaming
//! convolution through the mesh, and multi-DNN parallel inference.

pub mod cli;

pub use maicc_core as core;
pub use maicc_exec as exec;
pub use maicc_isa as isa;
pub use maicc_mem as mem;
pub use maicc_model as model;
pub use maicc_nn as nn;
pub use maicc_noc as noc;
pub use maicc_serve as serve;
pub use maicc_sim as sim;
pub use maicc_sram as sram;
