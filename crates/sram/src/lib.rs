#![warn(missing_docs)]

//! # maicc-sram — bit-serial in-SRAM computing substrate
//!
//! This crate models the *computing memory* (CMem) at the heart of MAICC
//! (Fan et al., MICRO 2023) at the bit level, together with the published
//! baseline it improves upon (Neural Cache, ISCA 2018).
//!
//! The physical phenomenon being modelled is **bit-line computing**: when two
//! word-lines of an SRAM array are activated simultaneously, the shared
//! bit-line / bit-line-bar pair settles to the `AND` / `NOR` of the two
//! stored bits (Jeloka et al., JSSC 2016). Everything else in this crate —
//! transposed vector layout, bit-serial arithmetic, the CMem's hardware MAC
//! primitive with its adder tree and shift-accumulate register — is built on
//! that single digital abstraction, exposed by [`array::SramArray`].
//!
//! ## Layout of the crate
//!
//! * [`mod@array`] — a word-line/bit-line accurate SRAM array with multi-row
//!   activation.
//! * [`transpose`] — packing n-bit words into the *transposed* (bit-serial)
//!   layout where bit `i` of word `k` lives at row `i`, column `k`.
//! * [`mod@slice`] — one 64×256 CMem slice: row ops, the masked adder tree and
//!   the spatial MAC primitive of Figure 4(b).
//! * [`cmem`] — the full eight-slice CMem of Figure 3(c), including the
//!   byte-addressable transposing slice 0 of Figure 5.
//! * [`neural_cache`] — the element-wise bit-serial primitives (add, multiply,
//!   log-step reduction) of Neural Cache, used as the paper's comparator.
//! * [`timing`] — cycle-cost model for every primitive (Table 2).
//! * [`energy`] — per-operation energy constants from §5 and an accumulator.
//! * [`fault`] — seeded fault injection (transient upsets, stuck-at cells,
//!   dead slices) for resilience studies; off by default.
//! * [`ecc`] — SECDED-style per-row parity protection
//!   ([`EccMode::{Off,DetectOnly,Correct}`](ecc::EccMode)) with analytic
//!   cycle/energy surcharge; off by default.
//!
//! ## Example
//!
//! ```
//! use maicc_sram::cmem::Cmem;
//!
//! # fn main() -> Result<(), maicc_sram::SramError> {
//! let mut cmem = Cmem::new();
//! // Store two 8-bit vectors transposed into slice 1, rows 0..8 and 8..16.
//! let a: Vec<u8> = (0..256).map(|i| (i % 13) as u8).collect();
//! let b: Vec<u8> = (0..256).map(|i| (i % 7) as u8).collect();
//! cmem.write_vector_u8(1, 0, &a)?;
//! cmem.write_vector_u8(1, 8, &b)?;
//! // One hardware MAC: the dot product appears as a scalar.
//! let mac = cmem.mac_u8(1, 0, 8)?;
//! let expect: u64 = a.iter().zip(&b).map(|(&x, &y)| x as u64 * y as u64).sum();
//! assert_eq!(mac, expect);
//! # Ok(())
//! # }
//! ```

pub mod array;
pub mod cmem;
pub mod ecc;
pub mod energy;
pub mod fault;
pub mod neural_cache;
pub mod slice;
pub mod timing;
pub mod transpose;

mod error;

pub use error::SramError;

/// Number of bit-lines (columns) in every CMem slice and Neural Cache array.
pub(crate) const BITLINES: usize = 256;

/// One packed word-line of a CMem slice: bit-line `k` is bit `k % 64` of
/// word `k / 64`. Row packets, forwarded rows and `Move.C` copies carry
/// it by value, so none of them allocates.
pub type Row = [u64; BITLINES / 64];

/// Number of word-lines (rows) in one CMem slice (2 KB / 256 bit-lines).
pub(crate) const SLICE_ROWS: usize = 64;

/// Number of slices in one CMem (Figure 3(c)): slice 0 caches/transposes,
/// slices 1–7 compute.
pub(crate) const NUM_SLICES: usize = 8;

/// Number of word-lines in a standard Neural Cache 8 KB array.
pub(crate) const NC_ROWS: usize = 256;

/// Granularity (in bit-lines) of one mask-CSR bit and of `ShiftRow.C`.
pub(crate) const MASK_GRANULE: usize = 32;
