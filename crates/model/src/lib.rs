#![warn(missing_docs)]

//! # maicc-model — area, power, energy and baseline models
//!
//! Everything §5's "System Model" paragraph measures with RTL synthesis,
//! SPICE, memory compilers, McPAT and dsent is reproduced here as a set of
//! documented constants and composition rules:
//!
//! * [`area`] — 28 nm component areas; composes the Table-4 node areas and
//!   the Figure-10(a) chip breakdown (28 mm² for 210 cores);
//! * [`power`] — static/dynamic power and the Figure-10(b) energy
//!   breakdown, driven by the counters the simulators emit;
//! * [`baselines`] — analytical CPU (i9-13900K) and GPU (RTX 4090) models
//!   for Table 7, calibrated to the paper's measured operating points
//!   (we do not own the physical devices — see DESIGN.md substitution 4);
//! * [`efficiency`] — GFLOPS/W accounting and the §6.3 Neural Cache
//!   comparison.

pub mod area;
pub mod baselines;
pub mod efficiency;
pub mod power;
