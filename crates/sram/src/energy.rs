//! Per-operation energy constants (§5, "System Model") and an accumulator.
//!
//! The paper measures the SRAM array with HSPICE (40 nm, 1.1 V) and scales to
//! 28 nm; the published per-operation energies are reproduced here as
//! constants. [`EnergyMeter`] counts primitive invocations and converts them
//! to picojoules so higher layers (node model, chip model) can report energy
//! without knowing circuit details.

use serde::{Deserialize, Serialize};

/// Energy of one vertical (byte) write into slice 0, in pJ.
pub const VERTICAL_WRITE_PJ: f64 = 4.75;
/// Energy of one `Move.C` (8-bit vector between slices), in pJ.
pub const MOVE_PJ: f64 = 52.75;
/// Energy of one `MAC.C` (8-bit vectors), in pJ.
pub const MAC_PJ: f64 = 28.25;
/// Energy of one remote `LoadRow.RC`/`StoreRow.RC` row transfer, in pJ.
pub const REMOTE_ROW_PJ: f64 = 53.01;
/// Energy of one `SetRow.C` — modelled as a plain row write (half a move).
pub(crate) const SET_ROW_PJ: f64 = 3.3;
/// Energy of one `ShiftRow.C` — one row read + one row write.
pub(crate) const SHIFT_ROW_PJ: f64 = 6.6;
/// Energy of one single-row activation inside a bit-serial loop, in pJ.
///
/// Derived from the `MAC.C` figure: an 8-bit MAC performs 64 row-pair
/// activations plus adder-tree work for 28.25 pJ, ≈0.44 pJ per activation.
/// Used to price Neural Cache's element-wise loops on equal footing.
pub(crate) const ACTIVATION_PJ: f64 = 0.44;
/// Energy of regenerating one row's SECDED check bits at write time, in pJ.
///
/// Modelled as four 64-bit Hamming encoders (one per lane word) at roughly
/// the cost of one extra row activation plus XOR-tree work.
pub(crate) const ECC_ENCODE_PJ: f64 = 0.52;
/// Energy of one syndrome check on activation, in pJ (slightly cheaper
/// than encode: the check bits are read alongside the data).
pub(crate) const ECC_CHECK_PJ: f64 = 0.36;
/// Energy of steering one corrected bit through the correction mux, in pJ.
pub(crate) const ECC_CORRECT_PJ: f64 = 0.21;

/// Counters for every energy-bearing CMem primitive.
///
/// # Example
///
/// ```
/// use maicc_sram::energy::EnergyMeter;
///
/// let mut m = EnergyMeter::new();
/// m.count_mac(10);
/// m.count_move(2);
/// assert!((m.total_pj() - (10.0 * 28.25 + 2.0 * 52.75)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    macs: u64,
    moves: u64,
    vertical_writes: u64,
    set_rows: u64,
    shift_rows: u64,
    remote_rows: u64,
    raw_activations: u64,
    fault_events: u64,
    ecc_encodes: u64,
    ecc_checks: u64,
    ecc_corrections: u64,
}

impl EnergyMeter {
    /// Creates a zeroed meter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` `MAC.C` operations.
    pub fn count_mac(&mut self, n: u64) {
        self.macs += n;
    }

    /// Records `n` `Move.C` operations.
    pub fn count_move(&mut self, n: u64) {
        self.moves += n;
    }

    /// Records `n` vertical byte writes into slice 0.
    pub(crate) fn count_vertical_write(&mut self, n: u64) {
        self.vertical_writes += n;
    }

    /// Records `n` `SetRow.C` operations.
    pub(crate) fn count_set_row(&mut self, n: u64) {
        self.set_rows += n;
    }

    /// Records `n` `ShiftRow.C` operations.
    pub(crate) fn count_shift_row(&mut self, n: u64) {
        self.shift_rows += n;
    }

    /// Records `n` remote row transfers (`LoadRow.RC`/`StoreRow.RC`).
    pub(crate) fn count_remote_row(&mut self, n: u64) {
        self.remote_rows += n;
    }

    /// Records `n` raw single/multi-row activations (bit-serial loops that
    /// bypass the MAC primitive, e.g. the Neural Cache baseline).
    pub(crate) fn count_activation(&mut self, n: u64) {
        self.raw_activations += n;
    }

    /// Records `n` injected fault events (transient upsets, stuck-bit
    /// enforcements, dead-slice rejections).
    ///
    /// Faults carry no energy of their own — they are tallied here beside
    /// the operation counts.
    pub(crate) fn count_fault(&mut self, n: u64) {
        self.fault_events += n;
    }

    /// Number of injected fault events recorded so far.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn fault_events(&self) -> u64 {
        self.fault_events
    }

    /// Records `n` ECC parity regenerations (write-class operations).
    pub(crate) fn count_ecc_encode(&mut self, n: u64) {
        self.ecc_encodes += n;
    }

    /// Records `n` ECC syndrome checks (read-class operations).
    pub(crate) fn count_ecc_check(&mut self, n: u64) {
        self.ecc_checks += n;
    }

    /// Records `n` on-the-fly ECC corrections.
    pub(crate) fn count_ecc_correct(&mut self, n: u64) {
        self.ecc_corrections += n;
    }

    /// Total energy spent on ECC encode/check/correct, in picojoules.
    #[must_use]
    pub(crate) fn ecc_pj(&self) -> f64 {
        self.ecc_encodes as f64 * ECC_ENCODE_PJ
            + self.ecc_checks as f64 * ECC_CHECK_PJ
            + self.ecc_corrections as f64 * ECC_CORRECT_PJ
    }

    /// Number of `MAC.C` operations recorded so far.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn macs(&self) -> u64 {
        self.macs
    }

    /// Number of remote row transfers recorded so far.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn remote_rows(&self) -> u64 {
        self.remote_rows
    }

    /// Total accumulated energy in picojoules.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.macs as f64 * MAC_PJ
            + self.moves as f64 * MOVE_PJ
            + self.vertical_writes as f64 * VERTICAL_WRITE_PJ
            + self.set_rows as f64 * SET_ROW_PJ
            + self.shift_rows as f64 * SHIFT_ROW_PJ
            + self.remote_rows as f64 * REMOTE_ROW_PJ
            + self.raw_activations as f64 * ACTIVATION_PJ
            + self.ecc_pj()
    }

    /// Total accumulated energy in joules.
    #[must_use]
    pub fn total_joules(&self) -> f64 {
        self.total_pj() * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_meter_is_zero() {
        assert_eq!(EnergyMeter::new().total_pj(), 0.0);
    }

    #[test]
    fn accumulates_each_category() {
        let mut m = EnergyMeter::new();
        m.count_mac(1);
        m.count_move(1);
        m.count_vertical_write(1);
        m.count_set_row(1);
        m.count_shift_row(1);
        m.count_remote_row(1);
        m.count_activation(1);
        let expect =
            MAC_PJ + MOVE_PJ + VERTICAL_WRITE_PJ + SET_ROW_PJ + SHIFT_ROW_PJ + REMOTE_ROW_PJ
                + ACTIVATION_PJ;
        assert!((m.total_pj() - expect).abs() < 1e-9);
    }

    #[test]
    fn joules_scale() {
        let mut m = EnergyMeter::new();
        m.count_mac(1);
        assert!((m.total_joules() - MAC_PJ * 1e-12).abs() < 1e-24);
    }
}
