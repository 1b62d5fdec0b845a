//! The full eight-slice computing memory of one MAICC node.
//!
//! [`Cmem`] bundles eight [`CmemSlice`]s (Figure 3(c)) behind the interface
//! the extended ISA of Table 2 sees:
//!
//! * **slice 0** uses 8T cells, is *byte-addressable vertically* (ordinary
//!   `load`/`store` land here, Figure 5) and row-addressable horizontally —
//!   writing a vector byte-by-byte and reading rows out performs the
//!   transpose for free;
//! * **slices 1–7** are compute-only: row-indexed, reachable only through
//!   `MAC.C` / `Move.C` / `SetRow.C` / `ShiftRow.C` / `LoadRow.RC` /
//!   `StoreRow.RC`.
//!
//! Every operation updates an [`EnergyMeter`] so node- and chip-level models
//! can report energy without re-deriving circuit constants.

use crate::ecc::{EccMode, EccState, EccStats};
use crate::energy::EnergyMeter;
use crate::fault::{FaultPlan, FaultRng, FaultState, FaultStats, StuckAt};
use crate::slice::{CmemSlice, ShiftDir};
use crate::{timing, Row, SramError, BITLINES, NUM_SLICES, SLICE_ROWS};
use std::ops::Range;

/// Bytes addressable in slice 0 (2 KB).
pub const SLICE0_BYTES: usize = SLICE_ROWS * BITLINES / 8;

/// How a `MAC.C` may be computed by a caller that holds its operands in
/// byte form ([`Cmem::mac_path`]). The variants are ordered from the most
/// to the least restrictive, so the minimum over several slices is the
/// path all of them allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MacPath {
    /// Only [`Cmem::mac`] is exact.
    Array,
    /// The byte product is exact, but each MAC's checks, fault draw and
    /// counts still run: pass it to [`Cmem::mac_with_product`].
    Checked,
    /// The MAC is a pure function of the operands: compute it host-side
    /// and charge it with [`Cmem::charge_macs`].
    Pure,
}

/// The computing memory of one MAICC node: eight 2 KB slices.
///
/// # Example
///
/// ```
/// use maicc_sram::cmem::Cmem;
///
/// # fn main() -> Result<(), maicc_sram::SramError> {
/// let mut cmem = Cmem::new();
/// // Vertical byte writes into slice 0 build a transposed 8-bit vector...
/// for k in 0..256 {
///     cmem.store_byte(k, (k % 10) as u8)?;
/// }
/// // ...which Move.C broadcasts to computing slice 3.
/// cmem.move_vector(0, 0, 3, 0, 8)?;
/// cmem.write_vector_u8(3, 8, &[2u8; 256])?;
/// let sum: u64 = (0..256).map(|k| (k % 10) as u64 * 2).sum();
/// assert_eq!(cmem.mac_u8(3, 0, 8)?, sum);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cmem {
    slices: Vec<CmemSlice>,
    meter: EnergyMeter,
    /// Fault-injection state; `None` (the default) is the zero-overhead
    /// path: no RNG draws, bit- and cycle-identical to the seed model.
    fault: Option<Box<FaultState>>,
    /// SECDED-style row protection; `None` ([`EccMode::Off`], the default)
    /// is the zero-overhead path: no bookkeeping, no surcharge.
    ecc: Option<Box<EccState>>,
    /// Cells a fault has changed in the array so far, in any ECC mode:
    /// stuck cells forced after a write and flips latched by a move.
    fault_changes: u64,
}

impl Default for Cmem {
    fn default() -> Self {
        Self::new()
    }
}

impl Cmem {
    /// Creates a zeroed CMem with all masks enabled.
    #[must_use]
    pub fn new() -> Self {
        Cmem {
            slices: (0..NUM_SLICES).map(|_| CmemSlice::new()).collect(),
            meter: EnergyMeter::new(),
            fault: None,
            ecc: None,
            fault_changes: 0,
        }
    }

    /// Creates a zeroed CMem with a fault plan already attached.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_fault_plan(plan: FaultPlan) -> Self {
        let mut c = Self::new();
        c.attach_fault_plan(plan);
        c
    }

    /// Attaches (or replaces) a fault plan; injection starts immediately.
    ///
    /// Attaching [`FaultPlan::none`] is equivalent to no plan at all.
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(Box::new(FaultState::new(plan)));
    }

    /// The attached fault plan, if any.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| &f.plan)
    }

    /// Fault events injected so far (zero when no plan is attached).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Re-seeds the attached fault plan's RNG with a replay salt, so a
    /// rolled-back re-execution draws a fresh (but still deterministic)
    /// transient-upset schedule instead of deterministically re-hitting
    /// the same one. No-op without a plan.
    pub fn reseed_fault_rng(&mut self, salt: u64) {
        if let Some(f) = self.fault.as_deref_mut() {
            f.rng = FaultRng::new(f.plan.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }

    /// Sets the ECC protection level. [`EccMode::Off`] drops all ECC
    /// state and surcharge. Parity starts clean at the moment of the call,
    /// so a cell a fault changed before it has no record.
    /// [`MacPath::Checked`] needs a record for every changed cell, so it
    /// needs this call before a fault first changes a cell: with a plan
    /// attached, before the first write. Attaching a plan changes no
    /// cell, so the plan may come first.
    pub fn set_ecc_mode(&mut self, mode: EccMode) {
        let complete = self.fault_changes == 0;
        self.ecc = mode
            .is_on()
            .then(|| Box::new(EccState::new(mode, complete)));
    }

    /// The active ECC protection level.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn ecc_mode(&self) -> EccMode {
        self.ecc.as_ref().map_or(EccMode::Off, |e| e.mode)
    }

    /// ECC activity counters (all-zero under [`EccMode::Off`]).
    #[must_use]
    pub fn ecc_stats(&self) -> EccStats {
        self.ecc.as_ref().map_or_else(EccStats::default, |e| e.stats)
    }

    /// Parity regeneration after a write-class operation rewrote `rows`
    /// of `slice` (`col` restricts coverage to one bit-line, for the
    /// vertical byte store). Charges the encode surcharge.
    fn ecc_encode(&mut self, slice: usize, rows: Range<usize>, col: Option<usize>) {
        let Some(e) = self.ecc.as_deref_mut() else {
            return;
        };
        e.stats.encodes += 1;
        e.stats.cycle_surcharge += timing::ecc_encode_cycles();
        self.meter.count_ecc_encode(1);
        for row in e.recorded_rows(slice, rows) {
            e.clear_row(slice, row, col);
        }
    }

    /// Syndrome check over the rows a read-class operation activates.
    ///
    /// Returns the `(row, col, intended)` repairs Correct mode must apply
    /// for the operation to observe clean data (empty under `Off`).
    ///
    /// # Errors
    ///
    /// [`SramError::EccUncorrectable`] on any mismatch in DetectOnly
    /// mode, or a multi-bit-per-row mismatch in Correct mode.
    fn ecc_check(
        &mut self,
        slice: usize,
        rows: Range<usize>,
    ) -> Result<Vec<(usize, usize, bool)>, SramError> {
        let Some(e) = self.ecc.as_deref_mut() else {
            return Ok(Vec::new());
        };
        e.stats.checks += 1;
        e.stats.cycle_surcharge += timing::ecc_check_cycles();
        self.meter.count_ecc_check(1);
        let mut repairs = Vec::new();
        for row in e.recorded_rows(slice, rows) {
            let Some(entries) = e.mismatches.get(&(slice, row)) else {
                continue;
            };
            match (e.mode, entries.len()) {
                (_, 0) => {}
                (EccMode::Correct, 1) => {
                    let (col, intended) = entries[0];
                    repairs.push((row, col, intended));
                }
                _ => {
                    e.stats.detected_uncorrectable += 1;
                    return Err(SramError::EccUncorrectable { slice, row });
                }
            }
        }
        let corrected = repairs.len() as u64;
        e.stats.corrected += corrected;
        e.stats.cycle_surcharge += corrected * timing::ecc_correct_cycles();
        self.meter.count_ecc_correct(corrected);
        Ok(repairs)
    }

    /// Temporarily writes the intended values of `repairs` into the array
    /// so the operation observes corrected data; returns the bits to put
    /// back afterwards (correct-on-read leaves the array faulty).
    fn ecc_apply_repairs(
        &mut self,
        slice: usize,
        repairs: &[(usize, usize, bool)],
    ) -> Vec<(usize, usize, bool)> {
        let mut restore = Vec::new();
        for &(row, col, intended) in repairs {
            if let Ok(cur) = self.slices[slice].array().read_bit(row, col) {
                if cur != intended {
                    restore.push((row, col, cur));
                    let _ = self.slices[slice].array_mut().write_bit(row, col, intended);
                }
            }
        }
        restore
    }

    /// Puts the physically-faulty bits back after a corrected operation.
    /// Rows in `skip_rows` were overwritten by the operation itself and
    /// keep their new (re-encoded) contents.
    fn ecc_restore(
        &mut self,
        slice: usize,
        restore: &[(usize, usize, bool)],
        skip_rows: Option<Range<usize>>,
    ) {
        for &(row, col, prev) in restore {
            if skip_rows.as_ref().is_some_and(|r| r.contains(&row)) {
                continue;
            }
            let _ = self.slices[slice].array_mut().write_bit(row, col, prev);
        }
    }

    /// Draws a transient upset for a `width`-bit read-class result and
    /// filters it through the ECC layer: `Ok(Some(bit))` lands the flip
    /// (no protection), `Ok(None)` means no upset or a corrected one.
    ///
    /// # Errors
    ///
    /// [`SramError::EccUncorrectable`] when DetectOnly mode catches an
    /// upset it cannot fix.
    fn draw_flip_checked(
        &mut self,
        width: u64,
        slice: usize,
        row: usize,
    ) -> Result<Option<u64>, SramError> {
        let Some(bit) = self.draw_flip(width) else {
            return Ok(None);
        };
        let Some(e) = self.ecc.as_deref_mut() else {
            return Ok(Some(bit));
        };
        match e.mode {
            EccMode::Correct => {
                e.stats.corrected += 1;
                e.stats.cycle_surcharge += timing::ecc_correct_cycles();
                self.meter.count_ecc_correct(1);
                Ok(None)
            }
            _ => {
                e.stats.detected_uncorrectable += 1;
                Err(SramError::EccUncorrectable { slice, row })
            }
        }
    }

    /// Rejects accesses to a slice the fault plan marks dead.
    fn check_alive(&mut self, slice: usize) -> Result<(), SramError> {
        if let Some(f) = &mut self.fault {
            if f.is_dead(slice) {
                f.stats.dead_slice_hits += 1;
                self.meter.count_fault(1);
                return Err(SramError::SliceFailed { slice });
            }
        }
        Ok(())
    }

    /// Re-asserts stuck-at cells of `slice` after a write touched it: a
    /// stuck cell cannot hold the value just written, so every later read
    /// (byte load, MAC, row transfer) consistently sees the stuck value.
    fn enforce_stuck(&mut self, slice: usize) {
        let Some(mut f) = self.fault.take() else {
            return;
        };
        let mut forced = 0u64;
        let mut noted: Vec<(usize, usize, bool)> = Vec::new();
        for cell in f.plan.stuck_cells.iter().filter(|c| c.slice == slice) {
            let want = cell.value == StuckAt::One;
            if let Ok(cur) = self.slices[slice].array().read_bit(cell.row, cell.col) {
                if cur != want {
                    let _ = self.slices[slice].array_mut().write_bit(cell.row, cell.col, want);
                    forced += 1;
                    if self.ecc.is_some() {
                        // Parity was generated over the *intended* write
                        // data; the stuck cell now disagrees with it.
                        noted.push((cell.row, cell.col, cur));
                    }
                }
            }
        }
        f.stats.stuck_bits_forced += forced;
        self.fault_changes += forced;
        self.meter.count_fault(forced);
        self.fault = Some(f);
        if let Some(e) = self.ecc.as_deref_mut() {
            for (row, col, intended) in noted {
                e.note_mismatch(slice, row, col, intended);
            }
        }
    }

    /// Draws a transient upset bit index in `0..width`, tallying it.
    fn draw_flip(&mut self, width: u64) -> Option<u64> {
        let f = self.fault.as_mut()?;
        let bit = f.draw_flip(width)?;
        self.meter.count_fault(1);
        Some(bit)
    }

    fn check_slice(&self, slice: usize) -> Result<(), SramError> {
        if slice < NUM_SLICES {
            Ok(())
        } else {
            Err(SramError::SliceOutOfRange { slice })
        }
    }

    /// Immutable access to one slice.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::SliceOutOfRange`] for `slice >= 8`.
    pub fn slice(&self, slice: usize) -> Result<&CmemSlice, SramError> {
        self.check_slice(slice)?;
        Ok(&self.slices[slice])
    }

    /// Mutable access to one slice.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::SliceOutOfRange`] for `slice >= 8`.
    pub fn slice_mut(&mut self, slice: usize) -> Result<&mut CmemSlice, SramError> {
        self.check_slice(slice)?;
        Ok(&mut self.slices[slice])
    }

    /// Accumulated energy meter.
    #[must_use]
    pub fn energy(&self) -> &EnergyMeter {
        &self.meter
    }

    // ------------------------------------------------------------------
    // Slice-0 byte addressing (Figure 5)
    // ------------------------------------------------------------------

    /// Stores one byte at slice-0 byte address `addr` (vertical write).
    ///
    /// Address `a` maps to bit-line `a % 256`, word-lines
    /// `8*(a/256) .. 8*(a/256)+8`; storing bytes `0..=255` therefore lays an
    /// 8-bit, 256-element vector out *already transposed* in rows `0..8`.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::ByteAddrOutOfRange`] for `addr >= 2048`.
    pub fn store_byte(&mut self, addr: usize, value: u8) -> Result<(), SramError> {
        if addr >= SLICE0_BYTES {
            return Err(SramError::ByteAddrOutOfRange { addr });
        }
        self.check_alive(0)?;
        let col = addr % BITLINES;
        let row_base = (addr / BITLINES) * 8;
        for i in 0..8 {
            self.slices[0]
                .array_mut()
                .write_bit(row_base + i, col, (value >> i) & 1 == 1)?;
        }
        self.ecc_encode(0, row_base..row_base + 8, Some(col));
        self.enforce_stuck(0);
        self.meter.count_vertical_write(1);
        Ok(())
    }

    /// Loads one byte from slice-0 byte address `addr`.
    ///
    /// Takes `&mut self` because a read is an *event* to the fault model:
    /// it may draw a transient upset from the attached plan's RNG.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::ByteAddrOutOfRange`] for `addr >= 2048`, or
    /// [`SramError::SliceFailed`] when a fault plan marks slice 0 dead.
    pub fn load_byte(&mut self, addr: usize) -> Result<u8, SramError> {
        if addr >= SLICE0_BYTES {
            return Err(SramError::ByteAddrOutOfRange { addr });
        }
        self.check_alive(0)?;
        let col = addr % BITLINES;
        let row_base = (addr / BITLINES) * 8;
        let mut v = 0u8;
        for i in 0..8 {
            if self.slices[0].array().read_bit(row_base + i, col)? {
                v |= 1 << i;
            }
        }
        // Correct-on-read: mismatched cells on this bit-line are fixed in
        // the returned copy; the array keeps its faulty contents.
        for (row, rcol, intended) in self.ecc_check(0, row_base..row_base + 8)? {
            if rcol == col {
                let i = row - row_base;
                if intended {
                    v |= 1 << i;
                } else {
                    v &= !(1 << i);
                }
            }
        }
        if let Some(bit) = self.draw_flip_checked(8, 0, row_base)? {
            v ^= 1 << bit;
        }
        Ok(v)
    }

    // ------------------------------------------------------------------
    // Table-2 primitives
    // ------------------------------------------------------------------

    /// `Move.C`: copies an n-bit vector (n word-lines) from
    /// (`src_slice`, `src_row`) to (`dst_slice`, `dst_row`).
    ///
    /// # Errors
    ///
    /// Propagates slice/row range errors from the underlying arrays.
    pub fn move_vector(
        &mut self,
        src_slice: usize,
        src_row: usize,
        dst_slice: usize,
        dst_row: usize,
        bits: usize,
    ) -> Result<(), SramError> {
        self.check_slice(src_slice)?;
        self.check_slice(dst_slice)?;
        self.check_alive(src_slice)?;
        self.check_alive(dst_slice)?;
        if !(1..=16).contains(&bits) {
            return Err(SramError::UnsupportedWidth { bits });
        }
        // Correct-on-read: the source rows are activated, so the move
        // carries the *corrected* data even if the array stays faulty.
        let repairs = self.ecc_check(src_slice, src_row..src_row + bits)?;
        let restore = self.ecc_apply_repairs(src_slice, &repairs);
        for i in 0..bits {
            let lanes = self.slices[src_slice].row(src_row + i)?;
            self.slices[dst_slice]
                .array_mut()
                .write_row(dst_row + i, &lanes)?;
        }
        self.ecc_encode(dst_slice, dst_row..dst_row + bits, None);
        // A transient upset on the move path latches one wrong bit in the
        // destination; it persists until the row is overwritten. Under ECC
        // the latched bit disagrees with the freshly-encoded parity, so
        // the *next activation* of that row detects it.
        if let Some(pos) = self.draw_flip((bits * BITLINES) as u64) {
            let row = dst_row + pos as usize / BITLINES;
            let col = pos as usize % BITLINES;
            if let Ok(cur) = self.slices[dst_slice].array().read_bit(row, col) {
                let _ = self.slices[dst_slice].array_mut().write_bit(row, col, !cur);
                self.fault_changes += 1;
                if let Some(e) = self.ecc.as_deref_mut() {
                    e.note_mismatch(dst_slice, row, col, cur);
                }
            }
        }
        self.enforce_stuck(dst_slice);
        let skip = (src_slice == dst_slice).then(|| dst_row..dst_row + bits);
        self.ecc_restore(src_slice, &restore, skip);
        self.meter.count_move(1);
        Ok(())
    }

    /// `MAC.C`: inner product of two transposed vectors in one slice;
    /// the scalar result is destined for a core register.
    ///
    /// The slice-level product always runs on the word-parallel
    /// [`CmemSlice::mac_fast`], fault plan or not: every fault effect acts
    /// outside it. A dead slice is rejected before it, ECC repairs are
    /// written into the array around it, stuck cells were forced into the
    /// array when it was written, and a transient flip is drawn once per
    /// MAC on the accumulated result after it. `mac_fast` reads the same
    /// array state the activation-accurate [`CmemSlice::mac`] would, so
    /// the value, the energy accounting (`count_mac`), the analytic cycle
    /// cost (`timing::mac_cycles`) and every fault and ECC statistic are
    /// identical to the bit-serial loop, which is kept as the test
    /// reference.
    ///
    /// # Errors
    ///
    /// Propagates the domain errors of [`CmemSlice::mac`].
    pub fn mac(
        &mut self,
        slice: usize,
        base_a: usize,
        base_b: usize,
        bits: usize,
        signed: bool,
    ) -> Result<i64, SramError> {
        let repairs = self.mac_checks(slice, base_a, base_b, bits)?;
        let restore = self.ecc_apply_repairs(slice, &repairs);
        let result = self.slices[slice].mac_fast(base_a, base_b, bits, signed);
        self.ecc_restore(slice, &restore, None);
        self.mac_result(result?, slice, base_a, bits)
    }

    /// `MAC.C` when the caller already holds `product`, the dot product
    /// of both operands as last written ([`MacPath::Checked`]). Runs what
    /// [`Cmem::mac`] runs, in its order: the slice and liveness checks,
    /// the ECC checks of both operand ranges, the operand range and
    /// overlap checks, the transient flip draw and the MAC count. It skips
    /// only the ECC repairs around the array product and the product
    /// itself. So the result, the error, every counter, the energy meter
    /// and the fault RNG position equal those of `mac`. Debug builds also
    /// compute the product on the repaired array and assert it equals
    /// `product`.
    ///
    /// # Errors
    ///
    /// As for [`Cmem::mac`].
    ///
    /// # Panics
    ///
    /// In debug builds, if `product` is not the array's product.
    pub fn mac_with_product(
        &mut self,
        slice: usize,
        base_a: usize,
        base_b: usize,
        bits: usize,
        signed: bool,
        product: i64,
    ) -> Result<i64, SramError> {
        let repairs = self.mac_checks(slice, base_a, base_b, bits)?;
        self.slices[slice].check_mac_operands(base_a, base_b, bits)?;
        if cfg!(debug_assertions) {
            let restore = self.ecc_apply_repairs(slice, &repairs);
            let array = self.slices[slice].mac_fast(base_a, base_b, bits, signed);
            self.ecc_restore(slice, &restore, None);
            assert_eq!(
                array.ok(),
                Some(product),
                "the caller's product differs from the MAC on the repaired array"
            );
        }
        self.mac_result(product, slice, base_a, bits)
    }

    /// The checks a `MAC.C` makes before its product: the slice exists
    /// and is alive, and the ECC checks of both operand row ranges pass.
    /// Returns the repairs under which the array shows the rows as last
    /// written.
    fn mac_checks(
        &mut self,
        slice: usize,
        base_a: usize,
        base_b: usize,
        bits: usize,
    ) -> Result<Vec<(usize, usize, bool)>, SramError> {
        self.check_slice(slice)?;
        self.check_alive(slice)?;
        // Correct-on-read over both operand row ranges: the activations
        // observe repaired data, the array keeps its faulty cells.
        let span = bits.min(SLICE_ROWS);
        let mut repairs = self.ecc_check(slice, base_a..base_a + span)?;
        repairs.extend(self.ecc_check(slice, base_b..base_b + span)?);
        Ok(repairs)
    }

    /// What a `MAC.C` does after its product `r`: the transient upset
    /// draw on the accumulator, then the MAC count.
    fn mac_result(
        &mut self,
        mut r: i64,
        slice: usize,
        base_a: usize,
        bits: usize,
    ) -> Result<i64, SramError> {
        // Accumulator width: 2·bits product + 8 bits of 256-lane
        // accumulation + sign. An upset flips one bit of that register.
        if let Some(bit) = self.draw_flip_checked((2 * bits + 9) as u64, slice, base_a)? {
            r ^= 1i64 << bit;
        }
        self.meter.count_mac(1);
        Ok(r)
    }

    /// `SetRow.C`: clears or sets one row of one slice.
    ///
    /// # Errors
    ///
    /// Propagates slice/row range errors.
    pub fn set_row(&mut self, slice: usize, row: usize, value: bool) -> Result<(), SramError> {
        self.check_slice(slice)?;
        self.check_alive(slice)?;
        self.slices[slice].set_row(row, value)?;
        self.ecc_encode(slice, row..row + 1, None);
        self.enforce_stuck(slice);
        self.meter.count_set_row(1);
        Ok(())
    }

    /// `ShiftRow.C`: shifts one row by `granules × 32` bit-lines.
    ///
    /// # Errors
    ///
    /// Propagates slice/row range errors.
    pub fn shift_row(
        &mut self,
        slice: usize,
        row: usize,
        dir: ShiftDir,
        granules: usize,
    ) -> Result<(), SramError> {
        self.check_slice(slice)?;
        self.check_alive(slice)?;
        // A shift reads then rewrites the row, so any single-bit mismatch
        // is repaired *permanently* here (scrub-on-shift) before the data
        // moves out from under its recorded column.
        let repairs = self.ecc_check(slice, row..row + 1)?;
        let _ = self.ecc_apply_repairs(slice, &repairs);
        self.slices[slice].shift_row(row, dir, granules)?;
        self.ecc_encode(slice, row..row + 1, None);
        self.enforce_stuck(slice);
        self.meter.count_shift_row(1);
        Ok(())
    }

    /// Reads one raw row — the local half of `StoreRow.RC` (the packet body
    /// that `maicc-noc` will carry to another node).
    ///
    /// # Errors
    ///
    /// Propagates slice/row range errors.
    pub fn read_row_remote(&mut self, slice: usize, row: usize) -> Result<Row, SramError> {
        self.check_slice(slice)?;
        self.check_alive(slice)?;
        let mut lanes = self.slices[slice].row(row)?;
        // Correct-on-read fixes the packet copy; the array keeps its value.
        for (_, col, intended) in self.ecc_check(slice, row..row + 1)? {
            let word = col / 64;
            let mask = 1u64 << (col % 64);
            if intended {
                lanes[word] |= mask;
            } else {
                lanes[word] &= !mask;
            }
        }
        // Transient upset on the read-out path corrupts the packet copy
        // only; the array keeps its value.
        if let Some(bit) = self.draw_flip_checked(BITLINES as u64, slice, row)? {
            lanes[bit as usize / 64] ^= 1u64 << (bit % 64);
        }
        self.meter.count_remote_row(1);
        Ok(lanes)
    }

    /// Writes one raw row — the local half of `LoadRow.RC` (a row arriving
    /// from another node).
    ///
    /// # Errors
    ///
    /// Propagates slice/row range errors.
    pub fn write_row_remote(
        &mut self,
        slice: usize,
        row: usize,
        lanes: &Row,
    ) -> Result<(), SramError> {
        self.check_slice(slice)?;
        self.check_alive(slice)?;
        self.slices[slice].array_mut().write_row(row, lanes)?;
        self.ecc_encode(slice, row..row + 1, None);
        self.enforce_stuck(slice);
        self.meter.count_remote_row(1);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Convenience views used by the execution framework and tests
    // ------------------------------------------------------------------

    /// Writes an unsigned 8-bit vector transposed at (`slice`, `base`).
    ///
    /// # Errors
    ///
    /// Propagates slice/vector range errors.
    pub fn write_vector_u8(&mut self, slice: usize, base: usize, v: &[u8]) -> Result<(), SramError> {
        self.check_slice(slice)?;
        self.check_alive(slice)?;
        let words: Vec<u16> = v.iter().map(|&x| x as u16).collect();
        self.slices[slice].write_vector(base, &words, 8)?;
        self.ecc_encode(slice, base..base + 8, None);
        self.enforce_stuck(slice);
        Ok(())
    }

    /// Writes a signed 8-bit vector (two's complement) at (`slice`, `base`).
    ///
    /// # Errors
    ///
    /// Propagates slice/vector range errors.
    pub fn write_vector_i8(&mut self, slice: usize, base: usize, v: &[i8]) -> Result<(), SramError> {
        self.check_slice(slice)?;
        self.check_alive(slice)?;
        let words: Vec<u16> = v.iter().map(|&x| x as u8 as u16).collect();
        self.slices[slice].write_vector(base, &words, 8)?;
        self.ecc_encode(slice, base..base + 8, None);
        self.enforce_stuck(slice);
        Ok(())
    }

    /// Unsigned 8-bit MAC returning the non-negative dot product.
    ///
    /// # Errors
    ///
    /// Propagates the domain errors of [`Self::mac`].
    pub fn mac_u8(&mut self, slice: usize, base_a: usize, base_b: usize) -> Result<u64, SramError> {
        Ok(self.mac(slice, base_a, base_b, 8, false)? as u64)
    }

    /// Signed 8-bit MAC.
    ///
    /// # Errors
    ///
    /// Propagates the domain errors of [`Self::mac`].
    pub fn mac_i8(&mut self, slice: usize, base_a: usize, base_b: usize) -> Result<i64, SramError> {
        self.mac(slice, base_a, base_b, 8, true)
    }

    /// Which path a `MAC.C` on `slice` may take for a caller that holds
    /// both operands in byte form, as last written through this `Cmem`.
    ///
    /// The byte product equals the array's product whenever the mask CSR
    /// is fully open and the array, as a MAC observes it, holds the rows
    /// as last written. Without a fault plan and without ECC nothing else
    /// changes the array, and the MAC touches nothing but the meter:
    /// [`MacPath::Pure`]. Under ECC, a MAC observes the stored bits with
    /// each record's intended value put back (Correct), or fails before
    /// the product (DetectOnly, or two records in a row). If the ECC
    /// state was created before any fault changed a cell, every change
    /// since has a record: a stuck cell forced after a write, a flip
    /// latched by a move. The repaired view is then the rows as last
    /// written, and [`MacPath::Checked`] lets the caller pass its product
    /// to [`Cmem::mac_with_product`]. Any other state takes
    /// [`MacPath::Array`].
    #[must_use]
    pub fn mac_path(&self, slice: usize) -> MacPath {
        if self.slices.get(slice).is_none_or(|s| s.mask() != 0xFF) {
            return MacPath::Array;
        }
        match (&self.fault, self.ecc.as_deref()) {
            (None, None) => MacPath::Pure,
            (_, Some(e)) if e.complete => MacPath::Checked,
            _ => MacPath::Array,
        }
    }

    /// Charges the energy meter for `n` externally computed `MAC.C` ops
    /// (the [`MacPath::Pure`] path). Identical accounting to `n` calls of
    /// [`Cmem::mac`]: one `count_mac` each, nothing else — on the pristine
    /// path `mac` touches no other meter or state.
    pub fn charge_macs(&mut self, n: u64) {
        self.meter.count_mac(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn byte_roundtrip_all_addresses_sampled() {
        let mut c = Cmem::new();
        for addr in (0..SLICE0_BYTES).step_by(37) {
            c.store_byte(addr, (addr % 251) as u8).unwrap();
        }
        for addr in (0..SLICE0_BYTES).step_by(37) {
            assert_eq!(c.load_byte(addr).unwrap(), (addr % 251) as u8);
        }
    }

    #[test]
    fn byte_addr_out_of_range() {
        let mut c = Cmem::new();
        assert!(matches!(
            c.store_byte(SLICE0_BYTES, 1),
            Err(SramError::ByteAddrOutOfRange { .. })
        ));
        assert!(matches!(
            c.load_byte(usize::MAX),
            Err(SramError::ByteAddrOutOfRange { .. })
        ));
    }

    #[test]
    fn vertical_write_transposes_for_free() {
        // Bytes 0..256 written vertically appear as a transposed vector in
        // rows 0..8 — the Figure-5 mechanism.
        let mut c = Cmem::new();
        let v: Vec<u8> = (0..=255).collect();
        for (k, &b) in v.iter().enumerate() {
            c.store_byte(k, b).unwrap();
        }
        let read = c.slice(0).unwrap().read_vector(0, 8, 256).unwrap();
        assert_eq!(read, v.iter().map(|&b| b as u16).collect::<Vec<_>>());
    }

    #[test]
    fn second_row_group_maps_to_rows_8_16() {
        let mut c = Cmem::new();
        c.store_byte(256, 0xFF).unwrap();
        let read = c.slice(0).unwrap().read_vector(8, 8, 1).unwrap();
        assert_eq!(read[0], 0xFF);
    }

    #[test]
    fn move_between_slices() {
        let mut c = Cmem::new();
        c.write_vector_u8(0, 0, &[9u8; 256]).unwrap();
        c.move_vector(0, 0, 5, 24, 8).unwrap();
        let got = c.slice(5).unwrap().read_vector(24, 8, 256).unwrap();
        assert!(got.iter().all(|&x| x == 9));
    }

    #[test]
    fn move_within_slice() {
        let mut c = Cmem::new();
        c.write_vector_u8(2, 0, &[5u8; 256]).unwrap();
        c.move_vector(2, 0, 2, 16, 8).unwrap();
        let got = c.slice(2).unwrap().read_vector(16, 8, 256).unwrap();
        assert!(got.iter().all(|&x| x == 5));
    }

    #[test]
    fn mac_after_move_broadcast() {
        // The Algorithm-1 pattern: ifmap enters slice 0, broadcast to the
        // seven computing slices, MAC against resident filters.
        let mut c = Cmem::new();
        let ifmap: Vec<u8> = (0..256).map(|i| (i % 23) as u8).collect();
        c.write_vector_u8(0, 0, &ifmap).unwrap();
        for s in 1..8 {
            c.move_vector(0, 0, s, 0, 8).unwrap();
            let filt: Vec<u8> = (0..256).map(|i| ((i + s) % 11) as u8).collect();
            c.write_vector_u8(s, 8, &filt).unwrap();
            let expect: u64 = ifmap
                .iter()
                .zip(&filt)
                .map(|(&x, &y)| x as u64 * y as u64)
                .sum();
            assert_eq!(c.mac_u8(s, 0, 8).unwrap(), expect);
        }
    }

    #[test]
    fn remote_row_roundtrip() {
        let mut c1 = Cmem::new();
        let mut c2 = Cmem::new();
        c1.write_vector_u8(0, 0, &[7u8; 256]).unwrap();
        // StoreRow.RC from node 1 to node 2, row by row
        for i in 0..8 {
            let lanes = c1.read_row_remote(0, i).unwrap();
            c2.write_row_remote(0, i, &lanes).unwrap();
        }
        assert_eq!(
            c2.slice(0).unwrap().read_vector(0, 8, 256).unwrap(),
            vec![7u16; 256]
        );
        assert_eq!(c1.energy().remote_rows(), 8);
        assert_eq!(c2.energy().remote_rows(), 8);
    }

    #[test]
    fn slice_out_of_range() {
        let mut c = Cmem::new();
        assert!(matches!(
            c.mac(8, 0, 8, 8, false),
            Err(SramError::SliceOutOfRange { slice: 8 })
        ));
        assert!(c.slice(9).is_err());
    }

    #[test]
    fn energy_accounts_each_primitive() {
        let mut c = Cmem::new();
        c.store_byte(0, 1).unwrap();
        c.write_vector_u8(1, 0, &[1u8; 256]).unwrap();
        c.write_vector_u8(1, 8, &[1u8; 256]).unwrap();
        c.mac_u8(1, 0, 8).unwrap();
        c.move_vector(1, 0, 2, 0, 8).unwrap();
        c.set_row(3, 0, true).unwrap();
        c.shift_row(3, 0, ShiftDir::Left, 1).unwrap();
        let pj = c.energy().total_pj();
        let expect = crate::energy::VERTICAL_WRITE_PJ
            + crate::energy::MAC_PJ
            + crate::energy::MOVE_PJ
            + crate::energy::SET_ROW_PJ
            + crate::energy::SHIFT_ROW_PJ;
        assert!((pj - expect).abs() < 1e-9, "{pj} vs {expect}");
    }

    mod faults {
        use super::*;
        use crate::fault::{FaultPlan, StuckAt};

        fn exercise(c: &mut Cmem) -> (Vec<u8>, i64) {
            let ifmap: Vec<i8> = (0..256).map(|i| (i % 17) as i8 - 8).collect();
            let filt: Vec<i8> = (0..256).map(|i| (i % 11) as i8 - 5).collect();
            for (k, &b) in ifmap.iter().enumerate() {
                c.store_byte(k, b as u8).unwrap();
            }
            c.move_vector(0, 0, 4, 0, 8).unwrap();
            c.write_vector_i8(4, 8, &filt).unwrap();
            let mac = c.mac_i8(4, 0, 8).unwrap();
            let bytes: Vec<u8> = (0..256).map(|k| c.load_byte(k).unwrap()).collect();
            (bytes, mac)
        }

        #[test]
        fn quiet_plan_is_bit_identical() {
            let mut clean = Cmem::new();
            let mut quiet = Cmem::with_fault_plan(FaultPlan::none());
            assert_eq!(exercise(&mut clean), exercise(&mut quiet));
            assert_eq!(quiet.fault_stats().total(), 0);
            assert_eq!(quiet.energy().fault_events(), 0);
            // energy totals must match too — the fault path adds nothing
            assert_eq!(clean.energy().total_pj(), quiet.energy().total_pj());
        }

        #[test]
        fn stuck_at_cell_overrides_writes_consistently() {
            // Cell (0, row 0, col 5) stuck at 1: bit 0 of byte 5 always set.
            let mut c = Cmem::with_fault_plan(FaultPlan::none().stuck(0, 0, 5, StuckAt::One));
            c.store_byte(5, 0x00).unwrap();
            assert_eq!(c.load_byte(5).unwrap(), 0x01);
            c.store_byte(5, 0xFE).unwrap();
            assert_eq!(c.load_byte(5).unwrap(), 0xFF);
            assert!(c.fault_stats().stuck_bits_forced >= 2);
            assert_eq!(c.energy().fault_events(), c.fault_stats().total());

            // Stuck-at-0 on the same cell erases the bit instead.
            let mut z = Cmem::with_fault_plan(FaultPlan::none().stuck(0, 0, 5, StuckAt::Zero));
            z.store_byte(5, 0xFF).unwrap();
            assert_eq!(z.load_byte(5).unwrap(), 0xFE);
        }

        #[test]
        fn stuck_cell_poisons_mac_deterministically() {
            // A stuck bit in the filter operand must shift the MAC result
            // the same way every time (no randomness in the permanent path).
            let run = || {
                let mut c =
                    Cmem::with_fault_plan(FaultPlan::none().stuck(2, 8, 0, StuckAt::One));
                c.write_vector_u8(2, 0, &[3u8; 256]).unwrap();
                c.write_vector_u8(2, 8, &[0u8; 256]).unwrap();
                c.mac_u8(2, 0, 8).unwrap()
            };
            // filter lane 0 reads 1 instead of 0 → dot product 3, not 0
            assert_eq!(run(), 3);
            assert_eq!(run(), run());
        }

        #[test]
        fn dead_slice_is_detected_as_typed_error() {
            let mut c = Cmem::with_fault_plan(FaultPlan::none().dead_slice(4));
            c.write_vector_u8(3, 0, &[1u8; 256]).unwrap(); // healthy slice ok
            assert!(matches!(
                c.write_vector_u8(4, 0, &[1u8; 256]),
                Err(SramError::SliceFailed { slice: 4 })
            ));
            assert!(matches!(
                c.mac(4, 0, 8, 8, false),
                Err(SramError::SliceFailed { slice: 4 })
            ));
            assert!(matches!(
                c.move_vector(3, 0, 4, 0, 8),
                Err(SramError::SliceFailed { slice: 4 })
            ));
            assert_eq!(c.fault_stats().dead_slice_hits, 3);
        }

        #[test]
        fn transient_rate_one_flips_exactly_one_mac_bit() {
            let mut clean = Cmem::new();
            let mut noisy = Cmem::with_fault_plan(FaultPlan::with_seed(9).transient(1.0));
            for c in [&mut clean, &mut noisy] {
                c.write_vector_u8(1, 0, &[2u8; 256]).unwrap();
                c.write_vector_u8(1, 8, &[3u8; 256]).unwrap();
            }
            // the vector writes themselves don't draw upsets; the MAC does
            let a = clean.mac(1, 0, 8, 8, false).unwrap();
            let b = noisy.mac(1, 0, 8, 8, false).unwrap();
            assert_eq!((a ^ b).count_ones(), 1, "{a:#x} vs {b:#x}");
            assert_eq!(noisy.fault_stats().transient_flips, 1);
        }

        #[test]
        fn reseed_changes_transient_schedule_deterministically() {
            let draw = |salt: Option<u64>| {
                let mut c = Cmem::with_fault_plan(FaultPlan::with_seed(77).transient(0.25));
                if let Some(s) = salt {
                    c.reseed_fault_rng(s);
                }
                c.write_vector_u8(1, 0, &[2u8; 256]).unwrap();
                c.write_vector_u8(1, 8, &[3u8; 256]).unwrap();
                (0..16).map(|_| c.mac_u8(1, 0, 8).unwrap()).collect::<Vec<_>>()
            };
            assert_eq!(draw(None), draw(None));
            assert_eq!(draw(Some(1)), draw(Some(1)));
            assert_ne!(draw(None), draw(Some(1)));
            // reseeding without a plan is a no-op
            let mut bare = Cmem::new();
            bare.reseed_fault_rng(5);
            assert!(bare.fault_plan().is_none());
        }
    }

    mod ecc {
        use super::*;
        use crate::ecc::EccMode;
        use crate::fault::{FaultPlan, StuckAt};

        fn exercise(c: &mut Cmem) -> (Vec<u8>, i64) {
            let ifmap: Vec<i8> = (0..256).map(|i| (i % 17) as i8 - 8).collect();
            let filt: Vec<i8> = (0..256).map(|i| (i % 11) as i8 - 5).collect();
            for (k, &b) in ifmap.iter().enumerate() {
                c.store_byte(k, b as u8).unwrap();
            }
            c.move_vector(0, 0, 4, 0, 8).unwrap();
            c.write_vector_i8(4, 8, &filt).unwrap();
            let mac = c.mac_i8(4, 0, 8).unwrap();
            let bytes: Vec<u8> = (0..256).map(|k| c.load_byte(k).unwrap()).collect();
            (bytes, mac)
        }

        #[test]
        fn off_mode_is_bit_identical_and_free() {
            let mut plain = Cmem::new();
            let mut off = Cmem::new();
            off.set_ecc_mode(EccMode::Off);
            assert_eq!(exercise(&mut plain), exercise(&mut off));
            assert_eq!(off.ecc_stats(), crate::ecc::EccStats::default());
            assert_eq!(off.ecc_mode(), EccMode::Off);
            assert_eq!(plain.energy().total_pj(), off.energy().total_pj());
            assert_eq!(plain, off);
        }

        #[test]
        fn correct_mode_on_clean_cmem_matches_values_and_charges_surcharge() {
            let mut plain = Cmem::new();
            let mut prot = Cmem::new();
            prot.set_ecc_mode(EccMode::Correct);
            // Same architectural results...
            assert_eq!(exercise(&mut plain), exercise(&mut prot));
            // ...but the protected run paid for encodes and checks.
            let stats = prot.ecc_stats();
            assert!(stats.encodes > 0);
            assert!(stats.checks > 0);
            assert_eq!(stats.corrected, 0);
            assert!(stats.cycle_surcharge > 0);
            assert!(prot.energy().ecc_pj() > 0.0);
            assert!(prot.energy().total_pj() > plain.energy().total_pj());
        }

        #[test]
        fn correct_mode_absorbs_transient_mac_upsets() {
            let mut clean = Cmem::new();
            let mut prot = Cmem::with_fault_plan(FaultPlan::with_seed(9).transient(1.0));
            prot.set_ecc_mode(EccMode::Correct);
            for c in [&mut clean, &mut prot] {
                c.write_vector_u8(1, 0, &[2u8; 256]).unwrap();
                c.write_vector_u8(1, 8, &[3u8; 256]).unwrap();
            }
            // Rate-1.0 transients would flip a MAC bit; Correct absorbs it.
            assert_eq!(
                clean.mac(1, 0, 8, 8, false).unwrap(),
                prot.mac(1, 0, 8, 8, false).unwrap()
            );
            assert_eq!(prot.fault_stats().transient_flips, 1);
            assert!(prot.ecc_stats().corrected >= 1);
        }

        #[test]
        fn detect_only_surfaces_transient_upsets_as_typed_errors() {
            let mut c = Cmem::with_fault_plan(FaultPlan::with_seed(9).transient(1.0));
            c.set_ecc_mode(EccMode::DetectOnly);
            c.write_vector_u8(1, 0, &[2u8; 256]).unwrap();
            c.write_vector_u8(1, 8, &[3u8; 256]).unwrap();
            assert!(matches!(
                c.mac(1, 0, 8, 8, false),
                Err(SramError::EccUncorrectable { slice: 1, .. })
            ));
            assert_eq!(c.ecc_stats().detected_uncorrectable, 1);
        }

        #[test]
        fn correct_mode_repairs_single_stuck_cell_reads() {
            // Stuck bit 0 of byte 5 at 1: unprotected loads see 0x01,
            // protected loads see the intended 0x00 while the cell itself
            // stays physically stuck.
            let plan = FaultPlan::none().stuck(0, 0, 5, StuckAt::One);
            let mut c = Cmem::with_fault_plan(plan);
            c.set_ecc_mode(EccMode::Correct);
            c.store_byte(5, 0x00).unwrap();
            assert_eq!(c.load_byte(5).unwrap(), 0x00);
            assert!(c.ecc_stats().corrected >= 1);
            assert!(c.fault_stats().stuck_bits_forced >= 1);
            // a re-write whose data agrees with the stuck value clears the
            // mismatch: nothing left to correct
            let before = c.ecc_stats().corrected;
            c.store_byte(5, 0x01).unwrap();
            assert_eq!(c.load_byte(5).unwrap(), 0x01);
            assert_eq!(c.ecc_stats().corrected, before);
        }

        #[test]
        fn correct_mode_repairs_stuck_filter_lane_in_mac() {
            // The same scenario `stuck_cell_poisons_mac_deterministically`
            // proves corrupts the result — under Correct it matches clean.
            let mut c = Cmem::with_fault_plan(FaultPlan::none().stuck(2, 8, 0, StuckAt::One));
            c.set_ecc_mode(EccMode::Correct);
            c.write_vector_u8(2, 0, &[3u8; 256]).unwrap();
            c.write_vector_u8(2, 8, &[0u8; 256]).unwrap();
            assert_eq!(c.mac_u8(2, 0, 8).unwrap(), 0);
            assert!(c.ecc_stats().corrected >= 1);
            // correct-on-read: the array still holds the stuck value, so
            // each further MAC corrects it again
            let corrected = c.ecc_stats().corrected;
            assert_eq!(c.mac_u8(2, 0, 8).unwrap(), 0);
            assert!(c.ecc_stats().corrected > corrected);
        }

        #[test]
        fn two_stuck_cells_in_one_row_are_uncorrectable() {
            let plan = FaultPlan::none()
                .stuck(2, 8, 0, StuckAt::One)
                .stuck(2, 8, 1, StuckAt::One);
            let mut c = Cmem::with_fault_plan(plan);
            c.set_ecc_mode(EccMode::Correct);
            c.write_vector_u8(2, 0, &[3u8; 256]).unwrap();
            c.write_vector_u8(2, 8, &[0u8; 256]).unwrap();
            assert!(matches!(
                c.mac_u8(2, 0, 8),
                Err(SramError::EccUncorrectable { slice: 2, row: 8 })
            ));
            assert_eq!(c.ecc_stats().detected_uncorrectable, 1);
        }

        #[test]
        fn move_carries_corrected_data_and_flags_latched_upsets() {
            // A stuck source cell is corrected in transit: the destination
            // receives the intended data even though the source stays bad.
            let mut c = Cmem::with_fault_plan(FaultPlan::none().stuck(1, 0, 7, StuckAt::One));
            c.set_ecc_mode(EccMode::Correct);
            c.write_vector_u8(1, 0, &[0u8; 256]).unwrap();
            c.move_vector(1, 0, 3, 0, 8).unwrap();
            let dst = c.slice(3).unwrap().read_vector(0, 8, 256).unwrap();
            assert!(dst.iter().all(|&x| x == 0), "stuck bit leaked into move");
            // the source array cell is still physically stuck
            assert!(c.slice(1).unwrap().array().read_bit(0, 7).unwrap());
        }

        #[test]
        fn mac_path_follows_plan_ecc_and_mask() {
            let mut c = Cmem::new();
            assert_eq!(c.mac_path(3), MacPath::Pure);
            assert_eq!(c.mac_path(NUM_SLICES), MacPath::Array);
            c.slice_mut(3).unwrap().set_mask(0x7F);
            assert_eq!(c.mac_path(3), MacPath::Array);
            assert_eq!(c.mac_path(4), MacPath::Pure);
            c.set_ecc_mode(EccMode::DetectOnly);
            assert_eq!(c.mac_path(4), MacPath::Checked);
            // attaching a plan changes no cell
            c.attach_fault_plan(FaultPlan::with_seed(1).stuck(4, 8, 0, StuckAt::One));
            assert_eq!(c.mac_path(4), MacPath::Checked);
            c.set_ecc_mode(EccMode::Off);
            assert_eq!(c.mac_path(4), MacPath::Array);
        }

        #[test]
        fn checked_path_refuses_ecc_enabled_after_a_forced_stuck_cell() {
            // Lane 0 of the filter is stuck at 1, so the array's product
            // is 3 where the written operands give 0.
            let plan = FaultPlan::none().stuck(2, 8, 0, StuckAt::One);
            let write = |c: &mut Cmem| {
                c.write_vector_u8(2, 0, &[3u8; 256]).unwrap();
                c.write_vector_u8(2, 8, &[0u8; 256]).unwrap();
            };
            // forced with ECC off: no record covers the cell
            let mut late = Cmem::with_fault_plan(plan.clone());
            write(&mut late);
            late.set_ecc_mode(EccMode::Correct);
            assert_eq!(late.mac_path(2), MacPath::Array);
            assert_eq!(late.mac_u8(2, 0, 8).unwrap(), 3);
            // ECC before the write records it, and corrects it
            let mut early = Cmem::with_fault_plan(plan);
            early.set_ecc_mode(EccMode::Correct);
            write(&mut early);
            assert_eq!(early.mac_path(2), MacPath::Checked);
            let mut array = early.clone();
            assert_eq!(early.mac_with_product(2, 0, 8, 8, false, 0), Ok(0));
            assert_eq!(array.mac_u8(2, 0, 8), Ok(0));
            assert_eq!(early, array);
        }

        #[test]
        fn checked_path_refuses_ecc_recreated_after_a_fault() {
            let mut c = Cmem::with_fault_plan(FaultPlan::none().stuck(2, 8, 0, StuckAt::One));
            c.set_ecc_mode(EccMode::Correct);
            c.write_vector_u8(2, 0, &[3u8; 256]).unwrap();
            c.write_vector_u8(2, 8, &[0u8; 256]).unwrap();
            assert_eq!(c.mac_path(2), MacPath::Checked);
            // a new state starts without the stuck cell's record
            for mode in [EccMode::Correct, EccMode::DetectOnly] {
                c.set_ecc_mode(mode);
                assert_eq!(c.mac_path(2), MacPath::Array, "{mode:?}");
            }
            assert_eq!(c.mac_u8(2, 0, 8).unwrap(), 3);
        }

        #[test]
        fn shift_row_scrubs_single_bit_errors() {
            let mut c = Cmem::with_fault_plan(FaultPlan::none().stuck(3, 0, 0, StuckAt::One));
            c.set_ecc_mode(EccMode::Correct);
            c.set_row(3, 0, false).unwrap();
            // shift repairs permanently, then the write path re-forces the
            // stuck cell and re-records the mismatch — still correctable
            c.shift_row(3, 0, ShiftDir::Left, 1).unwrap();
            let lanes = c.read_row_remote(3, 0).unwrap();
            assert!(lanes.iter().all(|&w| w == 0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_quiet_plan_never_diverges(
            seed in any::<u64>(),
            data in proptest::collection::vec(any::<u8>(), 256),
        ) {
            // A seeded-but-quiet plan must be indistinguishable from none.
            let mut clean = Cmem::new();
            let mut quiet = Cmem::with_fault_plan(crate::fault::FaultPlan::with_seed(seed));
            for c in [&mut clean, &mut quiet] {
                c.write_vector_u8(6, 0, &data).unwrap();
                c.write_vector_u8(6, 8, &data).unwrap();
            }
            prop_assert_eq!(clean.mac_u8(6, 0, 8).unwrap(), quiet.mac_u8(6, 0, 8).unwrap());
            prop_assert_eq!(quiet.fault_stats().total(), 0);
        }

        #[test]
        fn prop_fast_and_slow_paths_agree_on_value_and_accounting(
            bits in 1usize..=16,
            signed in any::<bool>(),
            mask in any::<u8>(),
            a in proptest::collection::vec(any::<u16>(), 256),
            b in proptest::collection::vec(any::<u16>(), 256),
            stuck in proptest::collection::vec(
                (any::<usize>(), 0usize..crate::BITLINES, any::<bool>()), 1..8),
        ) {
            // `Cmem::mac` runs the word-parallel slice MAC under any plan.
            // Arm one with stuck cells in the operand rows and flip rate 0:
            // its value must equal the bit-serial `CmemSlice::mac` on the
            // same stuck-forced slice, and its accounting that of a clean
            // CMem fed the same writes — one MAC charged, and no fault
            // event beyond the bits forced at write time.
            use crate::fault::{FaultPlan, StuckAt};
            let mut plan = FaultPlan::with_seed(7);
            for &(row, col, one) in &stuck {
                let value = if one { StuckAt::One } else { StuckAt::Zero };
                plan = plan.stuck(2, row % (2 * bits), col, value);
            }
            let mut clean = Cmem::new();
            let mut faulty = Cmem::with_fault_plan(plan);
            for c in [&mut clean, &mut faulty] {
                c.slice_mut(2).unwrap().set_mask(mask);
                for (base, words) in [(0, &a), (bits, &b)] {
                    let planes = crate::transpose::pack_words(words, bits, crate::BITLINES);
                    for (i, plane) in planes.iter().enumerate() {
                        c.write_row_remote(2, base + i, plane).unwrap();
                    }
                }
            }
            let forced = faulty.fault_stats();
            let got = faulty.mac(2, 0, bits, bits, signed).unwrap();
            let reference = faulty.slice(2).unwrap().mac(0, bits, bits, signed).unwrap();
            prop_assert_eq!(got, reference, "array MAC diverged from the bit-serial loop");
            clean.mac(2, 0, bits, bits, signed).unwrap();
            prop_assert_eq!(clean.energy().macs(), faulty.energy().macs());
            prop_assert_eq!(clean.energy().total_pj(), faulty.energy().total_pj());
            prop_assert_eq!(faulty.fault_stats(), forced, "the MAC itself fired a fault");
            prop_assert_eq!(forced.total(), forced.stuck_bits_forced);
            prop_assert_eq!(faulty.energy().fault_events(), forced.stuck_bits_forced);
            // cycle cost is analytic and path-independent by construction
            prop_assert_eq!(
                crate::timing::mac_cycles(bits),
                crate::slice::CmemSlice::mac_activations(bits)
            );
        }

        #[test]
        fn prop_array_mac_sees_faults_in_words_the_operand_leaves_empty(
            bits in 1usize..=16,
            signed in any::<bool>(),
            correct in any::<bool>(),
            stuck_one in any::<bool>(),
            word in 0usize..4,
            off in 1usize..4,
            lane in 0usize..64,
            plane in 0usize..16,
            a in proptest::collection::vec(any::<u16>(), 64),
            b in proptest::collection::vec(any::<u16>(), 256),
        ) {
            // Operand A lives in one 64-lane word; a stuck cell of its rows
            // sits in another. Stuck at 1, the cell is the only set bit of
            // its word. Stuck at 0, it erases the one bit A wrote there, so
            // the raw array leaves the word empty and only the ECC repair
            // makes it live again. `Cmem::mac` must see the array as ECC
            // presents it: the stuck value without ECC, the written value
            // under Correct.
            use crate::ecc::EccMode;
            use crate::fault::{FaultPlan, StuckAt};
            let plane = plane % bits;
            let col = (word + off) % 4 * 64 + lane;
            let width = ((1u32 << bits) - 1) as u16;
            let mut written = vec![0u16; BITLINES];
            for (k, &v) in a.iter().enumerate() {
                written[word * 64 + k] = v & width;
            }
            let mut stuck = written.clone();
            if stuck_one {
                stuck[col] = 1 << plane;
            } else {
                written[col] = 1 << plane;
            }
            let value = if stuck_one { StuckAt::One } else { StuckAt::Zero };
            let mut c = Cmem::with_fault_plan(FaultPlan::none().stuck(2, plane, col, value));
            if correct {
                c.set_ecc_mode(EccMode::Correct);
            }
            for (base, words) in [(0, &written), (bits, &b)] {
                let planes = crate::transpose::pack_words(words, bits, BITLINES);
                for (i, plane) in planes.iter().enumerate() {
                    c.write_row_remote(2, base + i, plane).unwrap();
                }
            }
            let seen = if correct { &written } else { &stuck };
            let lane_value = |v: u16| {
                let v = i64::from(v & width);
                if signed && v >> (bits - 1) == 1 { v - (1 << bits) } else { v }
            };
            let expect: i64 = seen.iter().zip(&b).map(|(&x, &y)| lane_value(x) * lane_value(y)).sum();
            prop_assert_eq!(c.mac(2, 0, bits, bits, signed).unwrap(), expect);
            if !correct {
                prop_assert_eq!(c.slice(2).unwrap().mac(0, bits, bits, signed).unwrap(), expect);
            }
        }

        #[test]
        fn prop_mac_with_product_matches_mac(
            seed in any::<u64>(),
            rate in prop_oneof![Just(0.0), Just(1.0), 0.0f64..0.5],
            stuck in proptest::collection::vec(
                (0usize..4, any::<usize>(), 0usize..BITLINES, any::<bool>()), 0..6),
            dead in 0usize..2 * NUM_SLICES,
            correct in any::<bool>(),
            via_move in any::<bool>(),
            bits in 1usize..=16,
            signed in any::<bool>(),
            slice in 1usize..NUM_SLICES,
            start in any::<usize>(),
            gap in any::<usize>(),
            a in proptest::collection::vec(any::<u16>(), BITLINES),
            b in proptest::collection::vec(any::<u16>(), BITLINES),
        ) {
            // ECC is on before any write, so its records cover every cell
            // the plan changes. `mac_with_product`, handed the product of
            // the operands as written, must then be indistinguishable from
            // `mac` on a clone: the same result or error, counters, meter,
            // array and fault RNG position, and the same next draw.
            use crate::ecc::EccMode;
            use crate::fault::{FaultPlan, StuckAt};
            fn write(c: &mut Cmem, slice: usize, base: usize, words: &[u16], bits: usize) {
                let planes = crate::transpose::pack_words(words, bits, BITLINES);
                for (i, plane) in planes.iter().enumerate() {
                    // a dead slice refuses the write; its MAC then fails
                    // before the product
                    let _ = c.write_row_remote(slice, base + i, plane);
                }
            }
            let base_a = start % (SLICE_ROWS - 2 * bits + 1);
            let base_b = base_a + bits + gap % (SLICE_ROWS - base_a - 2 * bits + 1);
            let mut plan = FaultPlan::with_seed(seed).transient(rate);
            for &(at, r, col, one) in &stuck {
                // stuck cells in the move's source, in each operand, and
                // anywhere in the slice
                let (s, row) = match at {
                    0 => (0, r % bits),
                    1 => (slice, base_a + r % bits),
                    2 => (slice, base_b + r % bits),
                    _ => (slice, r % SLICE_ROWS),
                };
                plan = plan.stuck(s, row, col, if one { StuckAt::One } else { StuckAt::Zero });
            }
            if dead < NUM_SLICES {
                plan = plan.dead_slice(dead);
            }
            let mut c = Cmem::with_fault_plan(plan);
            c.set_ecc_mode(if correct { EccMode::Correct } else { EccMode::DetectOnly });
            prop_assert_eq!(c.mac_path(slice), MacPath::Checked);
            // operand A arrives by a move (which may latch a flip) or,
            // when the move fails before writing, by a direct write
            if via_move {
                write(&mut c, 0, 0, &a, bits);
            }
            if !(via_move && c.move_vector(0, 0, slice, base_a, bits).is_ok()) {
                write(&mut c, slice, base_a, &a, bits);
            }
            write(&mut c, slice, base_b, &b, bits);
            let width = (1u32 << bits) - 1;
            let lane = |v: u16| {
                let v = i64::from(u32::from(v) & width);
                if signed && v >> (bits - 1) == 1 { v - (1 << bits) } else { v }
            };
            let product: i64 = a.iter().zip(&b).map(|(&x, &y)| lane(x) * lane(y)).sum();
            let mut array = c.clone();
            let got = c.mac_with_product(slice, base_a, base_b, bits, signed, product);
            let want = array.mac(slice, base_a, base_b, bits, signed);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(c.ecc_stats(), array.ecc_stats());
            prop_assert_eq!(c.fault_stats(), array.fault_stats());
            prop_assert_eq!(c.energy(), array.energy());
            prop_assert!(c == array, "CMem state diverged");
            prop_assert_eq!(
                c.mac(slice, base_a, base_b, bits, signed),
                array.mac(slice, base_a, base_b, bits, signed)
            );
        }

        #[test]
        fn prop_byte_roundtrip(addr in 0usize..SLICE0_BYTES, v in any::<u8>()) {
            let mut c = Cmem::new();
            c.store_byte(addr, v).unwrap();
            prop_assert_eq!(c.load_byte(addr).unwrap(), v);
        }

        #[test]
        fn prop_signed_mac_through_full_path(
            ifmap in proptest::collection::vec(any::<i8>(), 256),
            filt in proptest::collection::vec(any::<i8>(), 256),
        ) {
            let mut c = Cmem::new();
            c.write_vector_i8(0, 0, &ifmap).unwrap();
            c.move_vector(0, 0, 4, 0, 8).unwrap();
            c.write_vector_i8(4, 8, &filt).unwrap();
            let expect: i64 = ifmap.iter().zip(&filt)
                .map(|(&x, &y)| x as i64 * y as i64).sum();
            prop_assert_eq!(c.mac_i8(4, 0, 8).unwrap(), expect);
        }
    }
}
