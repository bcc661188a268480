//! Struct-of-arrays branch batches: the data-oriented hot-path currency.
//!
//! The batch pipeline used to move `Vec<BranchRecord>` (array-of-structs)
//! between the decoder and the simulators. [`BranchBatch`] stores the same
//! records as parallel columns — one `Vec` per field — so the consumers that
//! only touch a subset of the fields (the simulator's bookkeeping loop reads
//! gaps/outcomes/addresses but never targets; a predictor kernel hashes the
//! `pcs` column in a tight, autovectorizable loop) stream exactly the bytes
//! they need, and the SBBT block decoder writes each field straight into its
//! column without materializing intermediate structs.
//!
//! Columns (all `len()` entries long, an invariant checked by
//! [`BranchBatch::debug_assert_aligned`] after every decode):
//!
//! * `pcs` — branch instruction addresses,
//! * `targets` — branch target addresses,
//! * `gaps` — non-branch instructions since the previous branch,
//! * `taken` — outcomes as `0`/`1` bytes (byte-per-branch beats a bitset
//!   here: the hot loops read outcomes randomly, not in bulk),
//! * `ops` — the 4-bit SBBT opcode encoding (bit 0 conditional, bit 1
//!   indirect, bits 2–3 the [`BranchKind`](crate::BranchKind)), which keeps
//!   the common `is conditional?` test a one-byte AND.

use std::ops::Range;

use crate::{Branch, BranchRecord, Opcode};

/// Mutable views of every column, in declaration order:
/// `(pcs, targets, gaps, taken, ops)`.
pub type ColumnsMut<'a> = (
    &'a mut [u64],
    &'a mut [u64],
    &'a mut [u32],
    &'a mut [u8],
    &'a mut [u8],
);

/// A block of branch records stored as struct-of-arrays columns.
///
/// # Examples
///
/// ```
/// use mbp_trace::{Branch, BranchBatch, BranchRecord, Opcode};
///
/// let rec = BranchRecord::new(
///     Branch::new(0x1000, 0x2000, Opcode::conditional_direct(), true),
///     7,
/// );
/// let mut batch = BranchBatch::new();
/// batch.push_record(&rec);
/// assert_eq!(batch.len(), 1);
/// assert_eq!(batch.pcs(), &[0x1000]);
/// assert!(batch.is_conditional(0));
/// assert_eq!(batch.record(0), rec);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BranchBatch {
    pcs: Vec<u64>,
    targets: Vec<u64>,
    gaps: Vec<u32>,
    taken: Vec<u8>,
    ops: Vec<u8>,
}

impl BranchBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `capacity` records per column.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            pcs: Vec::with_capacity(capacity),
            targets: Vec::with_capacity(capacity),
            gaps: Vec::with_capacity(capacity),
            taken: Vec::with_capacity(capacity),
            ops: Vec::with_capacity(capacity),
        }
    }

    /// Builds a batch from a slice of records (tests, in-memory sources).
    pub fn from_records(records: &[BranchRecord]) -> Self {
        let mut batch = Self::with_capacity(records.len());
        batch.extend_from_records(records);
        batch
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Truncates every column to zero length, keeping the allocations, so a
    /// caller looping `fill_batch` never re-zeroes or reallocates columns.
    pub fn clear(&mut self) {
        self.pcs.clear();
        self.targets.clear();
        self.gaps.clear();
        self.taken.clear();
        self.ops.clear();
    }

    /// Reserves room for `additional` more records in every column.
    pub fn reserve(&mut self, additional: usize) {
        self.pcs.reserve(additional);
        self.targets.reserve(additional);
        self.gaps.reserve(additional);
        self.taken.reserve(additional);
        self.ops.reserve(additional);
    }

    /// Appends one record, fanning its fields across the columns.
    #[inline]
    pub fn push_record(&mut self, rec: &BranchRecord) {
        let b = rec.branch;
        self.push_parts(b.ip(), b.target(), rec.gap, b.is_taken(), b.opcode().bits());
    }

    /// Appends raw column values. `op_bits` must be a valid 4-bit SBBT
    /// opcode encoding ([`Opcode::bits`]); the block decoder uses this entry
    /// point to write validated packet fields straight into the columns.
    #[inline]
    pub fn push_parts(&mut self, pc: u64, target: u64, gap: u32, taken: bool, op_bits: u8) {
        self.pcs.push(pc);
        self.targets.push(target);
        self.gaps.push(gap);
        self.taken.push(taken as u8);
        self.ops.push(op_bits);
    }

    /// Resizes every column to exactly `n` records and returns the column
    /// slices `(pcs, targets, gaps, taken, ops)` for direct overwriting —
    /// the block decoder's entry point.
    ///
    /// Existing entries are kept (only the grown tail is zero-filled), so a
    /// buffer reused at a steady batch size is never re-zeroed; callers are
    /// expected to overwrite every lane they keep, and to
    /// [`truncate`](BranchBatch::truncate) down to the written prefix if
    /// they stop early.
    pub fn resize_for_overwrite(&mut self, n: usize) -> ColumnsMut<'_> {
        self.pcs.resize(n, 0);
        self.targets.resize(n, 0);
        self.gaps.resize(n, 0);
        self.taken.resize(n, 0);
        self.ops.resize(n, 0);
        (
            &mut self.pcs,
            &mut self.targets,
            &mut self.gaps,
            &mut self.taken,
            &mut self.ops,
        )
    }

    /// Shortens the batch to `n` records, keeping allocations. No-op if the
    /// batch is already `n` records or shorter.
    pub fn truncate(&mut self, n: usize) {
        self.pcs.truncate(n);
        self.targets.truncate(n);
        self.gaps.truncate(n);
        self.taken.truncate(n);
        self.ops.truncate(n);
    }

    /// Appends rows `rows` of `other`, a column at a time: the copy a
    /// decoded trace held as one batch hands out in blocks, with no record
    /// reassembled.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not within `0..other.len()`.
    pub fn extend_from_batch(&mut self, other: &BranchBatch, rows: Range<usize>) {
        self.pcs.extend_from_slice(&other.pcs[rows.clone()]);
        self.targets.extend_from_slice(&other.targets[rows.clone()]);
        self.gaps.extend_from_slice(&other.gaps[rows.clone()]);
        self.taken.extend_from_slice(&other.taken[rows.clone()]);
        self.ops.extend_from_slice(&other.ops[rows]);
        self.debug_assert_aligned();
    }

    /// Appends every record of `records` column-wise.
    pub fn extend_from_records(&mut self, records: &[BranchRecord]) {
        self.pcs.extend(records.iter().map(|r| r.branch.ip()));
        self.targets
            .extend(records.iter().map(|r| r.branch.target()));
        self.gaps.extend(records.iter().map(|r| r.gap));
        self.taken
            .extend(records.iter().map(|r| r.branch.is_taken() as u8));
        self.ops
            .extend(records.iter().map(|r| r.branch.opcode().bits()));
        self.debug_assert_aligned();
    }

    /// Branch instruction addresses.
    pub fn pcs(&self) -> &[u64] {
        &self.pcs
    }

    /// Branch target addresses.
    pub fn targets(&self) -> &[u64] {
        &self.targets
    }

    /// Non-branch instructions since the previous branch, per record.
    pub fn gaps(&self) -> &[u32] {
        &self.gaps
    }

    /// Outcomes as `0`/`1` bytes.
    pub fn taken(&self) -> &[u8] {
        &self.taken
    }

    /// 4-bit SBBT opcode encodings ([`Opcode::bits`]).
    pub fn ops(&self) -> &[u8] {
        &self.ops
    }

    /// Whether record `i` is a conditional branch (bit 0 of its opcode).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn is_conditional(&self, i: usize) -> bool {
        self.ops[i] & 0b1 != 0
    }

    /// Instructions record `i` advances the instruction counter by (its gap
    /// plus the branch itself).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn instructions(&self, i: usize) -> u64 {
        self.gaps[i] as u64 + 1
    }

    /// Reassembles record `i`'s [`Branch`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn branch(&self, i: usize) -> Branch {
        // `ops` only ever holds encodings produced by `Opcode::bits` or by
        // the validating packet decoder, so the reserved patterns cannot
        // appear; degrade to the default opcode rather than panicking if
        // that invariant ever breaks.
        let opcode = Opcode::from_bits(self.ops[i] & 0xF).unwrap_or_default();
        Branch::new(self.pcs[i], self.targets[i], opcode, self.taken[i] != 0)
    }

    /// Reassembles record `i` as a [`BranchRecord`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn record(&self, i: usize) -> BranchRecord {
        BranchRecord::new(self.branch(i), self.gaps[i])
    }

    /// Iterates the batch as reassembled records.
    pub fn iter_records(&self) -> impl Iterator<Item = BranchRecord> + '_ {
        (0..self.len()).map(|i| self.record(i))
    }

    /// Appends every record to `out` (`read_all`'s decode pass).
    pub fn append_records_to(&self, out: &mut Vec<BranchRecord>) {
        out.reserve(self.len());
        out.extend(self.iter_records());
    }

    /// Asserts (in debug builds) that every column holds the same number of
    /// entries. Producers call this after each decode so a column writer
    /// that skips a field fails fast instead of desynchronizing the batch.
    #[inline]
    pub fn debug_assert_aligned(&self) {
        debug_assert_eq!(self.pcs.len(), self.targets.len(), "targets column");
        debug_assert_eq!(self.pcs.len(), self.gaps.len(), "gaps column");
        debug_assert_eq!(self.pcs.len(), self.taken.len(), "taken column");
        debug_assert_eq!(self.pcs.len(), self.ops.len(), "ops column");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchKind, Opcode};

    fn sample_records() -> Vec<BranchRecord> {
        vec![
            BranchRecord::new(
                Branch::new(0x1000, 0x2000, Opcode::conditional_direct(), true),
                3,
            ),
            BranchRecord::new(
                Branch::new(0x1010, 0x3000, Opcode::unconditional_direct(), true),
                0,
            ),
            BranchRecord::new(Branch::new(0x1020, 0x4000, Opcode::ret(), true), 9),
            BranchRecord::new(
                Branch::new(0x1030, 0, Opcode::new(true, true, BranchKind::Jump), false),
                4095,
            ),
        ]
    }

    #[test]
    fn roundtrips_every_field() {
        let records = sample_records();
        let batch = BranchBatch::from_records(&records);
        assert_eq!(batch.len(), records.len());
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(batch.record(i), *rec, "record {i}");
            assert_eq!(batch.is_conditional(i), rec.branch.is_conditional());
            assert_eq!(batch.instructions(i), rec.instructions());
        }
        let back: Vec<BranchRecord> = batch.iter_records().collect();
        assert_eq!(back, records);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut batch = BranchBatch::from_records(&sample_records());
        let cap = batch.pcs.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.pcs.capacity(), cap, "clear must not drop buffers");
    }

    #[test]
    fn columns_expose_raw_values() {
        let batch = BranchBatch::from_records(&sample_records());
        assert_eq!(batch.pcs(), &[0x1000, 0x1010, 0x1020, 0x1030]);
        assert_eq!(batch.gaps(), &[3, 0, 9, 4095]);
        assert_eq!(batch.taken(), &[1, 1, 1, 0]);
        assert_eq!(batch.ops()[0], Opcode::conditional_direct().bits());
        assert_eq!(batch.ops()[2], Opcode::ret().bits());
    }

    #[test]
    fn append_records_to_accumulates() {
        let records = sample_records();
        let batch = BranchBatch::from_records(&records);
        let mut out = records.clone();
        batch.append_records_to(&mut out);
        assert_eq!(out.len(), 2 * records.len());
        assert_eq!(&out[records.len()..], &records[..]);
    }

    #[test]
    fn extend_from_batch_copies_a_row_range() {
        let records = sample_records();
        let source = BranchBatch::from_records(&records);
        let mut batch = BranchBatch::from_records(&records[..1]);
        batch.extend_from_batch(&source, 1..3);
        assert_eq!(batch, BranchBatch::from_records(&records[..3]));
        batch.extend_from_batch(&source, 4..4);
        assert_eq!(batch.len(), 3, "an empty range appends nothing");
    }

    #[test]
    fn extend_appends_after_existing_rows() {
        let records = sample_records();
        let mut batch = BranchBatch::from_records(&records[..2]);
        batch.extend_from_records(&records[2..]);
        let back: Vec<BranchRecord> = batch.iter_records().collect();
        assert_eq!(back, records);
    }
}
