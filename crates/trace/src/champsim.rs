//! A ChampSim-like per-instruction binary trace format.
//!
//! ChampSim traces record *every* instruction — address, branch flags and
//! the architectural registers and memory operands it touches — because the
//! simulator models the whole core. That is why Table I reports the DPC3
//! set shrinking 42× when reduced to SBBT branch packets: this format pays
//! 64 bytes per instruction, SBBT pays 16 bytes per *branch*.
//!
//! Layout per record (64 bytes, little-endian, mirroring ChampSim's
//! `input_instr`):
//!
//! | field         | bytes |
//! |---------------|-------|
//! | `ip`          | 8     |
//! | `is_branch`   | 1     |
//! | `branch_taken`| 1     |
//! | `dest_regs`   | 2     |
//! | `src_regs`    | 4     |
//! | `dest_mem`    | 16    |
//! | `src_mem`     | 32    |
//!
//! Like the real format there is no explicit branch-type field; branch
//! semantics are conveyed through the register fields (ChampSim infers
//! call/return/indirect from reads and writes of the instruction pointer,
//! stack pointer and flags registers — we encode the same information in
//! `dest_regs[0]`, see [`BRANCH_INFO_FLAG`]).

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::bytes::le_u64_at;
use crate::{Branch, BranchRecord, Opcode, TraceError};

/// Size of one encoded instruction record.
pub const RECORD_BYTES: usize = 64;

/// Marker bit set in `dest_regs[0]` of branch records; the low 4 bits carry
/// the [`Opcode`] encoding (the analogue of ChampSim inferring branch type
/// from architectural register usage).
pub const BRANCH_INFO_FLAG: u8 = 0x40;

/// One instruction as stored in a ChampSim-like trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChampsimRecord {
    /// Instruction virtual address.
    pub ip: u64,
    /// Whether this instruction is a branch.
    pub is_branch: bool,
    /// For branches: whether it was taken.
    pub branch_taken: bool,
    /// Destination architectural registers (0 = unused).
    pub dest_regs: [u8; 2],
    /// Source architectural registers (0 = unused).
    pub src_regs: [u8; 4],
    /// Store addresses (0 = none).
    pub dest_mem: [u64; 2],
    /// Load addresses (0 = none).
    pub src_mem: [u64; 4],
}

impl ChampsimRecord {
    /// Builds a branch record carrying `opcode` in the register fields.
    pub fn branch(ip: u64, opcode: Opcode, taken: bool) -> Self {
        Self {
            ip,
            is_branch: true,
            branch_taken: taken,
            dest_regs: [BRANCH_INFO_FLAG | opcode.bits(), 0],
            ..Self::default()
        }
    }

    /// Recovers the branch opcode if this record is a branch written by
    /// [`ChampsimRecord::branch`].
    pub fn branch_opcode(&self) -> Option<Opcode> {
        if self.is_branch && self.dest_regs[0] & BRANCH_INFO_FLAG != 0 {
            Opcode::from_bits(self.dest_regs[0] & 0xF)
        } else if self.is_branch {
            Some(Opcode::conditional_direct())
        } else {
            None
        }
    }

    /// Encodes to the 64-byte layout.
    pub fn encode(&self) -> [u8; RECORD_BYTES] {
        let mut out = [0u8; RECORD_BYTES];
        out[0..8].copy_from_slice(&self.ip.to_le_bytes());
        out[8] = self.is_branch as u8;
        out[9] = self.branch_taken as u8;
        out[10..12].copy_from_slice(&self.dest_regs);
        out[12..16].copy_from_slice(&self.src_regs);
        for (i, m) in self.dest_mem.iter().enumerate() {
            out[16 + 8 * i..24 + 8 * i].copy_from_slice(&m.to_le_bytes());
        }
        for (i, m) in self.src_mem.iter().enumerate() {
            out[32 + 8 * i..40 + 8 * i].copy_from_slice(&m.to_le_bytes());
        }
        out
    }

    /// Decodes the 64-byte layout. Every bit pattern is a valid record, so
    /// decoding is infallible (and, with the fixed-size input, panic-free).
    pub fn decode(bytes: &[u8; RECORD_BYTES]) -> Self {
        let mut rec = Self {
            ip: le_u64_at(bytes, 0).unwrap_or(0),
            is_branch: bytes[8] != 0,
            branch_taken: bytes[9] != 0,
            dest_regs: [bytes[10], bytes[11]],
            src_regs: [bytes[12], bytes[13], bytes[14], bytes[15]],
            ..Self::default()
        };
        for i in 0..2 {
            rec.dest_mem[i] = le_u64_at(bytes, 16 + 8 * i).unwrap_or(0);
        }
        for i in 0..4 {
            rec.src_mem[i] = le_u64_at(bytes, 32 + 8 * i).unwrap_or(0);
        }
        rec
    }
}

/// Deterministic synthetic operand generator for filler (non-branch)
/// instructions, so the cycle simulator's cache hierarchy sees a plausible
/// mix of streaming and scattered accesses.
#[derive(Clone, Debug)]
pub struct OperandSynth {
    counter: u64,
    /// Base of the synthetic data segment.
    data_base: u64,
}

impl OperandSynth {
    /// Creates a generator. `seed` offsets the data segment so different
    /// traces do not collide in caches.
    pub fn new(seed: u64) -> Self {
        Self {
            counter: 0,
            data_base: 0x5000_0000 + (seed << 24),
        }
    }

    /// Produces a filler instruction at `ip`.
    pub fn filler(&mut self, ip: u64) -> ChampsimRecord {
        let c = self.counter;
        self.counter += 1;
        let mut rec = ChampsimRecord {
            ip,
            // Dependences on ~1 in 3 instructions keep ILP high enough that
            // the backend can sustain several IPC; otherwise dependency
            // stalls would hide every branch-misprediction bubble.
            src_regs: [
                if c.is_multiple_of(3) {
                    1 + (c % 14) as u8
                } else {
                    0
                },
                0,
                0,
                0,
            ],
            dest_regs: [1 + ((c / 2) % 14) as u8, 0],
            ..ChampsimRecord::default()
        };
        // ~1 in 7 instructions load; mostly cache-friendly streaming with
        // an occasional scattered access.
        if c.is_multiple_of(7) {
            rec.src_mem[0] = if c.is_multiple_of(70) {
                self.data_base + (mbp_hash(c) % (1 << 22))
            } else {
                // Sequential 8-byte stream over a cache-resident window.
                self.data_base + ((c / 7) * 8) % (1 << 15)
            };
        }
        // ~1 in 11 instructions store.
        if c.is_multiple_of(11) {
            rec.dest_mem[0] = self.data_base + (1 << 22) + (c * 16) % (1 << 16);
        }
        rec
    }
}

fn mbp_hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 31)
}

/// Writes a ChampSim-like trace, synthesizing filler instructions for the
/// gaps between branches.
#[derive(Debug)]
pub struct ChampsimWriter<W: Write> {
    sink: W,
    synth: OperandSynth,
    records: u64,
}

impl ChampsimWriter<BufWriter<File>> {
    /// Creates a trace file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, TraceError> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> ChampsimWriter<W> {
    /// Creates a writer over any sink.
    pub fn new(sink: W) -> Self {
        Self {
            sink,
            synth: OperandSynth::new(0),
            records: 0,
        }
    }

    /// Writes one raw instruction record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_instr(&mut self, rec: &ChampsimRecord) -> Result<(), TraceError> {
        self.sink.write_all(&rec.encode())?;
        self.records += 1;
        Ok(())
    }

    /// Expands a branch record into `gap` synthetic filler instructions
    /// followed by the branch itself. Filler addresses fill the gap
    /// contiguously below the branch (4-byte instructions).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_branch_record(&mut self, rec: &BranchRecord) -> Result<(), TraceError> {
        let b = rec.branch;
        for k in 0..rec.gap as u64 {
            let ip = b.ip().wrapping_sub(4 * (rec.gap as u64 - k));
            let filler = self.synth.filler(ip);
            self.write_instr(&filler)?;
        }
        self.write_instr(&ChampsimRecord::branch(b.ip(), b.opcode(), b.is_taken()))
    }

    /// Instructions written so far.
    pub fn instruction_count(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Reads a ChampSim-like trace (raw or compressed).
#[derive(Debug)]
pub struct ChampsimReader {
    data: Vec<u8>,
    pos: usize,
}

impl ChampsimReader {
    /// Opens a trace file, transparently decompressing it.
    ///
    /// # Errors
    ///
    /// I/O and decompression errors; rejects lengths that are not a whole
    /// number of records.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, TraceError> {
        Self::from_reader(File::open(path)?)
    }

    /// Reads a trace from any reader.
    ///
    /// # Errors
    ///
    /// Same as [`ChampsimReader::open`].
    pub fn from_reader<R: Read>(mut source: R) -> Result<Self, TraceError> {
        let mut data = Vec::new();
        source.read_to_end(&mut data)?;
        Self::from_bytes(data)
    }

    /// Parses an in-memory trace (decompressing if needed).
    ///
    /// # Errors
    ///
    /// Decompression errors ([`TraceError::Decompress`]) and
    /// [`TraceError::Truncated`] if the length is not a whole number of
    /// 64-byte records.
    pub fn from_bytes(data: Vec<u8>) -> Result<Self, TraceError> {
        let data = mbp_compress::inflate_if_compressed(data)?;
        if data.len() % RECORD_BYTES != 0 {
            return Err(TraceError::Truncated);
        }
        Ok(Self { data, pos: 0 })
    }

    /// Total instructions in the trace.
    pub fn instruction_count(&self) -> u64 {
        (self.data.len() / RECORD_BYTES) as u64
    }

    /// Next instruction, or `None` at the end.
    pub fn next_instr(&mut self) -> Option<ChampsimRecord> {
        // The constructor proved the data is whole records, so the read is
        // always in bounds; a `None` here also covers the (unreachable)
        // partial-tail case instead of panicking.
        let bytes: &[u8; RECORD_BYTES] = self
            .data
            .get(self.pos..self.pos + RECORD_BYTES)
            .and_then(|s| s.first_chunk())?;
        self.pos += RECORD_BYTES;
        Some(ChampsimRecord::decode(bytes))
    }

    /// Reduces the trace to branch records: each branch becomes a
    /// [`BranchRecord`] whose gap is the number of preceding non-branch
    /// instructions and whose target is the next instruction's address when
    /// taken (ChampSim's own convention — targets are not stored).
    pub fn to_branch_records(mut self) -> Vec<BranchRecord> {
        let mut out: Vec<BranchRecord> = Vec::new();
        let mut gap = 0u32;
        let mut pending: Option<(u64, Opcode, bool)> = None;
        while let Some(rec) = self.next_instr() {
            if let Some((ip, op, taken)) = pending.take() {
                let target = if taken { rec.ip } else { 0 };
                out.push(BranchRecord::new(Branch::new(ip, target, op, taken), gap));
                gap = 0;
            }
            if rec.is_branch {
                let op = rec.branch_opcode().unwrap_or_default();
                pending = Some((rec.ip, op, rec.branch_taken));
            } else {
                gap = gap.saturating_add(1);
            }
        }
        if let Some((ip, op, taken)) = pending {
            out.push(BranchRecord::new(Branch::new(ip, 0, op, taken), gap));
        }
        out
    }
}

impl Iterator for ChampsimReader {
    type Item = ChampsimRecord;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_instr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BranchKind;

    #[test]
    fn record_roundtrip() {
        let rec = ChampsimRecord {
            ip: 0xDEAD_BEEF,
            is_branch: true,
            branch_taken: true,
            dest_regs: [3, 0],
            src_regs: [1, 2, 0, 0],
            dest_mem: [0x100, 0],
            src_mem: [0x200, 0x300, 0, 0],
        };
        assert_eq!(ChampsimRecord::decode(&rec.encode()), rec);
    }

    #[test]
    fn branch_opcode_carried() {
        for op in [
            Opcode::conditional_direct(),
            Opcode::call(),
            Opcode::ret(),
            Opcode::new(false, true, BranchKind::Jump),
        ] {
            let rec = ChampsimRecord::branch(0x1000, op, true);
            assert_eq!(rec.branch_opcode(), Some(op));
            let back = ChampsimRecord::decode(&rec.encode());
            assert_eq!(back.branch_opcode(), Some(op));
        }
        assert_eq!(ChampsimRecord::default().branch_opcode(), None);
    }

    #[test]
    fn writer_expands_gaps() {
        let mut w = ChampsimWriter::new(Vec::new());
        let rec = BranchRecord::new(
            Branch::new(0x1010, 0x2000, Opcode::conditional_direct(), true),
            3,
        );
        w.write_branch_record(&rec).unwrap();
        assert_eq!(w.instruction_count(), 4);
        let bytes = w.finish().unwrap();
        let mut r = ChampsimReader::from_reader(&bytes[..]).unwrap();
        assert_eq!(r.instruction_count(), 4);
        // Fillers sit contiguously below the branch.
        assert_eq!(r.next_instr().unwrap().ip, 0x1010 - 12);
        assert_eq!(r.next_instr().unwrap().ip, 0x1010 - 8);
        assert_eq!(r.next_instr().unwrap().ip, 0x1010 - 4);
        let b = r.next_instr().unwrap();
        assert!(b.is_branch);
        assert_eq!(b.ip, 0x1010);
    }

    #[test]
    fn branch_reduction_reconstructs_gaps_and_targets() {
        let mut w = ChampsimWriter::new(Vec::new());
        let recs = vec![
            BranchRecord::new(
                Branch::new(0x1010, 0x2000, Opcode::conditional_direct(), true),
                2,
            ),
            BranchRecord::new(
                Branch::new(0x2008, 0x3000, Opcode::conditional_direct(), false),
                1,
            ),
        ];
        for r in &recs {
            w.write_branch_record(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        let back = ChampsimReader::from_reader(&bytes[..])
            .unwrap()
            .to_branch_records();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].gap, 2);
        assert_eq!(back[0].branch.ip(), 0x1010);
        // Target inferred from the next instruction (first filler of rec 2).
        assert_eq!(back[0].branch.target(), 0x2008 - 4);
        assert!(back[0].branch.is_taken());
        assert_eq!(back[1].gap, 1);
        assert_eq!(back[1].branch.target(), 0, "not-taken has no stored target");
    }

    #[test]
    fn rejects_partial_record() {
        let err = ChampsimReader::from_reader(&[0u8; 70][..]).unwrap_err();
        assert!(matches!(err, TraceError::Truncated));
    }

    #[test]
    fn operand_synth_is_deterministic() {
        let mut a = OperandSynth::new(1);
        let mut b = OperandSynth::new(1);
        for i in 0..50 {
            assert_eq!(a.filler(i), b.filler(i));
        }
    }

    #[test]
    fn operand_synth_mixes_loads_and_stores() {
        let mut s = OperandSynth::new(0);
        let recs: Vec<_> = (0..100).map(|i| s.filler(i)).collect();
        let loads = recs.iter().filter(|r| r.src_mem[0] != 0).count();
        let stores = recs.iter().filter(|r| r.dest_mem[0] != 0).count();
        assert!((10..30).contains(&loads), "loads = {loads}");
        assert!((5..25).contains(&stores), "stores = {stores}");
    }
}
