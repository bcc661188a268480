//! The *Simple Binary Branch Trace* (SBBT) format, version 1.0.0 (§IV-C).
//!
//! An SBBT file is a 24-byte header ([`SbbtHeader`], Fig. 1) followed by a
//! concatenation of 128-bit branch packets (Fig. 2). There is no branch
//! graph: each packet is self-contained, which costs redundancy (recovered
//! by compression) but lets the reader stream packets without consulting a
//! hashed metadata structure — the design decision behind most of MBPlib's
//! speedup over the CBP5 framework (§VII-D).

mod header;
mod packet;
mod reader;
mod writer;

pub use header::{SbbtHeader, SBBT_SIGNATURE, SBBT_VERSION};
pub use packet::{decode_packet, encode_packet, PACKET_BYTES};
pub use reader::{SbbtReader, BATCH_RECORDS};
pub use writer::SbbtWriter;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Branch, BranchKind, BranchRecord, Opcode};
    use mbp_utils::Xorshift64;

    /// Golden-bytes pin of Fig. 2: any change to the packet layout breaks
    /// this test, guarding on-disk compatibility.
    #[test]
    fn packet_golden_bytes() {
        let rec = BranchRecord::new(
            Branch::new(0x40_1000, 0x40_2000, Opcode::conditional_direct(), true),
            5,
        );
        let bytes = encode_packet(&rec).unwrap();
        assert_eq!(bytes.to_vec(), hex("01080001040000000500000204000000"),);
    }

    /// Golden-bytes pin of Fig. 1 (the 192-bit header).
    #[test]
    fn header_golden_bytes() {
        let h = SbbtHeader::new(1000, 42);
        assert_eq!(
            h.encode().to_vec(),
            hex("534242540a010000e8030000000000002a00000000000000"),
        );
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Arbitrary *valid* records (SBBT validity rules + field widths),
    /// drawn from a deterministic stream — the offline stand-in for
    /// proptest.
    fn arb_record(rng: &mut Xorshift64) -> BranchRecord {
        let kind = match rng.below(3) {
            0 => BranchKind::Jump,
            1 => BranchKind::Call,
            _ => BranchKind::Ret,
        };
        let op = Opcode::new(rng.next_bool(), rng.next_bool(), kind);
        let ip = rng.below(1 << 51);
        let mut target = rng.below(1 << 51);
        let taken = rng.next_bool() || !op.is_conditional();
        if op.is_conditional() && op.is_indirect() && !taken {
            target = 0;
        }
        let gap = rng.below(4096) as u32;
        BranchRecord::new(Branch::new(ip, target, op, taken), gap)
    }

    #[test]
    fn stream_roundtrip() {
        let mut rng = Xorshift64::new(0x5bb7_0001);
        for _ in 0..64 {
            let n = rng.below(200) as usize;
            let records: Vec<BranchRecord> = (0..n).map(|_| arb_record(&mut rng)).collect();

            let mut w = SbbtWriter::new(Vec::new());
            for r in &records {
                w.write_record(r).unwrap();
            }
            let bytes = w.finish().unwrap();
            assert_eq!(bytes.len(), 24 + 16 * records.len());

            let mut r = SbbtReader::from_bytes(bytes).unwrap();
            assert_eq!(r.header().branch_count, records.len() as u64);
            let mut back = Vec::new();
            while let Some(rec) = r.next_record().unwrap() {
                back.push(rec);
            }
            assert_eq!(back, records);
        }
    }
}
