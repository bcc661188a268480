//! Trace translators, mirroring the conversion programs linked from
//! MBPlib's repository ("the user can translate any traces that they had
//! already recorded for both simulators", §IV-D).

use crate::bt9::{Bt9Trace, Bt9Writer};
use crate::champsim::{ChampsimReader, ChampsimWriter};
use crate::sbbt::{SbbtReader, SbbtWriter};
use crate::{BranchRecord, TraceError, MAX_GAP};

/// Encodes branch records as an in-memory SBBT trace.
///
/// # Errors
///
/// [`TraceError::Unencodable`] if any record does not fit the format.
pub fn records_to_sbbt(records: &[BranchRecord]) -> Result<Vec<u8>, TraceError> {
    let mut w = SbbtWriter::new(Vec::new());
    for r in records {
        w.write_record(r)?;
    }
    w.finish()
}

/// Decodes an SBBT trace (raw or compressed) into branch records.
///
/// # Errors
///
/// Header and packet validation errors.
pub fn sbbt_to_records(bytes: Vec<u8>) -> Result<Vec<BranchRecord>, TraceError> {
    SbbtReader::from_bytes(bytes)?.read_all()
}

/// Converts a parsed BT9 trace to SBBT bytes.
///
/// # Errors
///
/// [`TraceError::Unencodable`] if a BT9 record does not fit SBBT (e.g. an
/// edge with a gap above [`MAX_GAP`]).
pub fn bt9_to_sbbt(trace: &Bt9Trace) -> Result<Vec<u8>, TraceError> {
    let mut w = SbbtWriter::new(Vec::new());
    for rec in trace.records() {
        w.write_record(&rec)?;
    }
    // BT9 knows the true total (it may exceed the per-branch sum when the
    // program ran on after the last branch); preserve it.
    let counted = w.instruction_count();
    if trace.instruction_count > counted {
        w.add_trailing_instructions(trace.instruction_count - counted);
    }
    w.finish()
}

/// Converts branch records to a BT9 trace; [`Bt9Trace::to_text`] renders
/// it.
pub fn records_to_bt9(records: &[BranchRecord]) -> Bt9Trace {
    let mut w = Bt9Writer::new();
    for r in records {
        w.write_record(r);
    }
    w.finish()
}

/// Reduces a ChampSim-like per-instruction trace to SBBT bytes.
///
/// Long straight-line stretches are split so no packet exceeds the 12-bit
/// gap limit (none of the reference trace sets need this, §IV-C, but a
/// translator must not fail on synthetic input).
///
/// # Errors
///
/// Trace decoding and SBBT encoding errors.
pub fn champsim_to_sbbt(reader: ChampsimReader) -> Result<Vec<u8>, TraceError> {
    let mut w = SbbtWriter::new(Vec::new());
    for mut rec in reader.to_branch_records() {
        // A gap above the format limit cannot be represented; the paper
        // notes none of the CBP5/DPC3 traces need more than 4096. We clamp
        // by accounting the excess to the header only.
        if rec.gap > MAX_GAP {
            w.add_trailing_instructions((rec.gap - MAX_GAP) as u64);
            rec.gap = MAX_GAP;
        }
        w.write_record(&rec)?;
    }
    w.finish()
}

/// Expands branch records into a ChampSim-like per-instruction trace.
///
/// # Errors
///
/// Propagates I/O errors from the in-memory sink (none in practice).
pub fn records_to_champsim(records: &[BranchRecord]) -> Result<Vec<u8>, TraceError> {
    let mut w = ChampsimWriter::new(Vec::new());
    for r in records {
        w.write_branch_record(r)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Branch, Opcode};

    fn sample() -> Vec<BranchRecord> {
        let cond = Opcode::conditional_direct();
        (0..40)
            .map(|i| {
                BranchRecord::new(
                    Branch::new(
                        0x1000 + 32 * (i % 5),
                        0x2000 + 32 * (i % 5),
                        cond,
                        i % 3 != 0,
                    ),
                    (i % 11) as u32,
                )
            })
            .collect()
    }

    #[test]
    fn sbbt_records_roundtrip() {
        let recs = sample();
        let bytes = records_to_sbbt(&recs).unwrap();
        assert_eq!(sbbt_to_records(bytes).unwrap(), recs);
    }

    #[test]
    fn bt9_to_sbbt_preserves_records() {
        let recs = sample();
        let bt9 = crate::bt9::parse_text(&records_to_bt9(&recs).to_text()).unwrap();
        let sbbt = bt9_to_sbbt(&bt9).unwrap();
        let back = sbbt_to_records(sbbt).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn bt9_to_sbbt_preserves_instruction_total() {
        let mut trace = records_to_bt9(&sample());
        trace.instruction_count += 123; // program ran on after the last branch
        let sbbt = bt9_to_sbbt(&trace).unwrap();
        let r = SbbtReader::from_bytes(sbbt).unwrap();
        assert_eq!(r.header().instruction_count, trace.instruction_count);
    }

    #[test]
    fn champsim_roundtrip_keeps_branch_stream() {
        let recs = sample();
        let champ = records_to_champsim(&recs).unwrap();
        let reader = ChampsimReader::from_reader(&champ[..]).unwrap();
        let sbbt = champsim_to_sbbt(reader).unwrap();
        let back = sbbt_to_records(sbbt).unwrap();
        assert_eq!(back.len(), recs.len());
        for (b, r) in back.iter().zip(&recs) {
            assert_eq!(b.branch.ip(), r.branch.ip());
            assert_eq!(b.branch.is_taken(), r.branch.is_taken());
            assert_eq!(b.gap, r.gap);
        }
    }

    mod properties {
        use super::*;
        use crate::{BranchKind, Opcode};
        use mbp_utils::Xorshift64;

        /// Deterministic valid-record stream — offline stand-in for
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

        fn record_batches(seed: u64) -> impl Iterator<Item = Vec<BranchRecord>> {
            let mut rng = Xorshift64::new(seed);
            (0..64).map(move |_| {
                let n = rng.below(100) as usize;
                (0..n).map(|_| arb_record(&mut rng)).collect()
            })
        }

        #[test]
        fn sbbt_roundtrip_arbitrary() {
            for records in record_batches(0x7e_0001) {
                let bytes = records_to_sbbt(&records).unwrap();
                assert_eq!(sbbt_to_records(bytes).unwrap(), records);
            }
        }

        #[test]
        fn bt9_roundtrip_arbitrary() {
            for records in record_batches(0x7e_0002) {
                let text = records_to_bt9(&records).to_text();
                let parsed = crate::bt9::parse_text(&text).unwrap();
                let back: Vec<BranchRecord> = parsed.records().collect();
                assert_eq!(back, records);
            }
        }

        #[test]
        fn bt9_to_sbbt_composes() {
            for records in record_batches(0x7e_0003) {
                let text = records_to_bt9(&records).to_text();
                let parsed = crate::bt9::parse_text(&text).unwrap();
                let bytes = bt9_to_sbbt(&parsed).unwrap();
                assert_eq!(sbbt_to_records(bytes).unwrap(), records);
            }
        }
    }

    #[test]
    fn champsim_format_is_bigger_than_sbbt() {
        // The structural fact behind Table I's 42× row.
        let recs = sample();
        let sbbt = records_to_sbbt(&recs).unwrap();
        let champ = records_to_champsim(&recs).unwrap();
        assert!(champ.len() > 4 * sbbt.len());
    }
}
