//! The fault-injection campaign: every trace reader in the workspace is
//! driven through hundreds of deterministically corrupted inputs and must
//! fail closed — typed error or (for semantically-ambiguous mutations) a
//! clean decode, but never a panic.
//!
//! The mutation sets are seeded and offline: the same mutants are generated
//! on every run and in CI, so a violation here is always reproducible from
//! the mutant description alone.

use mbp_faultsim::{bit_flips, cuts_at_every_offset, overwrite, run_suite, Expect, SuiteReport};
use mbp_trace::champsim::{ChampsimReader, ChampsimRecord, ChampsimWriter, OperandSynth};
use mbp_trace::sbbt::{SbbtReader, SbbtWriter, BATCH_RECORDS};
use mbp_trace::{bt9, Branch, BranchBatch, BranchKind, BranchRecord, Opcode};
use mbp_utils::Xorshift64;

const SBBT_HEADER_BYTES: usize = 24;
const SBBT_PACKET_BYTES: usize = 16;
const CHAMPSIM_RECORD_BYTES: usize = 64;

/// A deterministic, structurally varied branch stream: conditionals with
/// both outcomes, calls, returns and an indirect jump.
fn sample_records(n: usize) -> Vec<BranchRecord> {
    let mut rng = Xorshift64::new(0xB07_7E57);
    (0..n)
        .map(|i| {
            let r = rng.next_u64();
            let ip = 0x40_0000 + (r % 4096) * 4;
            let (opcode, target, taken) = match i % 5 {
                0 | 1 => (Opcode::conditional_direct(), ip + 64, r & 1 == 0),
                2 => (Opcode::call(), ip + 0x1000, true),
                3 => (Opcode::ret(), ip.wrapping_sub(0x800), true),
                _ => (
                    Opcode::new(false, true, BranchKind::Jump),
                    ip + 0x2000,
                    true,
                ),
            };
            BranchRecord::new(Branch::new(ip, target, opcode, taken), (r % 30) as u32)
        })
        .collect()
}

fn sbbt_raw(records: &[BranchRecord]) -> Vec<u8> {
    let mut w = SbbtWriter::new(Vec::new());
    for r in records {
        w.write_record(r).expect("sample records encode");
    }
    w.finish().expect("in-memory sink")
}

/// Full-depth SBBT decode: construct the reader and drain every record.
fn decode_sbbt(bytes: &[u8]) -> Result<usize, String> {
    let mut reader = SbbtReader::from_bytes(bytes.to_vec()).map_err(|e| e.to_string())?;
    reader
        .read_all()
        .map(|records| records.len())
        .map_err(|e| e.to_string())
}

/// SBBT decode through the simulator's hot path: drain the reader with
/// `fill_batch` into the struct-of-arrays columns of a reused
/// [`BranchBatch`], cross-checking the scalar packet decoder on every
/// input. The two paths must agree on accept/reject *and* on the record
/// count; divergence panics, which [`run_suite`] counts as a violation
/// under every [`Expect`].
fn decode_sbbt_soa(bytes: &[u8]) -> Result<usize, String> {
    let batched = (|| {
        let mut reader = SbbtReader::from_bytes(bytes.to_vec()).map_err(|e| e.to_string())?;
        let mut batch = BranchBatch::new();
        let mut total = 0usize;
        loop {
            let n = reader.fill_batch(&mut batch).map_err(|e| e.to_string())?;
            assert_eq!(batch.len(), n, "batch length out of step with fill_batch");
            total += n;
            if n < BATCH_RECORDS {
                return Ok(total);
            }
        }
    })();
    match (&batched, decode_sbbt(bytes)) {
        (Ok(soa), Ok(scalar)) => {
            assert_eq!(*soa, scalar, "SoA and scalar decoders disagree on count");
        }
        (Err(_), Err(_)) => {}
        (soa, scalar) => panic!("SoA/scalar divergence: soa={soa:?} scalar={scalar:?}"),
    }
    batched
}

fn decode_bt9(bytes: &[u8]) -> Result<usize, String> {
    let trace = bt9::parse(bytes).map_err(|e| e.to_string())?;
    Ok(trace.records().count())
}

fn decode_champsim(bytes: &[u8]) -> Result<usize, String> {
    let reader = ChampsimReader::from_bytes(bytes.to_vec()).map_err(|e| e.to_string())?;
    Ok(reader.to_branch_records().len())
}

#[test]
fn campaign_every_reader_fails_closed() {
    let records = sample_records(96);
    let mut grand_total = SuiteReport::default();

    // --- SBBT, raw container -------------------------------------------
    let raw = sbbt_raw(&records);
    assert!(decode_sbbt(&raw).is_ok(), "baseline must decode");

    // Any strict prefix leaves fewer packets than the header declares, so
    // every single truncation point — mid-header, at a packet boundary,
    // mid-packet — must be rejected.
    let report = run_suite(&cuts_at_every_offset(&raw, Expect::Reject), decode_sbbt);
    report.assert_clean("sbbt raw cuts");
    grand_total.absorb(report);

    // Bit flips: flips in the signature, the version major or the branch
    // count are structurally detectable; flips elsewhere may still decode
    // (a different address is still an address) but must never panic.
    let flips = bit_flips(&raw, 160, 0x5EED_0001, |offset| match offset {
        0..=5 => Expect::Reject,   // signature or major version
        16..=23 => Expect::Reject, // branch count vs actual packets
        _ => Expect::NoPanic,      // minor/patch, instr count, body
    });
    let report = run_suite(&flips, decode_sbbt);
    report.assert_clean("sbbt raw bit flips");
    grand_total.absorb(report);

    // Targeted header-field corruption.
    let n = records.len() as u64;
    let mut targeted = Vec::new();
    for i in 0..5 {
        let patch = [raw[i] ^ 0xFF];
        targeted.push(overwrite(
            &raw,
            i,
            &patch,
            format!("signature byte {i} inverted"),
            Expect::Reject,
        ));
    }
    targeted.push(overwrite(&raw, 5, &[2], "major version 2", Expect::Reject));
    for (what, value, expect) in [
        ("branch count zeroed", 0u64, Expect::Reject),
        ("branch count off by one", n + 1, Expect::Reject),
        ("branch count maxed", u64::MAX, Expect::Reject),
    ] {
        targeted.push(overwrite(&raw, 16, &value.to_le_bytes(), what, expect));
    }
    // An instruction count below the branch count is impossible (every
    // branch is an instruction); a huge one is odd but not provably wrong.
    targeted.push(overwrite(
        &raw,
        8,
        &0u64.to_le_bytes(),
        "instruction count zeroed",
        Expect::Reject,
    ));
    targeted.push(overwrite(
        &raw,
        8,
        &u64::MAX.to_le_bytes(),
        "instruction count maxed",
        Expect::NoPanic,
    ));
    let report = run_suite(&targeted, decode_sbbt);
    report.assert_clean("sbbt header corruption");
    grand_total.absorb(report);

    // --- SBBT through the SoA block decoder -----------------------------
    // The same corpus again, but drained through `fill_batch` into the
    // struct-of-arrays columns — the simulator's hot path — with the
    // scalar decoder cross-checked mutant by mutant (see decode_sbbt_soa).
    let report = run_suite(&cuts_at_every_offset(&raw, Expect::Reject), decode_sbbt_soa);
    report.assert_clean("sbbt soa cuts");
    grand_total.absorb(report);

    let flips = bit_flips(&raw, 160, 0x5EED_0005, |offset| match offset {
        0..=5 => Expect::Reject,
        16..=23 => Expect::Reject,
        _ => Expect::NoPanic,
    });
    let report = run_suite(&flips, decode_sbbt_soa);
    report.assert_clean("sbbt soa bit flips");
    grand_total.absorb(report);

    let report = run_suite(&targeted, decode_sbbt_soa);
    report.assert_clean("sbbt soa header corruption");
    grand_total.absorb(report);

    // A trace longer than one block, so `fill_batch` commits a full block
    // and then fails (or finishes) in the *second* one — the cursor-commit
    // and truncate paths that single-block inputs never reach. Full cuts
    // at every offset would be quadratic here; target the block seam and a
    // spread of interior packets instead.
    let long = sbbt_raw(&sample_records(BATCH_RECORDS + 64));
    assert!(
        decode_sbbt_soa(&long).is_ok(),
        "multi-block baseline decodes"
    );
    let seam = SBBT_HEADER_BYTES + BATCH_RECORDS * SBBT_PACKET_BYTES;
    let cuts = mbp_faultsim::cuts_at(
        &long,
        (seam.saturating_sub(2 * SBBT_PACKET_BYTES)..long.len())
            .chain((SBBT_HEADER_BYTES..seam).step_by(997)),
        |_| Expect::Reject,
    );
    let report = run_suite(&cuts, decode_sbbt_soa);
    report.assert_clean("sbbt soa multi-block cuts");
    grand_total.absorb(report);

    let flips = bit_flips(&long, 96, 0x5EED_0006, |offset| match offset {
        0..=5 => Expect::Reject,
        16..=23 => Expect::Reject,
        _ => Expect::NoPanic,
    });
    let report = run_suite(&flips, decode_sbbt_soa);
    report.assert_clean("sbbt soa multi-block bit flips");
    grand_total.absorb(report);

    // --- SBBT through both compressed envelopes ------------------------
    for codec in [mbp_compress::Codec::Mgz, mbp_compress::Codec::Mzst] {
        let packed = mbp_compress::compress(&raw, codec, 3).expect("compress");
        assert!(decode_sbbt(&packed).is_ok(), "{codec}: baseline decodes");

        // The framing (declared size + checksum trailer) makes any strict
        // prefix detectable.
        let report = run_suite(&cuts_at_every_offset(&packed, Expect::Reject), decode_sbbt);
        report.assert_clean(&format!("sbbt {codec} cuts"));
        grand_total.absorb(report);

        // Entropy blocks are bit-streams with byte-aligned padding, so a
        // flip can land in dead bits and decode identically — require only
        // panic-freedom here (the checksum cases are pinned separately in
        // mbp-compress's error-taxonomy test).
        let flips = bit_flips(&packed, 128, 0x5EED_0002, |_| Expect::NoPanic);
        let report = run_suite(&flips, decode_sbbt);
        report.assert_clean(&format!("sbbt {codec} bit flips"));
        grand_total.absorb(report);
    }

    // --- BT9, plain text and compressed --------------------------------
    let mut w = bt9::Bt9Writer::new();
    for r in &records {
        w.write_record(r);
    }
    let text = w.finish().to_text().into_bytes();
    assert!(decode_bt9(&text).is_ok(), "baseline bt9 decodes");

    // The grammar requires a final EOF token, so any cut before the end of
    // that token must be rejected; cuts that only shave the trailing
    // newline still parse and are merely panic-checked.
    let eof_at = text
        .windows(4)
        .rposition(|w| w == b"\nEOF")
        .expect("writer emits EOF")
        + 4;
    let cuts = mbp_faultsim::cuts_at(&text, 0..text.len(), |at| {
        if at < eof_at {
            Expect::Reject
        } else {
            Expect::NoPanic
        }
    });
    let report = run_suite(&cuts, decode_bt9);
    report.assert_clean("bt9 cuts");
    grand_total.absorb(report);

    let flips = bit_flips(&text, 128, 0x5EED_0003, |_| Expect::NoPanic);
    let report = run_suite(&flips, decode_bt9);
    report.assert_clean("bt9 bit flips");
    grand_total.absorb(report);

    let packed = mbp_compress::compress(&text, mbp_compress::Codec::Mgz, 3).expect("compress");
    assert!(decode_bt9(&packed).is_ok(), "compressed bt9 decodes");
    let report = run_suite(&cuts_at_every_offset(&packed, Expect::Reject), decode_bt9);
    report.assert_clean("bt9 mgz cuts");
    grand_total.absorb(report);

    // --- ChampSim, raw and compressed ----------------------------------
    let mut w = ChampsimWriter::new(Vec::new());
    let mut synth = OperandSynth::new(7);
    for (i, r) in records.iter().enumerate() {
        for _ in 0..(i % 3) {
            w.write_instr(&synth.filler(0x50_0000 + i as u64 * 4))
                .expect("in-memory sink");
        }
        w.write_instr(&ChampsimRecord::branch(
            r.branch.ip(),
            r.branch.opcode(),
            r.branch.is_taken(),
        ))
        .expect("in-memory sink");
    }
    let champ = w.finish().expect("in-memory sink");
    assert!(decode_champsim(&champ).is_ok(), "baseline champsim decodes");

    // The container is a bare array of 64-byte records: cuts on a record
    // boundary are just shorter traces, anything else must be rejected.
    let cuts = mbp_faultsim::cuts_at(&champ, 0..champ.len(), |at| {
        if at % CHAMPSIM_RECORD_BYTES == 0 {
            Expect::NoPanic
        } else {
            Expect::Reject
        }
    });
    let report = run_suite(&cuts, decode_champsim);
    report.assert_clean("champsim cuts");
    grand_total.absorb(report);

    let flips = bit_flips(&champ, 128, 0x5EED_0004, |_| Expect::NoPanic);
    let report = run_suite(&flips, decode_champsim);
    report.assert_clean("champsim bit flips");
    grand_total.absorb(report);

    let packed = mbp_compress::compress(&champ, mbp_compress::Codec::Mzst, 3).expect("compress");
    // The empty prefix is a degenerate but *valid* ChampSim trace (zero
    // records, no magic); every non-empty strict prefix must be rejected.
    let cuts = mbp_faultsim::cuts_at(&packed, 0..packed.len(), |at| {
        if at == 0 {
            Expect::NoPanic
        } else {
            Expect::Reject
        }
    });
    let report = run_suite(&cuts, decode_champsim);
    report.assert_clean("champsim mzst cuts");
    grand_total.absorb(report);

    // --- the campaign itself must be substantial ------------------------
    assert!(
        grand_total.total >= 500,
        "campaign shrank to {} mutants; structural coverage lost",
        grand_total.total
    );
    assert!(
        grand_total.rejected > grand_total.total / 2,
        "most mutants are structurally detectable ({}/{} rejected)",
        grand_total.rejected,
        grand_total.total
    );
}

/// Pin the structural layout assumed by the campaign: if the formats grow,
/// the boundary-targeting mutation sets above must be revisited.
#[test]
fn format_layout_assumptions_hold() {
    let records = sample_records(3);
    let raw = sbbt_raw(&records);
    assert_eq!(
        raw.len(),
        SBBT_HEADER_BYTES + 3 * SBBT_PACKET_BYTES,
        "SBBT layout changed; revisit the cut offsets"
    );
    let mut w = ChampsimWriter::new(Vec::new());
    w.write_instr(&ChampsimRecord::branch(
        0x40_0000,
        Opcode::conditional_direct(),
        true,
    ))
    .expect("in-memory sink");
    assert_eq!(w.finish().expect("sink").len(), CHAMPSIM_RECORD_BYTES);
}
