//! End-to-end trace format round trips, including compression and files on
//! disk — the translation tooling of §IV-D.

use std::io::Write;

use mbp::compress::{compress, Codec};
use mbp::trace::sbbt::{SbbtReader, SbbtWriter};
use mbp::trace::{bt9, translate, BranchRecord};
use mbp::workloads::{ProgramParams, TraceGenerator};

fn sample(seed: u64, instructions: u64) -> Vec<BranchRecord> {
    TraceGenerator::from_params(&ProgramParams::int_speed(), seed).take_instructions(instructions)
}

#[test]
fn sbbt_file_roundtrip_uncompressed() {
    let records = sample(1, 100_000);
    let dir = std::env::temp_dir().join("mbplib-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.sbbt");
    let mut w = SbbtWriter::create(&path).unwrap();
    for r in &records {
        w.write_record(r).unwrap();
    }
    w.finish().unwrap();

    let mut r = SbbtReader::open(&path).unwrap();
    assert_eq!(r.header().branch_count, records.len() as u64);
    assert_eq!(r.read_all().unwrap(), records);
}

#[test]
fn sbbt_file_roundtrip_both_codecs() {
    let records = sample(2, 100_000);
    let dir = std::env::temp_dir().join("mbplib-tests");
    std::fs::create_dir_all(&dir).unwrap();
    for (codec, level) in [(Codec::Mgz, 6), (Codec::Mzst, 19)] {
        let path = dir.join(format!("roundtrip.sbbt.{}", codec.extension()));
        let mut w = SbbtWriter::create_compressed(&path, codec, level).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        w.finish_compressed().unwrap();

        let raw_size = 24 + 16 * records.len() as u64;
        let disk = std::fs::metadata(&path).unwrap().len();
        assert!(disk < raw_size, "{codec}: no compression achieved");

        let mut r = SbbtReader::open(&path).unwrap();
        assert_eq!(r.read_all().unwrap(), records, "{codec} roundtrip");

        // The writer compresses exactly the raw trace, and refuses a level
        // the codec does not have.
        let raw = translate::records_to_sbbt(&records).unwrap();
        let packed = compress(&raw, codec, level).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), packed, "{codec} bytes");
        for bad in [0, codec.max_level() + 1] {
            assert!(
                SbbtWriter::create_compressed(&path, codec, bad).is_err(),
                "{codec} level {bad}"
            );
        }
    }
}

#[test]
fn bt9_file_roundtrip_compressed() {
    let records = sample(3, 60_000);
    let text = translate::records_to_bt9(&records).to_text();
    let dir = std::env::temp_dir().join("mbplib-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.bt9.mgz");
    let packed = compress(text.as_bytes(), Codec::Mgz, 9).unwrap();
    std::fs::File::create(&path)
        .unwrap()
        .write_all(&packed)
        .unwrap();

    let trace = bt9::open(&path).unwrap();
    let back: Vec<_> = trace.records().collect();
    assert_eq!(back, records);
}

#[test]
fn full_translation_chain_preserves_branch_stream() {
    // records → champsim → SBBT → records → BT9 → SBBT → records.
    let records = sample(4, 50_000);
    let champ = translate::records_to_champsim(&records).unwrap();
    let reader = mbp::trace::champsim::ChampsimReader::from_reader(&champ[..]).unwrap();
    let sbbt = translate::champsim_to_sbbt(reader).unwrap();
    let stage1 = translate::sbbt_to_records(sbbt).unwrap();
    assert_eq!(stage1.len(), records.len());
    for (a, b) in stage1.iter().zip(&records) {
        assert_eq!(a.branch.ip(), b.branch.ip());
        assert_eq!(a.branch.is_taken(), b.branch.is_taken());
        assert_eq!(a.gap, b.gap);
    }

    let bt9_text = translate::records_to_bt9(&stage1).to_text();
    let parsed = bt9::parse_text(&bt9_text).unwrap();
    let stage2 = translate::sbbt_to_records(translate::bt9_to_sbbt(&parsed).unwrap()).unwrap();
    assert_eq!(stage2, stage1);
}

#[test]
fn format_sizes_are_ordered_like_table1() {
    let records = sample(5, 200_000);
    let sbbt = translate::records_to_sbbt(&records).unwrap();
    let bt9 = translate::records_to_bt9(&records).to_text();
    let champ = translate::records_to_champsim(&records).unwrap();

    // §IV: "the absence of the branch graph in the header makes the SBBT
    // traces contain more redundant information. This may make the files
    // bigger" — raw BT9 (deduplicated via its graph) may well be smaller
    // than raw SBBT; what must hold is that the per-instruction format
    // dwarfs both.
    assert!(
        champ.len() > 4 * sbbt.len(),
        "ChampSim {} vs SBBT {}",
        champ.len(),
        sbbt.len()
    );
    assert!(
        champ.len() > 4 * bt9.len(),
        "ChampSim {} vs BT9 {}",
        champ.len(),
        bt9.len()
    );

    // "Using a good compression method also helps to reduce the amount of
    // redundant information": compressed SBBT must shed most of its raw
    // redundancy and land far below the compressed per-instruction trace
    // (Table I's 42× DPC3 row in miniature).
    let sbbt_mzst = compress(&sbbt, Codec::Mzst, 22).unwrap();
    let champ_mgz = compress(&champ, Codec::Mgz, 6).unwrap();
    assert!(
        sbbt_mzst.len() < sbbt.len() / 3,
        "SBBT should compress well: {} → {}",
        sbbt.len(),
        sbbt_mzst.len()
    );
    assert!(
        champ_mgz.len() > 3 * sbbt_mzst.len(),
        "compressed per-instruction {} should dwarf compressed SBBT {}",
        champ_mgz.len(),
        sbbt_mzst.len()
    );
}

#[test]
fn corrupted_files_error_cleanly() {
    let records = sample(6, 20_000);
    let mut sbbt = translate::records_to_sbbt(&records).unwrap();
    // Bit-flip in the middle of the packet stream: either an invalid packet
    // error or a silently tolerated value change — but never a panic. Flip
    // a reserved opcode bit, which must be caught.
    sbbt[24 + 16 * 100] |= 0b0111_0000;
    let mut reader = SbbtReader::from_bytes(sbbt).unwrap();
    let result = reader.read_all();
    assert!(result.is_err(), "reserved-bit corruption must be detected");
}
