//! Trace tooling: translate between formats and inspect the results.
//!
//! Reproduces the workflow behind Table I: the same program stream stored
//! as BT9 text (CBP5), as a ChampSim-like per-instruction trace, and as
//! SBBT, each under both codecs.
//!
//! Run with: `cargo run --release -p mbp --example trace_tools`

use mbp::compress::{compress, Codec};
use mbp::trace::sbbt::{SbbtHeader, SbbtReader};
use mbp::trace::{bt9, translate};
use mbp::workloads::{ProgramParams, TraceGenerator};

fn row(label: &str, raw: usize, mgz: usize, mzst: usize) {
    println!(
        "{label:<28} {:>12} {:>12} {:>12}",
        format!("{raw} B"),
        format!("{mgz} B"),
        format!("{mzst} B"),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let records =
        TraceGenerator::from_params(&ProgramParams::int_speed(), 0xd15c).take_instructions(500_000);
    println!("one stream, three formats ({} branches):\n", records.len());
    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "format", "raw", "MGZ-9", "MZST-22"
    );

    // SBBT.
    let sbbt = translate::records_to_sbbt(&records)?;
    row(
        "SBBT (16 B/branch)",
        sbbt.len(),
        compress(&sbbt, Codec::Mgz, 9)?.len(),
        compress(&sbbt, Codec::Mzst, 22)?.len(),
    );

    // BT9 text.
    let bt9_text = translate::records_to_bt9(&records).to_text();
    row(
        "BT9 (text + graph)",
        bt9_text.len(),
        compress(bt9_text.as_bytes(), Codec::Mgz, 9)?.len(),
        compress(bt9_text.as_bytes(), Codec::Mzst, 22)?.len(),
    );

    // ChampSim-like per-instruction records.
    let champ = translate::records_to_champsim(&records)?;
    row(
        "ChampSim (64 B/instr)",
        champ.len(),
        compress(&champ, Codec::Mgz, 9)?.len(),
        compress(&champ, Codec::Mzst, 22)?.len(),
    );

    // Translations roundtrip.
    let parsed = bt9::parse_text(&bt9_text)?;
    let back = translate::sbbt_to_records(translate::bt9_to_sbbt(&parsed)?)?;
    assert_eq!(back, records, "BT9 → SBBT must preserve the stream");
    println!(
        "\nBT9 → SBBT translation verified: {} records identical",
        back.len()
    );

    // Inspect the SBBT header (Fig. 1).
    let reader = SbbtReader::from_bytes(sbbt)?;
    let SbbtHeader {
        instruction_count,
        branch_count,
    } = *reader.header();
    println!("SBBT header: {instruction_count} instructions, {branch_count} branches");
    println!(
        "branch density: {:.1}%",
        100.0 * branch_count as f64 / instruction_count as f64
    );
    Ok(())
}
