//! A compressed trace streamed through its codec window reads exactly like
//! the same trace inflated whole: the same batches, records, counts and
//! replays, for both codecs at their lowest and highest levels. The one
//! streaming pass also checks the content checksum, so a run that stops
//! early still fails on a corrupt trailer.

use mbp::compress::{compress, decompress, Codec, CompressError};
use mbp::examples::by_name;
use mbp::sim::{simulate, simulate_comparison, simulate_scalar, SimConfig};
use mbp::trace::sbbt::{SbbtReader, BATCH_RECORDS};
use mbp::trace::{translate, BranchBatch, BranchRecord, TraceError};
use mbp::workloads::{ProgramParams, TraceGenerator};

/// Every `fill_batch` of a reader from where it stands: the count it
/// returned, the records and `remaining()` after it.
type Batches = Vec<(usize, Vec<BranchRecord>, u64)>;

/// Every `next_record` of a reader from where it stands, with
/// `remaining()` after each.
type Records = Vec<(Option<BranchRecord>, u64)>;

fn batches(r: &mut SbbtReader) -> Batches {
    let mut out = Vec::new();
    let mut batch = BranchBatch::new();
    loop {
        let n = r.fill_batch(&mut batch).expect("valid trace");
        let mut records = Vec::new();
        batch.append_records_to(&mut records);
        out.push((n, records, r.remaining()));
        if n == 0 {
            return out;
        }
    }
}

fn records(r: &mut SbbtReader) -> Records {
    let mut out = Vec::new();
    loop {
        let rec = r.next_record().expect("valid trace");
        out.push((rec, r.remaining()));
        if rec.is_none() {
            return out;
        }
    }
}

/// A few records one at a time, then batches: the first batch then spans
/// two streamed ones.
fn mixed(r: &mut SbbtReader) -> (Records, Batches) {
    let head = (0..5)
        .map(|_| (r.next_record().expect("valid trace"), r.remaining()))
        .collect();
    (head, batches(r))
}

#[test]
fn streamed_reads_equal_eager_reads() {
    // 200 000 branches, 3.2 MB of SBBT: three times MZST's 1 MiB window,
    // a hundred times MGZ's, so the retained window wraps many times.
    let trace =
        TraceGenerator::from_params(&ProgramParams::server(), 0x5742_0001).take_records(200_000);
    let sbbt = translate::records_to_sbbt(&trace).expect("encode");
    assert!(sbbt.len() >= 3 << 20, "{} bytes", sbbt.len());
    let dir = std::env::temp_dir().join("mbplib-streaming");
    std::fs::create_dir_all(&dir).expect("temp dir");

    for codec in [Codec::Mgz, Codec::Mzst] {
        assert!(sbbt.len() > 3 * codec.window());
        for level in [1, codec.max_level()] {
            let what = format!("{codec}-{level}");
            let packed = compress(&sbbt, codec, level).expect("compress");
            let path = dir.join(format!("trace.sbbt.{what}"));
            std::fs::write(&path, &packed).expect("write");
            let eager = || {
                SbbtReader::from_decompressed(decompress(&packed).expect("inflate")).expect("open")
            };

            let mut streamed = SbbtReader::open(&path).expect("open");
            let mut whole = eager();
            assert_eq!(streamed.header(), whole.header(), "{what}");
            assert_eq!(streamed.remaining(), whole.remaining(), "{what}");
            let first = batches(&mut whole);
            assert_eq!(batches(&mut streamed), first, "{what}: fill_batch");
            assert!(first[..first.len() - 2]
                .iter()
                .all(|(n, _, _)| *n == BATCH_RECORDS));

            // Replays from the start, by batch and by record.
            streamed.rewind();
            whole.rewind();
            assert_eq!(batches(&mut streamed), first, "{what}: rewound fill_batch");
            streamed.rewind();
            whole.rewind();
            assert_eq!(
                records(&mut streamed),
                records(&mut whole),
                "{what}: next_record"
            );
            streamed.rewind();
            whole.rewind();
            assert_eq!(mixed(&mut streamed), mixed(&mut whole), "{what}: mixed");

            // A fresh open streams the same as a rewound one.
            let mut fresh = SbbtReader::open(&path).expect("open");
            assert_eq!(records(&mut fresh), records(&mut eager()), "{what}: fresh");
        }
    }
}

/// Every driver's cut-off drains the rest of the trace through the
/// checksum: a run that stops after a thousand instructions of a trace
/// whose trailer has one bit flipped fails, where the same run over the
/// sound trace succeeds.
#[test]
fn early_stops_still_check_the_trailer() {
    let trace =
        TraceGenerator::from_params(&ProgramParams::server(), 0x5742_0002).take_records(20_000);
    let sbbt = translate::records_to_sbbt(&trace).expect("encode");
    let sound = compress(&sbbt, Codec::Mzst, 3).expect("compress");
    let mut flipped = sound.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 1;
    let config = SimConfig {
        max_instructions: Some(1000),
        ..SimConfig::default()
    };
    let gshare = || by_name("gshare").expect("stock predictor");
    for (what, packed) in [("sound", sound), ("flipped", flipped)] {
        let open = || SbbtReader::from_bytes(packed.clone()).expect("open reads the header only");
        let outcomes = [
            (
                "simulate",
                simulate(&mut open(), &mut gshare(), &config).err(),
            ),
            (
                "simulate_scalar",
                simulate_scalar(&mut open(), &mut gshare(), &config).err(),
            ),
            (
                "simulate_comparison",
                simulate_comparison(&mut open(), &mut gshare(), &mut gshare(), &config).err(),
            ),
        ];
        for (driver, error) in outcomes {
            match (what, error) {
                ("sound", None) => {}
                (
                    "flipped",
                    Some(TraceError::Decompress(CompressError::Corrupt(
                        "content checksum mismatch",
                    ))),
                ) => {}
                (_, error) => panic!("{driver} over the {what} trace: {error:?}"),
            }
        }
    }
}
