//! A compressed trace streamed through its codec window reads exactly like
//! the same trace inflated whole: the same batches, records, counts and
//! replays, for both codecs at their lowest and highest levels.

use mbp::compress::{compress, decompress, Codec};
use mbp::trace::sbbt::{SbbtReader, BATCH_RECORDS};
use mbp::trace::{translate, BranchBatch, BranchRecord};
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
