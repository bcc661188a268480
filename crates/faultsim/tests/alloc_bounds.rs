//! Proof that corrupt declared-length fields cannot drive allocations.
//!
//! A 24-byte SBBT header or a 12-byte codec frame can *declare* terabytes;
//! the decoders must cross-check the declaration against the actual stream
//! before sizing any buffer from it. This test wraps the system allocator
//! in a peak-tracking shim and decodes a set of corrupt-header mutants,
//! asserting the peak heap growth stays proportional to the *input* size —
//! not the declared size.
//!
//! It lives in its own integration-test binary on purpose: a single
//! `#[test]` means a single thread, so the global peak counter measures
//! exactly the decode under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakTracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakTracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: PeakTracking = PeakTracking;

/// Runs `decode`, returning its peak heap growth in bytes.
fn peak_growth(decode: impl FnOnce()) -> usize {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    decode();
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

#[test]
fn corrupt_length_fields_cannot_inflate_allocations() {
    use mbp_trace::sbbt::{SbbtReader, SbbtWriter};
    use mbp_trace::{Branch, BranchRecord, Opcode};

    // A small valid trace to corrupt.
    let mut w = SbbtWriter::new(Vec::new());
    for i in 0..32u64 {
        w.write_record(&BranchRecord::new(
            Branch::new(
                0x40_0000 + i * 8,
                0x40_2000,
                Opcode::conditional_direct(),
                i % 3 != 0,
            ),
            2,
        ))
        .expect("encode");
    }
    let raw = w.finish().expect("in-memory sink");

    // Decoding the *valid* trace allocates a few multiples of the input
    // (the owned buffer plus the decoded records); measure it as a sanity
    // reference for the bound used below.
    let valid_peak = peak_growth(|| {
        let mut r = SbbtReader::from_bytes(raw.clone()).expect("valid");
        let records = r.read_all().expect("valid");
        assert_eq!(records.len(), 32);
    });

    // The bound corrupt decodes must stay under: room for a copy of the
    // input and bookkeeping, nowhere near the declared terabytes. The
    // valid decode itself must fit too, or the bound proves nothing.
    let budget = 16 * raw.len() + 4096;
    assert!(
        valid_peak <= budget,
        "valid decode peaked at {valid_peak} bytes; bound {budget} is miscalibrated"
    );

    // SBBT header mutants: counts declaring up to u64::MAX records. A
    // naive `Vec::with_capacity(branch_count)` would request 2^64 * 24
    // bytes here.
    for (what, offset, value, rejected) in [
        ("branch count maxed", 16, u64::MAX, true),
        ("branch count huge", 16, 1 << 40, true),
        // A maxed instruction count is not provably wrong (it only has to
        // be >= the branch count), so the reader accepts it — what matters
        // is that nothing sizes an allocation from it.
        ("instruction count maxed", 8, u64::MAX, false),
    ] {
        let mut bad = raw.clone();
        bad[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        let grew = peak_growth(|| {
            let result = SbbtReader::from_bytes(bad.clone()).and_then(|mut r| r.read_all());
            assert_eq!(result.is_err(), rejected, "{what}");
        });
        assert!(
            grew <= budget,
            "{what}: peak heap growth {grew} exceeds input-proportional budget {budget}"
        );
    }

    // Codec frame mutants: the declared uncompressed size is the first
    // field after the magic; max it out for both codecs.
    for codec in [mbp_compress::Codec::Mgz, mbp_compress::Codec::Mzst] {
        let packed = mbp_compress::compress(&raw, codec, 3).expect("compress");
        let mut bad = packed.clone();
        bad[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        let budget = 16 * packed.len() + 4096;
        let grew = peak_growth(|| {
            assert!(
                mbp_compress::decompress(&bad).is_err(),
                "{codec}: maxed size field must be rejected"
            );
        });
        assert!(
            grew <= budget,
            "{codec}: peak heap growth {grew} exceeds input-proportional budget {budget}"
        );

        // Same through the full trace-reader path.
        let grew = peak_growth(|| {
            assert!(
                SbbtReader::from_bytes(bad.clone()).is_err(),
                "{codec}: reader must reject the frame"
            );
        });
        assert!(grew <= budget, "{codec}: reader path peaked at {grew}");
    }

    // Reading a valid 16 MB trace holds the compressed stream and the
    // codec window, never the inflated trace: opening reads the header,
    // reading streams the rest a batch at a time.
    let records = 1_000_000u64;
    let mut rng = mbp_utils::Xorshift64::new(0xa110_c0de);
    let mut w = SbbtWriter::new(Vec::new());
    for i in 0..records {
        // A loop nest over 64 branches, a few of them data-dependent.
        let slot = i % 64;
        let taken = match slot {
            0..=47 => true,
            48..=55 => i % 7 != 0,
            _ => rng.next_bool(),
        };
        w.write_record(&BranchRecord::new(
            Branch::new(
                0x40_0000 + slot * 16,
                0x40_0000,
                Opcode::conditional_direct(),
                taken,
            ),
            (slot % 5) as u32,
        ))
        .expect("encode");
    }
    let raw = w.finish().expect("in-memory sink");
    let codec = mbp_compress::Codec::Mzst;
    let packed = mbp_compress::compress(&raw, codec, 1).expect("compress");
    const BATCH: usize = mbp_trace::sbbt::BATCH_RECORDS;
    let grew = peak_growth(|| {
        let mut r = SbbtReader::from_bytes(packed.clone()).expect("valid");
        let mut batch = mbp_trace::BranchBatch::new();
        let mut read = 0;
        while r.fill_batch(&mut batch).expect("valid") > 0 {
            read += batch.len() as u64;
        }
        assert_eq!(read, records);
    });
    // The copy of the stream, the window and one batch of packets, plus
    // what decoding a batch needs: a coded block's two 32 K-entry lookup
    // tables (128 KiB each), the batch's decoded columns (22 bytes a
    // record) and 4 KiB of bookkeeping, as in the budgets above.
    let tables = 256 << 10;
    let bound = packed.len() + codec.window() + 16 * BATCH + tables + 22 * BATCH + 4096;
    assert!(
        grew < bound,
        "streaming a {} MB trace peaked at {grew} bytes, over {bound}",
        raw.len() / 1_000_000
    );

    // A compressed trace is opened on its header alone, so what is sized
    // from its length — `remaining()`, `record_count_hint`, `read_all`'s
    // capacity and the sweep's decode-once reserve — comes from the length
    // its frame declares before the stream has proven it. Craft a frame and
    // a header that agree on four times the packets the stream holds: it
    // must fail typed through `read_all` and through `simulate_many`, with
    // peak growth bounded by that declared size, which the frame caps at
    // its payload times the codec's largest expansion. The bound is the
    // 16 MB row's plus the declared records.
    let held = 1usize << 16;
    let declared = 4 * held;
    let mut w = SbbtWriter::new(Vec::new());
    for i in 0..held as u64 {
        w.write_record(&BranchRecord::new(
            Branch::new(
                0x40_0000 + (i % 64) * 16,
                0x40_0000,
                Opcode::conditional_direct(),
                i % 3 != 0,
            ),
            2,
        ))
        .expect("encode");
    }
    let mut lying = w.finish().expect("in-memory sink");
    lying[8..16].copy_from_slice(&(3 * declared as u64).to_le_bytes());
    lying[16..24].copy_from_slice(&(declared as u64).to_le_bytes());
    let mut packed = mbp_compress::compress(&lying, codec, 3).expect("compress");
    packed[4..12].copy_from_slice(&(24 + 16 * declared as u64).to_le_bytes());
    let bound = packed.len()
        + codec.window()
        + 16 * BATCH
        + tables
        + 22 * BATCH
        + 4096
        + declared * std::mem::size_of::<BranchRecord>();
    let grew = peak_growth(|| {
        let mut r = SbbtReader::from_bytes(packed.clone()).expect("header and frame agree");
        assert_eq!(r.remaining(), declared as u64);
        assert!(
            matches!(r.read_all(), Err(mbp_trace::TraceError::Decompress(_))),
            "read_all must fail on a stream short of its declared length"
        );
    });
    assert!(
        grew <= bound,
        "read_all on a lying frame peaked at {grew}, over {bound}"
    );

    /// Predicts taken; never reached, the decode fails first.
    struct Taken;
    impl mbp_core::Predictor for Taken {
        fn predict(&mut self, _ip: u64) -> bool {
            true
        }
        fn train(&mut self, _branch: &Branch) {}
        fn track(&mut self, _branch: &Branch) {}
    }
    let predictors: Vec<(String, Box<dyn mbp_core::Predictor + Send>)> =
        vec![("taken".to_string(), Box::new(Taken))];
    let config = mbp_core::SweepConfig::default();
    let grew = peak_growth(|| {
        let mut r = SbbtReader::from_bytes(packed.clone()).expect("header and frame agree");
        assert!(
            matches!(
                mbp_core::simulate_many(&mut r, predictors, &config),
                Err(mbp_trace::TraceError::Decompress(_))
            ),
            "simulate_many must fail on a stream short of its declared length"
        );
    });
    assert!(
        grew <= bound,
        "simulate_many on a lying frame peaked at {grew}, over {bound}"
    );
}
