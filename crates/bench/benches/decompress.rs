//! Companion to Table IV and §IV: codec decode throughput.
//!
//! Two claims are measured: the zstd-like codec decodes much faster than
//! the gzip-like one on SBBT data, and its decode speed does not degrade
//! at higher compression levels ("a bigger compression factor did not make
//! the decompression slower").
//!
//! Run: `cargo bench -p mbp-bench --bench decompress`

use mbp_bench::harness::{BenchGroup, Throughput};
use mbp_compress::{compress, decompress, Codec};
use mbp_trace::translate;
use mbp_workloads::{ProgramParams, TraceGenerator};

fn main() {
    let records = TraceGenerator::from_params(&ProgramParams::int_speed(), 0xdec0)
        .take_instructions(2_000_000);
    let sbbt = translate::records_to_sbbt(&records).expect("encode");
    let bt9 = translate::records_to_bt9(&records).to_text().into_bytes();

    let mut group = BenchGroup::new("decompress_sbbt");
    group.throughput(Throughput::Bytes(sbbt.len() as u64));
    for (label, codec, level) in [
        ("mgz-6", Codec::Mgz, 6),
        ("mgz-9", Codec::Mgz, 9),
        ("mzst-3", Codec::Mzst, 3),
        ("mzst-19", Codec::Mzst, 19),
        ("mzst-22", Codec::Mzst, 22),
    ] {
        let packed = compress(&sbbt, codec, level).expect("compress");
        group.bench_function(label, || decompress(&packed).expect("decompress"));
    }
    group.finish();

    let mut group = BenchGroup::new("decompress_bt9");
    group.throughput(Throughput::Bytes(bt9.len() as u64));
    for (label, codec) in [("mgz-6", Codec::Mgz), ("mzst-19", Codec::Mzst)] {
        let level = if codec == Codec::Mgz { 6 } else { 19 };
        let packed = compress(&bt9, codec, level).expect("compress");
        group.bench_function(label, || decompress(&packed).expect("decompress"));
    }
    group.finish();
}
