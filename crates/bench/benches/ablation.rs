//! Ablation benches for the design decisions the paper credits MBPlib's
//! speed to (§VII-D), isolated one at a time:
//!
//! * **graph indirection** — reading a trace through BT9's id-keyed hashed
//!   node/edge tables versus SBBT's self-contained packet stream;
//! * **per-branch bookkeeping** — the cost of the most-failed statistics
//!   the simulator maintains for Listing 1's report;
//! * **packet validation** — what enforcing the §IV-C validity rules on
//!   every packet costs relative to raw decoding.
//!
//! Run: `cargo bench -p mbp-bench --bench ablation`

use std::collections::HashMap;

use mbp_bench::harness::{BenchGroup, Throughput};
use mbp_core::{simulate, Predictor, SimConfig, SliceSource};
use mbp_predictors::Bimodal;
use mbp_trace::sbbt::{decode_packet, SbbtReader, PACKET_BYTES};
use mbp_trace::{translate, Branch, BranchKind, Opcode};
use mbp_workloads::{ProgramParams, TraceGenerator};

fn bench_graph_indirection() {
    let records =
        TraceGenerator::from_params(&ProgramParams::server(), 0xab1a).take_instructions(1_000_000);
    let bt9 = translate::records_to_bt9(&records);
    let sbbt = translate::records_to_sbbt(&records).expect("sbbt");
    let n = records.len() as u64;

    let mut group = BenchGroup::new("trace_walk");
    group.throughput(Throughput::Elements(n));

    // SBBT: a straight packet walk.
    group.bench_function("sbbt_stream", || {
        let mut reader = SbbtReader::from_bytes(sbbt.clone()).expect("open");
        let mut taken = 0u64;
        while let Some(rec) = reader.next_record().expect("packet") {
            taken += rec.branch.is_taken() as u64;
        }
        taken
    });

    // BT9 with vector-indexed graph (an idealized framework reader).
    group.bench_function("bt9_graph_vec", || {
        let mut taken = 0u64;
        for i in 0..bt9.sequence.len() {
            taken += bt9.record(i).branch.is_taken() as u64;
        }
        taken
    });

    // BT9 with hash-keyed graph, as the original framework stores it —
    // the "big hashed structure" of §VII-D.
    let edges: HashMap<u32, (u32, bool, u64, u32)> = bt9
        .edges
        .iter()
        .enumerate()
        .map(|(id, &e)| (id as u32, e))
        .collect();
    let nodes: HashMap<u32, (u64, Opcode)> = bt9
        .nodes
        .iter()
        .enumerate()
        .map(|(id, &n)| (id as u32, n))
        .collect();
    group.bench_function("bt9_graph_hashed", || {
        let mut taken = 0u64;
        for &e in &bt9.sequence {
            let &(node, t, _, _) = edges.get(&e).expect("edge");
            let &(ip, _) = nodes.get(&node).expect("node");
            taken += (t && ip != 0) as u64;
        }
        taken
    });
    group.finish();
}

/// A stats-free replica of the simulator loop, to isolate the cost of the
/// per-branch most-failed bookkeeping.
fn bare_simulate<P: Predictor>(records: &[mbp_trace::BranchRecord], p: &mut P) -> u64 {
    let mut mis = 0;
    for r in records {
        let b = r.branch;
        if b.is_conditional() {
            mis += (p.predict(b.ip()) != b.is_taken()) as u64;
            p.train(&b);
        }
        p.track(&b);
    }
    mis
}

fn bench_bookkeeping() {
    let records =
        TraceGenerator::from_params(&ProgramParams::server(), 0xab1b).take_instructions(1_000_000);
    let instr: u64 = records.iter().map(|r| r.instructions()).sum();

    let mut group = BenchGroup::new("simulator_bookkeeping");
    group.throughput(Throughput::Elements(instr));
    group.bench_function("with_most_failed_stats", || {
        let mut p = Bimodal::new(18);
        let mut src = SliceSource::new(&records);
        simulate(&mut src, &mut p, &SimConfig::default()).expect("sim")
    });
    group.bench_function("bare_loop", || {
        let mut p = Bimodal::new(18);
        bare_simulate(&records, &mut p)
    });
    group.finish();
}

fn bench_packet_validation() {
    let rec = mbp_trace::BranchRecord::new(
        Branch::new(
            0x40_1000,
            0x40_2000,
            Opcode::new(true, false, BranchKind::Jump),
            true,
        ),
        7,
    );
    let bytes = mbp_trace::sbbt::encode_packet(&rec).expect("encode");
    // Per-packet decode is nanoseconds; run it over a big batch per sample
    // so the harness clock resolution doesn't dominate.
    const REPS: u64 = 1_000_000;

    let mut group = BenchGroup::new("packet_decode");
    group.throughput(Throughput::Elements(REPS));
    group.bench_function("validated", || {
        let mut acc = 0u64;
        for _ in 0..REPS {
            let r = decode_packet(&bytes, 0).expect("valid");
            acc = acc.wrapping_add(r.branch.ip());
        }
        acc
    });
    group.bench_function("raw_fields_only", || {
        let mut acc = 0u64;
        for _ in 0..REPS {
            let block1 = u64::from_le_bytes(bytes[..8].try_into().expect("len"));
            let block2 = u64::from_le_bytes(bytes[8..PACKET_BYTES].try_into().expect("len"));
            acc = acc
                .wrapping_add(((block1 as i64) >> 12) as u64)
                .wrapping_add(((block2 as i64) >> 12) as u64)
                .wrapping_add(block1 & 0xFFF)
                .wrapping_add(block2 & 0xFFF);
        }
        acc
    });
    group.finish();
}

fn bench_cache_replacement() {
    use champsim_lite::{Cache, CacheConfig, Replacement};
    use mbp_utils::mix64;

    // A working set slightly bigger than the cache, with both streaming
    // and scattered components — where replacement policy actually matters.
    let accesses: Vec<u64> = (0..200_000u64)
        .map(|i| {
            if i % 4 == 0 {
                mix64(i / 4) % 3000 // scattered over ~3000 blocks
            } else {
                (i / 3) % 2048 // streaming window
            }
        })
        .collect();

    let mut group = BenchGroup::new("cache_replacement");
    group.throughput(Throughput::Elements(accesses.len() as u64));
    for (label, policy) in [
        ("lru", Replacement::Lru),
        ("tree_plru", Replacement::TreePlru),
    ] {
        group.bench_function(label, || {
            let mut cache =
                Cache::new(CacheConfig::new("L2", 128, 16, 10).with_replacement(policy));
            let mut hits = 0u64;
            for &a in &accesses {
                hits += cache.access(a) as u64;
            }
            hits
        });
    }
    group.finish();
}

fn main() {
    bench_graph_indirection();
    bench_bookkeeping();
    bench_packet_validation();
    bench_cache_replacement();
}
