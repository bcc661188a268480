//! Companion to Table III: steady-state simulation throughput of the three
//! simulators on a fixed workload, per predictor.
//!
//! Run: `cargo bench -p mbp-bench --bench sim_speed`

use cbp5_sim::{run_framework_text, McbpAdapter};
use champsim_lite::{ChampsimConfig, Cpu, TargetPredictorChoice};
use mbp_bench::harness::{BenchGroup, Throughput};
use mbp_bench::table3_predictors;
use mbp_core::{simulate, Predictor, SimConfig, SliceSource};
use mbp_predictors::{Batage, BatageConfig, Gshare};
use mbp_trace::translate;
use mbp_workloads::{ProgramParams, TraceGenerator};

struct Dyn(Box<dyn Predictor + Send>);

impl Predictor for Dyn {
    fn predict(&mut self, ip: u64) -> bool {
        self.0.predict(ip)
    }
    fn train(&mut self, b: &mbp_core::Branch) {
        self.0.train(b)
    }
    fn track(&mut self, b: &mbp_core::Branch) {
        self.0.track(b)
    }
}

fn main() {
    let records =
        TraceGenerator::from_params(&ProgramParams::server(), 0xbe_ec).take_instructions(400_000);
    let instructions: u64 = records.iter().map(|r| r.instructions()).sum();
    let bt9 = translate::records_to_bt9(&records).to_text();

    // MBPlib simulator per predictor (the top half of Table III).
    let mut group = BenchGroup::new("mbplib_simulator");
    group.throughput(Throughput::Elements(instructions));
    for (name, build) in table3_predictors() {
        group.bench_function(name, || {
            let mut predictor = build();
            let mut source = SliceSource::new(&records);
            simulate(&mut source, &mut *predictor, &SimConfig::default()).expect("sim")
        });
    }
    group.finish();

    // CBP5 framework on the same stream (text parse + graph indirection).
    let mut group = BenchGroup::new("cbp5_framework");
    group
        .sample_size(5)
        .throughput(Throughput::Elements(instructions));
    for (name, build) in table3_predictors() {
        group.bench_function(name, || {
            let mut predictor = McbpAdapter::new(Dyn(build()));
            run_framework_text(&bt9, &mut predictor).expect("framework")
        });
    }
    group.finish();

    // ChampSim-like cycle model: only GShare and BATAGE, like the paper —
    // and their runtimes should be nearly identical, because the predictor
    // is a rounding error inside a cycle simulator.
    let champ = translate::records_to_champsim(&records).expect("in-memory");
    let mut group = BenchGroup::new("champsim_lite");
    group
        .sample_size(5)
        .throughput(Throughput::Elements(instructions));
    group.bench_function("GShare", || {
        let mut cpu = Cpu::new(
            ChampsimConfig::ice_lake_like(),
            Box::new(Gshare::new(25, 18)),
            TargetPredictorChoice::btb_with_gshare_indirect(),
        );
        cpu.run_bytes(&champ).expect("run")
    });
    group.bench_function("BATAGE", || {
        let mut cpu = Cpu::new(
            ChampsimConfig::ice_lake_like(),
            Box::new(Batage::new(BatageConfig::default_64kb())),
            TargetPredictorChoice::btb_with_ittage(),
        );
        cpu.run_bytes(&champ).expect("run")
    });
    group.finish();
}
