//! Golden-vector conformance suite.
//!
//! Every stock predictor is replayed over the same fixed 1000-branch
//! synthetic trace and its *exact* prediction bitstream plus final
//! misprediction count and MPKI are compared against a committed fixture in
//! `tests/golden/<name>.txt`. Any behavioral change to a predictor — an
//! indexing tweak, a counter-width change, a different update order — flips
//! bits in the stream and fails the corresponding fixture, so refactors that
//! are supposed to be behavior-preserving get checked at single-prediction
//! granularity rather than only through aggregate accuracy bounds.
//!
//! To bless an intentional behavior change, regenerate the fixtures:
//!
//! ```text
//! MBP_GOLDEN_REGEN=1 cargo test -p mbp-predictors --test golden_vectors
//! ```
//!
//! and commit the diff (which doubles as a review artifact: the bit-level
//! blast radius of the change is visible in the fixture).

use std::fmt::Write as _;
use std::path::PathBuf;

use mbp_core::{simulate, Branch, BranchRecord, Opcode, Predictor, SimConfig, SliceSource};
use mbp_predictors::{
    Batage, BatageConfig, BiasFilter, Bimodal, GSelect, Gshare, HashedPerceptron, LoopPredictor,
    Tage, TageConfig, Tournament, TwoBcGskew, TwoLevel,
};
use mbp_utils::Xorshift64;

/// Number of branches in the golden trace.
const TRACE_LEN: usize = 1000;

/// Seed for the synthetic trace generator (never change without
/// regenerating every fixture).
const TRACE_SEED: u64 = 0x601d_7ec7_0000_0001;

/// The fixed synthetic trace all fixtures are recorded against.
///
/// Five static branches with distinct behaviors, interleaved round-robin so
/// every predictor class has something to sink its teeth into:
///
/// * `0x400` — a loop branch, taken 6 of every 7 iterations (loop/TAGE bait),
/// * `0x410` — heavily biased, taken with probability 0.9 (bimodal bait),
/// * `0x420` — an unbiased coin flip (irreducible noise),
/// * `0x428` — echoes `0x420`'s outcome (history-correlation bait),
/// * `0x430` — an independent coin flip.
///
/// All draws come from one seeded [`Xorshift64`] stream in a fixed order, so
/// the trace is a pure function of [`TRACE_SEED`].
fn golden_trace() -> Vec<BranchRecord> {
    let mut rng = Xorshift64::new(TRACE_SEED);
    let mut out = Vec::with_capacity(TRACE_LEN);
    let mut loop_i = 0u64;
    let push = |out: &mut Vec<BranchRecord>, ip: u64, taken: bool, gap: u32| {
        out.push(BranchRecord::new(
            Branch::new(
                ip,
                ip.wrapping_sub(0x40),
                Opcode::conditional_direct(),
                taken,
            ),
            gap,
        ));
    };
    while out.len() < TRACE_LEN {
        let gap = rng.below(8) as u32;
        push(&mut out, 0x400, loop_i % 7 != 6, gap);
        loop_i += 1;
        push(&mut out, 0x410, rng.below(10) != 0, 3);
        let coin = rng.next_bool();
        push(&mut out, 0x420, coin, 2);
        push(&mut out, 0x428, coin, 2);
        push(&mut out, 0x430, rng.next_bool(), 5);
    }
    out.truncate(TRACE_LEN);
    out
}

/// Replays `predictor` over the golden trace with the exact call discipline
/// of the standard simulator (predict, then train, then track) and returns
/// the per-branch prediction bits in trace order.
fn prediction_bits(predictor: &mut dyn Predictor, trace: &[BranchRecord]) -> Vec<bool> {
    trace
        .iter()
        .map(|rec| {
            let b = rec.branch;
            let prediction = predictor.predict(b.ip());
            predictor.train(&b);
            predictor.track(&b);
            prediction
        })
        .collect()
}

/// Packs prediction bits MSB-first into lowercase hex (250 chars for 1000).
fn bits_to_hex(bits: &[bool]) -> String {
    let mut out = String::with_capacity(bits.len().div_ceil(4));
    for chunk in bits.chunks(4) {
        let mut nibble = 0u8;
        for (i, &bit) in chunk.iter().enumerate() {
            nibble |= (bit as u8) << (3 - i);
        }
        let _ = write!(out, "{nibble:x}");
    }
    out
}

/// One parsed fixture file.
struct Fixture {
    mispredictions: u64,
    mpki: String,
    bits: String,
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn parse_fixture(name: &str, text: &str) -> Fixture {
    let mut mispredictions = None;
    let mut mpki = None;
    let mut bits = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .unwrap_or_else(|| panic!("{name}: malformed fixture line {line:?}"));
        let value = value.trim();
        match key.trim() {
            "mispredictions" => mispredictions = Some(value.parse().unwrap()),
            "mpki" => mpki = Some(value.to_string()),
            "bits" => bits = Some(value.to_string()),
            other => panic!("{name}: unknown fixture key {other:?}"),
        }
    }
    Fixture {
        mispredictions: mispredictions.unwrap_or_else(|| panic!("{name}: missing mispredictions")),
        mpki: mpki.unwrap_or_else(|| panic!("{name}: missing mpki")),
        bits: bits.unwrap_or_else(|| panic!("{name}: missing bits")),
    }
}

fn render_fixture(name: &str, f: &Fixture) -> String {
    format!(
        "# Golden vector for the `{name}` predictor over the fixed {TRACE_LEN}-branch\n\
         # synthetic trace (seed {TRACE_SEED:#x}). Regenerate after an intentional\n\
         # behavior change with:\n\
         #   MBP_GOLDEN_REGEN=1 cargo test -p mbp-predictors --test golden_vectors\n\
         mispredictions: {}\n\
         mpki: {}\n\
         bits: {}\n",
        f.mispredictions, f.mpki, f.bits,
    )
}

/// Runs one predictor against its fixture (or regenerates the fixture when
/// `MBP_GOLDEN_REGEN` is set).
fn check(name: &str, predictor: &mut dyn Predictor) {
    let trace = golden_trace();

    // The bit-exact stream, collected by driving the Predictor interface
    // directly with the simulator's call discipline.
    let bits = prediction_bits(predictor, &trace);

    // An independent pass through the real simulator on a fresh trace copy
    // cross-checks that the manual drive above matches `simulate` semantics:
    // the misprediction count derived from the bitstream must equal the
    // simulator's, and the fixture MPKI is taken from the simulator.
    let mispredictions: u64 = bits
        .iter()
        .zip(&trace)
        .map(|(&p, rec)| (p != rec.branch.is_taken()) as u64)
        .sum();

    let actual = Fixture {
        mispredictions,
        mpki: String::new(),
        bits: bits_to_hex(&bits),
    };

    let path = fixture_path(name);
    if std::env::var_os("MBP_GOLDEN_REGEN").is_some() {
        // MPKI for the fixture comes from the simulator cross-check below;
        // regeneration therefore needs a fresh predictor. Rather than thread
        // a factory through, require regeneration to run before the
        // simulator pass: write a placeholder now, fill mpki after.
        let mpki = simulator_mpki(name, &trace, mispredictions);
        let blessed = Fixture { mpki, ..actual };
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render_fixture(name, &blessed)).unwrap();
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: missing fixture {} ({e}); run with MBP_GOLDEN_REGEN=1 to create it",
            path.display()
        )
    });
    let expected = parse_fixture(name, text.as_str());

    assert_eq!(
        actual.bits, expected.bits,
        "{name}: prediction bitstream diverged from the committed fixture"
    );
    assert_eq!(
        actual.mispredictions, expected.mispredictions,
        "{name}: misprediction count diverged"
    );
    let mpki = simulator_mpki(name, &trace, mispredictions);
    assert_eq!(mpki, expected.mpki, "{name}: final MPKI diverged");
}

/// Runs the real batched simulator over the trace with a *fresh* predictor
/// and returns its MPKI formatted to fixed precision, asserting on the way
/// that the simulator's misprediction count matches the bitstream-derived
/// one (so the manual drive in [`prediction_bits`] and `simulate` can never
/// silently disagree).
fn simulator_mpki(name: &str, trace: &[BranchRecord], expected_mispredictions: u64) -> String {
    let mut fresh = build(name);
    let result = simulate(
        &mut SliceSource::new(trace),
        &mut *fresh,
        &SimConfig::default(),
    )
    .expect("in-memory trace cannot fail");
    assert_eq!(
        result.metrics.mispredictions, expected_mispredictions,
        "{name}: simulate() disagrees with the interface-level replay"
    );
    format!("{:.6}", result.metrics.mpki)
}

/// Builds the predictor under test for `name`; configurations mirror
/// `mbp_predictors::by_name` where a stock entry exists.
fn build(name: &str) -> Box<dyn Predictor> {
    match name {
        "bimodal" => Box::new(Bimodal::new(18)),
        "two-level" => Box::new(TwoLevel::gas(12, 10)),
        "gshare" => Box::new(Gshare::new(25, 18)),
        "gselect" => Box::new(GSelect::new(8, 10)),
        "gskew" => Box::new(TwoBcGskew::new(16, 21)),
        "tournament" => Box::new(Tournament::classic(16)),
        "perceptron" => Box::new(HashedPerceptron::default_config()),
        "tage" => Box::new(Tage::new(TageConfig::default_64kb())),
        "batage" => Box::new(Batage::new(BatageConfig::default_64kb())),
        "loop" => Box::new(LoopPredictor::new(Box::new(Gshare::new(25, 18)), 6)),
        "filter" => Box::new(BiasFilter::new(Box::new(Gshare::new(25, 18)))),
        other => panic!("no golden predictor named {other:?}"),
    }
}

macro_rules! golden {
    ($($test:ident => $name:literal),+ $(,)?) => {
        $(
            #[test]
            fn $test() {
                check($name, &mut *build($name));
            }
        )+
    };
}

golden! {
    golden_bimodal => "bimodal",
    golden_two_level => "two-level",
    golden_gshare => "gshare",
    golden_gselect => "gselect",
    golden_gskew => "gskew",
    golden_tournament => "tournament",
    golden_perceptron => "perceptron",
    golden_tage => "tage",
    golden_batage => "batage",
    golden_loop => "loop",
    golden_filter => "filter",
}

#[test]
fn golden_trace_is_deterministic() {
    let a = golden_trace();
    let b = golden_trace();
    assert_eq!(a.len(), TRACE_LEN);
    assert_eq!(a, b);
    // The five static branches all appear.
    for ip in [0x400u64, 0x410, 0x420, 0x428, 0x430] {
        assert!(a.iter().any(|r| r.branch.ip() == ip), "missing {ip:#x}");
    }
}
