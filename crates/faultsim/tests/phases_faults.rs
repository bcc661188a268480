//! The phases-document campaign: `sweep --phases` reads back a plan that
//! `simpoint` wrote, so the plan is untrusted input like a trace. Every cut
//! and a seeded set of bit flips of a real plan must go through parsing,
//! `PhasesDoc::from_json` and `validate` without a panic, and a mutant they
//! accept must replay through `simulate_sampled` without one. Byte flips
//! mostly stop at the plan's hash, so a second set flips bits of the plan's
//! fields and renders it again with a matching hash, which reaches
//! `validate`; every one of those must be rejected there.

use mbp_core::{extract_phases, simulate_sampled, PhasesDoc, SimConfig, Value};
use mbp_faultsim::{bit_flips, cuts_at, run_suite, Expect, Mutant};
use mbp_trace::{Branch, BranchRecord, Opcode};
use mbp_utils::Xorshift64;

/// Two behaviours that alternate every 1 500 records, so the plan holds
/// several phases with warm-up slices.
fn phased_records() -> Vec<BranchRecord> {
    let mut rng = Xorshift64::new(0x9A5E_5EED);
    (0..12_000)
        .map(|i| {
            let r = rng.next_u64();
            let (base, bias) = [(0x40_0000, 3), (0x80_0000, 1)][i / 1_500 % 2];
            let ip = base + (r % 16) * 4;
            let branch = Branch::new(ip, ip + 64, Opcode::conditional_direct(), r & 3 < bias);
            BranchRecord::new(branch, (r >> 8) as u32 % 8)
        })
        .collect()
}

/// Parses `bytes` as a phases document, checks it against `records` and,
/// if both accept it, replays it through a sampled run.
fn replay(records: &[BranchRecord], bytes: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let doc: Value = text.parse().map_err(|e| format!("{e}"))?;
    let plan = PhasesDoc::from_json(&doc)?;
    plan.validate(records)?;
    let mut predictor = mbp_predictors::by_name("gshare").expect("stock predictor");
    simulate_sampled(records, &mut *predictor, &plan, &SimConfig::default());
    Ok(())
}

/// The plan as `mbpsim simpoint --out` writes it.
fn rendered(plan: &PhasesDoc) -> Vec<u8> {
    format!("{:#}\n", plan.to_json()).into_bytes()
}

/// Flips bit `bit` of the plan's integer or weight field number `field`:
/// four document counts, then eight fields of each phase in turn, then the
/// window assignments.
fn flip_field(plan: &mut PhasesDoc, field: usize, bit: u32) {
    let (x, n) = (1u64 << bit, 1usize << bit);
    let phase_fields = 8 * plan.phases.len();
    match field {
        0 => plan.record_count ^= x,
        1 => plan.instruction_count ^= x,
        2 => plan.num_windows ^= n,
        3 => plan.clusters ^= n,
        f if f - 4 < phase_fields => {
            let p = &mut plan.phases[(f - 4) / 8];
            match (f - 4) % 8 {
                0 => p.cluster ^= n,
                1 => p.representative_window ^= n,
                2 => p.start_record ^= n,
                3 => p.num_records ^= n,
                4 => p.warmup_start_record ^= n,
                5 => p.warmup_records ^= n,
                6 => p.warmup_instructions ^= x,
                _ => p.weight = f64::from_bits(p.weight.to_bits() ^ x),
            }
        }
        f => {
            let windows = plan.assignments.len();
            plan.assignments[(f - 4 - phase_fields) % windows] ^= n;
        }
    }
}

#[test]
fn every_cut_and_flip_of_a_phases_document_fails_closed() {
    let records = phased_records();
    let plan = extract_phases(&records, 2_000, 4);
    assert!(plan.phases.iter().filter(|p| p.warmup_records > 0).count() >= 2);
    let base = rendered(&plan);
    replay(&records, &base).expect("the real plan replays");

    // A cut that keeps the closing brace drops only the trailing newline.
    let closing = base.len() - 1;
    let expect = |at| {
        if at < closing {
            Expect::Reject
        } else {
            Expect::NoPanic
        }
    };
    let cuts = cuts_at(&base, 0..base.len(), expect);
    let report = run_suite(&cuts, |bytes| replay(&records, bytes));
    report.assert_clean("phases cuts");
    assert_eq!(report.rejected, closing, "every cut before the brace");

    let flips = bit_flips(&base, 600, 0x9A5E_F11B, |_| Expect::NoPanic);
    run_suite(&flips, |bytes| replay(&records, bytes)).assert_clean("phases bit flips");

    let fields = 4 + 8 * plan.phases.len() + plan.assignments.len();
    let mut rng = Xorshift64::new(0x9A5E_F1E1);
    let rehashed: Vec<Mutant> = (0..600)
        .map(|_| {
            let (field, bit) = (rng.below(fields as u64) as usize, rng.below(64) as u32);
            let mut mutant = plan.clone();
            flip_field(&mut mutant, field, bit);
            Mutant {
                description: format!("field {field} bit {bit}, rehashed"),
                bytes: rendered(&mutant),
                expect: Expect::NoPanic,
            }
        })
        .collect();
    let report = run_suite(&rehashed, |bytes| replay(&records, bytes));
    report.assert_clean("phases field flips");
    // `validate` rebuilds every flipped field from the trace, so each flip
    // is caught; the real plan and the newline-only cut cover the replay.
    assert_eq!(report.rejected, report.total, "{report:?}");
}
