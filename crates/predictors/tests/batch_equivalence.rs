//! Batch-equivalence conformance suite.
//!
//! [`Predictor::predict_batch`] promises that its prediction bitstream and
//! resulting predictor state are **bit-identical** to driving the scalar
//! `predict` / `train` / `track` interface over the same records. The
//! predictors with hand-written kernels (bimodal, GShare, GSelect,
//! two-level, 2bc-gskew) are where that promise can break in the kernel;
//! TAGE, BATAGE and the hashed perceptron ride the default loop, where it
//! can break in the lookup cache `predict` keeps for `train`: every batch
//! cut must leave it cleared. This suite replays each of them — plus a
//! `Box<dyn Predictor>` to pin the forwarding path — over a mixed
//! conditional/unconditional trace, cut into batches at randomized
//! boundaries (including empty and single-record batches), under both
//! `track_only_conditional` settings, and compares:
//!
//! * the full prediction bitstream, bit for bit, and
//! * the final state, by continuing both predictors scalar-only over a
//!   probe tail and requiring identical predictions there too.

use mbp_core::{Branch, BranchBatch, BranchRecord, Opcode, PredictionBits, Predictor};
use mbp_predictors::{
    by_name, Batage, BatageConfig, Bimodal, GSelect, Gshare, HashedPerceptron, HistoryScope, Tage,
    TageConfig, TwoBcGskew, TwoLevel,
};
use mbp_utils::Xorshift64;

/// A mixed trace: the golden-vector conditional behaviors (loop, bias,
/// noise, correlation) interleaved with unconditional jumps, calls and
/// returns so `track_only_conditional` actually changes which records the
/// predictors see.
fn mixed_trace(len: usize, seed: u64) -> Vec<BranchRecord> {
    let mut rng = Xorshift64::new(seed);
    let mut out = Vec::with_capacity(len);
    let mut loop_i = 0u64;
    while out.len() < len {
        let gap = rng.below(8) as u32;
        let cond = |ip: u64, taken: bool, gap: u32| {
            BranchRecord::new(
                Branch::new(
                    ip,
                    ip.wrapping_sub(0x40),
                    Opcode::conditional_direct(),
                    taken,
                ),
                gap,
            )
        };
        out.push(cond(0x400, loop_i % 7 != 6, gap));
        loop_i += 1;
        // Unconditional branches are always taken (the SBBT invariant).
        out.push(BranchRecord::new(
            Branch::new(0x408, 0x700, Opcode::unconditional_direct(), true),
            2,
        ));
        out.push(cond(0x410, rng.below(10) != 0, 3));
        let coin = rng.next_bool();
        out.push(cond(0x420, coin, 2));
        if rng.next_bool() {
            out.push(BranchRecord::new(
                Branch::new(0x424, 0x900, Opcode::call(), true),
                1,
            ));
            out.push(BranchRecord::new(
                Branch::new(0x908, 0x428, Opcode::ret(), true),
                4,
            ));
        }
        out.push(cond(0x428, coin, 2));
        out.push(cond(0x430, rng.next_bool(), 5));
    }
    out.truncate(len);
    out
}

/// Drives the scalar per-branch interface, returning one prediction per
/// conditional branch — the reference `predict_batch` must match.
fn scalar_bits(p: &mut dyn Predictor, records: &[BranchRecord], track_only: bool) -> Vec<bool> {
    let mut bits = Vec::new();
    for rec in records {
        let b = rec.branch;
        if b.is_conditional() {
            bits.push(p.predict(b.ip()));
            p.train(&b);
        }
        if b.is_conditional() || !track_only {
            p.track(&b);
        }
    }
    bits
}

/// Drives `predict_batch` over `records` split into consecutive batches of
/// the given lengths (the last cut absorbs any remainder).
fn batched_bits(
    p: &mut dyn Predictor,
    records: &[BranchRecord],
    cuts: &[usize],
    track_only: bool,
) -> Vec<bool> {
    let mut all = Vec::new();
    let mut batch = BranchBatch::new();
    let mut out = PredictionBits::new();
    let mut pos = 0;
    let mut cut_i = 0;
    while pos < records.len() {
        let want = if cut_i < cuts.len() {
            cuts[cut_i].min(records.len() - pos)
        } else {
            records.len() - pos
        };
        cut_i += 1;
        batch.clear();
        batch.extend_from_records(&records[pos..pos + want]);
        pos += want;
        out.clear();
        p.predict_batch(&batch, track_only, &mut out);
        assert_eq!(
            out.len(),
            batch
                .iter_records()
                .filter(|r| r.branch.is_conditional())
                .count(),
            "one bit per conditional branch"
        );
        all.extend(out.iter());
    }
    all
}

/// Randomized batch lengths: always starts with an empty and a one-record
/// batch (the boundary cases), then random sizes from 0 to ~70.
fn random_cuts(rng: &mut Xorshift64, total: usize) -> Vec<usize> {
    let mut cuts = vec![0, 1];
    let mut covered = 1;
    while covered < total {
        let c = rng.below(70) as usize;
        cuts.push(c);
        covered += c;
    }
    cuts
}

/// The conformance check: same bitstream over the main trace, same
/// predictions over a scalar-only probe tail (state equivalence).
fn assert_batch_equivalent<P, F>(name: &str, make: F)
where
    P: Predictor,
    F: Fn() -> P,
{
    let records = mixed_trace(1500, 0x601d_7ec7_0000_0001);
    let tail = mixed_trace(300, 0x601d_7ec7_0000_0002);
    let mut rng = Xorshift64::new(0x0ba7_c4e9);
    for track_only in [false, true] {
        for round in 0..4 {
            let cuts = random_cuts(&mut rng, records.len());
            let mut scalar_p = make();
            let scalar = scalar_bits(&mut scalar_p, &records, track_only);
            let mut batched_p = make();
            let batched = batched_bits(&mut batched_p, &records, &cuts, track_only);
            assert_eq!(
                scalar, batched,
                "{name}: bitstream diverged (track_only {track_only}, round {round})"
            );
            // Both replicas must now be in the same state: continue them
            // over a fresh tail through the scalar interface only.
            let scalar_tail = scalar_bits(&mut scalar_p, &tail, track_only);
            let batched_tail = scalar_bits(&mut batched_p, &tail, track_only);
            assert_eq!(
                scalar_tail, batched_tail,
                "{name}: post-batch state diverged (track_only {track_only}, round {round})"
            );
        }
    }
}

#[test]
fn bimodal_kernel_matches_scalar() {
    assert_batch_equivalent("bimodal", || Bimodal::new(12));
}

#[test]
fn gshare_kernel_matches_scalar() {
    assert_batch_equivalent("gshare-short", || Gshare::new(9, 12));
    // Full-width history exercises the `hmask == u64::MAX` path.
    assert_batch_equivalent("gshare-64", || Gshare::new(64, 14));
}

#[test]
fn gselect_kernel_matches_scalar() {
    assert_batch_equivalent("gselect", || GSelect::new(6, 10));
}

#[test]
fn twolevel_kernels_match_scalar() {
    let scopes = [
        HistoryScope::Global,
        HistoryScope::PerAddress,
        HistoryScope::PerSet,
    ];
    for h in scopes {
        for p in scopes {
            assert_batch_equivalent("twolevel", move || TwoLevel::new(h, p, 10, 6, 6));
        }
    }
}

#[test]
fn gskew_kernel_matches_scalar() {
    // The shortest history gives META its one-bit floor, `(2 / 4).max(1)`;
    // the full-width one exercises the all-ones history mask.
    for hist_len in [2, 16, 64] {
        assert_batch_equivalent("2bc-gskew", move || TwoBcGskew::new(hist_len, 12));
    }
    assert_batch_equivalent("2bc-gskew (stock)", || by_name("2bc-gskew").unwrap());
}

#[test]
fn tage_cached_loop_matches_scalar() {
    assert_batch_equivalent("tage (small)", || Tage::new(TageConfig::small()));
    assert_batch_equivalent("tage (stock)", || by_name("tage").unwrap());
}

#[test]
fn batage_cached_loop_matches_scalar() {
    assert_batch_equivalent("batage (small)", || Batage::new(BatageConfig::small()));
    assert_batch_equivalent("batage (stock)", || by_name("batage").unwrap());
}

#[test]
fn perceptron_cached_loop_matches_scalar() {
    assert_batch_equivalent("hashed-perceptron (small)", || {
        HashedPerceptron::new(vec![4, 8, 16, 32], 12)
    });
    assert_batch_equivalent("hashed-perceptron (stock)", || {
        by_name("hashed-perceptron").unwrap()
    });
}

#[test]
fn boxed_predictor_uses_inner_kernel() {
    // `Box<dyn Predictor>` must forward `predict_batch` to the inner
    // kernel, and the result must still be scalar-equivalent.
    assert_batch_equivalent("boxed-gshare", || -> Box<dyn Predictor> {
        Box::new(Gshare::new(13, 13))
    });
}

#[test]
fn golden_fixture_batches_bit_identical() {
    // The golden-vector trace (all-conditional) replayed as one big batch
    // and as many tiny batches: all three bitstreams identical.
    let records = mixed_trace(1000, 0x601d_7ec7_0000_0001);
    let mut a = Gshare::new(15, 14);
    let scalar = scalar_bits(&mut a, &records, false);
    let mut b = Gshare::new(15, 14);
    let one = batched_bits(&mut b, &records, &[records.len()], false);
    let mut c = Gshare::new(15, 14);
    let tiny = batched_bits(&mut c, &records, &[0, 1, 1, 2, 3], false);
    assert_eq!(scalar, one);
    assert_eq!(scalar, tiny);
}

#[test]
fn empty_and_single_record_batches() {
    for track_only in [false, true] {
        let mut p = Bimodal::new(8);
        let mut out = PredictionBits::new();
        let batch = BranchBatch::new();
        p.predict_batch(&batch, track_only, &mut out);
        assert!(out.is_empty(), "empty batch pushes no bits");

        let mut batch = BranchBatch::new();
        batch.push_record(&BranchRecord::new(
            Branch::new(0x10, 0x20, Opcode::conditional_direct(), true),
            0,
        ));
        p.predict_batch(&batch, track_only, &mut out);
        assert_eq!(out.len(), 1, "single conditional record pushes one bit");

        let mut batch = BranchBatch::new();
        batch.push_record(&BranchRecord::new(
            Branch::new(0x10, 0x20, Opcode::unconditional_direct(), true),
            0,
        ));
        let before = out.len();
        p.predict_batch(&batch, track_only, &mut out);
        assert_eq!(out.len(), before, "unconditional record pushes no bit");
    }
}
