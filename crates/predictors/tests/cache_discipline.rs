//! Cache-discipline conformance suite.
//!
//! Several predictors keep the lookup `predict(ip)` computed so that a
//! `train` on the same branch can reuse it instead of repeating it (the
//! paper's Listing 4). The rule that keeps the cache invisible: `train`
//! reads a cached lookup only when its ip matches, and every `&mut` call
//! other than `predict` clears it. This suite drives every stock predictor
//! through irregular call orders next to a replica driven in the normal
//! predict → train → track order:
//!
//! * `predict(ip)` called twice before `train`;
//! * `predict` on another ip between `predict(ip)` and `train`;
//! * `train` with no `predict` first (as `BiasFilter` does when a branch
//!   first goes the other way);
//! * a stray `predict` on another ip after `train`, whose lookup only the
//!   following `track` can clear;
//! * a stray `predict` on another ip, then the branch as a one-record
//!   `predict_batch`, which must clear the lookup too.
//!
//! It requires the same prediction from every `predict(ip)`, the same
//! misprediction blame after every `train`, the same predictions over a
//! tail probe in the normal order, and the same execution statistics and
//! table probes. A cached lookup read stale diverges somewhere.

use mbp_core::{Branch, BranchBatch, BranchRecord, Opcode, PredictionBits, Predictor};
use mbp_predictors::{by_name, PREDICTOR_NAMES};
use mbp_utils::Xorshift64;

/// Static branches of the trace: a loop, a biased branch, a coin flip and
/// its echo, so history-indexed tables see varied indices.
const IPS: [u64; 4] = [0x400, 0x410, 0x420, 0x428];

/// An irregular call order for one conditional branch.
#[derive(Clone, Copy, Debug)]
enum Order {
    /// `predict`, `train`.
    Normal,
    /// `predict`, `predict`, `train`.
    PredictTwice,
    /// `predict`, `predict(other ip)`, `train`.
    OtherIpFirst,
    /// `train` alone.
    TrainOnly,
    /// `predict`, `train`, `predict(other ip)`.
    StrayPredict,
    /// `predict(other ip)`, then `predict_batch` of this branch alone.
    Batched,
}

const ORDERS: [Order; 6] = [
    Order::Normal,
    Order::PredictTwice,
    Order::OtherIpFirst,
    Order::TrainOnly,
    Order::StrayPredict,
    Order::Batched,
];

/// Conditional branches at [`IPS`] with an unconditional jump after every
/// fourth, so `track` also sees branches `train` never does.
fn trace(len: usize, seed: u64) -> Vec<Branch> {
    let mut rng = Xorshift64::new(seed);
    let mut coin = false;
    (0..len)
        .map(|i| {
            if i % 5 == 4 {
                return Branch::new(0x408, 0x700, Opcode::unconditional_direct(), true);
            }
            let ip = IPS[i % 5 % 4];
            let taken = match ip {
                0x400 => i % 35 != 34,
                0x410 => rng.below(10) != 0,
                0x420 => {
                    coin = rng.next_bool();
                    coin
                }
                _ => coin,
            };
            Branch::new(
                ip,
                ip.wrapping_sub(0x40),
                Opcode::conditional_direct(),
                taken,
            )
        })
        .collect()
}

/// Drives `p` in the normal order, returning one prediction per
/// conditional branch.
fn normal(p: &mut dyn Predictor, branches: &[Branch]) -> Vec<bool> {
    let mut bits = Vec::new();
    for b in branches {
        if b.is_conditional() {
            bits.push(p.predict(b.ip()));
            p.train(b);
        }
        p.track(b);
    }
    bits
}

/// Drives a replica of `name` with the order `pick` chooses per
/// conditional branch next to one in the normal order, and checks that
/// the two never diverge.
fn assert_orders_invisible(name: &str, pick: impl Fn(&mut Xorshift64) -> Order) {
    let branches = trace(3000, 0xcac4_e000_0000_0001);
    let tail = trace(600, 0xcac4_e000_0000_0002);
    let mut rng = Xorshift64::new(0x0d15_c1b1_1e00_0001);
    let mut reference = by_name(name).expect("stock predictor");
    let mut subject = by_name(name).expect("stock predictor");
    for (i, b) in branches.iter().enumerate() {
        if !b.is_conditional() {
            reference.track(b);
            subject.track(b);
            continue;
        }
        let ip = b.ip();
        let expected = reference.predict(ip);
        reference.train(b);
        reference.track(b);
        let order = pick(&mut rng);
        let other = IPS[(i + 1 + rng.below(3) as usize) % 4];
        let got = match order {
            Order::Normal | Order::StrayPredict => Some(subject.predict(ip)),
            Order::PredictTwice => {
                let first = subject.predict(ip);
                assert_eq!(first, subject.predict(ip), "{name}: predict is not pure");
                Some(first)
            }
            Order::OtherIpFirst => {
                let got = subject.predict(ip);
                subject.predict(other);
                Some(got)
            }
            Order::TrainOnly => None,
            Order::Batched => {
                subject.predict(other);
                let batch = BranchBatch::from_records(&[BranchRecord::new(*b, 1)]);
                let mut bits = PredictionBits::new();
                subject.predict_batch(&batch, false, &mut bits);
                Some(bits.get(0))
            }
        };
        if !matches!(order, Order::Batched) {
            subject.train(b);
            if let Order::StrayPredict = order {
                subject.predict(other);
            }
            subject.track(b);
        }
        if let Some(got) = got {
            assert_eq!(got, expected, "{name}: prediction {i} diverged ({order:?})");
        }
        if expected != b.is_taken() {
            assert_eq!(
                subject.last_mispredict_blame(),
                reference.last_mispredict_blame(),
                "{name}: blame of branch {i} diverged ({order:?})"
            );
        }
    }
    assert_eq!(
        normal(&mut *subject, &tail),
        normal(&mut *reference, &tail),
        "{name}: state diverged (tail probe)"
    );
    assert_eq!(
        subject.execution_statistics(),
        reference.execution_statistics(),
        "{name}: execution statistics diverged"
    );
    assert_eq!(
        subject.table_probes(),
        reference.table_probes(),
        "{name}: table probes diverged"
    );
}

#[test]
fn predict_twice_matches_normal_order() {
    for name in PREDICTOR_NAMES {
        assert_orders_invisible(name, |_| Order::PredictTwice);
    }
}

#[test]
fn predict_on_other_ip_before_train_matches_normal_order() {
    for name in PREDICTOR_NAMES {
        assert_orders_invisible(name, |_| Order::OtherIpFirst);
    }
}

#[test]
fn train_without_predict_matches_normal_order() {
    for name in PREDICTOR_NAMES {
        assert_orders_invisible(name, |_| Order::TrainOnly);
    }
}

#[test]
fn mixed_call_orders_match_normal_order() {
    // Mixed, a stray `predict` is followed by a `train` with no `predict`
    // on the same ip often enough to catch a `track` or `predict_batch`
    // that keeps a lookup.
    for name in PREDICTOR_NAMES {
        assert_orders_invisible(name, |rng| ORDERS[rng.below(ORDERS.len() as u64) as usize]);
    }
}
