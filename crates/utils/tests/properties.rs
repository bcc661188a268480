//! Randomized invariant checks for the utilities library.
//!
//! These are property tests in the proptest style but std-only: inputs are
//! drawn from the in-tree seeded [`Xorshift64`], so every run explores the
//! same (large) input set and a failure reproduces exactly. Each test states
//! an invariant that predictors rely on implicitly — counters that never
//! leave their range, an incremental fold (alone or in a bank) that always
//! equals the naive one, a memo that always answers what its fill function
//! would, replacement policies that never name an absent or just-used
//! victim, hashes that are pure functions — and hammers it with a few
//! thousand random operation sequences.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::rc::Rc;

use mbp_utils::{
    mix64, xor_fold, FastHashBuilder, FoldedHistory, GeometricHistory, HistoryRegister, IpMemo,
    IpParts, LruSet, SatCounter, TreePlru, USatCounter, Xorshift64,
};

/// Drives one signed saturating counter through random updates, checking
/// range, monotonicity and saturation after every step.
fn check_sat_counter<const BITS: u32>(rng: &mut Xorshift64) {
    let mut c = SatCounter::<BITS>::new(rng.range_inclusive(0, 255) as i8);
    assert!((SatCounter::<BITS>::MIN..=SatCounter::<BITS>::MAX).contains(&c.value()));
    for _ in 0..500 {
        let before = c.value();
        match rng.below(3) {
            0 => {
                let taken = rng.next_bool();
                c.sum_or_sub(taken);
                // Monotone: an update moves the value by at most one step in
                // the update's direction, never the other way.
                if taken {
                    assert!(c.value() >= before, "taken update decreased counter");
                    assert!(c.value() - before <= 1);
                } else {
                    assert!(c.value() <= before, "not-taken update increased counter");
                    assert!(before - c.value() <= 1);
                }
            }
            1 => {
                let step = rng.range_inclusive(0, 127) as i8;
                if rng.next_bool() {
                    c += step;
                    assert!(c.value() >= before, "+= decreased counter");
                } else {
                    c -= step;
                    assert!(c.value() <= before, "-= increased counter");
                }
            }
            _ => {
                c.decay();
                assert!(
                    c.value().abs() <= before.abs(),
                    "decay moved value away from zero"
                );
            }
        }
        // Never out of range, no matter the operation mix.
        assert!(
            (SatCounter::<BITS>::MIN..=SatCounter::<BITS>::MAX).contains(&c.value()),
            "{BITS}-bit counter escaped its range: {}",
            c.value()
        );
        assert_eq!(
            c.is_saturated(),
            c.value() == SatCounter::<BITS>::MIN || c.value() == SatCounter::<BITS>::MAX
        );
        assert_eq!(c.is_taken(), c.value() >= 0);
    }
}

#[test]
fn sat_counter_stays_in_range_and_is_monotone() {
    let mut rng = Xorshift64::new(0x5a7_0001);
    for _ in 0..20 {
        check_sat_counter::<1>(&mut rng);
        check_sat_counter::<2>(&mut rng);
        check_sat_counter::<3>(&mut rng);
        check_sat_counter::<5>(&mut rng);
        check_sat_counter::<7>(&mut rng);
    }
}

/// Same discipline for the unsigned counters (TAGE `u` bits and friends).
fn check_usat_counter<const BITS: u32>(rng: &mut Xorshift64) {
    let mut c = USatCounter::<BITS>::new(rng.range_inclusive(0, 255) as u8);
    assert!(c.value() <= USatCounter::<BITS>::MAX);
    for _ in 0..500 {
        let before = c.value();
        match rng.below(4) {
            0 => {
                c += rng.range_inclusive(0, 255) as u8;
                assert!(c.value() >= before, "+= decreased counter");
            }
            1 => {
                c -= rng.range_inclusive(0, 255) as u8;
                assert!(c.value() <= before, "-= increased counter");
            }
            2 => {
                c.halve();
                assert_eq!(c.value(), before >> 1);
            }
            _ => {
                c.reset();
                assert!(c.is_zero());
            }
        }
        assert!(
            c.value() <= USatCounter::<BITS>::MAX,
            "{BITS}-bit unsigned counter overflowed: {}",
            c.value()
        );
        assert_eq!(c.is_saturated(), c.value() == USatCounter::<BITS>::MAX);
        assert_eq!(c.is_zero(), c.value() == 0);
    }
}

#[test]
fn usat_counter_never_over_or_underflows() {
    let mut rng = Xorshift64::new(0x05a7_0002);
    for _ in 0..20 {
        check_usat_counter::<1>(&mut rng);
        check_usat_counter::<2>(&mut rng);
        check_usat_counter::<4>(&mut rng);
        check_usat_counter::<8>(&mut rng);
    }
}

#[test]
fn folded_history_equals_naive_fold_of_full_register() {
    // The incremental O(1) fold used by TAGE-family predictors must agree
    // with recomputing the fold from the whole history register at every
    // single step, for arbitrary (length, width) shapes including width
    // dividing / not dividing / exceeding the length.
    let mut rng = Xorshift64::new(0xf01d_0003);
    for _ in 0..100 {
        let hist_len = rng.range_inclusive(1, 400) as usize;
        let width = rng.range_inclusive(1, 24) as u32;
        let mut hist = HistoryRegister::new(hist_len);
        let mut folded = FoldedHistory::new(hist_len, width);
        for step in 0..rng.range_inclusive(1, 300) {
            let taken = rng.next_bool();
            folded.update(taken, hist.bit(hist_len - 1));
            hist.push(taken);
            assert_eq!(
                folded.value(),
                hist.fold(width),
                "fold diverged: hist_len={hist_len} width={width} step={step}"
            );
            assert!(folded.value() < 1u64 << width, "fold exceeded its width");
        }
        folded.clear();
        hist.clear();
        assert_eq!(folded.value(), hist.fold(width), "clear() must match");
    }
}

/// Drives a fold bank of `shapes` through random outcomes, enough to wrap
/// the circular buffer of a `longest`-bit window three times, and checks
/// every fold after every push against folding its window of a full
/// history register and against a `FoldedHistory` of the same shape.
fn check_bank(shapes: &[(usize, u32)], longest: usize, rng: &mut Xorshift64) {
    let ring = (longest + 1).next_power_of_two();
    check_bank_over(shapes, 3 * ring + 5, rng);
}

/// [`check_bank`] over `pushes` random outcomes.
fn check_bank_over(shapes: &[(usize, u32)], pushes: usize, rng: &mut Xorshift64) {
    let mut bank = GeometricHistory::new(shapes);
    let mut windows: Vec<HistoryRegister> = shapes
        .iter()
        .map(|&(l, _)| HistoryRegister::new(l))
        .collect();
    let mut singles: Vec<FoldedHistory> = shapes
        .iter()
        .map(|&(l, w)| FoldedHistory::new(l, w))
        .collect();
    for step in 0..pushes {
        let taken = rng.next_bool();
        bank.track(taken);
        for (window, single) in windows.iter_mut().zip(&mut singles) {
            single.update(taken, window.bit(window.len() - 1));
            window.push(taken);
        }
        for (k, &(len, width)) in shapes.iter().enumerate() {
            let fold = bank.folds()[k] as u64;
            assert_eq!(
                fold,
                windows[k].fold(width),
                "fold {k} ({len} bits to {width}) diverged at step {step}"
            );
            assert_eq!(fold, singles[k].value(), "fold {k} vs FoldedHistory");
        }
    }
}

#[test]
fn geometric_history_equals_naive_fold_of_every_window() {
    // The fold bank must agree, after every push, with folding each fold's
    // window of a full history register, and with a `FoldedHistory` of the
    // same shape. Shapes are random, plus one with the width above the
    // length and one with the two equal; one round holds a 1024-bit
    // window. Every round pushes enough bits to wrap the circular buffer
    // three times.
    let mut rng = Xorshift64::new(0x6e0_0007);
    for round in 0..12 {
        let longest = if round == 0 {
            1024
        } else {
            rng.range_inclusive(1, 700) as usize
        };
        let mut shapes = vec![(longest, rng.range_inclusive(1, 16) as u32)];
        for _ in 0..rng.range_inclusive(0, 5) {
            let len = rng.range_inclusive(1, longest as u64) as usize;
            shapes.push((len, rng.range_inclusive(1, 16) as u32));
        }
        let short = rng.range_inclusive(1, 15) as usize;
        shapes.push((short, short as u32 + 1));
        shapes.push((short, short as u32));
        check_bank(&shapes, longest, &mut rng);
    }
}

#[test]
fn geometric_history_spanning_blocks_equals_naive_fold() {
    // The bank advances in blocks of eight lanes. Banks of 9 to 48 folds
    // cross block boundaries and, unless the count is a multiple of eight,
    // end in padding lanes. Round 0 holds a 1024-bit window, round 1 a
    // multiple of eight folds; the longest window sits at a random lane.
    let mut rng = Xorshift64::new(0x6e0_0024);
    for round in 0..6 {
        let count = if round == 1 {
            8 * rng.range_inclusive(2, 6) as usize
        } else {
            rng.range_inclusive(9, 48) as usize
        };
        let longest = if round == 0 {
            1024
        } else {
            rng.range_inclusive(1, 700) as usize
        };
        let mut shapes: Vec<(usize, u32)> = (1..count)
            .map(|_| {
                let len = rng.range_inclusive(1, longest as u64) as usize;
                (len, rng.range_inclusive(1, 16) as u32)
            })
            .collect();
        let at = rng.below(count as u64) as usize;
        shapes.insert(at, (longest, rng.range_inclusive(1, 16) as u32));
        check_bank(&shapes, longest, &mut rng);
    }
}

#[test]
fn geometric_history_queue_edges_equal_naive_fold() {
    // Every 16th push refills each window of 16 or more with the bits that
    // leave it next, read from a ring of 64-bit words; shorter windows read
    // the newest outcomes. Windows on each side of 16, of one and two ring
    // words and of 128 bits, and one of 640, each at every width: 5 000
    // pushes cross 312 refills and wrap the 1024-bit ring four times.
    let mut rng = Xorshift64::new(0x6e0_0016);
    let windows = [1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 640];
    let shapes: Vec<(usize, u32)> = windows
        .iter()
        .flat_map(|&len| (1..=16).map(move |width| (len, width)))
        .collect();
    check_bank_over(&shapes, 5_000, &mut rng);
}

/// Parts that count their fills, so a test can tell a memo hit from a
/// refill.
#[derive(Clone, Debug, Default)]
struct CountedParts {
    fills: Rc<Cell<u64>>,
}

impl CountedParts {
    fn expected(ip: u64) -> [u32; 3] {
        [
            mix64(ip) as u32,
            (mix64(ip) >> 32) as u32,
            xor_fold(ip, 13) as u32,
        ]
    }
}

impl IpParts for CountedParts {
    fn width(&self) -> usize {
        3
    }

    fn fill(&self, ip: u64, out: &mut [u32]) {
        self.fills.set(self.fills.get() + 1);
        out.copy_from_slice(&Self::expected(ip));
    }
}

#[test]
fn ip_memo_returns_the_fill_parts_for_every_ip() {
    // The memo must answer every ip with exactly what the fill function
    // gives it, and fill exactly when a direct-mapped shadow says the line
    // holds another ip. The shadow starts with ip 0 in every line, so ip 0
    // in an untouched line is a hit. The pool mixes ips that share lines
    // (one group on ip 0's line), ip 0, `u64::MAX` and sign-extended
    // kernel-half ips, so lines are evicted and refilled over and over.
    let line = IpMemo::<()>::line;
    let mut rng = Xorshift64::new(0x3e30_0008);
    let mut pool = vec![0, u64::MAX, 0xffff_ffff_8000_0000, 0xffff_8000_0010_2040];
    for anchor in [0, 0x40_1000, u64::MAX, rng.next_u64()] {
        pool.push(anchor);
        let mut found = 0;
        while found < 3 {
            let ip = rng.next_u64() >> rng.below(40);
            if ip != anchor && line(ip) == line(anchor) {
                pool.push(ip);
                found += 1;
            }
        }
    }
    for _ in 0..8 {
        pool.push(0x40_0000 + 4 * rng.below(1 << 14));
    }

    for _ in 0..20 {
        let parts = CountedParts::default();
        let fills = Rc::clone(&parts.fills);
        let mut memo = IpMemo::new(parts);
        assert_eq!(fills.get(), 1, "construction fills ip 0's parts once");
        assert_eq!(memo.get(0), CountedParts::expected(0));
        assert_eq!(fills.get(), 1, "ip 0 in an untouched line is a hit");

        let mut shadow: HashMap<usize, u64> = HashMap::new();
        for _ in 0..2000 {
            let ip = pool[rng.below(pool.len() as u64) as usize];
            let held = shadow.insert(line(ip), ip).unwrap_or(0);
            let before = fills.get();
            assert_eq!(memo.get(ip), CountedParts::expected(ip), "ip {ip:#x}");
            assert_eq!(
                fills.get() - before,
                (held != ip) as u64,
                "ip {ip:#x}: filled on a hit or reused another ip's line"
            );
        }
    }
}

#[test]
fn lru_victim_is_always_a_resident_lru_tag() {
    // Model the set with a shadow recency list; check after every operation:
    // the victim exists iff the set is full, is a resident tag, never the
    // most recently used one (for ways > 1), and the next overflow evicts
    // exactly the announced victim.
    let mut rng = Xorshift64::new(0x12c_0004);
    for _ in 0..64 {
        let ways = rng.range_inclusive(1, 8) as usize;
        let mut set: LruSet<u64> = LruSet::new(ways);
        let mut shadow: Vec<u64> = Vec::new(); // most recent first
        for _ in 0..400 {
            let tag = rng.below(12);
            match rng.below(3) {
                0 => {
                    let evicted = set.insert(tag, tag ^ 1);
                    shadow.retain(|&t| t != tag);
                    shadow.insert(0, tag);
                    if shadow.len() > ways {
                        let lru = shadow.pop().unwrap();
                        assert_eq!(
                            evicted.map(|(t, _)| t),
                            Some(lru),
                            "overflow must evict the LRU tag"
                        );
                    } else {
                        assert!(evicted.is_none(), "no eviction while not full");
                    }
                }
                1 => {
                    let hit = set.get(tag).copied();
                    assert_eq!(hit.is_some(), shadow.contains(&tag));
                    if hit.is_some() {
                        shadow.retain(|&t| t != tag);
                        shadow.insert(0, tag);
                    }
                }
                _ => {
                    let removed = set.remove(tag);
                    assert_eq!(removed.is_some(), shadow.contains(&tag));
                    shadow.retain(|&t| t != tag);
                }
            }
            assert_eq!(set.len(), shadow.len());
            match set.victim() {
                Some(v) => {
                    assert_eq!(shadow.len(), ways, "victim implies a full set");
                    assert_eq!(v, *shadow.last().unwrap(), "victim must be the LRU tag");
                    if ways > 1 {
                        assert_ne!(v, shadow[0], "victim may not be the MRU tag");
                    }
                }
                None => assert!(shadow.len() < ways, "a full set must name a victim"),
            }
        }
    }
}

#[test]
fn plru_victim_is_valid_and_never_the_most_recent() {
    let mut rng = Xorshift64::new(0x9_1f00_0005);
    for &ways in &[2usize, 4, 8, 16, 32] {
        let mut plru = TreePlru::new(ways);
        for _ in 0..1000 {
            let way = rng.below(ways as u64) as usize;
            plru.touch(way);
            let v = plru.victim();
            assert!(v < ways, "victim out of range: {v} >= {ways}");
            assert_ne!(v, way, "victim is the just-touched way");
        }
        // Repeatedly evicting and touching the victim cycles through every
        // way — PLRU starves no way.
        let mut seen = vec![false; ways];
        for _ in 0..4 * ways {
            let v = plru.victim();
            seen[v] = true;
            plru.touch(v);
        }
        assert!(seen.iter().all(|&s| s), "{ways}-way PLRU starved a way");
    }
}

#[test]
fn hashes_are_deterministic_pure_functions() {
    let mut rng = Xorshift64::new(0x4a54_0006);
    for _ in 0..2000 {
        let x = rng.next_u64();
        // Pure: same input, same output, on repeated evaluation.
        assert_eq!(mix64(x), mix64(x));
        let width = rng.range_inclusive(1, 64) as u32;
        let folded = xor_fold(x, width);
        assert_eq!(folded, xor_fold(x, width));
        if width < 64 {
            assert!(folded < 1u64 << width, "xor_fold escaped its width");
        }
        // Folding preserves the all-zero and full-width identities.
        assert_eq!(xor_fold(0, width), 0);
        assert_eq!(xor_fold(x, 64), x);

        // The map hasher: hashing the same byte stream from two fresh
        // hashers gives the same digest (HashMap correctness depends on it).
        let bytes: Vec<u8> = (0..rng.below(32)).map(|_| rng.next_u64() as u8).collect();
        let digest = |data: &[u8]| {
            let mut h = FastHashBuilder.build_hasher();
            h.write(data);
            h.finish()
        };
        assert_eq!(digest(&bytes), digest(&bytes));
        // And u64 writes agree with themselves across builder instances.
        let mut a = FastHashBuilder.build_hasher();
        let mut b = FastHashBuilder.build_hasher();
        a.write_u64(x);
        b.write_u64(x);
        assert_eq!(a.finish(), b.finish());
    }
}
