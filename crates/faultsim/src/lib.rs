//! Deterministic fault injection for trace decoders.
//!
//! The trace formats MBPlib reads — SBBT, BT9, ChampSim, and their
//! compressed envelopes — arrive from the filesystem, which means they
//! arrive from *anywhere*: interrupted downloads, bad disks, buggy
//! translators, or simply the wrong file. The robustness contract of the
//! workspace is that every decoder **fails closed** on such input: it
//! returns a typed error, it never panics, and it never sizes an allocation
//! from an untrusted declared length.
//!
//! This crate is the harness that enforces the contract. It takes a
//! known-good byte stream and derives *mutants* from it:
//!
//! * [`cuts_at`] / [`cuts_at_every_offset`] — truncation at structural
//!   boundaries (mid-header, mid-packet, mid-compressed-block) or at every
//!   byte offset;
//! * [`bit_flips`] — seeded pseudo-random single-bit corruption, via the
//!   workspace's own [`Xorshift64`] so runs are reproducible offline with
//!   no dev-dependencies;
//! * [`overwrite`] — targeted corruption of a specific field (a count, a
//!   signature byte, a version byte).
//!
//! Each mutant carries an [`Expect`]ation: `Reject` when the corruption is
//! structurally guaranteed to be detectable, or `NoPanic` when a decoder
//! may legitimately still produce *a* result (a bit flip in an SBBT packet
//! body yields a different but well-formed packet). [`run_suite`] drives a
//! decoder over a whole mutant set under `catch_unwind` and returns a
//! [`SuiteReport`] listing every contract violation.
//!
//! The integration tests of this crate (`tests/fault_injection.rs`,
//! `tests/alloc_bounds.rs`) apply the harness to every reader in
//! `mbp-trace` and every codec in `mbp-compress`;
//! `tests/checkpoint_faults.rs` applies it to sweep checkpoints,
//! `tests/phases_faults.rs` to phases documents and
//! `tests/observability_faults.rs` to metrics files, sweep documents and
//! Chrome traces.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mbp_utils::Xorshift64;

/// What a decoder is allowed to do with a mutant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The corruption is structurally detectable: decoding must return an
    /// error. Panicking or decoding successfully are both violations.
    Reject,
    /// The mutant may still be valid under the format's rules (e.g. a bit
    /// flip inside an address field). Decoding may succeed or error, but
    /// panicking is a violation.
    NoPanic,
}

/// One corrupted input derived from a known-good stream.
#[derive(Clone, Debug)]
pub struct Mutant {
    /// Human-readable provenance, e.g. `"cut at 17/1944"` — reported
    /// verbatim on violation so a failure is reproducible by eye.
    pub description: String,
    /// The corrupted bytes to feed the decoder.
    pub bytes: Vec<u8>,
    /// The contract this mutant checks.
    pub expect: Expect,
}

/// What a decoder did with one mutant.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Decoded without error.
    Decoded,
    /// Returned a typed error (the `Display` rendering).
    Rejected(String),
    /// Panicked (the extracted panic message).
    Panicked(String),
}

/// Runs one decode attempt under `catch_unwind` and classifies the result.
///
/// The decoder closure maps its own error type to `String` (typically via
/// `.map_err(|e| e.to_string())`), which keeps this crate free of
/// dependencies on the crates under test.
pub fn drive<T>(bytes: &[u8], decode: impl FnOnce(&[u8]) -> Result<T, String>) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| decode(bytes))) {
        Ok(Ok(_)) => Outcome::Decoded,
        Ok(Err(message)) => Outcome::Rejected(message),
        Err(payload) => Outcome::Panicked(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The result of driving a decoder over a mutant set.
#[derive(Clone, Debug, Default)]
pub struct SuiteReport {
    /// Mutants driven.
    pub total: usize,
    /// Mutants the decoder rejected with a typed error.
    pub rejected: usize,
    /// Mutants the decoder accepted.
    pub decoded: usize,
    /// Contract violations: `(mutant description, what went wrong)`.
    pub violations: Vec<(String, String)>,
}

impl SuiteReport {
    /// Panics with a readable digest if any mutant violated its contract.
    /// Use from tests: `report.assert_clean("sbbt raw")`.
    pub fn assert_clean(&self, label: &str) {
        assert!(
            self.violations.is_empty(),
            "{label}: {} of {} mutants violated the fail-closed contract:\n{}",
            self.violations.len(),
            self.total,
            self.violations
                .iter()
                .map(|(who, what)| format!("  {who}: {what}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Merges another report into this one (for totalling across suites).
    pub fn absorb(&mut self, other: SuiteReport) {
        self.total += other.total;
        self.rejected += other.rejected;
        self.decoded += other.decoded;
        self.violations.extend(other.violations);
    }
}

/// Drives `decode` over every mutant and collects a [`SuiteReport`].
///
/// A panic is always a violation. A successful decode is a violation only
/// for [`Expect::Reject`] mutants.
pub fn run_suite<T>(
    mutants: &[Mutant],
    mut decode: impl FnMut(&[u8]) -> Result<T, String>,
) -> SuiteReport {
    let mut report = SuiteReport {
        total: mutants.len(),
        ..SuiteReport::default()
    };
    for mutant in mutants {
        match drive(&mutant.bytes, &mut decode) {
            Outcome::Rejected(_) => report.rejected += 1,
            Outcome::Decoded => {
                report.decoded += 1;
                if mutant.expect == Expect::Reject {
                    report
                        .violations
                        .push((mutant.description.clone(), "decoded successfully".into()));
                }
            }
            Outcome::Panicked(message) => {
                report
                    .violations
                    .push((mutant.description.clone(), format!("panicked: {message}")));
            }
        }
    }
    report
}

/// Truncation mutants at the given byte offsets (offsets at or past the end
/// are skipped — a full-length "cut" is the identity, not a fault).
pub fn cuts_at(
    base: &[u8],
    offsets: impl IntoIterator<Item = usize>,
    expect: impl Fn(usize) -> Expect,
) -> Vec<Mutant> {
    let mut seen = std::collections::BTreeSet::new();
    offsets
        .into_iter()
        .filter(|&at| at < base.len() && seen.insert(at))
        .map(|at| Mutant {
            description: format!("cut at {at}/{}", base.len()),
            bytes: base[..at].to_vec(),
            expect: expect(at),
        })
        .collect()
}

/// Truncation at *every* byte offset `0..len`. Exhaustive and cheap for
/// the compressed envelopes, whose framing makes any strict prefix
/// detectably incomplete.
pub fn cuts_at_every_offset(base: &[u8], expect: Expect) -> Vec<Mutant> {
    cuts_at(base, 0..base.len(), |_| expect)
}

/// `count` single-bit-flip mutants at seeded pseudo-random positions.
///
/// Deterministic for a given `(seed, count, len)`: reruns and CI always see
/// the same corruption set. `expect` receives the flipped byte offset, so
/// callers can demand rejection for flips in structurally-checked regions
/// (headers, checksums) while only requiring panic-freedom elsewhere.
pub fn bit_flips(
    base: &[u8],
    count: usize,
    seed: u64,
    expect: impl Fn(usize) -> Expect,
) -> Vec<Mutant> {
    assert!(!base.is_empty(), "cannot flip bits in an empty stream");
    let mut rng = Xorshift64::new(seed);
    (0..count)
        .map(|_| {
            let word = rng.next_u64();
            let offset = (word as usize >> 3) % base.len();
            let bit = (word & 7) as u8;
            let mut bytes = base.to_vec();
            bytes[offset] ^= 1 << bit;
            Mutant {
                description: format!("bit flip at {offset}.{bit}/{}", base.len()),
                bytes,
                expect: expect(offset),
            }
        })
        .collect()
}

/// A targeted-corruption mutant: `patch` overwrites the bytes at `offset`.
///
/// # Panics
///
/// If the patch does not fit inside `base` (harness misuse, not a decoder
/// fault).
pub fn overwrite(
    base: &[u8],
    offset: usize,
    patch: &[u8],
    description: impl Into<String>,
    expect: Expect,
) -> Mutant {
    let end = offset
        .checked_add(patch.len())
        .filter(|&end| end <= base.len())
        .expect("overwrite patch must fit inside the base stream");
    let mut bytes = base.to_vec();
    bytes[offset..end].copy_from_slice(patch);
    Mutant {
        description: description.into(),
        bytes,
        expect,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A decoder with a known contract: errors on short input, panics on a
    /// magic byte, decodes otherwise.
    fn toy_decode(bytes: &[u8]) -> Result<usize, String> {
        if bytes.len() < 4 {
            return Err("too short".into());
        }
        if bytes[0] == 0xEE {
            panic!("toy decoder bug");
        }
        Ok(bytes.len())
    }

    #[test]
    fn drive_classifies_all_three_outcomes() {
        assert!(matches!(drive(b"ok!!", toy_decode), Outcome::Decoded));
        assert!(matches!(drive(b"x", toy_decode), Outcome::Rejected(_)));
        match drive(&[0xEE, 0, 0, 0], toy_decode) {
            Outcome::Panicked(message) => assert!(message.contains("toy decoder bug")),
            other => panic!("expected panic outcome, got {other:?}"),
        }
    }

    #[test]
    fn run_suite_reports_violations() {
        let mutants = vec![
            Mutant {
                description: "short".into(),
                bytes: b"ab".to_vec(),
                expect: Expect::Reject,
            },
            Mutant {
                description: "valid but expected to fail".into(),
                bytes: b"fine".to_vec(),
                expect: Expect::Reject,
            },
            Mutant {
                description: "panic trigger".into(),
                bytes: vec![0xEE, 0, 0, 0],
                expect: Expect::NoPanic,
            },
        ];
        let report = run_suite(&mutants, toy_decode);
        assert_eq!(report.total, 3);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.decoded, 1);
        assert_eq!(report.violations.len(), 2);
        assert!(report.violations[0].1.contains("decoded successfully"));
        assert!(report.violations[1].1.contains("panicked"));
    }

    #[test]
    fn cuts_skip_identity_and_duplicates() {
        let cuts = cuts_at(b"0123456789", [3, 3, 10, 11, 0], |_| Expect::Reject);
        assert_eq!(cuts.len(), 2);
        assert_eq!(cuts[0].bytes, b"012");
        assert!(cuts[1].bytes.is_empty());
        assert_eq!(cuts_at_every_offset(b"0123", Expect::NoPanic).len(), 4);
    }

    #[test]
    fn bit_flips_are_deterministic_and_single_bit() {
        let base = [0u8; 64];
        let a = bit_flips(&base, 50, 7, |_| Expect::NoPanic);
        let b = bit_flips(&base, 50, 7, |_| Expect::NoPanic);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bytes, y.bytes, "same seed, same mutants");
            let flipped: u32 = x.bytes.iter().map(|byte| byte.count_ones()).sum();
            assert_eq!(flipped, 1, "exactly one bit differs");
        }
        let c = bit_flips(&base, 50, 8, |_| Expect::NoPanic);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.bytes != y.bytes),
            "different seeds diverge"
        );
    }

    #[test]
    fn overwrite_patches_in_place() {
        let m = overwrite(b"abcdef", 2, b"XY", "patch", Expect::Reject);
        assert_eq!(m.bytes, b"abXYef");
    }

    #[test]
    fn suite_report_digest_is_actionable() {
        let mutants = vec![Mutant {
            description: "cut at 3/10".into(),
            bytes: b"fine".to_vec(),
            expect: Expect::Reject,
        }];
        let report = run_suite(&mutants, toy_decode);
        let digest = catch_unwind(AssertUnwindSafe(|| report.assert_clean("toy")))
            .expect_err("must flag the violation");
        let digest = panic_message(digest.as_ref());
        assert!(digest.contains("cut at 3/10"), "{digest}");
        assert!(digest.contains("toy"), "{digest}");
    }
}
