//! The checkpoint campaign: a sweep checkpoint is read back on resume, so
//! it is untrusted input like a trace. Every cut and a seeded set of bit
//! flips of a real checkpoint written by `simulate_many` must load without
//! a panic; a cut file must keep exactly the records wholly before the cut;
//! a resumed sweep over a seeded sample of the mutants must return a typed
//! error or account for every predictor; and a second resume of a cut file
//! must find every predictor settled as an uninterrupted sweep left it.

use std::path::{Path, PathBuf};

use mbp_core::{load_checkpoint, simulate_many, Predictor, SliceSource, SweepConfig, Value};
use mbp_faultsim::{bit_flips, cuts_at_every_offset, run_suite, Expect, Mutant};
use mbp_trace::{Branch, BranchRecord, Opcode};
use mbp_utils::Xorshift64;

/// Three stock predictors and the intentionally panicking `faulty` one, so
/// the checkpoint holds result records and a failure record.
const ROSTER: [&str; 4] = ["bimodal", "gshare", "faulty", "tournament"];

/// A non-ASCII trace name puts multi-byte characters in every result
/// record, so some cuts fall inside one.
const TRACE_NAME: &str = "traces/café.sbbt";

fn roster() -> Vec<(String, Box<dyn Predictor + Send>)> {
    ROSTER
        .iter()
        .map(|name| {
            let predictor = mbp_predictors::by_name(name).expect("stock predictor");
            (name.to_string(), predictor)
        })
        .collect()
}

fn sample_records() -> Vec<BranchRecord> {
    let mut rng = Xorshift64::new(0xC4EC_4B01);
    (0..400)
        .map(|_| {
            let r = rng.next_u64();
            let ip = 0x40_0000 + (r % 8) * 4;
            let branch = Branch::new(ip, ip + 64, Opcode::conditional_direct(), r & 3 != 0);
            BranchRecord::new(branch, (r >> 8) as u32 % 8)
        })
        .collect()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mbp-faultsim-checkpoint");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Sweeps the roster once with a checkpoint at `path` and returns the
/// checkpoint's bytes.
fn real_checkpoint(path: &Path, records: &[BranchRecord]) -> Vec<u8> {
    let config = SweepConfig {
        jobs: 1,
        checkpoint: Some(path.to_path_buf()),
        ..SweepConfig::default()
    };
    let mut source = SliceSource::named(records, TRACE_NAME);
    let sweep = simulate_many(&mut source, roster(), &config).expect("baseline sweep");
    assert_eq!((sweep.entries.len(), sweep.failures.len()), (3, 1));
    let bytes = std::fs::read(path).expect("read checkpoint");
    assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), ROSTER.len());
    assert!(!bytes.is_ascii(), "the trace name is not ASCII");
    bytes
}

/// 24 cuts of `base` at offsets drawn from `seed`.
fn seeded_cuts(base: &[u8], seed: u64) -> Vec<Mutant> {
    let mut rng = Xorshift64::new(seed);
    (0..24)
        .map(|_| {
            let at = (rng.next_u64() % base.len() as u64) as usize;
            Mutant {
                description: format!("cut at {at}/{}", base.len()),
                bytes: base[..at].to_vec(),
                expect: Expect::NoPanic,
            }
        })
        .collect()
}

/// The results `path` loads, then its failures, each in file order and
/// rendered with `simulation_time` zeroed, so two runs of the same work
/// compare equal.
fn loaded_records(path: &Path) -> Vec<String> {
    let load = load_checkpoint(path).expect("load checkpoint");
    let results = load.completed.into_iter().map(|(name, mut result)| {
        result.metrics.simulation_time = 0.0;
        format!("{name}: {}", result.to_json().to_compact_string())
    });
    let failures =
        (load.failures.into_iter()).map(|f| format!("{}: {} {}", f.name, f.kind, f.message));
    results.chain(failures).collect()
}

/// Writes `bytes` to `path`, loads it as a checkpoint and returns the names
/// it settles, sorted.
fn load(path: &Path, bytes: &[u8]) -> Result<Vec<String>, String> {
    std::fs::write(path, bytes).expect("write mutant");
    let load = load_checkpoint(path).map_err(|e| e.to_string())?;
    let completed = load.completed.into_iter().map(|(name, _)| name);
    let mut names: Vec<String> = completed
        .chain(load.failures.into_iter().map(|f| f.name))
        .collect();
    names.sort();
    Ok(names)
}

#[test]
fn every_cut_and_flip_of_a_checkpoint_loads_without_panic() {
    let path = temp_path("load.jsonl");
    let base = real_checkpoint(&path, &sample_records());

    // Each record's name and the offset of the newline that ends it.
    let mut records = Vec::new();
    let mut start = 0;
    for (end, _) in base.iter().enumerate().filter(|(_, &b)| b == b'\n') {
        let line = std::str::from_utf8(&base[start..end]).expect("utf8 record");
        let doc: Value = line.parse().expect("well-formed record");
        let name = doc["predictor"].as_str().expect("predictor name");
        records.push((end, name.to_string()));
        start = end + 1;
    }

    // A cut keeps exactly the records whose text lies wholly before it,
    // whether or not their newline survived.
    let cuts = cuts_at_every_offset(&base, Expect::NoPanic);
    let report = run_suite(&cuts, |bytes| {
        let names = load(&path, bytes)?;
        let mut whole: Vec<String> = (records.iter())
            .filter(|(end, _)| *end <= bytes.len())
            .map(|(_, name)| name.clone())
            .collect();
        whole.sort();
        assert_eq!(names, whole, "cut at {}", bytes.len());
        Ok(())
    });
    report.assert_clean("checkpoint cuts");
    assert_eq!(report.decoded, base.len(), "every cut loads");

    let flips = bit_flips(&base, 600, 0xC4EC_F11B, |_| Expect::NoPanic);
    run_suite(&flips, |bytes| load(&path, bytes)).assert_clean("checkpoint bit flips");
}

#[test]
fn a_resume_from_any_sampled_mutant_accounts_for_every_predictor() {
    let path = temp_path("resume.jsonl");
    let records = sample_records();
    let base = real_checkpoint(&path, &records);

    let mut sample = seeded_cuts(&base, 0xC4EC_5A3B);
    sample.extend(bit_flips(&base, 24, 0xC4EC_5A3C, |_| Expect::NoPanic));

    let report = run_suite(&sample, |bytes| {
        std::fs::write(&path, bytes).expect("write mutant");
        let config = SweepConfig {
            jobs: 1,
            checkpoint: Some(path.clone()),
            resume: true,
            ..SweepConfig::default()
        };
        let mut source = SliceSource::named(&records, TRACE_NAME);
        let sweep = simulate_many(&mut source, roster(), &config).map_err(|e| e.to_string())?;
        let accounted = sweep.entries.len() + sweep.failures.len() + sweep.not_run.len();
        assert_eq!(accounted, ROSTER.len(), "every predictor is accounted for");
        Ok(())
    });
    report.assert_clean("checkpoint resume");
}

#[test]
fn a_second_resume_of_a_cut_checkpoint_runs_nothing() {
    let path = temp_path("resume-twice.jsonl");
    let records = sample_records();
    let base = real_checkpoint(&path, &records);
    let uninterrupted = loaded_records(&path);

    let report = run_suite(&seeded_cuts(&base, 0xC4EC_2E5A), |bytes| {
        std::fs::write(&path, bytes).expect("write mutant");
        let config = SweepConfig {
            jobs: 1,
            checkpoint: Some(path.clone()),
            resume: true,
            ..SweepConfig::default()
        };
        let mut workers = Vec::new();
        for _ in 0..2 {
            let mut source = SliceSource::named(&records, TRACE_NAME);
            let sweep = simulate_many(&mut source, roster(), &config).map_err(|e| e.to_string())?;
            workers.push(sweep.workers_used);
        }
        assert_eq!(workers[1], 0, "the second resume runs no predictor");
        assert_eq!(loaded_records(&path), uninterrupted);
        Ok(())
    });
    report.assert_clean("checkpoint resumed twice");
}
