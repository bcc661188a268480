//! Append-only sweep checkpointing: one fsync'd JSONL record per settled
//! predictor, so a killed sweep resumes instead of starting over.
//!
//! # File format (schema v1)
//!
//! The checkpoint is a JSON-Lines file. Every line is one self-contained
//! object describing one settled predictor:
//!
//! ```text
//! {"v":1,"predictor":"gshare","status":"ok","result":{ ...Listing-1 doc... }}
//! {"v":1,"predictor":"buggy","status":"failed","kind":"panic","message":"..."}
//! ```
//!
//! * `v` — schema version; readers stop at the first line whose version
//!   they do not understand.
//! * `predictor` — the display name passed to
//!   [`simulate_many`](crate::simulate_many); resume matches on it.
//! * `status` — `"ok"` carries the full [`SimResult`] document under
//!   `result`; `"failed"` carries the [`SweepFailure`] kind and message.
//!
//! Each record is flushed and `fsync`'d before the sweep reports the
//! predictor as done, so the file never claims work that could be lost.
//! The *last* line of a file whose writer was killed mid-append may be
//! truncated; [`load_checkpoint`] stops at the first malformed line by
//! design and treats everything before it as trustworthy.
//!
//! Completed results embed the simulator name and version; a record
//! written by a different build fails [`SimResult::from_json`]'s identity
//! check and is counted in [`CheckpointLoad::stale`] — the predictor is
//! re-run rather than mixing results from two simulator versions into one
//! leaderboard.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use mbp_json::{json, Value};

use crate::simulator::SimResult;
use crate::sweep::{FailureKind, SweepFailure};

/// Current checkpoint schema version.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Appends settled-predictor records to a checkpoint file, one fsync per
/// record.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: File,
    records: u64,
    sampling: Option<String>,
}

impl CheckpointWriter {
    /// Creates (or truncates) a checkpoint file for a fresh sweep.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(Self {
            file: File::create(path)?,
            records: 0,
            sampling: None,
        })
    }

    /// Opens a checkpoint file for appending (resumed sweeps). Creates the
    /// file if it does not exist yet.
    ///
    /// The file is first cut back to `trusted` bytes, the prefix
    /// [`CheckpointLoad::trusted_bytes`] trusted: a record appended after a
    /// torn line would be glued onto it and lost to the next load. A
    /// trusted last record whose newline was cut off gets one back, and the
    /// repair is synced before any record is appended.
    ///
    /// # Errors
    ///
    /// Propagates file-open, truncation, read, write and sync failures.
    pub fn append(path: &Path, trusted: u64) -> io::Result<Self> {
        let mut file = (OpenOptions::new().create(true).read(true).append(true)).open(path)?;
        file.set_len(trusted)?;
        if let Some(last) = trusted.checked_sub(1) {
            let mut byte = [0u8];
            file.seek(SeekFrom::Start(last))?;
            file.read_exact(&mut byte)?;
            if byte != *b"\n" {
                file.write_all(b"\n")?;
            }
        }
        file.sync_data()?;
        Ok(Self {
            file,
            records: 0,
            sampling: None,
        })
    }

    /// Binds subsequent records to a sampling plan: every record carries
    /// the plan's `doc_hash` so a resume under a different plan (or none)
    /// can be refused instead of silently mixing incomparable results.
    pub fn set_sampling(&mut self, sampling: Option<String>) {
        self.sampling = sampling;
    }

    /// Records written through this writer (excludes pre-existing lines of
    /// an appended file).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one completed-predictor record.
    ///
    /// # Errors
    ///
    /// Propagates write or fsync failures; the record must be durable
    /// before the sweep counts the predictor as settled.
    pub fn record_result(&mut self, name: &str, result: &SimResult) -> io::Result<()> {
        let mut record = json!({
            "v": CHECKPOINT_VERSION,
            "predictor": name,
            "status": "ok",
            "result": result.to_json(),
        });
        self.stamp_sampling(&mut record);
        self.write_line(&record)
    }

    /// Appends one failed-predictor record.
    ///
    /// # Errors
    ///
    /// Propagates write or fsync failures.
    pub fn record_failure(&mut self, failure: &SweepFailure) -> io::Result<()> {
        let mut record = json!({
            "v": CHECKPOINT_VERSION,
            "predictor": failure.name.as_str(),
            "status": "failed",
            "kind": failure.kind.as_str(),
            "message": failure.message.as_str(),
        });
        self.stamp_sampling(&mut record);
        self.write_line(&record)
    }

    fn stamp_sampling(&self, record: &mut Value) {
        if let Some(hash) = &self.sampling {
            if let Some(obj) = record.as_object_mut() {
                obj.insert("sampling", hash.as_str());
            }
        }
    }

    fn write_line(&mut self, record: &Value) -> io::Result<()> {
        let mut line = record.to_compact_string();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        // One fsync per record: the durability contract is that a record,
        // once reported, survives a kill. Sweep records settle at predictor
        // granularity (seconds to minutes apart), so this is off any hot
        // path.
        self.file.sync_data()?;
        self.records += 1;
        let stats = &mbp_stats::pipeline().sweep;
        stats.checkpoint_writes.inc();
        mbp_stats::events::instant(mbp_stats::events::EventName::CheckpointWrite, self.records);
        Ok(())
    }
}

/// Everything a checkpoint file yielded on load.
#[derive(Debug, Default)]
pub struct CheckpointLoad {
    /// Completed predictors with their parsed results, in file order,
    /// deduplicated by name (first record wins).
    pub completed: Vec<(String, SimResult)>,
    /// Failed predictors, in file order, deduplicated by name.
    pub failures: Vec<SweepFailure>,
    /// Well-formed records rejected because their result did not parse for
    /// this build (e.g. a checkpoint written by a different simulator
    /// version); the predictors are re-run.
    pub stale: usize,
    /// Lines ignored at the tail of the file: the first malformed line —
    /// usually a record cut short by a kill mid-append — and everything
    /// after it.
    pub ignored_tail_lines: usize,
    /// Bytes of the file before its first malformed line: the prefix a
    /// resume keeps and appends to (see [`CheckpointWriter::append`]).
    pub trusted_bytes: u64,
    /// Sampling-plan hash stamped on the file's records (taken from the
    /// first well-formed record, including stale ones); `None` when the
    /// file is empty or was written by a full (unsampled) sweep.
    pub sampling: Option<String>,
}

impl CheckpointLoad {
    /// Whether the checkpoint already settles `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.completed.iter().any(|(n, _)| n == name)
            || self.failures.iter().any(|f| f.name == name)
    }

    /// Whether the file yielded any well-formed records at all (an empty
    /// checkpoint has no sampling plan to disagree with).
    pub fn has_records(&self) -> bool {
        !self.completed.is_empty() || !self.failures.is_empty() || self.stale > 0
    }
}

/// Reads a checkpoint file, tolerating a corrupt or truncated tail.
///
/// Parsing stops at the first line that is not a well-formed v1 record;
/// everything before it is returned. A missing file loads as empty (a
/// `--resume` against a path that was never written is a fresh sweep, not
/// an error).
///
/// # Errors
///
/// Propagates I/O failures other than the file not existing.
pub fn load_checkpoint(path: &Path) -> io::Result<CheckpointLoad> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(CheckpointLoad::default()),
        Err(e) => return Err(e),
    }
    let mut load = CheckpointLoad {
        trusted_bytes: bytes.len() as u64,
        ..CheckpointLoad::default()
    };
    let mut seen: HashSet<String> = HashSet::new();
    let mut first_record = true;
    // Lines of bytes, so the trusted prefix is measured in the file's
    // bytes; each is converted lossily, not with `from_utf8`, so a record
    // torn inside a multi-byte character ends the trusted prefix like any
    // other torn record instead of failing the whole load.
    let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
    for (i, raw) in lines.iter().enumerate() {
        let text = String::from_utf8_lossy(raw);
        let line = text.lines().next().unwrap_or_default();
        if line.trim().is_empty() {
            continue;
        }
        match parse_record(line) {
            Some((sampling, record)) => {
                if first_record {
                    load.sampling = sampling;
                    first_record = false;
                }
                match record {
                    Record::Ok(name, result) => {
                        if seen.insert(name.clone()) {
                            load.completed.push((name, *result));
                        }
                    }
                    Record::Failed(failure) => {
                        if seen.insert(failure.name.clone()) {
                            load.failures.push(failure);
                        }
                    }
                    Record::Stale => load.stale += 1,
                }
            }
            None => {
                // Corrupt or truncated from here on: keep the trusted
                // prefix, ignore the tail.
                load.ignored_tail_lines = lines.len() - i;
                load.trusted_bytes = lines[..i].iter().map(|l| l.len() as u64).sum();
                break;
            }
        }
    }
    Ok(load)
}

enum Record {
    // Boxed: a SimResult is hundreds of bytes and would dominate the enum.
    Ok(String, Box<SimResult>),
    Failed(SweepFailure),
    /// Well-formed, but not usable by this build; re-run the predictor.
    Stale,
}

/// One line → its sampling stamp plus one record; `None` means the line
/// (and thus the rest of the file) cannot be trusted.
fn parse_record(line: &str) -> Option<(Option<String>, Record)> {
    let doc: Value = line.parse().ok()?;
    if doc.get("v")?.as_u64()? != CHECKPOINT_VERSION {
        return None;
    }
    let sampling = doc
        .get("sampling")
        .and_then(Value::as_str)
        .map(str::to_string);
    let name = doc.get("predictor")?.as_str()?.to_string();
    let record = match doc.get("status")?.as_str()? {
        "ok" => match SimResult::from_json(doc.get("result")?) {
            Ok(result) => Record::Ok(name, Box::new(result)),
            // A complete record from a different simulator build: not
            // corruption, so keep reading the file, but re-run this entry.
            Err(_) => Record::Stale,
        },
        "failed" => {
            let kind = FailureKind::parse(doc.get("kind")?.as_str()?)?;
            Record::Failed(SweepFailure {
                name,
                kind,
                message: doc.get("message")?.as_str()?.to_string(),
            })
        }
        _ => return None,
    };
    Some((sampling, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, Predictor, SimConfig, SliceSource};
    use mbp_trace::{Branch, BranchRecord, Opcode};

    struct Up;
    impl Predictor for Up {
        fn predict(&mut self, _ip: u64) -> bool {
            true
        }
        fn train(&mut self, _b: &mbp_trace::Branch) {}
        fn track(&mut self, _b: &mbp_trace::Branch) {}
    }

    fn result() -> SimResult {
        let recs = vec![
            BranchRecord::new(Branch::new(0x10, 0, Opcode::conditional_direct(), true), 3),
            BranchRecord::new(Branch::new(0x10, 0, Opcode::conditional_direct(), false), 3),
        ];
        simulate(&mut SliceSource::new(&recs), &mut Up, &SimConfig::default()).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mbp-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_then_load_round_trips() {
        let path = tmp("round_trip.jsonl");
        let r = result();
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.record_result("gshare", &r).unwrap();
        w.record_failure(&SweepFailure {
            name: "buggy".to_string(),
            kind: FailureKind::Panic,
            message: "intentional".to_string(),
        })
        .unwrap();
        assert_eq!(w.records(), 2);

        let load = load_checkpoint(&path).unwrap();
        assert_eq!(load.completed.len(), 1);
        assert_eq!(load.completed[0].0, "gshare");
        assert_eq!(
            load.completed[0].1.to_json().to_pretty_string(),
            r.to_json().to_pretty_string(),
            "checkpointed result re-renders identically"
        );
        assert_eq!(load.failures.len(), 1);
        assert_eq!(load.failures[0].kind, FailureKind::Panic);
        assert_eq!(load.ignored_tail_lines, 0);
        assert!(load.contains("gshare") && load.contains("buggy"));
        assert!(!load.contains("tage"));
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let path = tmp("truncated.jsonl");
        let r = result();
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.record_result("a", &r).unwrap();
        w.record_result("b", &r).unwrap();
        // Simulate a kill mid-append: cut the file mid-way through the
        // second record.
        let bytes = std::fs::read(&path).unwrap();
        let first_line_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        std::fs::write(&path, &bytes[..first_line_end + 1 + 40]).unwrap();

        let load = load_checkpoint(&path).unwrap();
        assert_eq!(load.completed.len(), 1, "the intact prefix survives");
        assert_eq!(load.completed[0].0, "a");
        assert_eq!(load.ignored_tail_lines, 1);
    }

    #[test]
    fn garbage_line_stops_the_read_but_keeps_the_prefix() {
        let path = tmp("garbage.jsonl");
        let r = result();
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.record_result("a", &r).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"not json at all\n");
        bytes.extend_from_slice(b"{\"v\":1}\n");
        std::fs::write(&path, &bytes).unwrap();
        let load = load_checkpoint(&path).unwrap();
        assert_eq!(load.completed.len(), 1);
        assert_eq!(load.ignored_tail_lines, 2);
    }

    #[test]
    fn duplicate_names_first_record_wins() {
        let path = tmp("dupes.jsonl");
        let r = result();
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.record_failure(&SweepFailure {
            name: "p".to_string(),
            kind: FailureKind::Deadline,
            message: "first".to_string(),
        })
        .unwrap();
        w.record_result("p", &r).unwrap();
        let load = load_checkpoint(&path).unwrap();
        assert!(load.completed.is_empty());
        assert_eq!(load.failures.len(), 1);
        assert_eq!(load.failures[0].message, "first");
    }

    #[test]
    fn foreign_version_records_are_stale_not_fatal() {
        let path = tmp("stale.jsonl");
        let r = result();
        let mut doc = r.to_json();
        doc.as_object_mut()
            .unwrap()
            .get_mut("metadata")
            .unwrap()
            .as_object_mut()
            .unwrap()
            .insert("version", "v0.0.0-older");
        let line = json!({
            "v": CHECKPOINT_VERSION,
            "predictor": "old",
            "status": "ok",
            "result": doc,
        });
        let mut text = line.to_compact_string();
        text.push('\n');
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.record_result("fresh", &r).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(text.as_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let load = load_checkpoint(&path).unwrap();
        assert_eq!(load.completed.len(), 1, "stale entry is skipped");
        assert_eq!(load.stale, 1);
        assert_eq!(load.ignored_tail_lines, 0, "the file is still trusted");
        assert!(!load.contains("old"), "stale entries re-run");
    }

    #[test]
    fn missing_file_loads_empty() {
        let load = load_checkpoint(&tmp("never_written.jsonl")).unwrap();
        assert!(load.completed.is_empty() && load.failures.is_empty());
        assert!(!load.has_records());
        assert_eq!(load.sampling, None);
    }

    #[test]
    fn sampling_stamp_round_trips() {
        let path = tmp("sampling_stamp.jsonl");
        let r = result();
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.set_sampling(Some("fnv1a64:0123456789abcdef".to_string()));
        w.record_result("gshare", &r).unwrap();
        w.record_failure(&SweepFailure {
            name: "buggy".to_string(),
            kind: FailureKind::Panic,
            message: "intentional".to_string(),
        })
        .unwrap();
        drop(w);

        let load = load_checkpoint(&path).unwrap();
        assert!(load.has_records());
        assert_eq!(
            load.sampling.as_deref(),
            Some("fnv1a64:0123456789abcdef"),
            "sampling plan hash survives the round trip"
        );
    }

    #[test]
    fn unsampled_records_load_with_no_sampling_plan() {
        let path = tmp("no_sampling.jsonl");
        let r = result();
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.record_result("gshare", &r).unwrap();
        drop(w);

        let load = load_checkpoint(&path).unwrap();
        assert!(load.has_records());
        assert_eq!(load.sampling, None);
    }

    #[test]
    fn unknown_schema_version_stops_the_read() {
        let path = tmp("future.jsonl");
        std::fs::write(&path, b"{\"v\":2,\"predictor\":\"x\",\"status\":\"ok\"}\n").unwrap();
        let load = load_checkpoint(&path).unwrap();
        assert!(load.completed.is_empty());
        assert_eq!(load.ignored_tail_lines, 1);
    }

    /// An append keeps exactly the trusted prefix: a torn line is cut off,
    /// and a last record that lost only its newline is ended, so every
    /// record appended after it loads again.
    #[test]
    fn append_cuts_back_to_the_trusted_prefix() {
        let path = tmp("append_trusted.jsonl");
        let r = result();
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.record_result("a", &r).unwrap();
        w.record_result("b", &r).unwrap();
        let whole = std::fs::read(&path).unwrap();
        let first = whole.iter().position(|&b| b == b'\n').unwrap() + 1;
        for (cut, kept) in [(first + 40, vec!["a"]), (whole.len() - 1, vec!["a", "b"])] {
            std::fs::write(&path, &whole[..cut]).unwrap();
            let load = load_checkpoint(&path).unwrap();
            assert_eq!(load.completed.len(), kept.len(), "cut at {cut}");
            let mut w = CheckpointWriter::append(&path, load.trusted_bytes).unwrap();
            w.record_result("c", &r).unwrap();
            let load = load_checkpoint(&path).unwrap();
            let names: Vec<&str> = load.completed.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, [kept, vec!["c"]].concat(), "cut at {cut}");
            assert_eq!(load.ignored_tail_lines, 0, "cut at {cut}");
            assert_eq!(load.trusted_bytes, std::fs::metadata(&path).unwrap().len());
        }
    }
}
