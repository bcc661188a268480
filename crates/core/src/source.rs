//! Trace sources: anything the simulator can pull branch records from.

use mbp_json::Value;
use mbp_trace::sbbt::SbbtReader;
use mbp_trace::{BranchBatch, BranchRecord, TraceError};

/// Records per [`TraceSource::fill_batch`] call, matching the SBBT
/// reader's native block size.
pub use mbp_trace::sbbt::BATCH_RECORDS;

/// A stream of branch records consumable by the simulators.
///
/// Implemented for [`SbbtReader`] (the normal case), and for in-memory
/// slices ([`SliceSource`]) so tests, workload generators and optimization
/// loops (§VI-B) can feed the simulator without touching the filesystem.
pub trait TraceSource {
    /// The next record, or `None` at the end of the trace.
    ///
    /// # Errors
    ///
    /// Malformed trace content.
    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceError>;

    /// Replaces the contents of `out` with the next block of up to
    /// [`BATCH_RECORDS`] records and returns how many were produced.
    ///
    /// The simulators drive this method in their hot loop: one virtual call
    /// amortizes over a whole block, the struct-of-arrays
    /// [`BranchBatch`] lets predictor kernels stream individual columns,
    /// and `out` is caller-owned so its column allocations are reused
    /// across calls (truncated, never re-zeroed). Implementations must
    /// return fewer than `BATCH_RECORDS` records only at the end of the
    /// trace (or on error); `0` means the trace is exhausted.
    ///
    /// The default implementation loops [`TraceSource::next_record`];
    /// sources with a cheaper block path (the SBBT reader, in-memory
    /// sources) override it.
    ///
    /// # Errors
    ///
    /// Malformed trace content; `out` holds the records produced before
    /// the error.
    fn fill_batch(&mut self, out: &mut BranchBatch) -> Result<usize, TraceError> {
        out.clear();
        while out.len() < BATCH_RECORDS {
            match self.next_record()? {
                Some(rec) => out.push_record(&rec),
                None => break,
            }
        }
        out.debug_assert_aligned();
        Ok(out.len())
    }

    /// A JSON description of the source (e.g. the trace path), embedded in
    /// the result metadata.
    fn description(&self) -> Value {
        Value::Null
    }

    /// Total instructions the source spans, if known ahead of time.
    fn instruction_count_hint(&self) -> Option<u64> {
        None
    }

    /// Branch records remaining in the source, if known ahead of time.
    ///
    /// Unlike [`TraceSource::instruction_count_hint`] — which may come
    /// straight from an untrusted file header — implementations must bound
    /// this by the data they hold, so callers can size allocations from it
    /// safely. The SBBT reader counts what is left of the trace's length:
    /// of a raw trace, the bytes it holds; of a compressed one, the length
    /// the codec frame declares, which the stream has not yet proven. That
    /// length is capped at the frame's payload times the codec's largest
    /// expansion and checked against the SBBT header's branch count at
    /// open, and a stream that falls short of it fails as it is read.
    fn record_count_hint(&self) -> Option<u64> {
        None
    }

    /// Checks the rest of the source without producing it, for a run that
    /// stops before the end: the drivers call it where a cut-off ends the
    /// run, so a trace whose end is corrupt fails the run however early it
    /// stops. The SBBT reader inflates what is left of a compressed trace
    /// and compares its checksum with the trailer, without decoding a
    /// packet. The default does nothing: a source with no end-to-end check
    /// has nothing left to verify.
    ///
    /// # Errors
    ///
    /// Whatever reading the rest would have raised that the check covers;
    /// for the SBBT reader, decompression errors and a content checksum
    /// mismatch.
    fn drain(&mut self) -> Result<(), TraceError> {
        Ok(())
    }
}

impl TraceSource for SbbtReader {
    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceError> {
        SbbtReader::next_record(self)
    }

    fn fill_batch(&mut self, out: &mut BranchBatch) -> Result<usize, TraceError> {
        SbbtReader::fill_batch(self, out)
    }

    fn description(&self) -> Value {
        Value::from("sbbt trace")
    }

    fn instruction_count_hint(&self) -> Option<u64> {
        Some(self.header().instruction_count)
    }

    fn record_count_hint(&self) -> Option<u64> {
        // Derived from the trace length, not the header (the constructor
        // cross-checked the two).
        Some(self.remaining())
    }

    fn drain(&mut self) -> Result<(), TraceError> {
        SbbtReader::drain(self)
    }
}

/// A trace source over a borrowed slice of records.
#[derive(Clone, Debug)]
pub struct SliceSource<'a> {
    records: &'a [BranchRecord],
    pos: usize,
    name: Option<String>,
}

impl<'a> SliceSource<'a> {
    /// Wraps a slice of records.
    pub fn new(records: &'a [BranchRecord]) -> Self {
        Self {
            records,
            pos: 0,
            name: None,
        }
    }

    /// Wraps a slice with a human-readable trace name for the metadata.
    pub fn named(records: &'a [BranchRecord], name: impl Into<String>) -> Self {
        Self {
            records,
            pos: 0,
            name: Some(name.into()),
        }
    }

    /// Rewinds to the beginning (e.g. between sweep iterations).
    pub fn reset(&mut self) {
        self.pos = 0;
    }
}

impl TraceSource for SliceSource<'_> {
    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceError> {
        let rec = self.records.get(self.pos).copied();
        self.pos += rec.is_some() as usize;
        Ok(rec)
    }

    fn fill_batch(&mut self, out: &mut BranchBatch) -> Result<usize, TraceError> {
        out.clear();
        let end = self.records.len().min(self.pos + BATCH_RECORDS);
        out.extend_from_records(&self.records[self.pos..end]);
        self.pos = end;
        Ok(out.len())
    }

    fn description(&self) -> Value {
        match &self.name {
            Some(n) => Value::from(n.as_str()),
            None => Value::from("in-memory trace"),
        }
    }

    fn instruction_count_hint(&self) -> Option<u64> {
        Some(self.records.iter().map(|r| r.instructions()).sum())
    }

    fn record_count_hint(&self) -> Option<u64> {
        Some((self.records.len() - self.pos) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_trace::{Branch, Opcode};

    fn recs(n: usize) -> Vec<BranchRecord> {
        (0..n)
            .map(|i| {
                BranchRecord::new(
                    Branch::new(i as u64, 0, Opcode::conditional_direct(), true),
                    2,
                )
            })
            .collect()
    }

    #[test]
    fn slice_source_drains_and_resets() {
        let records = recs(3);
        let mut s = SliceSource::new(&records);
        let mut seen = 0;
        while s.next_record().unwrap().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 3);
        assert!(s.next_record().unwrap().is_none());
        s.reset();
        assert!(s.next_record().unwrap().is_some());
    }

    #[test]
    fn sources_report_instruction_hint() {
        let records = recs(4);
        assert_eq!(
            SliceSource::new(&records).instruction_count_hint(),
            Some(12)
        );
    }

    #[test]
    fn named_sources_describe_themselves() {
        let records = recs(1);
        let s = SliceSource::named(&records, "SHORT_SERVER-1");
        assert_eq!(s.description(), Value::from("SHORT_SERVER-1"));
    }

    #[test]
    fn fill_batch_blocks_and_exhausts() {
        let records = recs(BATCH_RECORDS + 10);
        let mut s = SliceSource::new(&records);
        let mut buf = BranchBatch::new();
        assert_eq!(s.fill_batch(&mut buf).unwrap(), BATCH_RECORDS);
        assert_eq!(buf.record(0), records[0]);
        assert_eq!(s.fill_batch(&mut buf).unwrap(), 10);
        assert_eq!(buf.record(9), records[BATCH_RECORDS + 9]);
        assert_eq!(s.fill_batch(&mut buf).unwrap(), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn fill_batch_interleaves_with_next_record() {
        let records = recs(5);
        let mut s = SliceSource::new(&records);
        assert_eq!(s.next_record().unwrap(), Some(records[0]));
        let mut buf = BranchBatch::new();
        assert_eq!(s.fill_batch(&mut buf).unwrap(), 4);
        assert_eq!(buf.record(0), records[1]);
    }

    #[test]
    fn default_fill_batch_matches_specialized() {
        /// A source with only `next_record`, to exercise the trait default.
        struct OneAtATime<'a>(SliceSource<'a>);
        impl TraceSource for OneAtATime<'_> {
            fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceError> {
                self.0.next_record()
            }
        }

        let records = recs(BATCH_RECORDS + 7);
        let mut defaulted = OneAtATime(SliceSource::new(&records));
        let mut specialized = SliceSource::new(&records);
        let (mut a, mut b) = (BranchBatch::new(), BranchBatch::new());
        loop {
            let n = defaulted.fill_batch(&mut a).unwrap();
            let m = specialized.fill_batch(&mut b).unwrap();
            assert_eq!(n, m);
            assert_eq!(a, b);
            if n == 0 {
                break;
            }
        }
    }
}
