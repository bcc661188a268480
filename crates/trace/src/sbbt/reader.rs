//! Streaming SBBT reader.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use mbp_compress::Inflater;

use crate::sbbt::header::{SbbtHeader, HEADER_BYTES};
use crate::sbbt::packet::{decode_packet, decode_packet_raw, malformed_error, PACKET_BYTES};
use crate::{BranchBatch, BranchRecord, TraceError};

/// Number of records decoded per [`SbbtReader::fill_batch`] call.
///
/// 2048 packets are 32 kB of trace, big enough to amortize per-call
/// overhead and small enough to stay cache-resident.
pub const BATCH_RECORDS: usize = 2048;

/// Trace bytes per full batch.
const BATCH_BYTES: usize = BATCH_RECORDS * PACKET_BYTES;

/// Reads SBBT traces, raw or MGZ/MZST-compressed.
///
/// The reader validates the header eagerly and then walks the packets in
/// order — the "stream-like format" walk that §VII-D credits for most of
/// MBPlib's speedup. Raw input is walked in place. Compressed input is
/// inflated, checksummed and decoded in one pass: opening inflates only the
/// 24-byte header and checks it against the length the codec frame
/// declares, and reading inflates one batch at a time into a ring as long
/// as the codec window (1 MiB for MZST, 32 KiB for MGZ) however long the
/// trace, where the whole inflated trace takes 16 bytes per branch. The
/// content checksum is computed as the batches are inflated and compared
/// with the trailer when the last one is, so a codec or checksum error
/// surfaces by the time the last record has been read, never after it. A
/// caller that stops early calls [`SbbtReader::drain`] to check the rest.
/// [`SbbtReader::remaining`] comes from the declared length, which the
/// frame caps at what its payload could inflate to. [`SbbtReader::rewind`]
/// restarts the stream.
///
/// # Examples
///
/// ```no_run
/// use mbp_trace::sbbt::SbbtReader;
///
/// let mut r = SbbtReader::open("traces/SHORT_SERVER-1.sbbt.mzst")?;
/// while let Some(rec) = r.next_record()? {
///     println!("{:#x} taken={}", rec.branch.ip(), rec.branch.is_taken());
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SbbtReader {
    header: SbbtHeader,
    /// Raw input: the whole trace. Compressed input: a ring of whole
    /// batches covering the codec window, refilled a batch at a time. The
    /// header goes into its last 24 bytes, so packet `i` lands at
    /// `16 * i % data.len()` and no batch wraps.
    data: Vec<u8>,
    /// Index in `data` of the next packet.
    pos: usize,
    /// Index in `data` where the buffered packets end.
    end: usize,
    /// Trace offset of the next packet.
    read: usize,
    /// Trace length in bytes, checked against the header.
    len: usize,
    /// The compressed stream `data` is refilled from; `None` for raw input.
    stream: Option<Inflater>,
}

impl SbbtReader {
    /// Opens a trace file, transparently decompressing it.
    ///
    /// # Errors
    ///
    /// I/O errors, decompression errors, and header validation errors.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, TraceError> {
        let file = File::open(path)?;
        Self::from_reader(file)
    }

    /// Reads a trace from any reader (decompressing if needed).
    ///
    /// # Errors
    ///
    /// Same as [`SbbtReader::open`].
    pub fn from_reader<R: Read>(mut source: R) -> Result<Self, TraceError> {
        // Slurp first, then decode in memory: decompression failures keep
        // their typed `CompressError` instead of being flattened into an
        // `io::Error` by a streaming adapter.
        let mut data = Vec::new();
        source.read_to_end(&mut data)?;
        Self::from_bytes(data)
    }

    /// Parses an in-memory trace (decompressing if needed).
    ///
    /// Of a compressed trace only the header is inflated here; the rest is
    /// inflated and checksummed as it is read (see [`SbbtReader`]).
    ///
    /// # Errors
    ///
    /// Header validation errors; also rejects a body whose length is not a
    /// whole number of packets ([`TraceError::Truncated`]) or does not
    /// match the declared branch count ([`TraceError::Corrupt`]). Of a
    /// compressed trace that length is the one its frame declares; a
    /// frame that is corrupt before the header's last byte also fails
    /// here, and later codec errors, a content checksum mismatch included,
    /// surface as the trace is read or drained.
    pub fn from_bytes(data: Vec<u8>) -> Result<Self, TraceError> {
        if mbp_compress::detect(&data).is_none() {
            return Self::from_decompressed(data);
        }
        let mut stream = Inflater::new(data)?;
        // Whole batches covering the window: a batch is read before the
        // next one is written over the oldest.
        let mut ring = vec![0; stream.window().next_multiple_of(BATCH_BYTES)];
        // The header goes into the ring's last 24 bytes, so that packet 0
        // lands at its front.
        let head = ring.len() - HEADER_BYTES;
        let got = stream.inflate_into(&mut ring, head, HEADER_BYTES)?;
        let header = SbbtHeader::decode(&ring[head..head + got])?;
        let len = stream.declared_len();
        check_length(&header, len)?;
        mbp_stats::pipeline().trace.bytes_read.add(len as u64);
        Ok(Self {
            header,
            data: ring,
            pos: 0,
            end: 0,
            read: HEADER_BYTES,
            len,
            stream: Some(stream),
        })
    }

    /// Parses an in-memory trace known to be raw SBBT bytes, skipping the
    /// compression-codec probe of [`SbbtReader::from_bytes`].
    ///
    /// # Errors
    ///
    /// Same as [`SbbtReader::from_bytes`].
    pub fn from_decompressed(data: Vec<u8>) -> Result<Self, TraceError> {
        let header = SbbtHeader::decode(&data)?;
        check_length(&header, data.len())?;
        mbp_stats::pipeline()
            .trace
            .bytes_read
            .add(data.len() as u64);
        Ok(Self {
            header,
            pos: HEADER_BYTES,
            end: data.len(),
            read: HEADER_BYTES,
            len: data.len(),
            data,
            stream: None,
        })
    }

    /// The validated file header.
    pub fn header(&self) -> &SbbtHeader {
        &self.header
    }

    /// Branches remaining to be read.
    pub fn remaining(&self) -> u64 {
        ((self.len - self.read) / PACKET_BYTES) as u64
    }

    /// Resets the reader to the first packet, so the trace can be replayed
    /// without reopening it. Raw input is replayed from memory; compressed
    /// input is inflated again from its first block. Once a pass has
    /// reached the end, the checksum is verified and later passes skip it;
    /// a rewind before that restarts the checksum, so the next pass to
    /// reach the end checks it.
    pub fn rewind(&mut self) {
        self.read = HEADER_BYTES;
        match &mut self.stream {
            Some(stream) => {
                stream.rewind();
                self.pos = 0;
                self.end = 0;
            }
            None => self.pos = HEADER_BYTES,
        }
    }

    /// Moves to the end of the trace without reading what is left.
    fn skip_to_end(&mut self) {
        self.read = self.len;
        self.pos = self.end;
    }

    /// Moves to the end of the trace without decoding what is left, so a
    /// caller that stops early still has the whole trace checked: the rest
    /// of a compressed trace is inflated through the ring and its checksum
    /// compared with the trailer. Raw input has nothing left to check.
    ///
    /// # Errors
    ///
    /// Decompression errors, a content checksum mismatch included.
    pub fn drain(&mut self) -> Result<(), TraceError> {
        loop {
            // The buffered packets are passed over undecoded.
            self.read += self.end - self.pos;
            self.pos = self.end;
            if self.read >= self.len || self.stream.is_none() {
                self.skip_to_end();
                return Ok(());
            }
            self.refill()?;
        }
    }

    /// Inflates the next batch of a compressed trace into the ring once the
    /// buffered packets are used up. After a rewind the header comes first,
    /// back into the ring's last 24 bytes.
    fn refill(&mut self) -> Result<(), TraceError> {
        let Some(stream) = &mut self.stream else {
            return Ok(());
        };
        if self.pos < self.end || self.read == self.len {
            return Ok(());
        }
        let ring = self.data.len();
        if stream.produced() == 0 {
            stream.inflate_into(&mut self.data, ring - HEADER_BYTES, HEADER_BYTES)?;
        }
        let at = if self.end == ring { 0 } else { self.end };
        let n = stream.inflate_into(&mut self.data, at, BATCH_BYTES)?;
        self.pos = at;
        self.end = at + n;
        Ok(())
    }

    /// Decodes the next packet, or `None` at end of trace.
    ///
    /// # Errors
    ///
    /// [`TraceError::Invalid`] if the packet violates format rules, and
    /// decompression errors (a content checksum mismatch included) from
    /// inflating the batch that holds it.
    #[allow(clippy::should_implement_trait)]
    pub fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceError> {
        if self.read == self.len {
            return Ok(None);
        }
        self.refill()?;
        // The constructor proved the body is whole packets and `refill`
        // buffered this one, so this read is always in bounds; fail soft
        // instead of panicking regardless.
        let bytes: &[u8; PACKET_BYTES] = self
            .data
            .get(self.pos..self.pos + PACKET_BYTES)
            .and_then(|s| s.first_chunk())
            .ok_or(TraceError::Truncated)?;
        let rec = decode_packet(bytes, self.read as u64)?;
        self.pos += PACKET_BYTES;
        self.read += PACKET_BYTES;
        Ok(Some(rec))
    }

    /// Decodes up to [`BATCH_RECORDS`](crate::sbbt::BATCH_RECORDS) packets
    /// into the columns of `out`, replacing its previous contents, and
    /// returns how many were decoded.
    ///
    /// This is the hot-path entry point of the simulator: one call amortizes
    /// the per-record bounds checks and virtual dispatch of
    /// [`SbbtReader::next_record`] over a whole block, and each packet field
    /// is written straight into its struct-of-arrays column without an
    /// intermediate [`BranchRecord`]. `out` is truncated, never re-zeroed,
    /// and keeps its column allocations between calls, so a caller looping
    /// `fill_batch` performs no allocation after the first block.
    ///
    /// A return value smaller than `BATCH_RECORDS` means the trace is
    /// exhausted; `0` means no records remain.
    ///
    /// # Errors
    ///
    /// [`TraceError::Invalid`] on the first malformed packet, with `out`
    /// holding the records before it and the reader standing at it, as
    /// [`SbbtReader::next_record`] would. Decompression errors (a content
    /// checksum mismatch included) from inflating the batch, with `out`
    /// empty.
    pub fn fill_batch(&mut self, out: &mut BranchBatch) -> Result<usize, TraceError> {
        // A compressed trace inflates its next batch first, outside the
        // decode span: that time is the codec's.
        if let Err(e) = self.refill() {
            out.clear();
            return Err(e);
        }
        // One span + two counter adds per 2048-packet block: the guard drop
        // also covers the error returns, so partially decoded batches are
        // still accounted for, on the timer and the journal alike.
        let stats = &mbp_stats::pipeline().trace;
        let _span = stats.decode.span();
        stats.batches.inc();
        let start = self.pos;
        let end = self.end.min(start + BATCH_BYTES);
        let n = (end - start) / PACKET_BYTES;
        if n < BATCH_RECORDS && self.read + (end - start) < self.len {
            // Only after `next_record` stopped inside a streamed batch: the
            // rest of the batch comes from the next one, record by record.
            return self.fill_batch_by_record(out);
        }
        // Columns are resized once (a no-op at a steady batch size — no
        // per-push capacity checks, no re-zeroing of reused buffers) and
        // every packet's fields are written straight into their lanes,
        // malformed or not: the format rules fold into one flag for the
        // batch, so the loop has no per-packet branch, and the zips over
        // exact-length slices keep it free of bounds checks. Only a batch
        // with a malformed packet is scanned again, for the first one.
        let (pcs, targets, gaps, taken, ops) = out.resize_for_overwrite(n);
        let (packets, _) = self.data[start..end].as_chunks::<PACKET_BYTES>();
        let lanes = pcs.iter_mut().zip(targets).zip(gaps).zip(taken).zip(ops);
        let mut malformed = false;
        for (bytes, ((((pc, target), gap), taken), op)) in packets.iter().zip(lanes) {
            let (p, bad) = decode_packet_raw(bytes);
            *pc = p.ip;
            *target = p.target;
            *gap = p.gap;
            *taken = p.taken as u8;
            *op = p.op_bits;
            malformed |= bad;
        }
        // The cursor is committed once per block (or set to the failing
        // packet), keeping the decode loop free of writes through `self`.
        if malformed {
            if let Some((i, bytes)) = packets
                .iter()
                .enumerate()
                .find(|(_, bytes)| decode_packet_raw(bytes).1)
            {
                let e = malformed_error(bytes, (self.read + i * PACKET_BYTES) as u64);
                self.pos = start + i * PACKET_BYTES;
                self.read += i * PACKET_BYTES;
                // Drop the tail so the batch holds exactly the packets
                // before the failure.
                out.truncate(i);
                stats.packets_decoded.add(i as u64);
                out.debug_assert_aligned();
                return Err(e);
            }
        }
        self.pos = end;
        self.read += end - start;
        stats.packets_decoded.add(n as u64);
        out.debug_assert_aligned();
        Ok(n)
    }

    /// [`SbbtReader::fill_batch`] through [`SbbtReader::next_record`], for
    /// a batch that spans two streamed ones.
    fn fill_batch_by_record(&mut self, out: &mut BranchBatch) -> Result<usize, TraceError> {
        out.clear();
        while out.len() < BATCH_RECORDS {
            match self.next_record()? {
                Some(rec) => out.push_record(&rec),
                None => break,
            }
        }
        Ok(out.len())
    }

    /// Reads every remaining record.
    ///
    /// # Errors
    ///
    /// Propagates the first packet error encountered.
    pub fn read_all(&mut self) -> Result<Vec<BranchRecord>, TraceError> {
        let mut out = Vec::with_capacity(self.remaining() as usize);
        let mut batch = BranchBatch::new();
        while self.fill_batch(&mut batch)? > 0 {
            batch.append_records_to(&mut out);
        }
        Ok(out)
    }
}

/// Checks a header against a trace of `len` bytes (header included).
fn check_length(header: &SbbtHeader, len: usize) -> Result<(), TraceError> {
    let body_len = len - HEADER_BYTES;
    if !body_len.is_multiple_of(PACKET_BYTES) {
        return Err(TraceError::Truncated);
    }
    // Cross-check the declared totals against the actual stream before
    // anything (here or downstream) sizes an allocation from them: a
    // corrupt 192-bit header must never translate into an OOM.
    let actual_branches = (body_len / PACKET_BYTES) as u64;
    if actual_branches != header.branch_count {
        return Err(TraceError::corrupt(
            "branch_count",
            header.branch_count,
            actual_branches,
        ));
    }
    // Every packet accounts for at least one instruction (the branch
    // itself), so a trustworthy header can never declare fewer
    // instructions than branches.
    if header.instruction_count < header.branch_count {
        return Err(TraceError::corrupt(
            "instruction_count",
            header.instruction_count,
            header.branch_count,
        ));
    }
    Ok(())
}

/// Iterates records, yielding `Err` once and then stopping on malformed
/// input.
impl Iterator for SbbtReader {
    type Item = Result<BranchRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => None,
            Err(e) => {
                self.skip_to_end(); // stop iteration after an error
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbbt::SbbtWriter;
    use crate::{Branch, Opcode};

    fn sample_trace(n: usize) -> Vec<u8> {
        let mut w = SbbtWriter::new(Vec::new());
        for i in 0..n {
            let rec = BranchRecord::new(
                Branch::new(
                    0x1000 + 16 * i as u64,
                    0x9000,
                    Opcode::conditional_direct(),
                    i % 3 == 0,
                ),
                i as u32 % 7,
            );
            w.write_record(&rec).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn reads_back_header_and_records() {
        let bytes = sample_trace(10);
        let mut r = SbbtReader::from_bytes(bytes).unwrap();
        assert_eq!(r.header().branch_count, 10);
        assert_eq!(r.remaining(), 10);
        let all = r.read_all().unwrap();
        assert_eq!(all.len(), 10);
        assert_eq!(all[3].branch.ip(), 0x1000 + 48);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn compressed_roundtrip() {
        use mbp_compress::{compress, Codec};
        let bytes = sample_trace(50);
        for codec in [Codec::Mgz, Codec::Mzst] {
            let packed = compress(&bytes, codec, 9).unwrap();
            let mut r = SbbtReader::from_bytes(packed).unwrap();
            assert_eq!(r.read_all().unwrap().len(), 50);
        }
    }

    #[test]
    fn rejects_partial_packet() {
        let mut bytes = sample_trace(3);
        bytes.truncate(bytes.len() - 5);
        assert!(matches!(
            SbbtReader::from_bytes(bytes),
            Err(TraceError::Truncated)
        ));
    }

    #[test]
    fn rejects_count_mismatch() {
        let mut bytes = sample_trace(3);
        // Tamper with the branch count.
        bytes[16] = 99;
        assert!(matches!(
            SbbtReader::from_bytes(bytes),
            Err(TraceError::Corrupt {
                field: "branch_count",
                declared: 99,
                actual: 3,
            })
        ));
    }

    #[test]
    fn rejects_instruction_count_below_branch_count() {
        let mut bytes = sample_trace(3);
        // Zero the instruction count: three packets imply at least three
        // executed instructions, so the header is lying.
        for b in &mut bytes[8..16] {
            *b = 0;
        }
        assert!(matches!(
            SbbtReader::from_bytes(bytes),
            Err(TraceError::Corrupt {
                field: "instruction_count",
                declared: 0,
                actual: 3,
            })
        ));
    }

    #[test]
    fn huge_declared_counts_error_without_allocating() {
        // A corrupt header declaring u64::MAX records must be rejected by
        // the stream-length cross-check, never used to size a buffer.
        let mut bytes = sample_trace(3);
        for b in &mut bytes[16..24] {
            *b = 0xFF;
        }
        assert!(matches!(
            SbbtReader::from_bytes(bytes),
            Err(TraceError::Corrupt {
                field: "branch_count",
                declared: u64::MAX,
                ..
            })
        ));
    }

    #[test]
    fn iterator_stops_after_error() {
        let mut bytes = sample_trace(3);
        // Corrupt the second packet's reserved bits.
        let off = 24 + 16;
        bytes[off] |= 0b0111_0000;
        let r = SbbtReader::from_bytes(bytes).unwrap();
        let items: Vec<_> = r.collect();
        assert_eq!(items.len(), 2, "one good record, one error, then stop");
        assert!(items[0].is_ok());
        assert!(items[1].is_err());
    }

    #[test]
    fn fill_batch_matches_next_record() {
        let n = BATCH_RECORDS + 100; // forces a full block plus a tail
        let bytes = sample_trace(n);
        let mut scalar = SbbtReader::from_bytes(bytes.clone()).unwrap();
        let mut batched = SbbtReader::from_bytes(bytes).unwrap();

        let mut via_batches = Vec::new();
        let mut buf = BranchBatch::new();
        loop {
            let got = batched.fill_batch(&mut buf).unwrap();
            if got == 0 {
                break;
            }
            assert!(got == BATCH_RECORDS || batched.remaining() == 0);
            buf.append_records_to(&mut via_batches);
        }

        let mut via_scalar = Vec::new();
        while let Some(rec) = scalar.next_record().unwrap() {
            via_scalar.push(rec);
        }
        assert_eq!(via_batches, via_scalar);
        assert_eq!(via_batches.len(), n);
    }

    #[test]
    fn rewind_replays_from_the_start() {
        let mut r = SbbtReader::from_bytes(sample_trace(7)).unwrap();
        let first = r.read_all().unwrap();
        assert_eq!(r.remaining(), 0);
        r.rewind();
        assert_eq!(r.remaining(), 7);
        assert_eq!(r.read_all().unwrap(), first);
    }

    #[test]
    fn fill_batch_replaces_buffer_contents() {
        let mut r = SbbtReader::from_bytes(sample_trace(3)).unwrap();
        let mut buf = BranchBatch::new();
        assert_eq!(r.fill_batch(&mut buf).unwrap(), 3);
        assert_eq!(r.fill_batch(&mut buf).unwrap(), 0);
        assert!(buf.is_empty(), "exhausted fill clears the buffer");
    }

    #[test]
    fn fill_batch_decodes_columns() {
        let mut r = SbbtReader::from_bytes(sample_trace(5)).unwrap();
        let mut buf = BranchBatch::new();
        assert_eq!(r.fill_batch(&mut buf).unwrap(), 5);
        buf.debug_assert_aligned();
        assert_eq!(buf.pcs()[3], 0x1000 + 48);
        assert_eq!(buf.gaps()[4], 4);
        assert_eq!(buf.taken()[0], 1); // i % 3 == 0 at i = 0
        assert_eq!(buf.taken()[1], 0);
        assert!(buf.is_conditional(2));
    }

    #[test]
    fn fill_batch_surfaces_packet_errors() {
        let mut bytes = sample_trace(5);
        let off = 24 + 2 * 16;
        bytes[off] |= 0b0111_0000; // corrupt third packet's reserved bits
        let mut r = SbbtReader::from_bytes(bytes).unwrap();
        let mut buf = BranchBatch::new();
        assert!(r.fill_batch(&mut buf).is_err());
        assert_eq!(buf.len(), 2, "records before the error are kept");
    }

    #[test]
    fn fill_batch_fails_where_next_record_does() {
        use mbp_compress::{compress, Codec};
        let n = 2 * BATCH_RECORDS + 100;
        // The first packets of the first batch, its last, and one early in
        // the second batch, raw and compressed.
        for bad in [0, 1, BATCH_RECORDS - 1, BATCH_RECORDS + 3] {
            let mut raw = sample_trace(n);
            raw[HEADER_BYTES + bad * PACKET_BYTES] |= 0b0111_0000; // reserved bits
            let packed = compress(&raw, Codec::Mzst, 3).unwrap();
            for (what, bytes) in [("raw", raw), ("mzst", packed)] {
                let what = format!("{what}, packet {bad}");
                let batch_start = bad / BATCH_RECORDS * BATCH_RECORDS;
                let mut scalar = SbbtReader::from_bytes(bytes.clone()).unwrap();
                let mut before = Vec::new();
                let want = loop {
                    match scalar.next_record() {
                        Ok(Some(rec)) => before.push(rec),
                        Ok(None) => panic!("{what}: not rejected"),
                        Err(e) => break e,
                    }
                };
                let mut batched = SbbtReader::from_bytes(bytes).unwrap();
                let mut buf = BranchBatch::new();
                let got = loop {
                    match batched.fill_batch(&mut buf) {
                        Ok(got) => assert_eq!(got, BATCH_RECORDS, "{what}"),
                        Err(e) => break e,
                    }
                };
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
                let position = (HEADER_BYTES + bad * PACKET_BYTES) as u64;
                assert!(
                    matches!(got, TraceError::Invalid { position: p, .. } if p == position),
                    "{what}: {got:?}"
                );
                let mut kept = Vec::new();
                buf.append_records_to(&mut kept);
                assert_eq!(kept, before[batch_start..], "{what}");
                assert_eq!(batched.remaining(), scalar.remaining(), "{what}");
                assert_eq!(batched.remaining(), (n - bad) as u64, "{what}");
            }
        }
    }

    /// A compressed trace whose checksum trailer has one bit flipped.
    fn flipped_trailer(n: usize) -> Vec<u8> {
        use mbp_compress::{compress, Codec};
        let mut packed = compress(&sample_trace(n), Codec::Mzst, 3).unwrap();
        let last = packed.len() - 1;
        packed[last] ^= 1;
        packed
    }

    fn is_checksum_mismatch(e: &TraceError) -> bool {
        matches!(
            e,
            TraceError::Decompress(mbp_compress::CompressError::Corrupt(
                "content checksum mismatch"
            ))
        )
    }

    #[test]
    fn the_pass_that_reaches_the_end_checks_the_trailer() {
        let n = 3 * BATCH_RECORDS;
        let mut r = SbbtReader::from_bytes(flipped_trailer(n)).unwrap();
        assert_eq!(r.remaining(), n as u64, "open reads only the header");
        let mut buf = BranchBatch::new();
        assert_eq!(r.fill_batch(&mut buf).unwrap(), BATCH_RECORDS);
        // Rewound before the end: the full pass that follows checks it.
        r.rewind();
        let e = r.read_all().unwrap_err();
        assert!(is_checksum_mismatch(&e), "{e:?}");
        assert_eq!(buf.len(), BATCH_RECORDS);
        assert!(r.fill_batch(&mut buf).is_err(), "the failure sticks");
        assert!(buf.is_empty(), "a codec error leaves the batch empty");
    }

    #[test]
    fn drain_checks_the_rest_without_decoding_it() {
        let n = 3 * BATCH_RECORDS + 5;
        // After a batch, after a rewind and from a fresh open.
        let mut r = SbbtReader::from_bytes(flipped_trailer(n)).unwrap();
        let mut buf = BranchBatch::new();
        r.fill_batch(&mut buf).unwrap();
        assert!(is_checksum_mismatch(&r.drain().unwrap_err()));
        let mut r = SbbtReader::from_bytes(flipped_trailer(n)).unwrap();
        r.next_record().unwrap();
        r.rewind();
        assert!(is_checksum_mismatch(&r.drain().unwrap_err()));
        let mut r = SbbtReader::from_bytes(flipped_trailer(n)).unwrap();
        assert!(is_checksum_mismatch(&r.drain().unwrap_err()));

        // A sound trace drains to its end, raw or compressed, and replays
        // whole after a rewind.
        let raw = sample_trace(n);
        let packed = mbp_compress::compress(&raw, mbp_compress::Codec::Mgz, 3).unwrap();
        for bytes in [raw, packed] {
            let mut r = SbbtReader::from_bytes(bytes).unwrap();
            r.next_record().unwrap();
            r.drain().unwrap();
            assert_eq!(r.remaining(), 0);
            assert!(r.next_record().unwrap().is_none());
            r.drain().unwrap();
            r.rewind();
            assert_eq!(r.read_all().unwrap().len(), n);
        }
    }

    #[test]
    fn from_decompressed_rejects_compressed_payload() {
        use mbp_compress::{compress, Codec};
        let packed = compress(&sample_trace(4), Codec::Mzst, 3).unwrap();
        assert!(SbbtReader::from_decompressed(packed).is_err());
    }

    #[test]
    fn empty_trace() {
        let w = SbbtWriter::new(Vec::new());
        let bytes = w.finish().unwrap();
        let mut r = SbbtReader::from_bytes(bytes).unwrap();
        assert_eq!(r.header().branch_count, 0);
        assert!(r.next_record().unwrap().is_none());
    }
}
