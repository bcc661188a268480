//! SBBT writer.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use mbp_compress::{compress, Codec, CompressError};

use crate::sbbt::header::{SbbtHeader, HEADER_BYTES};
use crate::sbbt::packet::encode_packet;
use crate::{BranchRecord, TraceError};

/// Writes SBBT traces.
///
/// The trace is buffered in memory, a header slot followed by the packets,
/// because the header carries the final instruction and branch totals,
/// which are only known once the stream ends. [`finish`](SbbtWriter::finish)
/// fills the slot in and writes the buffer to the sink in one piece,
/// compressed if the writer was made by
/// [`create_compressed`](SbbtWriter::create_compressed).
///
/// # Examples
///
/// ```
/// use mbp_trace::sbbt::SbbtWriter;
/// use mbp_trace::{Branch, BranchRecord, Opcode};
///
/// let mut w = SbbtWriter::new(Vec::new());
/// let rec = BranchRecord::new(
///     Branch::new(0x1000, 0x2000, Opcode::conditional_direct(), true),
///     4,
/// );
/// w.write_record(&rec)?;
/// let bytes = w.finish()?;
/// assert_eq!(bytes.len(), 24 + 16);
/// # Ok::<(), mbp_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct SbbtWriter<W: Write> {
    sink: W,
    /// The header slot, then the packets.
    buf: Vec<u8>,
    /// The codec and level `finish` compresses the trace with, if any.
    codec: Option<(Codec, u32)>,
    branch_count: u64,
    instruction_count: u64,
}

impl SbbtWriter<File> {
    /// Creates a writer for an uncompressed trace file.
    ///
    /// # Errors
    ///
    /// I/O errors creating the file.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, TraceError> {
        Ok(SbbtWriter::new(File::create(path)?))
    }

    /// Creates a writer that compresses the finished trace with `codec` at
    /// `level` and writes it to `path`.
    ///
    /// # Errors
    ///
    /// [`CompressError::BadLevel`] for a level the codec does not have,
    /// before the file is created; I/O errors creating the file.
    pub fn create_compressed<P: AsRef<Path>>(
        path: P,
        codec: Codec,
        level: u32,
    ) -> Result<Self, TraceError> {
        if level == 0 || level > codec.max_level() {
            return Err(CompressError::BadLevel { codec, level }.into());
        }
        Ok(SbbtWriter {
            codec: Some((codec, level)),
            ..SbbtWriter::create(path)?
        })
    }

    /// Finishes the trace like [`finish`](SbbtWriter::finish) and closes
    /// the file.
    ///
    /// # Errors
    ///
    /// Same as [`finish`](SbbtWriter::finish).
    pub fn finish_compressed(self) -> Result<(), TraceError> {
        self.finish().map(drop)
    }
}

impl<W: Write> SbbtWriter<W> {
    /// Creates a writer of an uncompressed trace over any sink.
    pub fn new(sink: W) -> Self {
        Self {
            sink,
            buf: vec![0; HEADER_BYTES],
            codec: None,
            branch_count: 0,
            instruction_count: 0,
        }
    }

    /// Appends one branch record.
    ///
    /// # Errors
    ///
    /// [`TraceError::Unencodable`] for records that do not fit the format.
    pub fn write_record(&mut self, rec: &BranchRecord) -> Result<(), TraceError> {
        let packet = encode_packet(rec)?;
        self.buf.extend_from_slice(&packet);
        self.branch_count += 1;
        self.instruction_count += rec.instructions();
        Ok(())
    }

    /// Branches written so far.
    pub fn branch_count(&self) -> u64 {
        self.branch_count
    }

    /// Instructions accounted for so far (gaps plus branches).
    pub fn instruction_count(&self) -> u64 {
        self.instruction_count
    }

    /// Adds trailing instructions executed after the last branch to the
    /// header's instruction total.
    pub fn add_trailing_instructions(&mut self, count: u64) {
        self.instruction_count += count;
    }

    /// Fills in the header, writes the trace to the sink, compressed if
    /// the writer was made to compress, and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn finish(mut self) -> Result<W, TraceError> {
        let header = SbbtHeader::new(self.instruction_count, self.branch_count);
        self.buf[..HEADER_BYTES].copy_from_slice(&header.encode());
        match self.codec {
            Some((codec, level)) => self.sink.write_all(&compress(&self.buf, codec, level)?)?,
            None => self.sink.write_all(&self.buf)?,
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Branch, Opcode};

    #[test]
    fn counts_instructions() {
        let mut w = SbbtWriter::new(Vec::new());
        for gap in [3u32, 0, 10] {
            w.write_record(&BranchRecord::new(
                Branch::new(0x1000, 0x2000, Opcode::conditional_direct(), true),
                gap,
            ))
            .unwrap();
        }
        w.add_trailing_instructions(5);
        assert_eq!(w.branch_count(), 3);
        // 3 + 0 + 10 gaps + 3 branches + 5 trailing.
        assert_eq!(w.instruction_count(), 21);
        let bytes = w.finish().unwrap();
        let header = SbbtHeader::decode(&bytes).unwrap();
        assert_eq!(header.instruction_count, 21);
        assert_eq!(header.branch_count, 3);
    }

    #[test]
    fn unencodable_record_does_not_corrupt_stream() {
        let mut w = SbbtWriter::new(Vec::new());
        let bad = BranchRecord::new(
            Branch::new(0x1000, 0x2000, Opcode::conditional_direct(), true),
            9999,
        );
        assert!(w.write_record(&bad).is_err());
        assert_eq!(w.branch_count(), 0);
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.len(), 24, "header only");
    }
}
