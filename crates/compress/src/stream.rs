//! `std::io` adapters so trace readers/writers can be layered over
//! compressed files transparently.

use std::io::{self, Read, Write};

use crate::{compress, decompress, detect, Codec, CompressError};

/// A reader that transparently decompresses its source.
///
/// Mirrors MBPlib's behaviour of accepting traces "compressed with xz, gzip,
/// lz4 or zstd": the source is sniffed for a known magic; raw data passes
/// through unchanged. The whole source is decoded eagerly, because its
/// callers want the whole content at once (the BT9 text the CBP5-style
/// framework parses, [`DecompressReader::into_bytes`]). A reader that walks
/// its content once should drive an [`Inflater`](crate::Inflater) instead,
/// as the SBBT reader does, and hold only the codec window.
///
/// # Examples
///
/// ```
/// use std::io::Read;
/// use mbp_compress::{compress, Codec, DecompressReader};
///
/// let packed = compress(b"branch trace bytes", Codec::Mzst, 3)?;
/// let mut r = DecompressReader::new(std::io::Cursor::new(packed))?;
/// let mut text = String::new();
/// r.read_to_string(&mut text)?;
/// assert_eq!(text, "branch trace bytes");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DecompressReader {
    buf: Vec<u8>,
    pos: usize,
    codec: Option<Codec>,
}

impl DecompressReader {
    /// Reads all of `source`, decompressing it if it starts with a known
    /// codec magic.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `source` and corruption errors from the
    /// codec (as `InvalidData`).
    pub fn new<R: Read>(mut source: R) -> io::Result<Self> {
        let mut raw = Vec::new();
        source.read_to_end(&mut raw)?;
        Self::from_bytes(raw)
    }

    /// Like [`DecompressReader::new`], over an owned buffer.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the buffer has a known magic but is corrupt.
    pub fn from_bytes(raw: Vec<u8>) -> io::Result<Self> {
        let codec = detect(&raw);
        let buf = match codec {
            Some(_) => decompress(&raw).map_err(io::Error::from)?,
            None => raw,
        };
        Ok(Self { buf, pos: 0, codec })
    }

    /// The codec that was detected, or `None` for raw input.
    pub fn codec(&self) -> Option<Codec> {
        self.codec
    }

    /// Total decompressed length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the decompressed content is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Borrows the full decompressed contents.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the reader, returning the decompressed contents.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Read for DecompressReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A writer that buffers everything and compresses on [`finish`].
///
/// [`finish`]: CompressWriter::finish
///
/// # Examples
///
/// ```
/// use std::io::Write;
/// use mbp_compress::{decompress, Codec, CompressWriter};
///
/// let mut w = CompressWriter::new(Vec::new(), Codec::Mgz, 6)?;
/// w.write_all(b"0123456789 0123456789")?;
/// let packed = w.finish()?;
/// assert_eq!(decompress(&packed).unwrap(), b"0123456789 0123456789");
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct CompressWriter<W: Write> {
    sink: W,
    buf: Vec<u8>,
    codec: Codec,
    level: u32,
}

impl<W: Write> CompressWriter<W> {
    /// Creates a compressing writer over `sink`.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` if the level is not valid for the codec.
    pub fn new(sink: W, codec: Codec, level: u32) -> io::Result<Self> {
        if level == 0 || level > codec.max_level() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                CompressError::BadLevel { codec, level },
            ));
        }
        Ok(Self {
            sink,
            buf: Vec::new(),
            codec,
            level,
        })
    }

    /// Compresses the buffered data, writes it to the sink and returns the
    /// sink. Dropping the writer without calling `finish` discards the data.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish(mut self) -> io::Result<W> {
        let packed = compress(&self.buf, self.codec, self.level).map_err(io::Error::from)?;
        self.sink.write_all(&packed)?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// Bytes buffered so far (uncompressed).
    pub fn buffered_len(&self) -> usize {
        self.buf.len()
    }
}

impl<W: Write> Write for CompressWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_passthrough() {
        let mut r = DecompressReader::new(&b"plain text"[..]).unwrap();
        assert_eq!(r.codec(), None);
        let mut s = String::new();
        r.read_to_string(&mut s).unwrap();
        assert_eq!(s, "plain text");
    }

    #[test]
    fn writer_reader_roundtrip() {
        for codec in [Codec::Mgz, Codec::Mzst] {
            let mut w = CompressWriter::new(Vec::new(), codec, 3).unwrap();
            let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
            w.write_all(&payload).unwrap();
            let packed = w.finish().unwrap();
            let mut r = DecompressReader::new(&packed[..]).unwrap();
            assert_eq!(r.codec(), Some(codec));
            let mut back = Vec::new();
            r.read_to_end(&mut back).unwrap();
            assert_eq!(back, payload);
        }
    }

    #[test]
    fn partial_reads() {
        let packed = compress(b"hello world, hello world", Codec::Mzst, 1).unwrap();
        let mut r = DecompressReader::new(&packed[..]).unwrap();
        let mut chunk = [0u8; 5];
        r.read_exact(&mut chunk).unwrap();
        assert_eq!(&chunk, b"hello");
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b" world, hello world");
    }

    #[test]
    fn corrupt_input_is_io_error() {
        let mut packed = compress(b"hello hello hello hello", Codec::Mgz, 2).unwrap();
        packed.truncate(10);
        let err = DecompressReader::new(&packed[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn writer_rejects_bad_level() {
        assert!(CompressWriter::new(Vec::new(), Codec::Mgz, 0).is_err());
        assert!(CompressWriter::new(Vec::new(), Codec::Mzst, 23).is_err());
    }
}
