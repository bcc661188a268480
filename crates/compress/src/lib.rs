//! Trace compression codecs for MBPlib.
//!
//! The paper distributes SBBT traces compressed with zstandard and lets the
//! simulator decompress them on the fly; the original CBP5 traces shipped
//! gzip-compressed (§IV, §VII-D). Neither binding is available offline, so
//! this crate implements two codecs from scratch that preserve the
//! *structural* difference the paper's evaluation depends on:
//!
//! * [`Codec::Mgz`] — LZSS matches entropy-coded with canonical Huffman
//!   codes over a 32 KiB window, decoded **bit by bit**. Like gzip/DEFLATE:
//!   decent ratio, slow decoder.
//! * [`Codec::Mzst`] — the same coding family over a 1 MiB window with
//!   deeper, level-scaled match search, decoded with a **flat lookup
//!   table** (one peek per symbol). Like zstd: better ratio (the window),
//!   much faster decoding (the table), and — crucially for Table IV — a
//!   decode speed that does not depend on the compression level used.
//!
//! Both codecs share the same hash-chain match finder (`lzss` internally),
//! one resumable decoder ([`Inflater`]) and a common framing: a 4-byte
//! magic, the uncompressed size, and a sequence of self-describing blocks. [`decompress`] auto-detects the codec
//! from the magic, mirroring MBPlib's ability to read traces compressed with
//! any of its supported algorithms.
//!
//! # Examples
//!
//! ```
//! use mbp_compress::{compress, decompress, Codec};
//!
//! let data = b"abcabcabcabcABCabcabcabc".to_vec();
//! let packed = compress(&data, Codec::Mzst, 19)?;
//! assert_eq!(decompress(&packed)?, data);
//! # Ok::<(), mbp_compress::CompressError>(())
//! ```

mod block;
mod entropy;
mod error;
mod inflate;
mod lzss;
mod mgz;
mod mzst;
mod stream;

pub use error::CompressError;
pub use inflate::Inflater;
pub use stream::{CompressWriter, DecompressReader};

/// The compression algorithms understood by the trace tooling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Codec {
    /// LZSS + canonical Huffman (gzip-like). Levels 1..=9.
    Mgz,
    /// Byte-aligned LZ (zstd-like). Levels 1..=22.
    Mzst,
}

impl Codec {
    /// The 4-byte magic that opens a compressed stream of this codec.
    pub fn magic(self) -> [u8; 4] {
        match self {
            Codec::Mgz => *b"MGZ1",
            Codec::Mzst => *b"MZS1",
        }
    }

    /// The highest supported compression level.
    pub fn max_level(self) -> u32 {
        match self {
            Codec::Mgz => 9,
            Codec::Mzst => 22,
        }
    }

    /// How far back a match may reach. A decoder that streams the content
    /// must keep this many of the latest output bytes; matches reaching
    /// further are corrupt.
    pub fn window(self) -> usize {
        match self {
            Codec::Mgz => mgz::WINDOW,
            Codec::Mzst => mzst::WINDOW,
        }
    }

    /// File-name extension conventionally used for this codec.
    pub fn extension(self) -> &'static str {
        match self {
            Codec::Mgz => "mgz",
            Codec::Mzst => "mzst",
        }
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Codec::Mgz => "mgz",
            Codec::Mzst => "mzst",
        })
    }
}

/// Identifies the codec of a compressed buffer from its magic bytes.
///
/// Returns `None` for raw (uncompressed) data.
pub fn detect(data: &[u8]) -> Option<Codec> {
    if data.starts_with(&Codec::Mgz.magic()) {
        Some(Codec::Mgz)
    } else if data.starts_with(&Codec::Mzst.magic()) {
        Some(Codec::Mzst)
    } else {
        None
    }
}

/// Compresses `data` with the given codec and level.
///
/// # Errors
///
/// Returns [`CompressError::BadLevel`] if `level` is zero or above the
/// codec's [`max_level`](Codec::max_level).
pub fn compress(data: &[u8], codec: Codec, level: u32) -> Result<Vec<u8>, CompressError> {
    if level == 0 || level > codec.max_level() {
        return Err(CompressError::BadLevel { codec, level });
    }
    Ok(match codec {
        Codec::Mgz => mgz::compress(data, level),
        Codec::Mzst => mzst::compress(data, level),
    })
}

/// Decompresses a buffer produced by [`compress`], auto-detecting the codec.
///
/// This drains an [`Inflater`] in one call into a buffer sized from the
/// (capped) declared length; use the `Inflater` directly to hold only the
/// codec window instead of the whole content.
///
/// # Errors
///
/// Returns [`CompressError::BadMagic`] if the buffer does not start with a
/// known magic, or a corruption error if the stream is malformed.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut inflater = Inflater::new(data)?;
    let mut out = vec![0; inflater.declared_len()];
    inflater.inflate_into(&mut out, 0, usize::MAX)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_utils::Xorshift64;

    fn trace_like_data(n: usize) -> Vec<u8> {
        // Synthetic SBBT-like content: repeating 16-byte records drawn from a
        // small working set of "branches", exercising realistic match
        // structure instead of pure noise.
        let mut rng = Xorshift64::new(42);
        let branches: Vec<[u8; 16]> = (0..64)
            .map(|_| {
                let mut r = [0u8; 16];
                for chunk in r.chunks_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
                }
                r
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let b = &branches[rng.below(branches.len() as u64) as usize];
            out.extend_from_slice(b);
        }
        out.truncate(n);
        out
    }

    #[test]
    fn roundtrip_both_codecs() {
        let data = trace_like_data(100_000);
        for (codec, level) in [(Codec::Mgz, 6), (Codec::Mzst, 19)] {
            let packed = compress(&data, codec, level).unwrap();
            assert!(packed.len() < data.len() / 2, "{codec} ratio too poor");
            assert_eq!(decompress(&packed).unwrap(), data, "{codec} roundtrip");
        }
    }

    #[test]
    fn empty_input() {
        for codec in [Codec::Mgz, Codec::Mzst] {
            let packed = compress(&[], codec, 1).unwrap();
            assert_eq!(decompress(&packed).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn incompressible_input_survives() {
        let mut rng = Xorshift64::new(7);
        let data: Vec<u8> = (0..50_000).map(|_| rng.next_u64() as u8).collect();
        for codec in [Codec::Mgz, Codec::Mzst] {
            let packed = compress(&data, codec, 3).unwrap();
            assert_eq!(decompress(&packed).unwrap(), data);
            // Expansion must be bounded (raw-block fallback).
            assert!(packed.len() < data.len() + data.len() / 8 + 64);
        }
    }

    #[test]
    fn rejects_bad_level() {
        assert!(matches!(
            compress(b"x", Codec::Mgz, 0),
            Err(CompressError::BadLevel { .. })
        ));
        assert!(compress(b"x", Codec::Mgz, 10).is_err());
        assert!(compress(b"x", Codec::Mzst, 23).is_err());
        assert!(compress(b"x", Codec::Mzst, 22).is_ok());
    }

    #[test]
    fn rejects_unknown_magic() {
        assert!(matches!(
            decompress(b"NOPE1234"),
            Err(CompressError::BadMagic)
        ));
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn detect_identifies_codecs() {
        let a = compress(b"hello", Codec::Mgz, 1).unwrap();
        let b = compress(b"hello", Codec::Mzst, 1).unwrap();
        assert_eq!(detect(&a), Some(Codec::Mgz));
        assert_eq!(detect(&b), Some(Codec::Mzst));
        assert_eq!(detect(b"hello"), None);
    }

    #[test]
    fn truncated_streams_error_not_panic() {
        let data = trace_like_data(10_000);
        for codec in [Codec::Mgz, Codec::Mzst] {
            let packed = compress(&data, codec, 5).unwrap();
            for cut in [4, 8, 12, packed.len() / 2, packed.len() - 1] {
                assert!(
                    decompress(&packed[..cut]).is_err(),
                    "{codec} truncated at {cut} should error"
                );
            }
        }
    }

    #[test]
    fn higher_level_not_worse_ratio() {
        let data = trace_like_data(200_000);
        for codec in [Codec::Mgz, Codec::Mzst] {
            let low = compress(&data, codec, 1).unwrap().len();
            let high = compress(&data, codec, codec.max_level()).unwrap().len();
            assert!(
                high <= low + low / 50,
                "{codec}: level {} gave {high}B vs level 1 {low}B",
                codec.max_level()
            );
        }
    }

    #[test]
    fn checksum_catches_content_corruption() {
        // Real gzip/zstd carry CRC32/XXH64 trailers for exactly this: a bit
        // flip that still decodes structurally must not yield wrong data.
        let data = trace_like_data(20_000);
        for codec in [Codec::Mgz, Codec::Mzst] {
            let packed = compress(&data, codec, 5).unwrap();
            let mut flips = 0;
            let mut caught = 0;
            for pos in (12..packed.len()).step_by(97) {
                let mut bad = packed.clone();
                bad[pos] ^= 0x10;
                flips += 1;
                match decompress(&bad) {
                    Err(_) => caught += 1,
                    Ok(out) => {
                        assert_eq!(out, data, "{codec}: silent wrong output at byte {pos}");
                        caught += 1; // flip landed in dead padding bits
                    }
                }
            }
            assert_eq!(flips, caught, "{codec}");
        }
    }

    #[test]
    fn checksum_trailer_is_present_and_checked() {
        let data = b"checksum me, please, twelve times over".repeat(12);
        let mut packed = compress(&data, Codec::Mzst, 9).unwrap();
        let last = packed.len() - 1;
        packed[last] ^= 0xFF;
        assert!(matches!(
            decompress(&packed),
            Err(CompressError::Corrupt("content checksum mismatch"))
        ));
    }

    // Deterministic property sweeps (offline stand-in for proptest).

    #[test]
    fn roundtrip_arbitrary_bytes() {
        let mut rng = Xorshift64::new(0xa5b1_0001);
        for case in 0..64u32 {
            let n = rng.below(4096) as usize;
            let data: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            let mzst_level = 1 + case % 22;
            let packed = compress(&data, Codec::Mzst, mzst_level).unwrap();
            assert_eq!(decompress(&packed).unwrap(), data);
            let packed = compress(&data, Codec::Mgz, 1 + mzst_level % 9).unwrap();
            assert_eq!(decompress(&packed).unwrap(), data);
        }
    }

    #[test]
    fn roundtrip_repetitive() {
        let mut rng = Xorshift64::new(0xa5b1_0002);
        let alphabet = [b'a', b'b', b'c', b'd'];
        for _ in 0..24 {
            let n = rng.below(20_000) as usize;
            let data: Vec<u8> = (0..n).map(|_| alphabet[rng.below(4) as usize]).collect();
            for codec in [Codec::Mgz, Codec::Mzst] {
                let packed = compress(&data, codec, 4).unwrap();
                assert_eq!(&decompress(&packed).unwrap(), &data);
            }
        }
    }
}
