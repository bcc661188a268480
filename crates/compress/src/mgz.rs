//! MGZ: the gzip-like codec — a 32 KiB window, modest match search, and a
//! bit-by-bit Huffman decoder.

use crate::block;
use crate::lzss::MatchParams;
use crate::Codec;

/// Matches reach at most 32 KiB back, as in DEFLATE.
pub(crate) const WINDOW: usize = 1 << 15;

fn match_params(level: u32) -> MatchParams {
    MatchParams {
        window: WINDOW,
        min_match: 4,
        max_match: 258, // DEFLATE's limit — one reason gzip loses on trace data
        max_chain: (1usize << level).min(256),
        lazy: level >= 4,
        nice_match: 16 + 16 * level as usize,
    }
}

pub(crate) fn compress(data: &[u8], level: u32) -> Vec<u8> {
    block::compress(data, Codec::Mgz.magic(), &match_params(level))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompress;

    #[test]
    fn roundtrip_text() {
        let data = "BT9_SPA_TRACE_FORMAT\n".repeat(500).into_bytes();
        let packed = compress(&data, 6);
        assert!(packed.len() < data.len() / 5);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn window_is_32k() {
        assert_eq!(match_params(6).window, 32768);
    }
}
