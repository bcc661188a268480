//! Shared block container: both codecs store a magic, the uncompressed
//! size, and a sequence of raw or entropy-coded blocks; they differ in
//! window size, match-search effort and decoder implementation. This module
//! holds the encoder and the framing both sides share; the one decoder is
//! [`crate::Inflater`].

use crate::entropy::{
    canonical_codes, dist_code, huffman_lengths, len_code, BitWriter, DIST_TABLE, EOB, LEN_TABLE,
    NUM_DIST, NUM_LITLEN,
};
use crate::lzss::{self, MatchParams, Sequence};
use std::hint::black_box;

/// Sequences per entropy-coded block.
const BLOCK_SEQS: usize = 1 << 16;

/// Match-finder chunk size: inputs are parsed in independent chunks so the
/// `prev` chain array stays bounded on multi-hundred-megabyte traces.
/// Matches never cross a chunk boundary (the window restarts), but decoded
/// distances remain valid globally because the decoder appends chunks to
/// one output stream.
const PARSE_CHUNK: usize = 4 << 20;

/// Bytes before the first block: the 4-byte magic and the little-endian
/// `u64` uncompressed size.
pub(crate) const FRAME_HEADER: usize = 12;

/// Upper bound on how many output bytes one compressed input byte can
/// yield: a match symbol costs at least two bits (one literal/length code
/// bit plus one distance code bit) and emits at most the 2179-byte maximum
/// match, so eight input bits can never produce more than four maximal
/// matches. Any header declaring more than this is corrupt, and no `Vec`
/// reservation is ever sized beyond it.
pub(crate) const MAX_EXPANSION: u64 = 4 * 2179;

/// Little-endian `u64` from the first 8 bytes of `bytes` (zero-padded when
/// shorter) — panic-free on any input length.
#[inline]
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(buf)
}

/// Little-endian `u32` from the first 4 bytes of `bytes` (zero-padded when
/// shorter).
#[inline]
pub(crate) fn le_u32(bytes: &[u8]) -> u32 {
    let mut buf = [0u8; 4];
    let n = bytes.len().min(4);
    buf[..n].copy_from_slice(&bytes[..n]);
    u32::from_le_bytes(buf)
}

/// Content checksum over the uncompressed bytes (8-byte chunks through the
/// splitmix finalizer) — the analogue of gzip's CRC32 / zstd's XXH64
/// trailer, so silent corruption cannot masquerade as valid trace data.
pub(crate) fn checksum64(data: &[u8]) -> u64 {
    let mut sum = Checksum::new(data.len() as u64);
    sum.update(data);
    sum.finish()
}

/// [`checksum64`] computed incrementally, so a decoder that never holds
/// the whole content can still check the trailer. Feeding the content in
/// any split gives the same value as one call over all of it, provided
/// `len` is its total length.
pub(crate) struct Checksum {
    lanes: [u64; 4],
    /// Bytes not yet folded into the lanes (fewer than one 32-byte block).
    tail: [u8; 32],
    tail_len: usize,
}

#[inline(always)]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Folds whole 32-byte blocks into the lanes. Four independent lanes keep
/// the multiply chains out of each other's way (the same trick XXH64
/// uses); they fold together in [`Checksum::finish`].
///
/// Two lanes pass through `black_box`, which stops the optimizer from
/// packing the lanes into SSE2 vectors: there a 64-bit multiply costs
/// three 32-bit ones, and the packed loop took 7 ms per 16 MB against
/// 4 ms for the scalar one (2-core Xeon, release build).
fn fold_blocks(lanes: &mut [u64; 4], data: &[u8]) {
    let [mut a, mut b, mut c, mut d] = *lanes;
    for block in data.chunks_exact(32) {
        a = mix(a ^ le_u64(&block[0..]));
        b = black_box(mix(b ^ le_u64(&block[8..])));
        c = mix(c ^ le_u64(&block[16..]));
        d = black_box(mix(d ^ le_u64(&block[24..])));
    }
    *lanes = [a, b, c, d];
}

impl Checksum {
    pub(crate) fn new(len: u64) -> Self {
        Self {
            lanes: [
                0x5ee5_c0de_u64 ^ len,
                0x9e37_79b9_7f4a_7c15,
                0xbf58_476d_1ce4_e5b9,
                0x94d0_49bb_1331_11eb,
            ],
            tail: [0; 32],
            tail_len: 0,
        }
    }

    pub(crate) fn update(&mut self, mut data: &[u8]) {
        if self.tail_len > 0 {
            let take = (32 - self.tail_len).min(data.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len < 32 {
                return;
            }
            fold_blocks(&mut self.lanes, &self.tail);
            self.tail_len = 0;
        }
        let whole = data.len() - data.len() % 32;
        fold_blocks(&mut self.lanes, &data[..whole]);
        let rest = &data[whole..];
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    pub(crate) fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = mix(a ^ b.rotate_left(17) ^ c.rotate_left(31) ^ d.rotate_left(47));
        let mut chunks = self.tail[..self.tail_len].chunks_exact(8);
        for c in &mut chunks {
            h = mix(h ^ le_u64(c));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            h = mix(h ^ le_u64(rest));
        }
        h
    }
}

pub(crate) fn compress(data: &[u8], magic: [u8; 4], params: &MatchParams) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 3 + 64);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    // Empty input needs no blocks: the decoder stops at size 0 and goes
    // straight to the checksum trailer.
    for chunk in data.chunks(PARSE_CHUNK) {
        let seqs = lzss::parse(chunk, params);
        for block in seqs.chunks(BLOCK_SEQS) {
            encode_block(chunk, block, &mut out);
        }
    }
    out.extend_from_slice(&checksum64(data).to_le_bytes());
    out
}

fn encode_block(data: &[u8], seqs: &[Sequence], out: &mut Vec<u8>) {
    let mut lit_freq = vec![0u64; NUM_LITLEN];
    let mut dist_freq = vec![0u64; NUM_DIST];
    let mut raw_bytes = 0usize;
    for s in seqs {
        for &b in &data[s.lit_start..s.lit_start + s.lit_len] {
            lit_freq[b as usize] += 1;
        }
        raw_bytes += s.lit_len + s.match_len;
        if s.match_len > 0 {
            lit_freq[257 + len_code(s.match_len)] += 1;
            dist_freq[dist_code(s.match_dist)] += 1;
        }
    }
    lit_freq[EOB] += 1;

    let lit_lens = huffman_lengths(&lit_freq);
    let dist_lens = huffman_lengths(&dist_freq);
    let lit_codes = canonical_codes(&lit_lens);
    let dist_codes = canonical_codes(&dist_lens);

    // Encode into a scratch buffer so we can fall back to a raw block.
    let mut w = BitWriter::new(Vec::new());
    for lens in [&lit_lens, &dist_lens] {
        for &l in lens.iter() {
            w.put(l as u64, 4);
        }
    }
    for s in seqs {
        for &b in &data[s.lit_start..s.lit_start + s.lit_len] {
            w.put_code(lit_codes[b as usize], lit_lens[b as usize]);
        }
        if s.match_len > 0 {
            let lc = len_code(s.match_len);
            let sym = 257 + lc;
            w.put_code(lit_codes[sym], lit_lens[sym]);
            let (base, extra) = LEN_TABLE[lc];
            if extra > 0 {
                w.put((s.match_len as u32 - base) as u64, extra);
            }
            let dc = dist_code(s.match_dist);
            w.put_code(dist_codes[dc], dist_lens[dc]);
            let (dbase, dextra) = DIST_TABLE[dc];
            if dextra > 0 {
                w.put((s.match_dist as u32 - dbase) as u64, dextra);
            }
        }
    }
    w.put_code(lit_codes[EOB], lit_lens[EOB]);
    let encoded = w.finish();

    if encoded.len() >= raw_bytes + 4 {
        out.push(0);
        out.extend_from_slice(&(raw_bytes as u32).to_le_bytes());
        let start = seqs.first().map_or(0, |s| s.lit_start);
        out.extend_from_slice(&data[start..start + raw_bytes]);
    } else {
        out.push(1);
        out.extend_from_slice(&encoded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_utils::Xorshift64;

    #[test]
    fn checksum_is_the_same_in_any_split() {
        let mut rng = Xorshift64::new(0xc5c5_0001);
        let data: Vec<u8> = (0..1000).map(|_| rng.next_u64() as u8).collect();
        for len in [0, 1, 7, 8, 31, 32, 33, 63, 64, 65, 999, 1000] {
            let whole = checksum64(&data[..len]);
            for step in [1, 3, 8, 31, 32, 33, 100] {
                let mut sum = Checksum::new(len as u64);
                for piece in data[..len].chunks(step) {
                    sum.update(piece);
                }
                assert_eq!(sum.finish(), whole, "len {len} step {step}");
            }
        }
    }
}
