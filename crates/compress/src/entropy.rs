//! Shared entropy-coding layer: bit I/O, canonical Huffman codes, and the
//! two decoder implementations that differentiate the codecs.
//!
//! MGZ decodes Huffman symbols bit by bit (the DEFLATE-era approach);
//! MZST builds a flat lookup table per block and decodes each symbol with a
//! single peek (the zstd/FSE-era approach). Same code space, very
//! different decode speed — which is the point (§VII-D).

use crate::error::CompressError;

/// Maximum canonical code length supported by both decoders.
pub(crate) const MAX_CODE_LEN: u32 = 15;

/// Number of match-length codes.
pub(crate) const NUM_LEN_CODES: usize = 20;
/// Literal/length alphabet: 256 literals + EOB + length codes.
pub(crate) const NUM_LITLEN: usize = 257 + NUM_LEN_CODES;
/// End-of-block symbol.
pub(crate) const EOB: usize = 256;
/// Number of distance codes (covers distances up to 2^20).
pub(crate) const NUM_DIST: usize = 40;

/// `(base, extra_bits)` per length code, for match lengths starting at 4.
pub(crate) const LEN_TABLE: [(u32, u32); NUM_LEN_CODES] = [
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 1),
    (10, 1),
    (12, 2),
    (16, 2),
    (20, 3),
    (28, 3),
    (36, 4),
    (52, 4),
    (68, 5),
    (100, 5),
    (132, 6),
    (196, 6),
    (260, 7),
    (388, 8),
    (644, 9),
    (1156, 10),
];

const fn dist_table() -> [(u32, u32); NUM_DIST] {
    let mut t = [(0u32, 0u32); NUM_DIST];
    let mut base = 1u32;
    let mut i = 0;
    while i < NUM_DIST {
        let extra = if i < 4 { 0 } else { (i as u32 - 2) / 2 };
        t[i] = (base, extra);
        base += 1 << extra;
        i += 1;
    }
    t
}

/// `(base, extra_bits)` per distance code.
pub(crate) const DIST_TABLE: [(u32, u32); NUM_DIST] = dist_table();

pub(crate) fn len_code(len: usize) -> usize {
    debug_assert!((4..=2179).contains(&len));
    let mut code = NUM_LEN_CODES - 1;
    for (i, &(base, _)) in LEN_TABLE.iter().enumerate() {
        if (len as u32) < base {
            code = i - 1;
            break;
        }
    }
    code
}

pub(crate) fn dist_code(dist: usize) -> usize {
    debug_assert!((1..=(1 << 20)).contains(&dist));
    let mut code = NUM_DIST - 1;
    for (i, &(base, _)) in DIST_TABLE.iter().enumerate() {
        if (dist as u32) < base {
            code = i - 1;
            break;
        }
    }
    code
}

// ---------------------------------------------------------------- bit I/O

pub(crate) struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    pub(crate) fn new(out: Vec<u8>) -> Self {
        Self {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    /// Writes `n` bits of `v`, LSB of `v` first.
    pub(crate) fn put(&mut self, v: u64, n: u32) {
        debug_assert!(n <= 57);
        self.acc |= v << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Writes a Huffman code MSB-first so decoders can walk it bitwise.
    pub(crate) fn put_code(&mut self, code: u32, len: u32) {
        for i in (0..len).rev() {
            self.put(((code >> i) & 1) as u64, 1);
        }
    }

    /// Pads to a byte boundary and returns the buffer.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push(self.acc as u8);
        }
        self.out
    }
}

pub(crate) struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

/// A [`BitReader`]'s cursor, saved so a suspended decode can resume it
/// over the same data.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BitPos {
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    #[cfg(test)]
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self::at(data, 0)
    }

    /// A reader over `data` starting at byte `pos`.
    pub(crate) fn at(data: &'a [u8], pos: usize) -> Self {
        Self {
            data,
            pos,
            acc: 0,
            nbits: 0,
        }
    }

    /// A reader over `data` continuing from a saved cursor.
    pub(crate) fn resume(data: &'a [u8], at: BitPos) -> Self {
        Self {
            data,
            pos: at.pos,
            acc: at.acc,
            nbits: at.nbits,
        }
    }

    /// The cursor, for [`BitReader::resume`].
    pub(crate) fn save(&self) -> BitPos {
        BitPos {
            pos: self.pos,
            acc: self.acc,
            nbits: self.nbits,
        }
    }

    pub(crate) fn get(&mut self, n: u32) -> Result<u64, CompressError> {
        while self.nbits < n {
            let byte = *self.data.get(self.pos).ok_or(CompressError::Truncated)?;
            self.acc |= (byte as u64) << self.nbits;
            self.nbits += 8;
            self.pos += 1;
        }
        let v = self.acc & ((1u64 << n) - 1);
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    pub(crate) fn get_bit(&mut self) -> Result<u32, CompressError> {
        Ok(self.get(1)? as u32)
    }

    /// Peeks up to `n` bits without consuming; bits beyond the end of the
    /// stream read as zero (the caller validates the decoded length).
    pub(crate) fn peek(&mut self, n: u32) -> u64 {
        while self.nbits < n && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u64) << self.nbits;
            self.nbits += 8;
            self.pos += 1;
        }
        self.acc & ((1u64 << n) - 1)
    }

    /// Consumes `n` previously peeked bits.
    ///
    /// # Errors
    ///
    /// [`CompressError::Truncated`] if fewer than `n` bits remain.
    pub(crate) fn consume(&mut self, n: u32) -> Result<(), CompressError> {
        if self.nbits < n {
            return Err(CompressError::Truncated);
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }

    /// Discards buffered sub-byte bits so the cursor is byte-aligned.
    ///
    /// Whole buffered bytes are returned to the logical stream position.
    pub(crate) fn align(&mut self) {
        // Bits still buffered belong to bytes already pulled from `data`;
        // give whole ones back.
        let whole = (self.nbits / 8) as usize;
        self.pos -= whole;
        self.acc = 0;
        self.nbits = 0;
    }

    pub(crate) fn byte_pos(&self) -> usize {
        self.pos
    }
}

// ---------------------------------------------------------------- Huffman

/// Computes length-limited Huffman code lengths for `freqs` (zlib-style
/// frequency flattening until the limit holds).
pub(crate) fn huffman_lengths(freqs: &[u64]) -> Vec<u32> {
    let mut freqs = freqs.to_vec();
    loop {
        let lens = huffman_lengths_unlimited(&freqs);
        if lens.iter().all(|&l| l <= MAX_CODE_LEN) {
            return lens;
        }
        for f in &mut freqs {
            if *f > 0 {
                *f = (*f >> 2) | 1;
            }
        }
    }
}

fn huffman_lengths_unlimited(freqs: &[u64]) -> Vec<u32> {
    let n = freqs.len();
    let live: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    let mut lens = vec![0u32; n];
    match live.len() {
        0 => return lens,
        1 => {
            lens[live[0]] = 1;
            return lens;
        }
        _ => {}
    }
    let mut heap = std::collections::BinaryHeap::new();
    let mut parents: Vec<Option<usize>> = vec![None; live.len()];
    for (node, &sym) in live.iter().enumerate() {
        heap.push(std::cmp::Reverse((freqs[sym], node)));
    }
    // The loop guard proves two pops succeed; the `else` keeps the function
    // total (and panic-free) even if that invariant ever breaks.
    while heap.len() > 1 {
        let (Some(std::cmp::Reverse((fa, a))), Some(std::cmp::Reverse((fb, b)))) =
            (heap.pop(), heap.pop())
        else {
            break;
        };
        let parent = parents.len();
        parents.push(None);
        parents[a] = Some(parent);
        parents[b] = Some(parent);
        heap.push(std::cmp::Reverse((fa + fb, parent)));
    }
    for (node, &sym) in live.iter().enumerate() {
        let mut depth = 0;
        let mut cur = node;
        while let Some(p) = parents[cur] {
            depth += 1;
            cur = p;
        }
        lens[sym] = depth;
    }
    lens
}

/// Assigns canonical codes (increasing by length, then symbol).
pub(crate) fn canonical_codes(lens: &[u32]) -> Vec<u32> {
    let mut count = [0u32; (MAX_CODE_LEN + 1) as usize];
    for &l in lens {
        count[l as usize] += 1;
    }
    // Absent symbols (length 0) take no code space.
    count[0] = 0;
    let mut next = [0u32; (MAX_CODE_LEN + 1) as usize];
    let mut code = 0u32;
    for len in 1..=MAX_CODE_LEN as usize {
        code = (code + count[len - 1]) << 1;
        next[len] = code;
    }
    lens.iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next[l as usize];
                next[l as usize] += 1;
                c
            }
        })
        .collect()
}

fn validate_lengths(lens: &[u32]) -> Result<[u32; (MAX_CODE_LEN + 1) as usize], CompressError> {
    let mut count = [0u32; (MAX_CODE_LEN + 1) as usize];
    for &l in lens {
        if l > MAX_CODE_LEN {
            return Err(CompressError::Corrupt("code length too large"));
        }
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut code = 0u32;
    for len in 1..=MAX_CODE_LEN as usize {
        code = (code + count[len - 1]) << 1;
        if code + count[len] > (1u32 << len) {
            return Err(CompressError::Corrupt("over-subscribed Huffman code"));
        }
    }
    Ok(count)
}

/// A symbol decoder over a canonical code.
pub(crate) trait SymbolDecoder: Sized {
    /// Builds the decoder from code lengths.
    fn build(lens: &[u32]) -> Result<Self, CompressError>;

    /// Decodes one symbol.
    fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, CompressError>;
}

/// Bit-by-bit canonical decoding (the gzip-era decoder used by MGZ).
pub(crate) struct BitwiseDecoder {
    first_code: [u32; (MAX_CODE_LEN + 1) as usize],
    count: [u32; (MAX_CODE_LEN + 1) as usize],
    index: [u32; (MAX_CODE_LEN + 1) as usize],
    symbols: Vec<u16>,
}

impl SymbolDecoder for BitwiseDecoder {
    fn build(lens: &[u32]) -> Result<Self, CompressError> {
        let count = validate_lengths(lens)?;
        let mut index = [0u32; (MAX_CODE_LEN + 1) as usize];
        let mut first_code = [0u32; (MAX_CODE_LEN + 1) as usize];
        let mut code = 0u32;
        let mut idx = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
            index[len] = idx;
            idx += count[len];
        }
        let mut by_len: Vec<(u32, u16)> = lens
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0)
            .map(|(s, &l)| (l, s as u16))
            .collect();
        by_len.sort_unstable();
        Ok(Self {
            first_code,
            count,
            index,
            symbols: by_len.into_iter().map(|(_, s)| s).collect(),
        })
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, CompressError> {
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | r.get_bit()?;
            let cnt = self.count[len];
            if cnt > 0 && code >= self.first_code[len] && code - self.first_code[len] < cnt {
                let i = self.index[len] + (code - self.first_code[len]);
                return Ok(self.symbols[i as usize]);
            }
        }
        Err(CompressError::Corrupt("invalid Huffman code"))
    }
}

/// Table-driven decoding (the zstd-era decoder used by MZST): one peek and
/// one lookup per symbol.
pub(crate) struct TableDecoder {
    /// `(len << 16) | symbol`, indexed by the next `MAX_CODE_LEN` bits
    /// (MSB-first code in the high bits).
    table: Vec<u32>,
}

impl SymbolDecoder for TableDecoder {
    fn build(lens: &[u32]) -> Result<Self, CompressError> {
        validate_lengths(lens)?;
        let codes = canonical_codes(lens);
        let mut table = vec![0u32; 1 << MAX_CODE_LEN];
        for (sym, (&len, &code)) in lens.iter().zip(codes.iter()).enumerate() {
            if len == 0 {
                continue;
            }
            let shift = MAX_CODE_LEN - len;
            let start = (code << shift) as usize;
            let entry = (len << 16) | sym as u32;
            for slot in &mut table[start..start + (1usize << shift)] {
                *slot = entry;
            }
        }
        Ok(Self { table })
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, CompressError> {
        // The bit stream is LSB-first per byte but codes are written
        // MSB-first, so reverse the peeked window to rebuild the code.
        let peeked = r.peek(MAX_CODE_LEN);
        let key = (peeked as u16).reverse_bits() >> (16 - MAX_CODE_LEN);
        let entry = self.table[key as usize];
        let len = entry >> 16;
        if len == 0 {
            return Err(CompressError::Corrupt("invalid Huffman code"));
        }
        r.consume(len)?;
        Ok(entry as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_code_buckets() {
        assert_eq!(len_code(4), 0);
        assert_eq!(len_code(7), 3);
        assert_eq!(len_code(8), 4);
        assert_eq!(len_code(9), 4);
        assert_eq!(len_code(10), 5);
        assert_eq!(len_code(1024), 18);
        for (i, &(base, _)) in LEN_TABLE.iter().enumerate() {
            assert_eq!(len_code(base as usize), i);
        }
    }

    #[test]
    fn dist_code_buckets() {
        assert_eq!(dist_code(1), 0);
        assert_eq!(dist_code(4), 3);
        assert_eq!(dist_code(5), 4);
        assert_eq!(dist_code(6), 4);
        assert_eq!(dist_code(7), 5);
        for (i, &(base, extra)) in DIST_TABLE.iter().enumerate() {
            assert_eq!(dist_code(base as usize), i);
            assert_eq!(dist_code((base + (1 << extra) - 1) as usize), i);
        }
    }

    #[test]
    fn dist_table_covers_megabyte_window() {
        let (base, extra) = DIST_TABLE[NUM_DIST - 1];
        assert!(base as usize + ((1usize << extra) - 1) >= 1 << 20);
    }

    #[test]
    fn huffman_single_symbol() {
        let mut freqs = vec![0u64; 10];
        freqs[3] = 100;
        let lens = huffman_lengths(&freqs);
        assert_eq!(lens[3], 1);
        assert!(lens.iter().enumerate().all(|(i, &l)| i == 3 || l == 0));
    }

    #[test]
    fn huffman_is_prefix_free_and_complete() {
        let freqs: Vec<u64> = (1..=64u64).collect();
        let lens = huffman_lengths(&freqs);
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!((kraft - 1.0).abs() < 1e-9, "kraft = {kraft}");
        assert!(lens.iter().all(|&l| l <= MAX_CODE_LEN));
    }

    #[test]
    fn huffman_respects_length_limit_under_skew() {
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = huffman_lengths(&freqs);
        assert!(lens.iter().all(|&l| (1..=MAX_CODE_LEN).contains(&l)));
    }

    #[test]
    fn bitwriter_reader_roundtrip() {
        let mut w = BitWriter::new(Vec::new());
        w.put(0b101, 3);
        w.put(0xABCD, 16);
        w.put(1, 1);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.get(3).unwrap(), 0b101);
        assert_eq!(r.get(16).unwrap(), 0xABCD);
        assert_eq!(r.get(1).unwrap(), 1);
    }

    fn roundtrip_with<D: SymbolDecoder>() {
        let freqs: Vec<u64> = vec![5, 9, 12, 13, 16, 45, 0, 3];
        let lens = huffman_lengths(&freqs);
        let codes = canonical_codes(&lens);
        let dec = D::build(&lens).unwrap();
        let mut w = BitWriter::new(Vec::new());
        let syms = [0usize, 5, 3, 7, 1, 2, 4, 5, 5, 0];
        for &s in &syms {
            w.put_code(codes[s], lens[s]);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for &s in &syms {
            assert_eq!(dec.decode(&mut r).unwrap() as usize, s);
        }
    }

    #[test]
    fn bitwise_decoder_roundtrips() {
        roundtrip_with::<BitwiseDecoder>();
    }

    #[test]
    fn table_decoder_roundtrips() {
        roundtrip_with::<TableDecoder>();
    }

    #[test]
    fn decoders_agree_on_random_streams() {
        // Feed the same encoded stream through both decoders.
        let freqs: Vec<u64> = (1..=300u64).map(|i| i * i % 97 + 1).collect();
        let lens = huffman_lengths(&freqs);
        let codes = canonical_codes(&lens);
        let bitwise = BitwiseDecoder::build(&lens).unwrap();
        let table = TableDecoder::build(&lens).unwrap();
        let mut w = BitWriter::new(Vec::new());
        let syms: Vec<usize> = (0..2000).map(|i| (i * 31) % lens.len()).collect();
        for &s in &syms {
            w.put_code(codes[s], lens[s]);
        }
        let buf = w.finish();
        let mut ra = BitReader::new(&buf);
        let mut rb = BitReader::new(&buf);
        for &s in &syms {
            assert_eq!(bitwise.decode(&mut ra).unwrap() as usize, s);
            assert_eq!(table.decode(&mut rb).unwrap() as usize, s);
        }
    }

    #[test]
    fn rejects_oversubscribed_code() {
        assert!(BitwiseDecoder::build(&[1, 1, 1]).is_err());
        assert!(TableDecoder::build(&[1, 1, 1]).is_err());
    }
}
