//! The block decoder: a resumable [`Inflater`], which the one-shot
//! [`decompress`](crate::decompress) drains in one call and streaming
//! readers drain a batch at a time.

use std::fmt;

use crate::block::{le_u32, le_u64, Checksum, FRAME_HEADER, MAX_EXPANSION};
use crate::entropy::{
    BitPos, BitReader, BitwiseDecoder, SymbolDecoder, TableDecoder, DIST_TABLE, EOB, LEN_TABLE,
    NUM_DIST, NUM_LEN_CODES, NUM_LITLEN,
};
use crate::{detect, Codec, CompressError};

/// Decodes one MGZ or MZST stream a piece at a time, into a buffer the
/// caller owns.
///
/// Each [`inflate_into`](Inflater::inflate_into) call writes at most the
/// requested number of bytes at a position the caller names, and can stop
/// anywhere, in the middle of a block or of a match; the next call resumes
/// there. A match reads back from the [`window`](Inflater::window) bytes
/// before the write position, wrapping around the end of the buffer. Bytes
/// are written in order, so a byte is overwritten only when the write
/// position comes round to it again, at least a window later: a ring as
/// long as the window, written round and round, holds everything later
/// matches can reach, however long the content. One-shot decoding is the
/// same call over a buffer as long as the content.
///
/// Every check of a one-shot decoder still applies: the declared size is
/// capped by what the stream could hold before anything is sized from it,
/// and distances, codes and block lengths are validated as they are read.
/// The content checksum is computed as the bytes are produced and compared
/// with the trailer by the call that produces the last byte, so a stream
/// is only [finished](Inflater::is_finished) once it has been verified.
/// After [`rewind`](Inflater::rewind), later passes over a verified stream
/// skip the hash: the input cannot change, so neither can its content.
///
/// # Examples
///
/// ```
/// use mbp_compress::{compress, Codec, Inflater};
///
/// let data = b"taken not-taken taken ".repeat(1000);
/// let packed = compress(&data, Codec::Mzst, 9)?;
/// let mut inflater = Inflater::new(&packed[..])?;
/// // A ring as long as the window, written 4 KiB at a time.
/// let mut ring = vec![0u8; inflater.window()];
/// let (mut at, mut seen) = (0, Vec::new());
/// while !inflater.is_finished() {
///     let n = inflater.inflate_into(&mut ring, at, 4096)?;
///     seen.extend_from_slice(&ring[at..at + n]);
///     at = if at + n == ring.len() { 0 } else { at + n };
/// }
/// assert_eq!(seen, data);
/// # Ok::<(), mbp_compress::CompressError>(())
/// ```
pub struct Inflater<I = Vec<u8>> {
    input: I,
    codec: Codec,
    /// The declared uncompressed size, capped at open by what the stream
    /// could decode to.
    len: usize,
    /// Bytes produced since the start (or the last rewind).
    produced: usize,
    /// The next input byte a block header, stored block or trailer reads;
    /// inside a coded block the bit cursor in [`State::Coded`] leads.
    cursor: usize,
    state: State,
    /// Input offset and output total where the current block began, for
    /// the per-block counters.
    block_in: usize,
    block_out: usize,
    checksum: Checksum,
    /// A pass over this input has matched the trailer.
    verified: bool,
}

/// Where the decoder stands in the stream.
enum State {
    /// Between blocks: next comes a block kind byte, or the trailer once
    /// the declared size has been produced.
    Boundary,
    /// Inside a stored block with `left` bytes still to copy from the
    /// input cursor.
    Stored { left: usize },
    /// Inside an entropy-coded block.
    Coded {
        tables: Tables,
        bits: BitPos,
        /// A match cut short by the end of the last call: its distance and
        /// the bytes it still has to produce.
        pending: Option<(usize, usize)>,
    },
    /// The trailer matched; nothing more to produce.
    Finished,
    /// A check failed; every later call returns the same error.
    Failed(CompressError),
}

/// The current coded block's Huffman decoders, by codec.
enum Tables {
    /// MGZ walks codes bit by bit (boxed: its per-length arrays are the
    /// bulk of the state).
    Bitwise(Box<(BitwiseDecoder, BitwiseDecoder)>),
    /// MZST looks each symbol up in a flat table.
    Lookup(TableDecoder, TableDecoder),
}

/// Why a run of [`decode_symbols`] returned.
enum Stop {
    /// The output reached its limit inside the block; decoding resumes at
    /// this bit cursor.
    Full(BitPos),
    /// The block's end-of-block symbol was read; the next block starts at
    /// this input byte.
    EndOfBlock(usize),
}

/// Where one call writes, shared by the per-block decode loops.
#[derive(Clone, Copy)]
struct Room {
    /// Output position of the call's first byte.
    start: usize,
    /// Output position at which the call stops.
    limit: usize,
    /// `limit` is the declared end of the stream, so reaching it does not
    /// suspend: the block must end there, and more output is corruption.
    at_end: bool,
    /// The codec's window: the farthest a match may reach back.
    window: usize,
    /// Bytes produced before the call.
    behind: usize,
}

impl Room {
    /// Whether a match at output position `pos` may reach `dist` back:
    /// within the window, within what was produced, and within the buffer.
    #[inline]
    fn reaches(&self, out: &[u8], pos: usize, dist: usize) -> bool {
        dist != 0
            && dist <= self.window
            && dist <= self.behind + (pos - self.start)
            && dist <= out.len()
    }
}

const OVERFLOW: CompressError = CompressError::Corrupt("output exceeds declared size");

impl<I: AsRef<[u8]>> Inflater<I> {
    /// Starts decoding `input`, detecting the codec from its magic.
    ///
    /// # Errors
    ///
    /// [`CompressError::BadMagic`] without a known magic,
    /// [`CompressError::Truncated`] if the size field is cut, and
    /// [`CompressError::Corrupt`] if the declared size exceeds what the
    /// stream could decode to.
    pub fn new(input: I) -> Result<Self, CompressError> {
        let data = input.as_ref();
        let codec = detect(data).ok_or(CompressError::BadMagic)?;
        let size = data.get(4..FRAME_HEADER).ok_or(CompressError::Truncated)?;
        // Sanity-cap the declared size against what the actual stream could
        // possibly decode to *before* sizing any buffer from it: a corrupt
        // header claiming terabytes must fail typed, not OOM.
        let declared = le_u64(size);
        let payload_len = (data.len() - FRAME_HEADER) as u64;
        if declared > payload_len.saturating_mul(MAX_EXPANSION) {
            return Err(CompressError::Corrupt(
                "declared size exceeds stream capacity",
            ));
        }
        let len = usize::try_from(declared)
            .map_err(|_| CompressError::Corrupt("declared size exceeds address space"))?;
        Ok(Self {
            input,
            codec,
            len,
            produced: 0,
            cursor: FRAME_HEADER,
            state: State::Boundary,
            block_in: FRAME_HEADER,
            block_out: 0,
            checksum: Checksum::new(declared),
            verified: false,
        })
    }

    /// The farthest back a match may reach: how many of the latest output
    /// bytes the caller's buffer must keep.
    pub fn window(&self) -> usize {
        self.codec.window()
    }

    /// The uncompressed size the stream declares. Only a
    /// [finished](Inflater::is_finished) stream has shown it true.
    pub fn declared_len(&self) -> usize {
        self.len
    }

    /// Bytes produced since the start or the last rewind.
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// Whether the whole stream has been produced and its checksum matched.
    pub fn is_finished(&self) -> bool {
        matches!(self.state, State::Finished)
    }

    /// Restarts at the first block, so the content can be produced again
    /// from the same input. A failed stream stays failed.
    pub fn rewind(&mut self) {
        if matches!(self.state, State::Failed(_)) {
            return;
        }
        self.produced = 0;
        self.cursor = FRAME_HEADER;
        self.state = State::Boundary;
        self.checksum = Checksum::new(self.len as u64);
    }

    /// Decodes up to `max` more bytes into `buf[at..]` and returns how
    /// many; a call never writes past the end of `buf`.
    ///
    /// What this inflater produced since it started (or was rewound) must
    /// sit just before `at` — all of it, or at least its last
    /// [`window`](Inflater::window) bytes — wrapping around the end of
    /// `buf` when `at` is near its front. That holds when each call starts
    /// where the previous one ended (at `0` after the end of `buf`) and
    /// `buf` is at least the window long, or when `buf` is as long as the
    /// whole content. When `max` covers the rest of the
    /// stream the call also checks the trailer, so it returns only once the
    /// stream is finished or has failed. `0` is returned for a finished
    /// stream (or when there is no room).
    ///
    /// # Errors
    ///
    /// [`CompressError::Truncated`] if the input ends early, and
    /// [`CompressError::Corrupt`] for invalid codes, distances, block
    /// kinds or sizes, or a content checksum mismatch. Once a call fails,
    /// every later one returns the same error.
    pub fn inflate_into(
        &mut self,
        buf: &mut [u8],
        at: usize,
        max: usize,
    ) -> Result<usize, CompressError> {
        match &self.state {
            State::Finished => return Ok(0),
            State::Failed(e) => return Err(e.clone()),
            _ => {}
        }
        let at = at.min(buf.len());
        let left = self.len - self.produced;
        let want = max.min(left).min(buf.len() - at);
        // One span per call: a call is a whole stream or a batch-sized
        // piece of one, never a block or a symbol.
        let _span = (mbp_stats::pipeline().compress.inflate).span_with_arg(want as u64);
        let room = Room {
            start: at,
            limit: at + want,
            at_end: want == left,
            window: self.codec.window(),
            behind: self.produced,
        };
        let result = self.decode(buf, room).and_then(|end| {
            let produced = end - at;
            self.produced += produced;
            if !self.verified {
                self.checksum.update(&buf[at..end]);
            }
            if self.produced == self.len {
                self.check_trailer()?;
            }
            Ok(produced)
        });
        if let Err(e) = &result {
            self.state = State::Failed(e.clone());
        }
        result
    }

    /// Compares the trailer with the checksum of the content and finishes
    /// the stream.
    fn check_trailer(&mut self) -> Result<(), CompressError> {
        let input = self.input.as_ref();
        let trailer = input
            .get(self.cursor..self.cursor + 8)
            .ok_or(CompressError::Truncated)?;
        if !self.verified && le_u64(trailer) != self.checksum.finish() {
            return Err(CompressError::Corrupt("content checksum mismatch"));
        }
        self.verified = true;
        self.state = State::Finished;
        Ok(())
    }

    /// Decodes into `out[room.start..room.limit]` and returns where the
    /// output ended. With `room.at_end` the call goes on to the end of the
    /// block holding the last byte, where the trailer follows.
    fn decode(&mut self, out: &mut [u8], room: Room) -> Result<usize, CompressError> {
        let input = self.input.as_ref();
        let mut pos = room.start;
        loop {
            match &mut self.state {
                State::Boundary => {
                    if pos == room.limit {
                        return Ok(pos);
                    }
                    let kind = *input.get(self.cursor).ok_or(CompressError::Truncated)?;
                    self.cursor += 1;
                    self.block_in = self.cursor;
                    self.block_out = self.produced + (pos - room.start);
                    self.state = match kind {
                        0 => {
                            let field = input
                                .get(self.cursor..self.cursor + 4)
                                .ok_or(CompressError::Truncated)?;
                            let left = le_u32(field) as usize;
                            self.cursor += 4;
                            if input.len() - self.cursor < left {
                                return Err(CompressError::Truncated);
                            }
                            State::Stored { left }
                        }
                        1 => {
                            let mut r = BitReader::at(input, self.cursor);
                            let tables = read_tables(self.codec, &mut r)?;
                            State::Coded {
                                tables,
                                bits: r.save(),
                                pending: None,
                            }
                        }
                        _ => return Err(CompressError::Corrupt("unknown block kind")),
                    };
                }
                State::Stored { left } => {
                    let space = room.limit - pos;
                    if *left > space && room.at_end {
                        return Err(OVERFLOW);
                    }
                    let n = (*left).min(space);
                    out[pos..pos + n].copy_from_slice(&input[self.cursor..self.cursor + n]);
                    pos += n;
                    self.cursor += n;
                    *left -= n;
                    if *left > 0 {
                        return Ok(pos);
                    }
                    count_block(
                        self.cursor - self.block_in,
                        self.produced + (pos - room.start) - self.block_out,
                    );
                    self.state = State::Boundary;
                }
                State::Coded {
                    tables,
                    bits,
                    pending,
                } => {
                    let r = BitReader::resume(input, *bits);
                    let (stop, end) = match tables {
                        Tables::Bitwise(pair) => {
                            decode_symbols(&pair.0, &pair.1, r, out, pos, room, pending)
                        }
                        Tables::Lookup(lit, dist) => {
                            decode_symbols(lit, dist, r, out, pos, room, pending)
                        }
                    }?;
                    pos = end;
                    match stop {
                        Stop::Full(at) => {
                            *bits = at;
                            return Ok(pos);
                        }
                        Stop::EndOfBlock(next) => {
                            self.cursor = next;
                            count_block(
                                self.cursor - self.block_in,
                                self.produced + (pos - room.start) - self.block_out,
                            );
                            self.state = State::Boundary;
                        }
                    }
                }
                State::Finished | State::Failed(_) => return Ok(pos),
            }
        }
    }
}

impl<I> fmt::Debug for Inflater<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inflater")
            .field("codec", &self.codec)
            .field("len", &self.len)
            .field("produced", &self.produced)
            .field("finished", &matches!(self.state, State::Finished))
            .finish_non_exhaustive()
    }
}

/// Counts a finished block in the pipeline's compress counters.
fn count_block(consumed: usize, produced: usize) {
    // Per-block accounting happens at block granularity (64 KiB-scale), so
    // the cost is a handful of atomic adds per megabyte of trace.
    let stats = &mbp_stats::pipeline().compress;
    let (consumed, produced) = (consumed as u64, produced as u64);
    stats.blocks_inflated.inc();
    stats.compressed_bytes.add(consumed);
    stats.inflated_bytes.add(produced);
    if let Some(ratio_pct) = (100 * produced).checked_div(consumed) {
        stats.block_ratio_pct.record(ratio_pct);
    }
}

/// Reads a coded block's code lengths and builds its decoders.
fn read_tables(codec: Codec, r: &mut BitReader<'_>) -> Result<Tables, CompressError> {
    let mut lit_lens = [0u32; NUM_LITLEN];
    let mut dist_lens = [0u32; NUM_DIST];
    for l in lit_lens.iter_mut().chain(dist_lens.iter_mut()) {
        *l = r.get(4)? as u32;
    }
    Ok(match codec {
        Codec::Mgz => Tables::Bitwise(Box::new((
            BitwiseDecoder::build(&lit_lens)?,
            BitwiseDecoder::build(&dist_lens)?,
        ))),
        Codec::Mzst => Tables::Lookup(
            TableDecoder::build(&lit_lens)?,
            TableDecoder::build(&dist_lens)?,
        ),
    })
}

/// Decodes a coded block's symbols into `out` from `pos` until the block
/// ends or the output reaches `room.limit`, first finishing a `pending`
/// match; a match cut at the limit is left in `pending`. Returns why it
/// stopped and where the output ended.
///
/// The reader and the output position are taken by value: as locals of
/// the loop they stay in registers, where fields behind a reference are
/// written back to memory on every symbol.
fn decode_symbols<D: SymbolDecoder>(
    lit: &D,
    dist: &D,
    mut r: BitReader<'_>,
    out: &mut [u8],
    mut pos: usize,
    room: Room,
    pending: &mut Option<(usize, usize)>,
) -> Result<(Stop, usize), CompressError> {
    let r = &mut r;
    if let Some((d, left)) = pending.take() {
        // A new call may have moved the output; the match must still reach.
        if !room.reaches(out, pos, d) {
            return Err(CompressError::Corrupt("match distance out of range"));
        }
        if !emit_match(out, &mut pos, d, left, room, pending)? {
            return Ok((Stop::Full(r.save()), pos));
        }
    }
    loop {
        if pos == room.limit && !room.at_end {
            return Ok((Stop::Full(r.save()), pos));
        }
        let sym = lit.decode(r)? as usize;
        match sym {
            0..=255 => {
                if pos == room.limit {
                    return Err(OVERFLOW);
                }
                out[pos] = sym as u8;
                pos += 1;
            }
            EOB => {
                r.align();
                return Ok((Stop::EndOfBlock(r.byte_pos()), pos));
            }
            _ => {
                let lc = sym - 257;
                if lc >= NUM_LEN_CODES {
                    return Err(CompressError::Corrupt("invalid length code"));
                }
                let (base, extra) = LEN_TABLE[lc];
                let len = base as usize + r.get(extra)? as usize;
                let dc = dist.decode(r)? as usize;
                if dc >= NUM_DIST {
                    return Err(CompressError::Corrupt("invalid distance code"));
                }
                let (dbase, dextra) = DIST_TABLE[dc];
                let d = dbase as usize + r.get(dextra)? as usize;
                if !room.reaches(out, pos, d) {
                    return Err(CompressError::Corrupt("match distance out of range"));
                }
                if !emit_match(out, &mut pos, d, len, room, pending)? {
                    return Ok((Stop::Full(r.save()), pos));
                }
            }
        }
    }
}

/// Copies as much of a `len`-byte match at distance `d` as `room` allows;
/// `false` (with the rest in `pending`) if it was cut at the limit.
#[inline]
fn emit_match(
    out: &mut [u8],
    pos: &mut usize,
    d: usize,
    len: usize,
    room: Room,
    pending: &mut Option<(usize, usize)>,
) -> Result<bool, CompressError> {
    let space = room.limit - *pos;
    if len <= space {
        copy_match(out, *pos, d, len);
        *pos += len;
        return Ok(true);
    }
    if room.at_end {
        return Err(OVERFLOW);
    }
    copy_match(out, *pos, d, space);
    *pos += space;
    *pending = Some((d, len - space));
    Ok(false)
}

/// Writes the `len` bytes of an LZ match at `out[pos..]`, each a copy of
/// the byte `dist` positions before it, counting back around the end of
/// `out` when `dist > pos`.
///
/// A match overlaps its own output when `dist < len` and then repeats the
/// last `dist` bytes. Everything from `dist` bytes back repeats with
/// period `dist`, so each bulk copy from that start may take every byte
/// present so far: the span doubles on every copy, and a long run costs a
/// handful of copies instead of one per byte.
///
/// The caller has checked `1 <= dist <= out.len()` and `pos + len <=
/// out.len()`.
#[inline]
pub(crate) fn copy_match(out: &mut [u8], pos: usize, dist: usize, len: usize) {
    let mut done = 0;
    if dist > pos {
        // The source starts before the front: its first `dist - pos`
        // bytes are the end of `out`.
        let from = out.len() - (dist - pos);
        done = len.min(dist - pos);
        out.copy_within(from..from + done, pos);
    }
    if done == len {
        return;
    }
    // The rest of the source is contiguous, `dist` bytes behind.
    let to = pos + done;
    let start = to - dist;
    let rest = len - done;
    let mut copied = 0;
    while copied < rest {
        let n = (dist + copied).min(rest - copied);
        out.copy_within(start..start + n, to + copied);
        copied += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, decompress};
    use mbp_utils::Xorshift64;

    /// The LZ definition: one byte at a time, each from `dist` back.
    fn copy_bytewise(out: &mut Vec<u8>, dist: usize, len: usize) {
        for _ in 0..len {
            let b = out[out.len() - dist];
            out.push(b);
        }
    }

    #[test]
    fn chunked_copy_equals_the_bytewise_definition() {
        let mut rng = Xorshift64::new(0xc0b1_0001);
        let prefix: Vec<u8> = (0..100).map(|_| rng.next_u64() as u8).collect();
        // Every distance 1..=64 against lengths that straddle each doubling
        // step and both codecs' longest match (MGZ 258, MZST 2179).
        let mut lengths: Vec<usize> = vec![0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33];
        lengths.extend([63, 64, 65, 127, 128, 129, 255, 256, 257, 258, 259]);
        lengths.extend([
            511, 512, 513, 1000, 1023, 1024, 1025, 2047, 2048, 2049, 2178, 2179,
        ]);
        for dist in 1..=64 {
            for &len in &lengths {
                let mut want = prefix.clone();
                copy_bytewise(&mut want, dist, len);
                let mut got = prefix.clone();
                got.resize(prefix.len() + len, 0);
                copy_match(&mut got, prefix.len(), dist, len);
                assert_eq!(got, want, "dist {dist} len {len}");

                // The same match written into a ring, with the source
                // wrapping around its end: rotate so the match starts at
                // each position of the first `dist` bytes.
                for pos in [0, dist / 2, dist - 1] {
                    let size = prefix.len() + len;
                    let mut ring = vec![0u8; size];
                    for k in 0..prefix.len() {
                        ring[(pos + size - prefix.len() + k) % size] = prefix[k];
                    }
                    copy_match(&mut ring, pos, dist, len);
                    let rotated: Vec<u8> = (0..size)
                        .map(|k| ring[(pos + size - prefix.len() + k) % size])
                        .collect();
                    assert_eq!(rotated, want, "ring: dist {dist} len {len} at {pos}");
                }
            }
        }
    }

    #[test]
    fn periodic_inputs_longer_than_the_longest_match_round_trip() {
        let mut rng = Xorshift64::new(0xc0b1_0002);
        for period in [1usize, 2, 3, 16, 17, 48] {
            let unit: Vec<u8> = (0..period).map(|_| rng.next_u64() as u8).collect();
            // Several maximal matches in a row, plus a ragged end.
            let data: Vec<u8> = unit.iter().copied().cycle().take(5 * 2179 + 11).collect();
            for codec in [Codec::Mgz, Codec::Mzst] {
                for level in [1, codec.max_level()] {
                    let packed = compress(&data, codec, level).unwrap();
                    assert_eq!(
                        decompress(&packed).unwrap(),
                        data,
                        "{codec}-{level} period {period}"
                    );
                }
            }
        }
    }

    /// Drains `packed` through a ring as long as the window (or as the
    /// content, when shorter), in `step`-byte calls.
    fn stream(packed: &[u8], step: usize) -> Result<Vec<u8>, CompressError> {
        let mut inflater = Inflater::new(packed)?;
        let size = inflater.window().min(inflater.declared_len().max(1));
        let mut ring = vec![0u8; size];
        let (mut at, mut all) = (0, Vec::new());
        while !inflater.is_finished() {
            let n = inflater.inflate_into(&mut ring, at, step)?;
            all.extend_from_slice(&ring[at..at + n]);
            at = if at + n == ring.len() { 0 } else { at + n };
        }
        Ok(all)
    }

    fn mixed_content(n: usize, seed: u64) -> Vec<u8> {
        // Long periodic runs, repeats from far back and noise, so matches
        // are cut at every kind of point and stored blocks appear.
        let mut rng = Xorshift64::new(seed);
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            match rng.below(3) {
                0 => {
                    let period = 1 + rng.below(40) as usize;
                    let unit: Vec<u8> = (0..period).map(|_| rng.next_u64() as u8).collect();
                    let run = rng.below(5000) as usize;
                    data.extend(unit.iter().copied().cycle().take(run));
                }
                1 if data.len() > 100 => {
                    let from = rng.below(data.len() as u64 - 50) as usize;
                    let len = (rng.below(3000) as usize).min(data.len() - from);
                    data.extend_from_within(from..from + len);
                }
                _ => data.extend((0..rng.below(700)).map(|_| rng.next_u64() as u8)),
            }
        }
        data.truncate(n);
        data
    }

    #[test]
    fn streaming_in_any_step_equals_one_shot() {
        let data = mixed_content(300_000, 0xc0b1_0003);
        for codec in [Codec::Mgz, Codec::Mzst] {
            let packed = compress(&data, codec, 6).unwrap();
            for step in [1, 7, 100, 4096, 65_536, usize::MAX] {
                assert_eq!(stream(&packed, step).unwrap(), data, "{codec} step {step}");
            }
        }
    }

    #[test]
    fn a_ring_of_the_window_keeps_every_match_in_reach() {
        // Matches reach back across a whole MGZ window many times over.
        let mut rng = Xorshift64::new(0xc0b1_0008);
        let unit: Vec<u8> = (0..30_000).map(|_| rng.next_u64() as u8).collect();
        let mut data = Vec::new();
        for _ in 0..20 {
            data.extend_from_slice(&unit);
            data.extend((0..rng.below(3000)).map(|_| rng.next_u64() as u8));
        }
        let packed = compress(&data, Codec::Mgz, 9).unwrap();
        for step in [4096, 32_768] {
            assert_eq!(stream(&packed, step).unwrap(), data, "step {step}");
        }
    }

    #[test]
    fn streaming_reports_the_one_shot_errors() {
        let data = mixed_content(50_000, 0xc0b1_0004);
        for codec in [Codec::Mgz, Codec::Mzst] {
            let packed = compress(&data, codec, 5).unwrap();
            let mut rng = Xorshift64::new(0xc0b1_0005);
            for _ in 0..200 {
                let mut bad = packed.clone();
                let at = rng.below(bad.len() as u64) as usize;
                bad[at] ^= 1 << rng.below(8);
                let cut = if rng.below(4) == 0 {
                    rng.below(bad.len() as u64) as usize
                } else {
                    bad.len()
                };
                let bad = &bad[..cut];
                let eager = decompress(bad);
                for step in [13, 32_768] {
                    assert_eq!(stream(bad, step), eager, "{codec} flip at {at}, cut {cut}");
                }
            }
        }
    }

    #[test]
    fn rewind_replays_and_failure_sticks() {
        let data = mixed_content(100_000, 0xc0b1_0006);
        let packed = compress(&data, Codec::Mzst, 9).unwrap();
        let mut inflater = Inflater::new(packed.clone()).unwrap();
        let mut out = vec![0u8; data.len()];
        assert_eq!(inflater.inflate_into(&mut out, 0, 1000).unwrap(), 1000);
        inflater.rewind();
        assert_eq!(
            inflater.inflate_into(&mut out, 0, usize::MAX).unwrap(),
            data.len()
        );
        assert!(inflater.is_finished());
        assert_eq!(out, data);
        assert_eq!(inflater.inflate_into(&mut out, 0, 10).unwrap(), 0);
        inflater.rewind();
        out.fill(0);
        let mut at = 0;
        while !inflater.is_finished() {
            at += inflater.inflate_into(&mut out, at, 777).unwrap();
        }
        assert_eq!(out, data);

        let mut bad = packed;
        let last = bad.len() - 1;
        bad[last] ^= 1;
        let mut inflater = Inflater::new(bad).unwrap();
        let err = inflater.inflate_into(&mut out, 0, usize::MAX).unwrap_err();
        assert_eq!(err, CompressError::Corrupt("content checksum mismatch"));
        inflater.rewind();
        assert_eq!(inflater.inflate_into(&mut out, 0, 1), Err(err));
    }

    #[test]
    fn distances_beyond_the_window_are_rejected() {
        // A valid MGZ stream whose match distances all exceed 32 KiB is
        // built with MZST's larger window and relabelled: the blocks are
        // codec-neutral, only the window differs.
        let mut rng = Xorshift64::new(0xc0b1_0007);
        let unit: Vec<u8> = (0..40_000).map(|_| rng.next_u64() as u8).collect();
        let data = [unit.clone(), unit].concat();
        let mut packed = compress(&data, Codec::Mzst, 19).unwrap();
        assert_eq!(decompress(&packed).unwrap(), data);
        packed[..4].copy_from_slice(&Codec::Mgz.magic());
        assert_eq!(
            decompress(&packed),
            Err(CompressError::Corrupt("match distance out of range"))
        );
    }
}
