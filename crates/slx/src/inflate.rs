//! Raw DEFLATE (RFC 1951): a from-scratch decompressor plus a simple
//! fixed-Huffman compressor.
//!
//! The decompressor supports all three block types — stored, fixed-Huffman,
//! and dynamic-Huffman — which covers every `.slx` ZIP entry a real tool
//! produces. It reads through a 64-bit bit buffer and decodes each Huffman
//! code with one lookup in a [`TABLE_BITS`]-bit table; after each refill,
//! a run of such literals goes straight to the output. Longer codes, bad
//! codes and codes cut by the end of the input take the canonical
//! bit-by-bit walk, which keeps every error of that walk. The output is
//! bounded: the caller passes the most bytes the stream may produce, and
//! decoding stops with [`FormatError::TooLarge`] before it passes them.
//!
//! The compressor emits literal-only fixed-Huffman blocks: always valid
//! DEFLATE, adequate for writing test archives, and an independent
//! roundtrip oracle for the decompressor.

use crate::FormatError;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// bit I/O
// ---------------------------------------------------------------------------

/// LSB-first bit reader over a 64-bit buffer. Bits above `bits` are
/// always zero, so a peek past the end of the input reads zeros and the
/// caller decides from `bits` whether the bits it used were real.
struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte of `data` to load into `buf`.
    pos: usize,
    buf: u64,
    /// Valid bits in `buf`.
    bits: u32,
}

fn end_of_stream() -> FormatError {
    FormatError::Deflate("unexpected end of stream".into())
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            buf: 0,
            bits: 0,
        }
    }

    /// Tops the buffer up to at least 56 bits, or to the end of the input.
    fn refill(&mut self) {
        let word = self
            .data
            .get(self.pos..self.pos + 8)
            .and_then(|w| <[u8; 8]>::try_from(w).ok());
        if let Some(word) = word {
            // whole bytes that fit above the valid bits; at most 7, so the
            // mask shift stays below 64
            let take = (63 - self.bits) / 8;
            let fresh = u64::from_le_bytes(word) & ((1u64 << (take * 8)) - 1);
            self.buf |= fresh << self.bits;
            self.pos += take as usize;
            self.bits += take * 8;
        } else {
            while self.bits <= 56 {
                let Some(&b) = self.data.get(self.pos) else {
                    break;
                };
                self.buf |= u64::from(b) << self.bits;
                self.pos += 1;
                self.bits += 8;
            }
        }
    }

    fn consume(&mut self, n: u32) {
        self.buf >>= n;
        self.bits -= n;
    }

    /// Reads `n <= 16` bits LSB-first (header fields, extra bits).
    fn read_bits(&mut self, n: u32) -> Result<u32, FormatError> {
        if self.bits < n {
            self.refill();
            if self.bits < n {
                return Err(end_of_stream());
            }
        }
        let v = (self.buf & ((1u64 << n) - 1)) as u32;
        self.consume(n);
        Ok(v)
    }

    /// Skips to the next byte boundary and hands every whole buffered
    /// byte back to `data`, so stored blocks read bytes directly.
    fn align_byte(&mut self) {
        self.consume(self.bits % 8);
        self.pos -= (self.bits / 8) as usize;
        self.buf = 0;
        self.bits = 0;
    }

    fn read_u16(&mut self) -> Result<u16, FormatError> {
        self.align_byte();
        if self.pos + 2 > self.data.len() {
            return Err(FormatError::Deflate("truncated stored header".into()));
        }
        let v = u16::from_le_bytes([self.data[self.pos], self.data[self.pos + 1]]);
        self.pos += 2;
        Ok(v)
    }
}

struct BitWriter {
    out: Vec<u8>,
    cur: u8,
    bit: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            cur: 0,
            bit: 0,
        }
    }

    fn write_bit(&mut self, v: u32) {
        if v != 0 {
            self.cur |= 1 << self.bit;
        }
        self.bit += 1;
        if self.bit == 8 {
            self.out.push(self.cur);
            self.cur = 0;
            self.bit = 0;
        }
    }

    /// Writes `n` bits LSB-first.
    fn write_bits(&mut self, v: u32, n: u32) {
        for i in 0..n {
            self.write_bit((v >> i) & 1);
        }
    }

    /// Writes a Huffman code (MSB of the code emitted first).
    fn write_code(&mut self, code: u32, len: u32) {
        for i in (0..len).rev() {
            self.write_bit((code >> i) & 1);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.bit > 0 {
            self.out.push(self.cur);
        }
        self.out
    }
}

// ---------------------------------------------------------------------------
// Huffman tables
// ---------------------------------------------------------------------------

/// Bits resolved by one lookup in [`Huffman::table`]; longer codes take
/// the canonical slow path.
const TABLE_BITS: u32 = 10;

/// Canonical Huffman decoder built from code lengths (RFC 1951 §3.2.2).
struct Huffman {
    /// Indexed by the next [`TABLE_BITS`] input bits: `symbol << 4 | length`
    /// for a code of at most `TABLE_BITS` bits, `0` when the code is longer
    /// or the bits start no code.
    table: [u16; 1 << TABLE_BITS],
    /// `counts[len]` = number of codes of that length.
    counts: [u16; 16],
    /// Symbols sorted by (length, symbol order).
    symbols: Vec<u16>,
}

impl Huffman {
    fn from_lengths(lengths: &[u8]) -> Result<Self, FormatError> {
        let mut counts = [0u16; 16];
        for &l in lengths {
            if l > 15 {
                return Err(FormatError::Deflate("code length > 15".into()));
            }
            counts[l as usize] += 1;
        }
        counts[0] = 0;
        // over-subscription check
        let mut left = 1i32;
        for &count in counts.iter().skip(1) {
            left <<= 1;
            left -= count as i32;
            if left < 0 {
                return Err(FormatError::Deflate("over-subscribed huffman code".into()));
            }
        }
        let mut offsets = [0u16; 16];
        let mut next_code = [0u32; 16];
        for len in 1..15 {
            offsets[len + 1] = offsets[len] + counts[len];
            next_code[len + 1] = (next_code[len] + counts[len] as u32) << 1;
        }
        let mut symbols = vec![0u16; lengths.iter().filter(|&&l| l > 0).count()];
        let mut table = [0u16; 1 << TABLE_BITS];
        for (sym, &l) in lengths.iter().enumerate() {
            if l == 0 {
                continue;
            }
            let len = l as usize;
            symbols[offsets[len] as usize] = sym as u16;
            offsets[len] += 1;
            let code = next_code[len];
            next_code[len] += 1;
            if l as u32 <= TABLE_BITS {
                // the stream sends codes MSB first, the reader peeks LSB
                // first: index by the reversed code, every suffix filled
                let rev = (code.reverse_bits() >> (32 - l as u32)) as usize;
                let entry = (sym as u16) << 4 | l as u16;
                for slot in table.iter_mut().skip(rev).step_by(1 << len) {
                    *slot = entry;
                }
            }
        }
        Ok(Huffman {
            table,
            counts,
            symbols,
        })
    }

    /// The next symbol if it is a literal byte whose code the table
    /// resolves from the buffered bits; consumes nothing otherwise.
    fn table_literal(&self, r: &mut BitReader<'_>) -> Option<u8> {
        let entry = self.table[(r.buf & ((1 << TABLE_BITS) - 1)) as usize];
        let len = u32::from(entry & 0xF);
        let sym = entry >> 4;
        if len == 0 || len > r.bits || sym > 255 {
            return None;
        }
        r.consume(len);
        Some(sym as u8)
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, FormatError> {
        if r.bits < 15 {
            r.refill();
        }
        let entry = self.table[(r.buf & ((1 << TABLE_BITS) - 1)) as usize];
        let len = u32::from(entry & 0xF);
        if len != 0 && len <= r.bits {
            r.consume(len);
            return Ok(entry >> 4);
        }
        self.decode_slow(r)
    }

    /// The canonical decode one bit at a time, over the buffered bits:
    /// codes longer than [`TABLE_BITS`], invalid codes, and codes cut by
    /// the end of the input.
    fn decode_slow(&self, r: &mut BitReader<'_>) -> Result<u16, FormatError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..16 {
            if len > r.bits {
                return Err(end_of_stream());
            }
            code |= ((r.buf >> (len - 1)) & 1) as i32;
            let count = self.counts[len as usize] as i32;
            if code - first < count {
                r.consume(len);
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(FormatError::Deflate("invalid huffman code".into()))
    }
}

const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// The fixed-Huffman literal/length and distance decoders (RFC 1951
/// §3.2.6), built on first use.
fn fixed_tables() -> &'static (Huffman, Huffman) {
    static FIXED: OnceLock<(Huffman, Huffman)> = OnceLock::new();
    FIXED.get_or_init(|| {
        let mut lengths = [8u8; 288];
        lengths[144..256].fill(9);
        lengths[256..280].fill(7);
        let lit = Huffman::from_lengths(&lengths).expect("the fixed code is complete");
        let dist = Huffman::from_lengths(&[5u8; 30]).expect("the fixed code is complete");
        (lit, dist)
    })
}

/// Fails unless `n` more bytes fit in `out` under `limit`.
fn reserve(out: &[u8], n: usize, limit: usize) -> Result<(), FormatError> {
    if n > limit - out.len() {
        return Err(FormatError::TooLarge { limit });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// inflate
// ---------------------------------------------------------------------------

/// Decompresses a raw DEFLATE stream into at most `limit` bytes. The
/// output buffer is sized from `limit` (up to
/// [`crate::zip::MAX_ENTRY_BYTES`]): the ZIP reader passes an entry's
/// declared size, capped by that constant.
///
/// # Errors
///
/// Returns [`FormatError::Deflate`] on any malformed input (truncation,
/// invalid codes, out-of-window distances), and [`FormatError::TooLarge`]
/// as soon as the output would pass `limit` bytes.
pub fn inflate(data: &[u8], limit: usize) -> Result<Vec<u8>, FormatError> {
    let mut r = BitReader::new(data);
    let mut out = Vec::with_capacity(limit.min(crate::zip::MAX_ENTRY_BYTES));
    loop {
        let bfinal = r.read_bits(1)?;
        let btype = r.read_bits(2)?;
        match btype {
            0 => {
                let len = r.read_u16()? as usize;
                let nlen = r.read_u16()? as usize;
                if len != (!nlen & 0xFFFF) {
                    return Err(FormatError::Deflate("stored LEN/NLEN mismatch".into()));
                }
                if r.pos + len > r.data.len() {
                    return Err(FormatError::Deflate("truncated stored block".into()));
                }
                reserve(&out, len, limit)?;
                out.extend_from_slice(&r.data[r.pos..r.pos + len]);
                r.pos += len;
            }
            1 => {
                let (lit, dist) = fixed_tables();
                inflate_block(&mut r, lit, dist, &mut out, limit)?;
            }
            2 => {
                let (lit, dist) = read_dynamic_tables(&mut r)?;
                inflate_block(&mut r, &lit, &dist, &mut out, limit)?;
            }
            _ => return Err(FormatError::Deflate("reserved block type".into())),
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

fn read_dynamic_tables(r: &mut BitReader<'_>) -> Result<(Huffman, Huffman), FormatError> {
    const ORDER: [usize; 19] = [
        16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
    ];
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    let mut cl_lengths = [0u8; 19];
    for &idx in ORDER.iter().take(hclen) {
        cl_lengths[idx] = r.read_bits(3)? as u8;
    }
    let cl = Huffman::from_lengths(&cl_lengths)?;
    let mut lengths = Vec::with_capacity(hlit + hdist);
    while lengths.len() < hlit + hdist {
        let sym = cl.decode(r)?;
        match sym {
            0..=15 => lengths.push(sym as u8),
            16 => {
                let prev = *lengths
                    .last()
                    .ok_or_else(|| FormatError::Deflate("repeat with no previous length".into()))?;
                let n = r.read_bits(2)? + 3;
                lengths.extend(std::iter::repeat_n(prev, n as usize));
            }
            17 => {
                let n = r.read_bits(3)? + 3;
                lengths.extend(std::iter::repeat_n(0, n as usize));
            }
            18 => {
                let n = r.read_bits(7)? + 11;
                lengths.extend(std::iter::repeat_n(0, n as usize));
            }
            _ => return Err(FormatError::Deflate("invalid code-length symbol".into())),
        }
    }
    if lengths.len() != hlit + hdist {
        return Err(FormatError::Deflate("code lengths overflow".into()));
    }
    let lit = Huffman::from_lengths(&lengths[..hlit])?;
    let dist = Huffman::from_lengths(&lengths[hlit..])?;
    Ok((lit, dist))
}

fn inflate_block(
    r: &mut BitReader<'_>,
    lit: &Huffman,
    dist: &Huffman,
    out: &mut Vec<u8>,
    limit: usize,
) -> Result<(), FormatError> {
    loop {
        // the literal run: straight from the buffer to the output, refilled
        // whenever it may hold less than one table-resolved code
        r.refill();
        while let Some(byte) = lit.table_literal(r) {
            reserve(out, 1, limit)?;
            out.push(byte);
            if r.bits < TABLE_BITS {
                r.refill();
            }
        }
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => {
                reserve(out, 1, limit)?;
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let li = (sym - 257) as usize;
                let len = LENGTH_BASE[li] as usize + r.read_bits(LENGTH_EXTRA[li] as u32)? as usize;
                let dsym = dist.decode(r)? as usize;
                if dsym >= 30 {
                    return Err(FormatError::Deflate("invalid distance symbol".into()));
                }
                let d = DIST_BASE[dsym] as usize + r.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                if d > out.len() {
                    return Err(FormatError::Deflate("distance beyond window".into()));
                }
                reserve(out, len, limit)?;
                let start = out.len() - d;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
            _ => return Err(FormatError::Deflate("invalid literal/length symbol".into())),
        }
    }
}

// ---------------------------------------------------------------------------
// fixed-Huffman compressor (literal-only)
// ---------------------------------------------------------------------------

/// Compresses bytes as one fixed-Huffman DEFLATE block with literals only.
///
/// Never smaller than ~`8/8` of the input for random data (no LZ matching),
/// but always a valid stream; used by the ZIP writer and as the roundtrip
/// oracle for [`inflate`].
pub fn deflate_fixed(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(1, 1); // BFINAL
    w.write_bits(1, 2); // fixed Huffman
    for &b in data {
        let (code, len) = fixed_literal_code(b as u16);
        w.write_code(code, len);
    }
    let (code, len) = fixed_literal_code(256);
    w.write_code(code, len);
    w.finish()
}

fn fixed_literal_code(sym: u16) -> (u32, u32) {
    match sym {
        0..=143 => (0x30 + sym as u32, 8),
        144..=255 => (0x190 + (sym as u32 - 144), 9),
        256..=279 => (sym as u32 - 256, 7),
        _ => (0xC0 + (sym as u32 - 280), 8),
    }
}

/// A fixed-Huffman stream of one `a` and then `pairs` length-258,
/// distance-1 back-references: `1 + 258 * pairs` bytes of `a` from about
/// two bytes per pair.
#[cfg(test)]
pub(crate) fn repeat_stream(pairs: usize) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(1, 1); // BFINAL
    w.write_bits(1, 2); // fixed Huffman
    let (c, l) = fixed_literal_code(u16::from(b'a'));
    w.write_code(c, l);
    for _ in 0..pairs {
        let (c, l) = fixed_literal_code(285); // length 258, no extra bits
        w.write_code(c, l);
        w.write_code(0, 5); // distance 1
    }
    let (c, l) = fixed_literal_code(256);
    w.write_code(c, l);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An output bound no test stream comes near.
    const ROOM: usize = 1 << 16;

    #[test]
    fn stored_block_roundtrip() {
        // hand-built stored block: BFINAL=1, BTYPE=00
        let payload = b"hello stored";
        let mut raw = vec![0x01]; // bfinal=1, btype=00, then align
        raw.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        raw.extend_from_slice(&(!(payload.len() as u16)).to_le_bytes());
        raw.extend_from_slice(payload);
        assert_eq!(inflate(&raw, ROOM).unwrap(), payload);
    }

    #[test]
    fn fixed_huffman_roundtrip() {
        let data = b"the paper proposes FRODO, an efficient code generator";
        let compressed = deflate_fixed(data);
        assert_eq!(inflate(&compressed, ROOM).unwrap(), data);
    }

    #[test]
    fn fixed_huffman_all_byte_values() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_eq!(inflate(&deflate_fixed(&data), ROOM).unwrap(), data);
    }

    #[test]
    fn empty_input_roundtrip() {
        assert_eq!(inflate(&deflate_fixed(b""), ROOM).unwrap(), b"");
    }

    #[test]
    fn back_reference_copies_window() {
        // hand-assemble: fixed block with "ab" then a length-3 distance-2
        // match → "ababa"
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(1, 2);
        for &b in b"ab" {
            let (c, l) = fixed_literal_code(b as u16);
            w.write_code(c, l);
        }
        // length 3 = symbol 257, no extra; distance 2 = code 1, no extra
        let (c, l) = fixed_literal_code(257);
        w.write_code(c, l);
        w.write_code(1, 5);
        let (c, l) = fixed_literal_code(256);
        w.write_code(c, l);
        assert_eq!(inflate(&w.finish(), ROOM).unwrap(), b"ababa");
    }

    #[test]
    fn overlapping_back_reference() {
        // "a" then length-4 distance-1 → "aaaaa"
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(1, 2);
        let (c, l) = fixed_literal_code(b'a' as u16);
        w.write_code(c, l);
        let (c, l) = fixed_literal_code(258); // length 4
        w.write_code(c, l);
        w.write_code(0, 5); // distance 1
        let (c, l) = fixed_literal_code(256);
        w.write_code(c, l);
        assert_eq!(inflate(&w.finish(), ROOM).unwrap(), b"aaaaa");
    }

    #[test]
    fn output_past_the_limit_is_an_error() {
        let stream = repeat_stream(100);
        let n = 1 + 258 * 100;
        assert_eq!(inflate(&stream, n).unwrap(), vec![b'a'; n]);
        for limit in [0, 1, 258, n - 1] {
            assert_eq!(
                inflate(&stream, limit),
                Err(FormatError::TooLarge { limit }),
                "limit {limit}"
            );
        }
    }

    #[test]
    fn literals_past_the_limit_are_an_error() {
        let data = b"literal-only fixed-Huffman stream";
        let stream = deflate_fixed(data);
        assert_eq!(inflate(&stream, data.len()).unwrap(), data);
        assert_eq!(
            inflate(&stream, data.len() - 1),
            Err(FormatError::TooLarge {
                limit: data.len() - 1
            })
        );
    }

    #[test]
    fn stored_block_past_the_limit_is_an_error() {
        let mut raw = vec![0x01];
        raw.extend_from_slice(&4u16.to_le_bytes());
        raw.extend_from_slice(&(!4u16).to_le_bytes());
        raw.extend_from_slice(b"abcd");
        assert_eq!(inflate(&raw, 4).unwrap(), b"abcd");
        assert_eq!(inflate(&raw, 3), Err(FormatError::TooLarge { limit: 3 }));
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let compressed = deflate_fixed(b"some data");
        let truncated = &compressed[..compressed.len() - 2];
        assert!(inflate(truncated, ROOM).is_err());
    }

    #[test]
    fn reserved_block_type_is_rejected() {
        // bfinal=1, btype=11
        assert!(matches!(
            inflate(&[0x07], ROOM),
            Err(FormatError::Deflate(_))
        ));
    }

    #[test]
    fn stored_len_mismatch_is_rejected() {
        let raw = [0x01, 0x05, 0x00, 0x00, 0x00, b'x'];
        assert!(inflate(&raw, ROOM).is_err());
    }

    #[test]
    fn distance_beyond_window_is_rejected() {
        // immediate match with nothing in the window
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(1, 2);
        let (c, l) = fixed_literal_code(257);
        w.write_code(c, l);
        w.write_code(0, 5);
        let (c, l) = fixed_literal_code(256);
        w.write_code(c, l);
        assert!(inflate(&w.finish(), ROOM).is_err());
    }

    #[test]
    fn multi_block_streams_concatenate() {
        // two stored blocks
        let mut raw = vec![0x00]; // bfinal=0 stored
        raw.extend_from_slice(&2u16.to_le_bytes());
        raw.extend_from_slice(&(!2u16).to_le_bytes());
        raw.extend_from_slice(b"ab");
        raw.push(0x01); // bfinal=1 stored
        raw.extend_from_slice(&2u16.to_le_bytes());
        raw.extend_from_slice(&(!2u16).to_le_bytes());
        raw.extend_from_slice(b"cd");
        assert_eq!(inflate(&raw, ROOM).unwrap(), b"abcd");
    }

    #[test]
    fn dynamic_huffman_stream_decodes() {
        // A tiny dynamic-Huffman stream hand-assembled to encode "aab" with
        // a three-symbol literal alphabet: 'a' (len 1), 'b' (len 2), EOB
        // (len 2), plus one unused 1-bit distance code.
        const ORDER: [usize; 19] = [
            16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
        ];
        // code-length-code lengths: symbol 18 (zero run) -> 1 bit,
        // symbols 1 and 2 (literal lengths) -> 2 bits each
        let mut cl = [0u8; 19];
        cl[18] = 1;
        cl[1] = 2;
        cl[2] = 2;
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(2, 2); // dynamic
        w.write_bits(0, 5); // hlit = 257
        w.write_bits(0, 5); // hdist = 1
        w.write_bits(15, 4); // hclen = 19
        for &idx in &ORDER {
            w.write_bits(cl[idx] as u32, 3);
        }
        // canonical cl codes: 18 -> 0 (1 bit); 1 -> 10, 2 -> 11 (2 bits)
        let put18 = |w: &mut BitWriter, run: u32| {
            w.write_code(0, 1);
            w.write_bits(run - 11, 7);
        };
        let put1 = |w: &mut BitWriter| w.write_code(2, 2);
        let put2 = |w: &mut BitWriter| w.write_code(3, 2);
        put18(&mut w, 97); // symbols 0..97: zero
        put1(&mut w); // 'a' (97): len 1
        put2(&mut w); // 'b' (98): len 2
        put18(&mut w, 138); // symbols 99..237: zero
        put18(&mut w, 19); // symbols 237..256: zero
        put2(&mut w); // EOB (256): len 2
        put1(&mut w); // the single (unused) distance code: len 1
                      // canonical literal codes: 'a' -> 0; 'b' -> 10; EOB -> 11
        w.write_code(0, 1); // 'a'
        w.write_code(0, 1); // 'a'
        w.write_code(2, 2); // 'b'
        w.write_code(3, 2); // EOB
        assert_eq!(inflate(&w.finish(), ROOM).unwrap(), b"aab");
    }

    #[test]
    fn zlib_fixture_has_codes_past_the_lookup_table() {
        // the integration fixtures must reach `decode_slow` with valid codes
        let stream = include_bytes!("../tests/fixtures/corpus-l9.deflate");
        let mut r = BitReader::new(stream);
        assert_eq!(r.read_bits(3).unwrap(), 0b101, "final dynamic block");
        let (lit, _) = read_dynamic_tables(&mut r).unwrap();
        assert!(lit.counts[TABLE_BITS as usize + 1..].iter().any(|&c| c > 0));
    }

    /// Property tests (gated: the `proptest` crate is not vendored, so the
    /// default offline build compiles these out; re-add the dev-dependency
    /// and run `cargo test --features proptest` to enable them).
    #[cfg(feature = "proptest")]
    mod props {
        use super::*;
        use proptest::prelude::*;
        proptest! {
            #[test]
            fn prop_fixed_roundtrip(data in prop::collection::vec(any::<u8>(), 0..600)) {
                prop_assert_eq!(inflate(&deflate_fixed(&data), ROOM).unwrap(), data);
            }
        }
    }
}
