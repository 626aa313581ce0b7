//! FNV-1a hashing and content digests.
//!
//! The compilation driver addresses cached artifacts by the *content* of a
//! flattened model plus its generation options. A digest combines a 64-bit
//! FNV-1a hash with the ZIP stack's CRC-32 ([`crate::crc32`]): the two
//! functions mix bytes independently, so a collision must defeat both at
//! once — ample for cache addressing, with zero dependencies and fully
//! deterministic output across platforms.
//!
//! # Example
//!
//! ```
//! use frodo_slx::fnv::{fnv1a_64, ContentDigest};
//!
//! // the classic FNV-1a check values
//! assert_eq!(fnv1a_64(b""), 0xCBF2_9CE4_8422_2325);
//! assert_eq!(fnv1a_64(b"a"), 0xAF63_DC4C_8601_EC8C);
//!
//! let d = ContentDigest::of(b"hello");
//! assert_eq!(d, ContentDigest::of(b"hello"));
//! assert_ne!(d, ContentDigest::of(b"hello!"));
//! assert_eq!(d.to_hex().len(), 24); // 16 FNV chars + 8 CRC chars
//! ```

use crate::crc32::Crc32;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Computes the 64-bit FNV-1a hash of a byte slice.
pub fn fnv1a_64(data: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(data);
    h.finish()
}

/// Incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// Starts a new hash.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Finishes and returns the hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// A 96-bit content digest: FNV-1a 64 plus CRC-32, both over the same
/// bytes. Rendered as 24 lowercase hex characters, suitable as a cache
/// file name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentDigest {
    /// The FNV-1a 64 component.
    pub fnv: u64,
    /// The CRC-32 component.
    pub crc: u32,
}

impl ContentDigest {
    /// Digests a byte slice in one call.
    pub fn of(data: &[u8]) -> Self {
        let mut d = DigestWriter::new();
        d.update(data);
        d.finish()
    }

    /// The 24-character lowercase hex form (`<fnv:016x><crc:08x>`).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:08x}", self.fnv, self.crc)
    }
}

impl std::fmt::Display for ContentDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:08x}", self.fnv, self.crc)
    }
}

/// Incrementally digests a byte stream into a [`ContentDigest`].
#[derive(Debug, Clone)]
pub struct DigestWriter {
    fnv: Fnv64,
    crc: Crc32,
}

impl DigestWriter {
    /// Starts a new digest.
    pub fn new() -> Self {
        DigestWriter {
            fnv: Fnv64::new(),
            crc: Crc32::new(),
        }
    }

    /// Feeds bytes into both component hashes.
    pub fn update(&mut self, data: &[u8]) {
        self.fnv.update(data);
        self.crc.update(data);
    }

    /// Finishes and returns the combined digest.
    pub fn finish(&self) -> ContentDigest {
        ContentDigest {
            fnv: self.fnv.finish(),
            crc: self.crc.finish(),
        }
    }
}

impl Default for DigestWriter {
    fn default() -> Self {
        DigestWriter::new()
    }
}

/// Lets a value walk such as `frodo_model::Model::digest_into` feed the
/// digest directly: `write` is [`DigestWriter::update`]. The trait's
/// `finish` returns only the FNV-1a component; the inherent
/// [`DigestWriter::finish`] returns the whole [`ContentDigest`].
impl std::hash::Hasher for DigestWriter {
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    fn finish(&self) -> u64 {
        self.fnv.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_values() {
        // From the FNV reference test vectors (Noll).
        assert_eq!(fnv1a_64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a_64(b"foobar"));

        let mut d = DigestWriter::new();
        d.update(b"split ");
        d.update(b"input");
        assert_eq!(d.finish(), ContentDigest::of(b"split input"));

        // a value walk's many small `Hasher::write`s digest like one
        // `update` of the concatenated bytes
        use std::hash::Hasher;
        let mut w = DigestWriter::new();
        w.write(b"split");
        w.write_u8(b' ');
        w.write(b"input");
        assert_eq!(Hasher::finish(&w), ContentDigest::of(b"split input").fnv);
        assert_eq!(w.finish(), ContentDigest::of(b"split input"));
    }

    #[test]
    fn digest_hex_is_stable_and_parseable_width() {
        let d = ContentDigest::of(b"123456789");
        assert_eq!(d.crc, 0xCBF4_3926); // CRC-32 check value
        let hex = d.to_hex();
        assert_eq!(hex.len(), 24);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(hex, d.to_string());
    }

    #[test]
    fn distinct_content_distinct_digest() {
        assert_ne!(ContentDigest::of(b"model-a"), ContentDigest::of(b"model-b"));
    }
}
