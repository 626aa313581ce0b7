//! Minimal ZIP archive reader and writer (the `.slx` container).
//!
//! Supports what Simulink archives use: compression method 0 (*stored*) and
//! 8 (*deflate*), CRC-32 validation, and central-directory navigation. No
//! ZIP64, encryption, or data descriptors — none of which appear in `.slx`.

use crate::crc32::crc32;
use crate::inflate::{deflate_fixed, inflate};
use crate::FormatError;

/// The most bytes one archive entry may inflate to, whatever size it
/// declares. The Table-1 block diagrams inflate to 5–37 KB; the cap keeps
/// an entry that declares (or inflates to) gigabytes from being
/// allocated, which matters where a daemon reads files for its clients.
pub const MAX_ENTRY_BYTES: usize = 64 << 20;

const LOCAL_SIG: u32 = 0x0403_4B50;
const CENTRAL_SIG: u32 = 0x0201_4B50;
const EOCD_SIG: u32 = 0x0605_4B50;

/// How an entry's payload is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Method 0: stored verbatim.
    Stored,
    /// Method 8: DEFLATE.
    Deflate,
}

/// One file inside an archive.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Path inside the archive (forward slashes).
    pub name: String,
    /// Decompressed payload.
    pub data: Vec<u8>,
}

/// An in-memory ZIP archive.
///
/// # Example
///
/// ```
/// use frodo_slx::zip::{Archive, Method};
///
/// # fn main() -> Result<(), frodo_slx::FormatError> {
/// let mut ar = Archive::new();
/// ar.add("dir/hello.txt", b"hi".to_vec(), Method::Deflate);
/// let bytes = ar.to_bytes();
/// let back = Archive::from_bytes(&bytes)?;
/// assert_eq!(back.get("dir/hello.txt").unwrap(), b"hi");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Archive {
    entries: Vec<Entry>,
    methods: Vec<Method>,
}

fn rd_u16(b: &[u8], at: usize) -> Result<u16, FormatError> {
    b.get(at..at + 2)
        .map(|s| u16::from_le_bytes([s[0], s[1]]))
        .ok_or_else(|| FormatError::Zip("truncated field".into()))
}

fn rd_u32(b: &[u8], at: usize) -> Result<u32, FormatError> {
    b.get(at..at + 4)
        .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
        .ok_or_else(|| FormatError::Zip("truncated field".into()))
}

impl Archive {
    /// Creates an empty archive.
    pub fn new() -> Self {
        Archive::default()
    }

    /// Adds an entry (replacing any existing entry with the same name).
    pub fn add(&mut self, name: impl Into<String>, data: Vec<u8>, method: Method) {
        let name = name.into();
        if let Some(i) = self.entries.iter().position(|e| e.name == name) {
            self.entries[i].data = data;
            self.methods[i] = method;
        } else {
            self.entries.push(Entry { name, data });
            self.methods.push(method);
        }
    }

    /// Looks up an entry's payload by exact name.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.data.as_slice())
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Entry names in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Serializes the archive.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut central = Vec::new();
        for (entry, &method) in self.entries.iter().zip(&self.methods) {
            let offset = out.len() as u32;
            let crc = crc32(&entry.data);
            let (payload, method_id) = match method {
                Method::Stored => (entry.data.clone(), 0u16),
                Method::Deflate => (deflate_fixed(&entry.data), 8u16),
            };
            let name = entry.name.as_bytes();
            // local header
            out.extend_from_slice(&LOCAL_SIG.to_le_bytes());
            out.extend_from_slice(&20u16.to_le_bytes()); // version needed
            out.extend_from_slice(&0u16.to_le_bytes()); // flags
            out.extend_from_slice(&method_id.to_le_bytes());
            out.extend_from_slice(&0u16.to_le_bytes()); // mod time
            out.extend_from_slice(&0u16.to_le_bytes()); // mod date
            out.extend_from_slice(&crc.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&(entry.data.len() as u32).to_le_bytes());
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(&0u16.to_le_bytes()); // extra len
            out.extend_from_slice(name);
            out.extend_from_slice(&payload);
            // central record
            central.extend_from_slice(&CENTRAL_SIG.to_le_bytes());
            central.extend_from_slice(&20u16.to_le_bytes()); // made by
            central.extend_from_slice(&20u16.to_le_bytes()); // needed
            central.extend_from_slice(&0u16.to_le_bytes());
            central.extend_from_slice(&method_id.to_le_bytes());
            central.extend_from_slice(&0u16.to_le_bytes());
            central.extend_from_slice(&0u16.to_le_bytes());
            central.extend_from_slice(&crc.to_le_bytes());
            central.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            central.extend_from_slice(&(entry.data.len() as u32).to_le_bytes());
            central.extend_from_slice(&(name.len() as u16).to_le_bytes());
            central.extend_from_slice(&0u16.to_le_bytes()); // extra
            central.extend_from_slice(&0u16.to_le_bytes()); // comment
            central.extend_from_slice(&0u16.to_le_bytes()); // disk
            central.extend_from_slice(&0u16.to_le_bytes()); // internal attrs
            central.extend_from_slice(&0u32.to_le_bytes()); // external attrs
            central.extend_from_slice(&offset.to_le_bytes());
            central.extend_from_slice(name);
        }
        let cd_offset = out.len() as u32;
        out.extend_from_slice(&central);
        let cd_size = out.len() as u32 - cd_offset;
        // end of central directory
        out.extend_from_slice(&EOCD_SIG.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // disk
        out.extend_from_slice(&0u16.to_le_bytes()); // cd disk
        out.extend_from_slice(&(self.entries.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u16).to_le_bytes());
        out.extend_from_slice(&cd_size.to_le_bytes());
        out.extend_from_slice(&cd_offset.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // comment len
        out
    }

    /// Parses an archive, decompressing and CRC-checking every entry.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Zip`] for structural problems,
    /// [`FormatError::Deflate`] for bad streams, [`FormatError::TooLarge`]
    /// as soon as an entry inflates past its declared size (or
    /// [`MAX_ENTRY_BYTES`]), and [`FormatError::CrcMismatch`] when a
    /// checksum fails.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FormatError> {
        // find EOCD by scanning backwards (comments make it float)
        let eocd = (0..=bytes.len().saturating_sub(22))
            .rev()
            .find(|&i| rd_u32(bytes, i).map(|s| s == EOCD_SIG).unwrap_or(false))
            .ok_or_else(|| FormatError::Zip("missing end-of-central-directory".into()))?;
        let count = rd_u16(bytes, eocd + 10)? as usize;
        let cd_offset = rd_u32(bytes, eocd + 16)? as usize;

        let mut archive = Archive::new();
        let mut pos = cd_offset;
        for _ in 0..count {
            if rd_u32(bytes, pos)? != CENTRAL_SIG {
                return Err(FormatError::Zip("bad central directory record".into()));
            }
            let method_id = rd_u16(bytes, pos + 10)?;
            let crc = rd_u32(bytes, pos + 16)?;
            let comp_len = rd_u32(bytes, pos + 20)? as usize;
            let raw_len = rd_u32(bytes, pos + 24)? as usize;
            let name_len = rd_u16(bytes, pos + 28)? as usize;
            let extra_len = rd_u16(bytes, pos + 30)? as usize;
            let comment_len = rd_u16(bytes, pos + 32)? as usize;
            let local_offset = rd_u32(bytes, pos + 42)? as usize;
            let name_bytes = bytes
                .get(pos + 46..pos + 46 + name_len)
                .ok_or_else(|| FormatError::Zip("truncated entry name".into()))?;
            let name = String::from_utf8(name_bytes.to_vec())
                .map_err(|_| FormatError::Zip("entry name is not UTF-8".into()))?;
            pos += 46 + name_len + extra_len + comment_len;

            // jump to the local header for the payload
            if rd_u32(bytes, local_offset)? != LOCAL_SIG {
                return Err(FormatError::Zip("bad local header".into()));
            }
            let l_name = rd_u16(bytes, local_offset + 26)? as usize;
            let l_extra = rd_u16(bytes, local_offset + 28)? as usize;
            let data_start = local_offset + 30 + l_name + l_extra;
            let payload = bytes
                .get(data_start..data_start + comp_len)
                .ok_or_else(|| FormatError::Zip("truncated entry payload".into()))?;

            let data = match method_id {
                0 => payload.to_vec(),
                8 => inflate(payload, raw_len.min(MAX_ENTRY_BYTES))?,
                m => return Err(FormatError::Zip(format!("unsupported method {m}"))),
            };
            if data.len() != raw_len {
                return Err(FormatError::Zip(format!(
                    "entry '{name}': size {} != declared {raw_len}",
                    data.len()
                )));
            }
            if crc32(&data) != crc {
                return Err(FormatError::CrcMismatch { entry: name });
            }
            let method = if method_id == 0 {
                Method::Stored
            } else {
                Method::Deflate
            };
            archive.add(name, data, method);
        }
        Ok(archive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_stored_and_deflate() {
        let mut ar = Archive::new();
        ar.add("a.txt", b"alpha".to_vec(), Method::Stored);
        ar.add("sub/b.bin", vec![0u8, 1, 2, 255, 254], Method::Deflate);
        let bytes = ar.to_bytes();
        let back = Archive::from_bytes(&bytes).unwrap();
        assert_eq!(back.get("a.txt").unwrap(), b"alpha");
        assert_eq!(back.get("sub/b.bin").unwrap(), &[0, 1, 2, 255, 254]);
        assert_eq!(back.names(), vec!["a.txt", "sub/b.bin"]);
    }

    #[test]
    fn empty_archive_roundtrips() {
        let bytes = Archive::new().to_bytes();
        let back = Archive::from_bytes(&bytes).unwrap();
        assert!(back.entries().is_empty());
    }

    #[test]
    fn add_replaces_same_name() {
        let mut ar = Archive::new();
        ar.add("x", b"one".to_vec(), Method::Stored);
        ar.add("x", b"two".to_vec(), Method::Stored);
        assert_eq!(ar.entries().len(), 1);
        assert_eq!(ar.get("x").unwrap(), b"two");
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let mut ar = Archive::new();
        ar.add("f", b"payload-payload".to_vec(), Method::Stored);
        let mut bytes = ar.to_bytes();
        // flip one payload byte (local header is 30 + 1 name byte)
        bytes[31] ^= 0xFF;
        assert!(matches!(
            Archive::from_bytes(&bytes),
            Err(FormatError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Archive::from_bytes(b"not a zip at all").is_err());
        assert!(Archive::from_bytes(&[]).is_err());
    }

    #[test]
    fn trailing_comment_space_is_tolerated() {
        // EOCD scan must find the signature even with bytes after it
        let mut ar = Archive::new();
        ar.add("f", b"data".to_vec(), Method::Stored);
        let mut bytes = ar.to_bytes();
        // patch comment length and append a comment
        let n = bytes.len();
        bytes[n - 2] = 5;
        bytes.extend_from_slice(b"hello");
        let back = Archive::from_bytes(&bytes).unwrap();
        assert_eq!(back.get("f").unwrap(), b"data");
    }

    #[test]
    fn truncated_central_directory_is_rejected() {
        let mut ar = Archive::new();
        ar.add("f", b"data".to_vec(), Method::Stored);
        let bytes = ar.to_bytes();
        // chop into the central directory but keep the EOCD intact by
        // rebuilding: corrupt the cd offset instead
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 6] = 0xFF; // cd_offset low byte scrambled
        assert!(Archive::from_bytes(&bad).is_err());
    }

    /// The offset of the (first) central directory record.
    fn central_record(bytes: &[u8]) -> usize {
        let sig = CENTRAL_SIG.to_le_bytes();
        bytes
            .windows(4)
            .position(|w| w == sig)
            .expect("central record present")
    }

    #[test]
    fn entry_inflating_past_its_declared_size_is_an_error() {
        // 258 001 bytes from about 2 KB of DEFLATE, declared as 1 000
        let stream = crate::inflate::repeat_stream(1000);
        let mut ar = Archive::new();
        ar.add("bomb", stream, Method::Stored);
        let mut bytes = ar.to_bytes();
        let pos = central_record(&bytes);
        bytes[pos + 10..pos + 12].copy_from_slice(&8u16.to_le_bytes());
        bytes[pos + 24..pos + 28].copy_from_slice(&1000u32.to_le_bytes());
        assert_eq!(
            Archive::from_bytes(&bytes),
            Err(FormatError::TooLarge { limit: 1000 })
        );
    }

    #[test]
    fn unsupported_method_is_reported() {
        let mut ar = Archive::new();
        ar.add("f", b"data".to_vec(), Method::Stored);
        let mut bytes = ar.to_bytes();
        // method field of the central record
        let pos = central_record(&bytes);
        bytes[pos + 10] = 99;
        match Archive::from_bytes(&bytes) {
            Err(FormatError::Zip(msg)) => assert!(msg.contains("99"), "{msg}"),
            other => panic!("expected unsupported-method error, got {other:?}"),
        }
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
            fn prop_roundtrip(
                files in prop::collection::vec(
                    ("[a-z]{1,12}", prop::collection::vec(any::<u8>(), 0..200), any::<bool>()),
                    0..6,
                )
            ) {
                let mut ar = Archive::new();
                for (name, data, deflate) in &files {
                    let method = if *deflate { Method::Deflate } else { Method::Stored };
                    ar.add(name.clone(), data.clone(), method);
                }
                let back = Archive::from_bytes(&ar.to_bytes()).unwrap();
                for e in ar.entries() {
                    prop_assert_eq!(back.get(&e.name).unwrap(), e.data.as_slice());
                }
                prop_assert_eq!(back.entries().len(), ar.entries().len());
            }
        }
    }
}
