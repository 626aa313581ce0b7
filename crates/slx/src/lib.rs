//! Model file formats: `.slx` containers and `.mdl` text.
//!
//! The paper's model parse stage reads real Simulink `.slx` files: "the
//! Simulink model is wrapped by a ZIP file that contains different
//! components … recorded in the XML files. FRODO interprets these files to
//! parse the dataflow information" (§3.1). This crate implements that whole
//! stack from scratch — no external compression or XML crates:
//!
//! - [`crc32`] — CRC-32 (IEEE 802.3), as ZIP requires, eight bytes per
//!   step (slicing-by-8);
//! - [`fnv`] — FNV-1a 64 and the combined content digest the compilation
//!   driver uses for content-addressed artifact caching;
//! - [`inflate`] — a raw-DEFLATE (RFC 1951) decompressor (stored, fixed-
//!   and dynamic-Huffman blocks) plus a fixed-Huffman compressor. It is
//!   table-driven: a 64-bit bit buffer and one 10-bit lookup per Huffman
//!   code, with a canonical slow path for longer ones. Its output is
//!   bounded by the caller;
//! - [`zip`] — ZIP archive reader/writer (methods *stored* and *deflate*);
//!   an entry inflates to at most its declared size, and never past
//!   [`zip::MAX_ENTRY_BYTES`];
//! - [`xml`] — a minimal XML pull reader and tree writer;
//! - [`slx`] — the Simulink-model ⇄ XML-in-ZIP mapping
//!   ([`read_slx`], [`write_slx`]). Reading is one pass: the model is
//!   built from the reader's borrowed events, with no XML tree between;
//! - [`mdl`] — a classic `.mdl`-style textual format
//!   ([`read_mdl`], [`write_mdl`]), the "external file" representation the
//!   paper uses for its libraries.
//!
//! Both readers refuse nesting deeper than [`MAX_DEPTH`] with an error, so
//! no input file can overflow the stack of the thread reading it.
//!
//! # Example
//!
//! ```
//! use frodo_model::{Block, BlockKind, Model};
//! use frodo_ranges::Shape;
//! use frodo_slx::{read_slx, write_slx};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Model::new("roundtrip");
//! let i = m.add(Block::new("in", BlockKind::Inport { index: 0, shape: Shape::Vector(8) }));
//! let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
//! let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
//! m.connect(i, 0, g, 0)?;
//! m.connect(g, 0, o, 0)?;
//!
//! let bytes = write_slx(&m)?;
//! let back = read_slx(&bytes, &frodo_obs::Trace::noop())?;
//! assert_eq!(back, m);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
mod error;
pub mod fnv;
pub mod inflate;
pub mod mdl;
mod params;
pub mod slx;
pub mod xml;
pub mod zip;

pub use error::FormatError;
pub use mdl::{read_mdl, write_mdl};
pub use slx::{read_slx, write_slx};

/// The deepest nesting either reader accepts: XML elements in `.slx`,
/// braced sections in `.mdl`. Deeper input is an error, not a stack
/// overflow; a model with subsystems nested a hundred deep still fits.
pub const MAX_DEPTH: usize = 256;
