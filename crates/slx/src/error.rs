//! Errors shared by the file-format modules.

use std::fmt;

/// Errors raised while reading or writing model files.
#[derive(Debug, Clone, PartialEq)]
pub enum FormatError {
    /// The ZIP container structure is invalid.
    Zip(String),
    /// A DEFLATE stream is malformed.
    Deflate(String),
    /// A DEFLATE stream inflates past its bound: a ZIP entry's declared
    /// size, capped by [`crate::zip::MAX_ENTRY_BYTES`].
    TooLarge {
        /// The most bytes the stream was allowed to produce.
        limit: usize,
    },
    /// A stored CRC-32 does not match the decompressed data.
    CrcMismatch {
        /// Entry name whose checksum failed.
        entry: String,
    },
    /// The XML document is malformed.
    Xml {
        /// Byte offset of the problem.
        offset: usize,
        /// Explanation.
        reason: String,
    },
    /// The document parses but does not describe a valid model.
    Schema(String),
    /// The `.mdl` text is malformed.
    Mdl {
        /// Line number (1-based) of the problem.
        line: usize,
        /// Explanation.
        reason: String,
    },
    /// A model-level error (bad ports, shapes) while rebuilding the model.
    Model(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Zip(r) => write!(f, "invalid zip archive: {r}"),
            FormatError::Deflate(r) => write!(f, "invalid deflate stream: {r}"),
            FormatError::TooLarge { limit } => {
                write!(f, "deflate stream inflates past its {limit}-byte limit")
            }
            FormatError::CrcMismatch { entry } => {
                write!(f, "crc mismatch in zip entry '{entry}'")
            }
            FormatError::Xml { offset, reason } => {
                write!(f, "invalid xml at byte {offset}: {reason}")
            }
            FormatError::Schema(r) => write!(f, "invalid model document: {r}"),
            FormatError::Mdl { line, reason } => {
                write!(f, "invalid mdl at line {line}: {reason}")
            }
            FormatError::Model(r) => write!(f, "invalid model: {r}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<frodo_model::ModelError> for FormatError {
    fn from(e: frodo_model::ModelError) -> Self {
        FormatError::Model(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FormatError::Xml {
            offset: 42,
            reason: "unexpected '<'".into(),
        };
        assert!(e.to_string().contains("42"));
        assert!(e.to_string().contains("unexpected"));
    }
}
