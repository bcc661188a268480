//! Error type shared by the codecs.

use std::error::Error;
use std::fmt;

use crate::Codec;

/// Errors produced while compressing or decompressing a buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompressError {
    /// The requested level is outside the codec's supported range.
    BadLevel {
        /// Codec the level was requested for.
        codec: Codec,
        /// The rejected level.
        level: u32,
    },
    /// The buffer does not start with a known codec magic.
    BadMagic,
    /// The stream ended before the declared content was decoded.
    Truncated,
    /// The stream is structurally invalid.
    Corrupt(&'static str),
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::BadLevel { codec, level } => {
                write!(
                    f,
                    "invalid {codec} level {level} (valid: 1..={})",
                    codec.max_level()
                )
            }
            CompressError::BadMagic => write!(f, "unknown compression magic"),
            CompressError::Truncated => write!(f, "compressed stream is truncated"),
            CompressError::Corrupt(what) => write!(f, "corrupt compressed stream: {what}"),
        }
    }
}

impl Error for CompressError {}
