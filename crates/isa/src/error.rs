use std::fmt;

/// Errors raised while decoding or assembling instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IsaError {
    /// The 32-bit word does not decode to a supported instruction.
    IllegalInstruction {
        /// The raw instruction word.
        word: u32,
    },
    /// An assembler label was referenced but never defined.
    UndefinedLabel {
        /// The label name.
        label: String,
    },
    /// A branch/jump displacement does not fit its immediate field: it is
    /// out of range, or odd.
    OffsetOutOfRange {
        /// The displacement in bytes.
        offset: i64,
        /// The number of immediate bits available.
        bits: u32,
    },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::IllegalInstruction { word } => {
                write!(f, "illegal instruction word {word:#010x}")
            }
            IsaError::UndefinedLabel { label } => write!(f, "undefined label `{label}`"),
            IsaError::OffsetOutOfRange { offset, bits } => {
                write!(f, "offset {offset} does not fit an even {bits}-bit field")
            }
        }
    }
}

impl std::error::Error for IsaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_word() {
        let e = IsaError::IllegalInstruction { word: 0xdeadbeef };
        assert!(e.to_string().contains("0xdeadbeef"));
    }
}
