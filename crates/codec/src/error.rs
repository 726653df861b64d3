//! Error type shared by every decoder in the codec crate.

/// Errors produced when decoding a corrupted or truncated stream, or when an
/// encode-side request is unsatisfiable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the decoder finished.
    UnexpectedEof {
        /// Which decoder detected the truncation.
        context: &'static str,
    },
    /// A header field contained an invalid value.
    InvalidHeader {
        /// Which decoder rejected the header.
        context: &'static str,
        /// Human-readable description of the problem.
        detail: String,
    },
    /// The decoded payload does not satisfy an internal consistency check.
    Corrupt {
        /// Which decoder detected the corruption.
        context: &'static str,
        /// Human-readable description of the problem.
        detail: String,
    },
    /// An encode-side request was invalid (e.g. an empty candidate set
    /// offered to `PipelineSpec::try_encode_select`).
    InvalidRequest {
        /// Which encoder rejected the request.
        context: &'static str,
        /// Human-readable description of the problem.
        detail: String,
    },
}

impl CodecError {
    /// Shorthand for an [`CodecError::UnexpectedEof`].
    pub fn eof(context: &'static str) -> Self {
        CodecError::UnexpectedEof { context }
    }

    /// Shorthand for an [`CodecError::InvalidHeader`].
    pub(crate) fn header(context: &'static str, detail: impl Into<String>) -> Self {
        CodecError::InvalidHeader {
            context,
            detail: detail.into(),
        }
    }

    /// Shorthand for a [`CodecError::Corrupt`].
    pub(crate) fn corrupt(context: &'static str, detail: impl Into<String>) -> Self {
        CodecError::Corrupt {
            context,
            detail: detail.into(),
        }
    }

    /// Shorthand for a [`CodecError::InvalidRequest`].
    pub fn request(context: &'static str, detail: impl Into<String>) -> Self {
        CodecError::InvalidRequest {
            context,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof { context } => {
                write!(f, "unexpected end of stream in {context}")
            }
            CodecError::InvalidHeader { context, detail } => {
                write!(f, "invalid header in {context}: {detail}")
            }
            CodecError::Corrupt { context, detail } => {
                write!(f, "corrupt stream in {context}: {detail}")
            }
            CodecError::InvalidRequest { context, detail } => {
                write!(f, "invalid request to {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CodecError::header("huffman", "bad symbol count");
        assert!(e.to_string().contains("huffman"));
        assert!(e.to_string().contains("bad symbol count"));
        let e = CodecError::eof("rre");
        assert!(e.to_string().contains("rre"));
    }
}
