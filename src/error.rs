//! The unified error type of the [`Explorer`](crate::Explorer) session.
//!
//! Every stage of the exploration pipeline has its own error domain —
//! the front end ([`FrontendError`]), IR validation ([`IrError`]), the
//! profiling simulator ([`SimError`]) and the design-evaluation run of
//! the rewritten program (simulator errors in a different stage of
//! Figure 1, plus wrong outputs). Before
//! the session API, callers threaded `Box<dyn Error>` through every
//! driver loop; [`ExplorerError`] replaces that with one inspectable
//! enum and `From` conversions from each stage error.

use asip_frontend::FrontendError;
use asip_ir::IrError;
use asip_sim::SimError;
use std::fmt;

/// A failure while decoding a persisted artifact (see
/// [`ArtifactCodec`](crate::artifact::ArtifactCodec) and the
/// [`store`](crate::store) module).
///
/// Decode failures are *expected* inputs for the session's disk tier: a
/// truncated, corrupted or version-skewed store entry must degrade to a
/// recompute, never to a session error. The variants exist so codec
/// users outside the session (tools inspecting a store directly) can
/// tell truncation from tag skew from semantic rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The byte stream ended in the middle of a value.
    Truncated {
        /// Offset at which more bytes were needed.
        at: usize,
    },
    /// A value's leading tag byte did not match the expected type.
    Tag {
        /// Offset of the offending tag byte.
        at: usize,
        /// The tag the decoder expected.
        expected: u8,
        /// The tag actually found.
        found: u8,
    },
    /// The bytes decoded structurally but describe an invalid value
    /// (unknown mnemonic, impossible length, failed re-validation).
    Invalid {
        /// Human-readable description of the rejection.
        detail: String,
    },
    /// Decoding finished with unconsumed bytes left over.
    Trailing {
        /// Number of unread bytes remaining.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { at } => {
                write!(f, "artifact bytes truncated at offset {at}")
            }
            CodecError::Tag {
                at,
                expected,
                found,
            } => write!(
                f,
                "artifact tag mismatch at offset {at}: expected {expected:#04x}, found {found:#04x}"
            ),
            CodecError::Invalid { detail } => write!(f, "invalid artifact payload: {detail}"),
            CodecError::Trailing { remaining } => {
                write!(f, "artifact decoded with {remaining} trailing bytes")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A failure inside the remote artifact protocol (see
/// [`crate::remote`]).
///
/// Like [`CodecError`], these are *expected* inputs for the session: the
/// remote tier maps every one of them to a counted miss so the next
/// tier (or the computation) serves the request — a flaky or absent
/// server degrades throughput, never correctness. The variants exist so
/// the `serve`/`store` binaries and the fault-injection tests can tell
/// connection loss from frame damage from version skew.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// A socket operation failed (connect refused, reset, closed
    /// mid-frame).
    Io {
        /// Human-readable description of the I/O failure.
        detail: String,
    },
    /// A read or write did not complete within the configured
    /// [`RetryPolicy`](crate::remote::RetryPolicy) timeout.
    Timeout,
    /// A frame failed structural validation (bad magic, length out of
    /// bounds, checksum mismatch, undecodable body).
    Frame {
        /// Human-readable description of the rejection.
        detail: String,
    },
    /// The peer speaks a different protocol version.
    VersionSkew {
        /// The version the peer announced in its frame header.
        peer: u32,
    },
    /// The request was not attempted: the server is marked unhealthy
    /// and the re-probe interval has not elapsed.
    Unavailable,
    /// The server shed the request at its in-flight bound
    /// ([`Response::Overloaded`](crate::remote::Response::Overloaded)).
    /// Retryable — and proof the server is alive, so it never marks the
    /// tier unhealthy.
    Overloaded,
    /// The peer answered with a well-formed frame that violates the
    /// protocol (wrong response kind, mismatched request id) or an
    /// explicit error response.
    Protocol {
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Io { detail } => write!(f, "remote i/o failed: {detail}"),
            RemoteError::Timeout => write!(f, "remote request timed out"),
            RemoteError::Frame { detail } => write!(f, "remote frame rejected: {detail}"),
            RemoteError::VersionSkew { peer } => {
                write!(f, "remote protocol version skew: peer speaks v{peer}")
            }
            RemoteError::Unavailable => {
                write!(f, "remote server marked unhealthy (re-probe pending)")
            }
            RemoteError::Overloaded => {
                write!(
                    f,
                    "remote server overloaded (request shed at the in-flight bound)"
                )
            }
            RemoteError::Protocol { detail } => {
                write!(f, "remote protocol violation: {detail}")
            }
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<std::io::Error> for RemoteError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RemoteError::Timeout,
            _ => RemoteError::Io {
                detail: e.to_string(),
            },
        }
    }
}

/// Any failure raised by an [`Explorer`](crate::Explorer) session.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplorerError {
    /// The requested benchmark is not in the session's registry.
    UnknownBenchmark {
        /// The name that failed to resolve.
        name: String,
    },
    /// [`Explorer::with_remote`](crate::Explorer::with_remote) was
    /// given an address that does not parse as an
    /// [`Endpoint`](crate::remote::Endpoint). Runtime server failures
    /// are *not* errors — they degrade to counted recomputes — but a
    /// malformed address is a configuration bug worth failing loudly.
    InvalidEndpoint {
        /// The address that failed to parse.
        addr: String,
        /// Why it was rejected.
        detail: String,
    },
    /// The compile stage rejected the source (paper step 1).
    Frontend(FrontendError),
    /// IR construction or validation failed outside the front end.
    Ir(IrError),
    /// The profiling simulation failed (paper step 2).
    Sim(SimError),
    /// The design-evaluation run failed (paper Figure 1: measuring the
    /// rewritten program on the proposed ASIP).
    Eval(SimError),
    /// A rewritten program computed different outputs than its
    /// baseline: a wrong answer from the rewriter, reported as an
    /// error (a serve daemon answers it; nothing panics).
    OutputMismatch {
        /// The benchmark whose rewritten program diverged.
        benchmark: String,
    },
    /// A suite-level stage was asked to design for zero benchmarks.
    EmptySuite,
}

impl fmt::Display for ExplorerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplorerError::UnknownBenchmark { name } => {
                write!(
                    f,
                    "unknown benchmark `{name}` (not in the session registry)"
                )
            }
            ExplorerError::InvalidEndpoint { addr, detail } => {
                write!(f, "invalid remote endpoint `{addr}`: {detail}")
            }
            ExplorerError::Frontend(e) => write!(f, "compile stage failed: {e}"),
            ExplorerError::Ir(e) => write!(f, "IR validation failed: {e}"),
            ExplorerError::Sim(e) => write!(f, "profiling simulation failed: {e}"),
            ExplorerError::Eval(e) => write!(f, "design evaluation failed: {e}"),
            ExplorerError::OutputMismatch { benchmark } => write!(
                f,
                "design evaluation failed: the rewritten `{benchmark}` computed different \
                 outputs than the baseline"
            ),
            ExplorerError::EmptySuite => {
                write!(f, "suite stage requires at least one benchmark")
            }
        }
    }
}

impl std::error::Error for ExplorerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExplorerError::UnknownBenchmark { .. }
            | ExplorerError::InvalidEndpoint { .. }
            | ExplorerError::OutputMismatch { .. }
            | ExplorerError::EmptySuite => None,
            ExplorerError::Frontend(e) => Some(e),
            ExplorerError::Ir(e) => Some(e),
            ExplorerError::Sim(e) | ExplorerError::Eval(e) => Some(e),
        }
    }
}

impl From<FrontendError> for ExplorerError {
    fn from(e: FrontendError) -> Self {
        ExplorerError::Frontend(e)
    }
}

impl From<IrError> for ExplorerError {
    fn from(e: IrError) -> Self {
        ExplorerError::Ir(e)
    }
}

impl From<SimError> for ExplorerError {
    fn from(e: SimError) -> Self {
        ExplorerError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_frontend::error::Pos;

    #[test]
    fn conversions_preserve_stage_identity() {
        let fe = FrontendError::Lex {
            pos: Pos { line: 1, col: 2 },
            detail: "bad char".into(),
        };
        assert!(matches!(
            ExplorerError::from(fe),
            ExplorerError::Frontend(_)
        ));
        assert!(matches!(
            ExplorerError::from(IrError::EmptyProgram),
            ExplorerError::Ir(_)
        ));
        let se = SimError::UnboundInput { name: "x".into() };
        assert!(matches!(ExplorerError::from(se), ExplorerError::Sim(_)));
    }

    #[test]
    fn display_names_the_stage() {
        let e = ExplorerError::UnknownBenchmark {
            name: "nope".into(),
        };
        assert!(e.to_string().contains("`nope`"));
        let e = ExplorerError::Eval(SimError::StepLimit { limit: 7 });
        assert!(e.to_string().contains("design evaluation"));
        let e = ExplorerError::OutputMismatch {
            benchmark: "fir".into(),
        };
        assert!(e.to_string().contains("`fir` computed different outputs"));
        let e = ExplorerError::EmptySuite;
        assert!(e.to_string().contains("at least one benchmark"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync>() {}
        assert_bounds::<ExplorerError>();
    }
}
