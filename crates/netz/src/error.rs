//! Error type shared by the netz layer and its clients.

/// Errors surfaced by the transport layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetzError {
    /// Connection establishment failed or timed out.
    ConnectFailed(String),
    /// The channel is (or became) closed.
    ChannelClosed,
    /// The remote returned an application failure (RpcFailure,
    /// ChunkFetchFailure, StreamFailure).
    Remote(String),
    /// A request timed out waiting for its response.
    Timeout,
    /// A frame failed to decode.
    Codec(String),
}

impl NetzError {
    /// Build a codec error.
    pub fn codec(msg: impl Into<String>) -> Self {
        NetzError::Codec(msg.into())
    }

    /// True when the error indicts the *communication plane* (the transport
    /// under the channel) rather than the specific request: failed connects,
    /// dead channels, and silent timeouts. Consecutive plane failures are
    /// what triggers fallback from an MPI/RDMA plane to sockets.
    pub fn is_plane_failure(&self) -> bool {
        matches!(self, NetzError::ConnectFailed(_) | NetzError::ChannelClosed | NetzError::Timeout)
    }
}

impl std::fmt::Display for NetzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetzError::ConnectFailed(m) => write!(f, "connect failed: {m}"),
            NetzError::ChannelClosed => f.write_str("channel closed"),
            NetzError::Remote(m) => write!(f, "remote failure: {m}"),
            NetzError::Timeout => f.write_str("request timed out"),
            NetzError::Codec(m) => write!(f, "codec error: {m}"),
        }
    }
}

impl std::error::Error for NetzError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings() {
        assert_eq!(NetzError::ChannelClosed.to_string(), "channel closed");
        assert_eq!(NetzError::Timeout.to_string(), "request timed out");
        assert_eq!(NetzError::codec("bad").to_string(), "codec error: bad");
        assert_eq!(NetzError::Remote("x".into()).to_string(), "remote failure: x");
    }

    #[test]
    fn taxonomy_splits_plane_from_request_failures() {
        assert!(NetzError::ConnectFailed("refused".into()).is_plane_failure());
        assert!(NetzError::ChannelClosed.is_plane_failure());
        assert!(NetzError::Timeout.is_plane_failure());
        assert!(!NetzError::Remote("app error".into()).is_plane_failure());
        assert!(!NetzError::codec("bad").is_plane_failure());
    }
}
