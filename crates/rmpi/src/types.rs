//! Identifiers, wildcards, and errors.

/// Process identifier, unique within a [`crate::Universe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u64);

/// Communicator identifier, unique within a [`crate::Universe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommId(pub u64);

/// Wildcard source rank (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Option<u32> = None;

/// Wildcard tag (`MPI_ANY_TAG`).
pub const ANY_TAG: Option<u64> = None;

/// Completion status of a receive (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank of the sender within the matched communicator('s remote group).
    pub source: u32,
    /// Tag of the matched message.
    pub tag: u64,
    /// Virtual byte count of the message.
    pub len: u64,
}

/// Errors surfaced by rmpi operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Rank out of range for the communicator.
    InvalidRank(u32),
    /// The local process is not a member of the communicator.
    NotAMember,
    /// The process was finalized or the universe shut down.
    Finalized,
    /// A blocking call exceeded its deadline.
    Timeout,
    /// DPM spawn failed.
    SpawnFailed(String),
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::InvalidRank(r) => write!(f, "invalid rank {r}"),
            MpiError::NotAMember => f.write_str("calling process is not a communicator member"),
            MpiError::Finalized => f.write_str("process finalized"),
            MpiError::Timeout => f.write_str("operation timed out"),
            MpiError::SpawnFailed(m) => write!(f, "spawn failed: {m}"),
        }
    }
}

impl std::error::Error for MpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcards_are_none() {
        assert!(ANY_SOURCE.is_none());
        assert!(ANY_TAG.is_none());
    }

    #[test]
    fn error_display() {
        assert_eq!(MpiError::InvalidRank(9).to_string(), "invalid rank 9");
        assert_eq!(MpiError::Timeout.to_string(), "operation timed out");
    }
}
