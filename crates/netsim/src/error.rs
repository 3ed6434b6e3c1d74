//! Simulation errors: the [`SimError`] type returned by fallible public
//! APIs across the workspace.
//!
//! Validating constructors (`try_new`, `try_build`), agent lookup
//! ([`crate::shard::ShardedSimulator::try_agent`]) and fault installation
//! return `Result<_, SimError>`, so embedding code (CLIs, harnesses,
//! long-running chaos drivers) can degrade gracefully instead of aborting.
//! The enum is deliberately `thiserror`-free: this workspace builds offline,
//! so the `Display`/`Error` impls are written by hand.

use crate::packet::AgentId;
use std::fmt;

/// Errors surfaced by fallible simulator and protocol APIs.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The referenced agent id was never registered.
    UnknownAgent(AgentId),
    /// The agent exists but is not of the requested concrete type.
    AgentTypeMismatch {
        /// The agent that failed to downcast.
        agent: AgentId,
        /// The concrete type that was requested.
        expected: &'static str,
    },
    /// The agent is currently being dispatched (re-entrant access).
    AgentBusy(AgentId),
    /// A configuration value was rejected; the message explains which.
    InvalidConfig(String),
    /// A port index was out of range for the agent.
    InvalidPort(usize),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownAgent(id) => write!(f, "unknown agent {id}"),
            SimError::AgentTypeMismatch { agent, expected } => {
                write!(f, "agent type mismatch: {agent} is not a {expected}")
            }
            SimError::AgentBusy(id) => {
                write!(f, "agent {id} is currently being dispatched")
            }
            // Bare message so `try_*().unwrap_or_else(|e| panic!("{e}"))`
            // reproduces the exact panic strings older tests assert on.
            SimError::InvalidConfig(msg) => write!(f, "{msg}"),
            SimError::InvalidPort(i) => write!(f, "port index {i} out of range"),
        }
    }
}

impl std::error::Error for SimError {}

/// Shorthand used by `try_new`-style constructors.
pub fn invalid_config(msg: impl Into<String>) -> SimError {
    SimError::InvalidConfig(msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_stable() {
        assert_eq!(
            SimError::UnknownAgent(AgentId(3)).to_string(),
            format!("unknown agent {}", AgentId(3))
        );
        assert_eq!(
            SimError::InvalidConfig("beta must be in (0,2)".into()).to_string(),
            "beta must be in (0,2)"
        );
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&SimError::InvalidPort(9));
    }
}
