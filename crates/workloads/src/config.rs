//! Parameter validation at the workload boundary.
//!
//! The workload drivers assert their preconditions, because a bad
//! parameter inside a library call is a programming error. Parameters
//! that arrive from outside — the CLI's flags — are checked first with
//! the `validate` methods here, so a degenerate value becomes a typed
//! [`ConfigError`] and a nonzero exit instead of a panic.

use std::error::Error;
use std::fmt;

use crate::bigmesh::BigMeshConfig;
use crate::pipeline::PipelineConfig;
use crate::task_queue::TaskQueueConfig;

/// A workload parameter no run can honour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A size or count below the smallest value the workload supports.
    TooSmall {
        /// The parameter, named as the CLI flag that sets it.
        what: &'static str,
        /// The smallest supported value.
        min: u64,
        /// The value given.
        got: u64,
    },
    /// Only one of an explicit `rows` x `cols` geometry was given.
    PartialGeometry,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooSmall { what, min, got } => {
                write!(f, "{what} must be at least {min}, got {got}")
            }
            ConfigError::PartialGeometry => write!(f, "--rows and --cols must be given together"),
        }
    }
}

impl Error for ConfigError {}

fn at_least(what: &'static str, min: u64, got: u64) -> Result<(), ConfigError> {
    if got < min {
        Err(ConfigError::TooSmall { what, min, got })
    } else {
        Ok(())
    }
}

impl TaskQueueConfig {
    /// Checks a Figure 2 point: `nodes` must host the producer and at
    /// least one consumer, and there must be a task to hand out.
    ///
    /// # Errors
    ///
    /// [`ConfigError::TooSmall`] naming the offending parameter.
    pub fn validate(&self, nodes: usize) -> Result<(), ConfigError> {
        at_least("--sizes", 2, nodes as u64)?;
        at_least("--tasks", 1, u64::from(self.total_tasks))
    }
}

impl PipelineConfig {
    /// Checks a Figure 8 point: at least one CPU, and at least one token
    /// visit to run.
    ///
    /// # Errors
    ///
    /// [`ConfigError::TooSmall`] naming the offending parameter.
    pub fn validate(&self, nodes: usize) -> Result<(), ConfigError> {
        at_least("--sizes", 1, nodes as u64)?;
        at_least("--visits", 1, u64::from(self.total_visits))
    }
}

impl BigMeshConfig {
    /// Checks the mesh: an explicit geometry needs both dimensions and
    /// rows of at least two CPUs, a derived one at least two CPUs, and
    /// every node needs at least one lap.
    ///
    /// # Errors
    ///
    /// [`ConfigError::PartialGeometry`] or [`ConfigError::TooSmall`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if (self.rows == 0) != (self.cols == 0) {
            return Err(ConfigError::PartialGeometry);
        }
        if self.rows == 0 {
            at_least("--nodes", 2, self.nodes as u64)?;
        } else {
            at_least("--cols", 2, u64::from(self.cols))?;
        }
        at_least("--laps", 1, u64::from(self.laps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert_eq!(TaskQueueConfig::default().validate(3), Ok(()));
        assert_eq!(PipelineConfig::default().validate(1), Ok(()));
        assert_eq!(BigMeshConfig::default().validate(), Ok(()));
    }

    #[test]
    fn degenerate_values_name_their_flag() {
        let tq = TaskQueueConfig {
            total_tasks: 0,
            ..TaskQueueConfig::default()
        };
        assert_eq!(
            tq.validate(3).unwrap_err().to_string(),
            "--tasks must be at least 1, got 0"
        );
        assert!(TaskQueueConfig::default().validate(1).is_err());
        assert!(PipelineConfig::default().validate(0).is_err());
        let mesh = BigMeshConfig {
            nodes: 0,
            ..BigMeshConfig::default()
        };
        assert_eq!(
            mesh.validate(),
            Err(ConfigError::TooSmall {
                what: "--nodes",
                min: 2,
                got: 0
            })
        );
        let partial = BigMeshConfig {
            rows: 0,
            cols: 5,
            ..BigMeshConfig::default()
        };
        assert_eq!(partial.validate(), Err(ConfigError::PartialGeometry));
    }
}
