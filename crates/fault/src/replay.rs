//! The software replay runtime (paper §4.5).
//!
//! On a critical (uncorrectable) error the runtime replays the inference
//! "to determine if the fault is *transient* and disappears after
//! replaying … or persists after a retry and requires physical
//! intervention". The policy below is that state machine: replay up to a
//! budget, then fail over to a spare and replay once more.

use crate::inject::FecStats;

/// Replay policy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayPolicy {
    /// Replays to attempt before declaring the fault persistent.
    pub max_replays: u32,
}

impl Default for ReplayPolicy {
    fn default() -> Self {
        ReplayPolicy { max_replays: 2 }
    }
}

/// How a monitored inference concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// First execution was clean (possibly with in-situ corrections).
    CleanFirstTry {
        /// FEC tally of the run.
        stats: FecStats,
    },
    /// A transient fault: some replay succeeded.
    RecoveredAfterReplay {
        /// Replays consumed before success.
        replays: u32,
        /// FEC tally of the successful run.
        stats: FecStats,
    },
    /// The fault persisted across the replay budget: physical intervention
    /// (cable/PSU/card swap) or spare failover required.
    Persistent {
        /// Total executions attempted.
        attempts: u32,
    },
}

impl ReplayOutcome {
    /// True if the inference ultimately produced trustworthy output.
    pub fn succeeded(&self) -> bool {
        !matches!(self, ReplayOutcome::Persistent { .. })
    }
}

/// Runs `execute` (which returns the run's FEC tally) under the replay
/// policy.
pub fn run_with_replay(
    policy: ReplayPolicy,
    mut execute: impl FnMut(u32) -> FecStats,
) -> ReplayOutcome {
    let first = execute(0);
    if first.is_clean_run() {
        return ReplayOutcome::CleanFirstTry { stats: first };
    }
    for replay in 1..=policy.max_replays {
        let stats = execute(replay);
        if stats.is_clean_run() {
            return ReplayOutcome::RecoveredAfterReplay {
                replays: replay,
                stats,
            };
        }
    }
    ReplayOutcome::Persistent {
        attempts: policy.max_replays + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> FecStats {
        FecStats {
            clean: 100,
            corrected: 0,
            uncorrectable: 0,
        }
    }

    fn corrected() -> FecStats {
        FecStats {
            clean: 99,
            corrected: 1,
            uncorrectable: 0,
        }
    }

    fn broken() -> FecStats {
        FecStats {
            clean: 99,
            corrected: 0,
            uncorrectable: 1,
        }
    }

    #[test]
    fn clean_run_needs_no_replay() {
        let mut calls = 0;
        let out = run_with_replay(ReplayPolicy::default(), |_| {
            calls += 1;
            clean()
        });
        assert!(matches!(out, ReplayOutcome::CleanFirstTry { .. }));
        assert_eq!(calls, 1);
    }

    #[test]
    fn corrected_errors_do_not_trigger_replay() {
        // In-situ FEC correction is invisible to the runtime — exactly the
        // point of FEC over link-layer retry.
        let out = run_with_replay(ReplayPolicy::default(), |_| corrected());
        assert!(matches!(out, ReplayOutcome::CleanFirstTry { .. }));
        assert!(out.succeeded());
    }

    #[test]
    fn transient_fault_recovers_on_replay() {
        let out = run_with_replay(ReplayPolicy::default(), |attempt| {
            if attempt == 0 {
                broken()
            } else {
                clean()
            }
        });
        assert_eq!(
            out,
            ReplayOutcome::RecoveredAfterReplay {
                replays: 1,
                stats: clean()
            }
        );
        assert!(out.succeeded());
    }

    #[test]
    fn persistent_fault_exhausts_budget() {
        let mut calls = 0;
        let out = run_with_replay(ReplayPolicy { max_replays: 3 }, |_| {
            calls += 1;
            broken()
        });
        assert_eq!(out, ReplayOutcome::Persistent { attempts: 4 });
        assert_eq!(calls, 4);
        assert!(!out.succeeded());
    }
}
