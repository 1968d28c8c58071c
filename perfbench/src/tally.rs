//! Failure accounting: every operation the benchmark makes is counted,
//! and a failure is recorded without stopping the run.
//!
//! Two kinds of failure are told apart:
//!
//! * the program *refused*: a call returned `Err` — including
//!   `FunctionalMismatch`, which is the program's own golden model
//!   catching a wrong macro output. The operation failed; no wrong
//!   answer was accepted.
//! * the program returned a *wrong answer* as a success: one of the
//!   benchmark's own checks (digest, byte fixpoint, bit-equal query,
//!   traced-vs-untraced identity) failed. The operation failed and the
//!   run's outputs are not correct.
//!
//! Both count toward `failed`; only the second clears `correct`.

use std::collections::BTreeMap;
use std::fmt::Display;

use crate::json::Json;

/// Attempted and failed operation counts of one run.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    /// Failures per operation name, with the first message seen.
    failures: BTreeMap<String, (u64, String)>,
}

impl Tally {
    /// Count one attempted operation and return its value, or record
    /// the error and return `None` so the caller carries on.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(what, e.to_string());
                None
            }
        }
    }

    /// Record the verdict of the benchmark's own checks on an operation
    /// already counted by [`Tally::op`]. Returns `ok`.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        if !ok {
            self.wrong += 1;
            self.fail(what, detail());
        }
        ok
    }

    fn fail(&mut self, what: &str, message: String) {
        self.failed += 1;
        self.failures.entry(what.to_string()).or_insert((0, message)).0 += 1;
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed, for either reason.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `true` when no check caught a wrong answer returned as a success.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// Failures by operation, for the run's report.
    pub fn failures_json(&self) -> Json {
        Json::Obj(
            self.failures
                .iter()
                .map(|(what, (n, msg))| {
                    (
                        what.clone(),
                        Json::obj([("count", Json::from(*n)), ("first", Json::from(msg.as_str()))]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_and_wrong_answers_both_fail_but_only_wrong_answers_are_incorrect() {
        let mut t = Tally::default();
        assert_eq!(t.op::<u32, String>("ok", Ok(1)), Some(1));
        assert_eq!(t.op::<u32, String>("refused", Err("no".into())), None);
        assert!(t.correct());
        t.check("digest", false, || "differs".into());
        assert_eq!((t.attempted(), t.failed(), t.correct()), (2, 2, false));
    }
}
