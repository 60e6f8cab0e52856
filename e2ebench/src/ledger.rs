//! Failure accounting: every workload run goes through [`Ledger::run`],
//! which counts it as attempted and as failed on an error or a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed run.
    pub reasons: Vec<String>,
}

impl Ledger {
    /// Run `f` as one attempted run labelled `label`. A returned error or a
    /// caught panic fails the run; `None` is returned then.
    pub fn run<T>(&mut self, label: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let reason = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => e,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                format!("panic: {msg}")
            }
        };
        self.failed += 1;
        self.reasons.push(format!("{label}: {reason}"));
        None
    }

    /// Failed runs over attempted runs (0 when nothing was attempted).
    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_run_counts_as_failed_and_attempted() {
        let mut ledger = Ledger::default();
        assert_eq!(ledger.run("a", || Ok(1)), Some(1));
        let caught: Option<u32> = ledger.run("b", || panic!("boom"));
        assert_eq!(caught, None);
        assert_eq!(ledger.run("c", || Ok(3)), Some(3));
        assert_eq!((ledger.attempted, ledger.failed), (3, 1));
        assert!((ledger.fail_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(ledger.reasons, vec!["b: panic: boom".to_string()]);
    }

    #[test]
    fn returned_error_fails_the_run() {
        let mut ledger = Ledger::default();
        let r: Option<()> = ledger.run("x", || Err("digest mismatch".into()));
        assert!(r.is_none());
        assert_eq!(ledger.failed, 1);
        assert_eq!(ledger.reasons[0], "x: digest mismatch");
    }

    #[test]
    fn empty_ledger_has_zero_fail_rate() {
        assert_eq!(Ledger::default().fail_rate(), 0.0);
    }
}
