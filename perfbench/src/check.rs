//! Output checks: every checked operation counts once in `attempted`,
//! and once in `failed` if any of its checks failed.

#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// The checks of one operation.
#[derive(Default)]
pub struct Checks(Vec<String>);

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Tally {
    /// Counts one operation and whether its checks passed.
    pub fn record(&mut self, op: &str, checks: Checks) {
        self.attempted += 1;
        if !checks.0.is_empty() {
            self.failed += 1;
            for failure in checks.0 {
                eprintln!("check failed: {op}: {failure}");
                self.failures.push(format!("{op}: {failure}"));
            }
        }
    }

    /// Counts one operation that failed before it could be checked.
    pub fn error(&mut self, op: &str, error: impl std::fmt::Display) {
        let mut checks = Checks::default();
        checks.expect(false, || error.to_string());
        self.record(op, checks);
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_output_counts_in_error_rate() {
        let mut tally = Tally::default();
        let reference = "{\"deps\": [\"a -> b\"]}";
        for output in [reference, reference, "{\"deps\": []}", reference] {
            let mut checks = Checks::default();
            checks.expect(output == reference, || "package differs from pass 1".into());
            tally.record("pass", checks);
        }
        assert_eq!((tally.attempted, tally.failed), (4, 1));
        assert_eq!(tally.error_rate(), 0.25);
        tally.error("pass", "decode failed");
        assert_eq!((tally.attempted, tally.failed), (5, 2));
    }

    #[test]
    fn nothing_attempted_is_a_total_failure() {
        assert_eq!(Tally::default().error_rate(), 1.0);
    }
}
