//! Operation and output-check accounting behind `attempted`, `failed` and
//! `failed_frac`.

/// Counts attempted operations and output checks, and the ones that failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations plus checks attempted.
    pub attempted: u64,
    /// Failed operations (errors, sheds, `Failed` responses) plus failed
    /// checks.
    pub failed: u64,
    /// Output checks run.
    pub checks: u64,
    /// The first few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    const KEEP: usize = 20;

    /// Counts `n` operations that all succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation or check; a failure is recorded with `what`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one output check; a failure is recorded with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        self.record(ok, what);
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < Self::KEEP {
            self.failures.push(what);
        }
    }

    /// Whether any output check or operation failed.
    pub fn all_ok(&self) -> bool {
        self.failed == 0
    }
}
