//! Counting operations and their failures.

/// Operations attempted and failed in one run, with the first failure
/// messages kept for the log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Records `count` operations that share one outcome (a checked
    /// answer stands for every operation that returned it).
    pub fn record(&mut self, what: &str, count: u64, outcome: Result<(), String>) {
        self.attempted += count;
        if let Err(e) = outcome {
            self.failed += count;
            if self.notes.len() < 20 {
                self.notes.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}
