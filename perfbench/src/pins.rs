//! Outputs pinned at the commit that defined the benchmark.
//!
//! `pins.txt` holds one line per checked output, `<key...> = <value>`,
//! where each workload formats both sides with the same function. The
//! file is compiled in, so a run reads nothing outside the build.
//! Regenerate it with `--pin` only when a change to the program is meant
//! to change results.

use std::collections::BTreeMap;
use std::sync::OnceLock;

const PINS: &str = include_str!("../pins.txt");

fn table() -> &'static BTreeMap<&'static str, &'static str> {
    static T: OnceLock<BTreeMap<&'static str, &'static str>> = OnceLock::new();
    T.get_or_init(|| {
        PINS.lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once(" = "))
            .collect()
    })
}

/// The pinned value for `key`, if any.
pub fn get(key: &str) -> Option<&'static str> {
    table().get(key).copied()
}

/// Counts checks and reports mismatches on stderr.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// One checked operation: `actual` must equal the pin for `key`.
    pub fn pinned(&mut self, key: &str, actual: &str) {
        match get(key) {
            Some(p) if p == actual => self.ok(),
            Some(p) => self.fail(&format!("{key}: got {actual}, pinned {p}")),
            None => self.fail(&format!("{key}: no pinned value (got {actual})")),
        }
    }

    /// One checked operation with a boolean outcome.
    pub fn expect(&mut self, ok: bool, what: &str) {
        if ok {
            self.ok();
        } else {
            self.fail(what);
        }
    }

    fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("CHECK FAILED: {what}");
        }
    }
}
