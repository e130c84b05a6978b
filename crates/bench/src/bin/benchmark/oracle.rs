//! The correctness oracle: output digests pinned in `oracle.json`, next
//! to this file, and the seeds the benchmark is run with.

use serde_json::Value;

/// What a pinned digest says about an output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The output hashes to the pinned digest.
    Match,
    /// The output differs from the pinned one, whose digest is given.
    Mismatch(String),
    /// Nothing is pinned for this output (for example a `serve-mixed`
    /// seed outside the pinned set).
    Unpinned,
}

/// The pinned digests.
#[derive(Debug, Clone)]
pub struct Oracle(Value);

impl Oracle {
    /// The digests `oracle.json` pins.
    pub fn pinned() -> Oracle {
        Oracle::parse(include_str!("oracle.json")).expect("oracle.json is valid JSON")
    }

    /// An oracle from JSON text.
    pub fn parse(text: &str) -> Result<Oracle, String> {
        serde_json::from_str(text)
            .map(Oracle)
            .map_err(|e| format!("oracle: {e}"))
    }

    /// Checks `digest` against the one pinned under `section` → `key`.
    pub fn check(&self, section: &str, key: &str, digest: &str) -> Verdict {
        match self.0[section][key].as_str() {
            None => Verdict::Unpinned,
            Some(pinned) if pinned == digest => Verdict::Match,
            Some(pinned) => Verdict::Mismatch(pinned.to_owned()),
        }
    }

    /// The seed `run` and `trace` use by default.
    pub fn default_seed(&self) -> u64 {
        self.0["seeds"]["default"].as_u64().unwrap_or(1)
    }

    /// The run length the pinned `serve-mixed` answer digests were
    /// taken with; other lengths send other requests.
    pub fn serve_seconds(&self) -> f64 {
        self.0["serve-mixed"]["seconds"].as_f64().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::digest;

    #[test]
    fn pinned_oracle_names_seeds_and_every_input() {
        let o = Oracle::pinned();
        assert_eq!(o.0["seeds"]["held_out"].as_array().map(Vec::len), Some(2));
        for (variant, _) in crate::inputs::FLOW_VARIANTS {
            assert_ne!(
                o.check("flow", variant, "x"),
                Verdict::Unpinned,
                "{variant}"
            );
        }
        for model in crate::inputs::DSE_MODELS {
            assert_ne!(
                o.check("dse-dense", model, "x"),
                Verdict::Unpinned,
                "{model}"
            );
        }
        assert!(o.serve_seconds() > 0.0);
    }

    #[test]
    fn corrupted_digest_fails_the_check() {
        let output = b"{\"model\": \"Alexnet\"}";
        let good = digest(output);
        let o = Oracle::parse(&format!(r#"{{"flow": {{"plain": "{good}"}}}}"#)).unwrap();
        assert_eq!(o.check("flow", "plain", &digest(output)), Verdict::Match);
        let mut corrupted = output.to_vec();
        corrupted[3] ^= 1;
        assert_eq!(
            o.check("flow", "plain", &digest(&corrupted)),
            Verdict::Mismatch(good)
        );
        assert_eq!(
            o.check("flow", "extended", &digest(output)),
            Verdict::Unpinned
        );
    }
}
