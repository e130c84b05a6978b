//! # claire-bench — experiment harnesses for every CLAIRE table and
//! figure
//!
//! One binary per paper artefact regenerates the corresponding table
//! or figure from a full framework run:
//!
//! | target | artefact |
//! |---|---|
//! | `table1` | Table I — training-set algorithms and parameter counts |
//! | `table2` | Table II — chiplet libraries of the `C_k` configurations |
//! | `table3` | Table III — subset partition and test assignment |
//! | `table4` | Table IV — training-phase NRE costs |
//! | `table5` | Table V — chiplet utilization on `C_g` vs `C_k` |
//! | `table6` | Table VI — test-phase NRE costs |
//! | `figure2` | Fig. 2 — edge-combination histogram |
//! | `figure3` | Fig. 3 — `C_1` graphs before/after clustering (DOT) |
//! | `figure4` | Fig. 4 — area/latency/energy on `C_g`/`C_i`/`C_k` |
//! | `ablate_clustering` | clustering-strategy ablation |
//! | `ablate_threshold` | Jaccard-threshold sweep |
//! | `ablate_cost` | monolithic vs chiplet recurring cost (area wall) |
//!
//! Criterion benches (`cargo bench`) time the framework itself — the
//! paper reports an eight-minute end-to-end convergence; this
//! implementation converges in well under a second.

#![forbid(unsafe_code)]

use claire_core::{
    paper_table3_subsets, Claire, ClaireOptions, Engine, SubsetStrategy, TestOutput, TrainOutput,
};
use claire_model::{zoo, Model};

pub mod tables;

/// Options pinned to the paper's published Table III partition so
/// that downstream tables are reproduced conditional on it (see
/// EXPERIMENTS.md for why the partition itself is under-determined).
pub fn paper_options() -> ClaireOptions {
    ClaireOptions {
        subsets: SubsetStrategy::Fixed(paper_table3_subsets()),
        ..ClaireOptions::default()
    }
}

/// A complete framework run: training + test phases on the paper's
/// 13 + 6 algorithms.
pub struct PaperRun {
    /// The 13 training algorithms (Table I order).
    pub training: Vec<Model>,
    /// The 6 test algorithms.
    pub tests: Vec<Model>,
    /// Training-phase outputs.
    pub train: TrainOutput,
    /// Test-phase outputs.
    pub test: TestOutput,
}

/// Executes the full paper flow with [`paper_options`].
///
/// # Panics
///
/// Panics when the framework cannot derive a feasible configuration —
/// with the default constraints and model zoo this does not happen
/// (the integration tests pin that).
pub fn run_paper_flow() -> PaperRun {
    run_flow(paper_options())
}

/// Executes the full flow with caller-supplied options.
///
/// # Panics
///
/// Panics when training or testing fails (see [`run_paper_flow`]).
pub fn run_flow(opts: ClaireOptions) -> PaperRun {
    let engine = Engine::for_space(&opts.space);
    run_flow_with_engine(opts, &engine)
}

/// [`run_flow`] on an explicit evaluation [`Engine`], so callers can
/// control threads/caching and read the engine's counters afterwards.
///
/// # Panics
///
/// Panics when training or testing fails (see [`run_paper_flow`]).
pub fn run_flow_with_engine(opts: ClaireOptions, engine: &Engine) -> PaperRun {
    let claire = Claire::new(opts);
    let training = zoo::training_set();
    let tests = zoo::test_set();
    let train = claire
        .train_with_engine(&training, engine)
        .expect("training phase");
    let test = claire
        .evaluate_test_with_engine(&train, &tests, engine)
        .expect("test phase");
    PaperRun {
        training,
        tests,
        train,
        test,
    }
}

/// Renders rows as an aligned text table with a header.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("== {title} ==\n");
    let line = |cells: Vec<String>, widths: &[usize]| {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&line(
        header.iter().map(|s| (*s).to_owned()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row.clone(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            "t",
            &["a", "bbbb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["longer".into(), "z".into()],
            ],
        );
        assert!(t.contains("== t =="));
        assert!(t.contains("longer  z"));
        // header padded to widest cell
        assert!(t.contains("a       bbbb"));
    }

    #[test]
    fn paper_options_pin_subsets() {
        match paper_options().subsets {
            SubsetStrategy::Fixed(groups) => assert_eq!(groups.len(), 5),
            other => panic!("unexpected {other:?}"),
        }
    }
}
