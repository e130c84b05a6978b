//! The [`Claire`] façade: training phase (custom / generic / library
//! configurations) and test phase (assignment + metric evaluation),
//! i.e. the full Fig. 1 pipeline.

use crate::assign::{partition_training, partition_training_merged, scaled_vector, WeightScale};
use crate::chiplet::cluster_into_chiplets_with_engine;
use crate::config::{Constraints, DesignConfig};
use crate::dse::{
    custom_config_with_engine, set_config_with_engine, with_relaxation_observed, Degradation,
    DseObjective, RobustnessPolicy,
};
use crate::error::ClaireError;
use crate::evaluate::PpaReport;
use crate::metrics::{algorithm_coverage, chiplet_utilization, normalized_nre};
use crate::parallel::Engine;
use crate::plan::flat::{
    build_eval_table, custom_from_row, set_config_from_table, EvalTable, ModelRow,
};
use crate::telemetry::TelemetryOptions;
use claire_cost::NreModel;
use claire_model::{ActivationKind, Model, OpClass};
use claire_ppa::DseSpace;
use std::collections::BTreeMap;

/// How the training set is split into the library subsets `TR_k`.
#[derive(Debug, Clone)]
pub enum SubsetStrategy {
    /// Algorithm 1, line 14: single-linkage agglomeration over the
    /// weighted Jaccard similarity of (scaled) node-weight vectors.
    WeightedJaccard {
        /// Minimum pairwise similarity for two algorithms to share a
        /// subset.
        threshold: f64,
        /// Node-weight scaling before comparison.
        scale: WeightScale,
    },
    /// A caller-pinned partition, by algorithm name. Used by the
    /// table-reproduction benches to condition on the paper's
    /// published Table III partition (see EXPERIMENTS.md — the exact
    /// published grouping is not uniquely recoverable from layer
    /// metadata alone). Names absent from the training set are
    /// ignored; training models not named fall into singleton subsets.
    Fixed(Vec<Vec<String>>),
}

impl Default for SubsetStrategy {
    fn default() -> Self {
        SubsetStrategy::WeightedJaccard {
            threshold: 0.6,
            scale: WeightScale::Log,
        }
    }
}

/// Tunable knobs of the framework run.
#[derive(Debug, Clone)]
pub struct ClaireOptions {
    /// Input #4 constraints.
    pub constraints: Constraints,
    /// DSE scope (default: the paper's 81 configurations).
    pub space: DseSpace,
    /// Subset formation strategy (Algorithm 1, line 14).
    pub subsets: SubsetStrategy,
    /// Node-weight scaling used for test-set assignment similarity.
    pub assign_scale: WeightScale,
    /// Louvain resolution for chiplet clustering.
    pub louvain_resolution: f64,
    /// NRE cost model.
    pub nre: NreModel,
    /// Whether the generic configuration provisions the characterized
    /// tanh block even when no training algorithm exercises it (full
    /// composability of the generic library).
    pub provision_tanh_in_generic: bool,
    /// What to do when a stage finds no feasible configuration:
    /// fail fast with a typed error, or walk the constraint-relaxation
    /// ladder and flag the result as degraded.
    pub policy: RobustnessPolicy,
    /// Telemetry export destinations (Chrome trace and/or metrics
    /// JSON). Tracing is armed on façade-built engines exactly when a
    /// trace path is set, so runs without exports stay on the
    /// counters-only fast path.
    pub telemetry: TelemetryOptions,
    /// Directory for the persistent warm-state snapshot (`None`
    /// disables persistence). When set, drivers load the snapshot
    /// into a fresh engine before the flow
    /// ([`Claire::load_warm_state`]) and save the warmed tiers after
    /// it ([`Claire::save_warm_state`]), so the next process starts
    /// at warm-reflow speed. The snapshot holds only memo-tier
    /// entries — pure functions of their canonical keys — so loading
    /// one never changes results, only how fast they arrive.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ClaireOptions {
    fn default() -> Self {
        ClaireOptions {
            constraints: Constraints::default(),
            space: DseSpace::default(),
            subsets: SubsetStrategy::default(),
            assign_scale: WeightScale::Log,
            louvain_resolution: 1.0,
            nre: NreModel::tsmc28(),
            provision_tanh_in_generic: true,
            policy: RobustnessPolicy::default(),
            telemetry: TelemetryOptions::default(),
            cache_dir: None,
        }
    }
}

/// The training-set partition published in the paper's Table III,
/// keyed by Table I algorithm names. Passing
/// `SubsetStrategy::Fixed(paper_table3_subsets())` reproduces the
/// paper's `C_1`–`C_5` libraries exactly.
pub fn paper_table3_subsets() -> Vec<Vec<String>> {
    let groups: [&[&str]; 5] = [
        &[
            "VGG16",
            "Mobilenetv2",
            "Densenet121",
            "Resnet50",
            "SWIN-T",
            "Resnet18",
        ],
        &["PEANUT RCNN"],
        &[
            "DPT-Large",
            "DINOv2-large",
            "Mixtral-8x7B",
            "Meta Llama-3-8B",
        ],
        &["Whisperv3-large"],
        &["GPT2"],
    ];
    groups
        .iter()
        .map(|g| g.iter().map(|s| (*s).to_owned()).collect())
        .collect()
}

/// One custom design configuration `C_i` with its algorithm and PPA.
#[derive(Debug, Clone)]
pub struct CustomResult {
    /// The algorithm.
    pub model: Model,
    /// Its clustered custom configuration.
    pub config: DesignConfig,
    /// PPA of the algorithm on it.
    pub report: PpaReport,
    /// Constraint relaxations that were needed to find the
    /// configuration (`None` when it satisfied the caller's
    /// constraints as given).
    pub degradation: Option<Degradation>,
}

/// One library-synthesized configuration `C_k` with its subset.
#[derive(Debug, Clone)]
pub struct LibraryConfig {
    /// The clustered configuration (named `C_1`, `C_2`, …).
    pub config: DesignConfig,
    /// Indices (into the training set) of the member algorithms.
    pub members: Vec<usize>,
    /// Member algorithm names (`TR_k`).
    pub member_names: Vec<String>,
    /// Node-weight vector of the configuration's universal graph,
    /// used for test-set assignment.
    pub vector: BTreeMap<OpClass, f64>,
    /// `NRE_k`: normalised NRE of this configuration.
    pub nre_normalized: f64,
    /// `NRE_cstm(k, TR_k)`: cumulative normalised NRE of the members'
    /// custom configurations.
    pub cumulative_custom_nre: f64,
    /// Constraint relaxations needed to synthesize the configuration.
    pub degradation: Option<Degradation>,
}

/// Per-algorithm PPA on all three configuration classes (Fig. 4 data).
#[derive(Debug, Clone)]
pub struct AlgoPpa {
    /// Algorithm name.
    pub model_name: String,
    /// PPA on the custom configuration `C_i` / `Ct_i`.
    pub custom: PpaReport,
    /// PPA on the generic configuration `C_g`.
    pub generic: PpaReport,
    /// PPA on the assigned library configuration `C_k`.
    pub library: PpaReport,
    /// Index of the assigned library.
    pub library_index: usize,
}

/// The training-phase outputs (#TR1–#TR3).
#[derive(Debug, Clone)]
pub struct TrainOutput {
    /// Custom configurations, one per training algorithm, in input
    /// order.
    pub customs: Vec<CustomResult>,
    /// The generic configuration `C_g` (clustered).
    pub generic: DesignConfig,
    /// The library-synthesized configurations `C_k`.
    pub libraries: Vec<LibraryConfig>,
    /// Per-algorithm PPA on custom / generic / library (Fig. 4).
    pub algo_ppa: Vec<AlgoPpa>,
    /// Constraint relaxations needed for the generic configuration.
    pub generic_degradation: Option<Degradation>,
}

impl TrainOutput {
    /// Whether any stage of the run needed constraint relaxation.
    pub fn is_degraded(&self) -> bool {
        self.generic_degradation.is_some()
            || self.customs.iter().any(|c| c.degradation.is_some())
            || self.libraries.iter().any(|l| l.degradation.is_some())
    }
}

impl TrainOutput {
    /// The library index whose subset contains training-model `i`.
    pub fn library_of(&self, model_index: usize) -> Option<usize> {
        self.libraries
            .iter()
            .position(|l| l.members.contains(&model_index))
    }
}

/// One test algorithm's evaluation (#TT1–#TT4).
#[derive(Debug, Clone)]
pub struct TestReport {
    /// Algorithm name.
    pub model_name: String,
    /// Index of the assigned library configuration, `None` when no
    /// library covers the algorithm.
    pub assigned_library: Option<usize>,
    /// Weighted Jaccard similarity to the assigned library.
    pub similarity: f64,
    /// `C_layer` on the assigned library (1.0 required).
    pub coverage: f64,
    /// `U_chiplet(i, k)` on the assigned library.
    pub utilization_library: f64,
    /// `U_chiplet(i, g)` on the generic configuration.
    pub utilization_generic: f64,
    /// The test algorithm's custom configuration `Ct_i`.
    pub custom_config: DesignConfig,
    /// PPA on custom / generic / library.
    pub ppa: AlgoPpa,
}

/// The test-phase outputs.
#[derive(Debug, Clone)]
pub struct TestOutput {
    /// Per-algorithm reports, in input order.
    pub reports: Vec<TestReport>,
    /// Per-library NRE comparison over the assigned test subsets:
    /// `(library index, TT_k names, NRE_cstm(k, TT_k), NRE_k)`.
    pub nre_rows: Vec<(usize, Vec<String>, f64, f64)>,
}

/// The CLAIRE framework driver.
#[derive(Debug, Clone, Default)]
pub struct Claire {
    opts: ClaireOptions,
}

impl Claire {
    /// Creates a driver with the given options.
    pub fn new(opts: ClaireOptions) -> Self {
        Claire { opts }
    }

    /// The options in effect.
    pub fn options(&self) -> &ClaireOptions {
        &self.opts
    }

    /// Builds the engine a façade call runs on: tracing is armed
    /// exactly when the options name a trace export path.
    fn engine(&self) -> Engine {
        Engine::for_space(&self.opts.space).with_tracing(self.opts.telemetry.trace_out.is_some())
    }

    /// Writes the telemetry exports named by the options (Chrome trace
    /// and/or metrics JSON) from `engine`'s telemetry. A no-op when no
    /// export path is configured. Callers driving the flow through the
    /// `*_with_engine` methods call this once, after the last phase,
    /// so a single trace covers the whole run.
    ///
    /// # Errors
    ///
    /// [`ClaireError::InvalidInput`] naming the path when an export
    /// file cannot be written: the path is the caller's input.
    pub fn export_telemetry(&self, engine: &Engine) -> Result<(), ClaireError> {
        if let Some(path) = &self.opts.telemetry.trace_out {
            engine
                .write_trace(path)
                .map_err(|e| unwritable("write trace", path, &e))?;
        }
        if let Some(path) = &self.opts.telemetry.metrics_out {
            engine
                .write_metrics(path)
                .map_err(|e| unwritable("write metrics", path, &e))?;
        }
        Ok(())
    }

    /// The snapshot file the options' `cache_dir` names, or `None`
    /// when persistence is disabled.
    pub fn snapshot_path(&self) -> Option<std::path::PathBuf> {
        self.opts
            .cache_dir
            .as_ref()
            .map(|d| d.join("claire.snapshot"))
    }

    /// Loads the warm-state snapshot named by the options into
    /// `engine`, returning whether one was applied. `Ok(false)` when
    /// persistence is disabled, no snapshot exists yet, or the engine
    /// cannot soundly accept one (cache disabled, fault plan armed).
    ///
    /// # Errors
    ///
    /// [`ClaireError::SnapshotInvalid`] on a corrupt or incompatible
    /// snapshot. The engine is untouched — validation is staged
    /// before any tier is written — so callers degrade to a cold
    /// start by warning and continuing.
    pub fn load_warm_state(&self, engine: &Engine) -> Result<bool, ClaireError> {
        match self.snapshot_path() {
            Some(path) => engine.load_snapshot(&path),
            None => Ok(false),
        }
    }

    /// Saves `engine`'s memo tiers to the snapshot named by the
    /// options (creating `cache_dir` if needed), returning whether
    /// one was written. `Ok(false)` when persistence is disabled, the
    /// file already holds exactly these tiers (the engine saved it,
    /// or loaded it into empty tiers, memoized nothing since, and the
    /// file's header is unchanged), or the engine's tiers are not
    /// snapshot-sound (cache disabled, fault plan armed).
    ///
    /// # Errors
    ///
    /// [`ClaireError::InvalidInput`] naming the directory when
    /// `cache_dir` cannot be created, and
    /// [`ClaireError::SnapshotInvalid`] when the file cannot be
    /// written.
    pub fn save_warm_state(&self, engine: &Engine) -> Result<bool, ClaireError> {
        let Some(path) = self.snapshot_path() else {
            return Ok(false);
        };
        if engine.snapshot_is_current(&path) {
            return Ok(false);
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| unwritable("create cache dir", dir, &e))?;
        }
        engine.save_snapshot(&path)
    }

    /// Derives a custom, clustered configuration for one algorithm
    /// (Algorithm 1 lines 1–8 + Step #TR3).
    ///
    /// # Errors
    ///
    /// Propagates DSE/clustering failures.
    pub fn custom_for(&self, model: &Model) -> Result<CustomResult, ClaireError> {
        let engine = self.engine();
        let out = self.custom_for_with_engine(model, &engine)?;
        self.export_telemetry(&engine)?;
        Ok(out)
    }

    /// [`Claire::custom_for`] on an explicit [`Engine`] (shared memo
    /// cache, parallel DSE sweep).
    ///
    /// # Errors
    ///
    /// Same as [`Claire::custom_for`].
    pub fn custom_for_with_engine(
        &self,
        model: &Model,
        engine: &Engine,
    ) -> Result<CustomResult, ClaireError> {
        self.validate_inputs()?;
        self.custom_relaxed(model, None, engine)
    }

    /// The custom-configuration body under the relaxation ladder:
    /// rung 0 selects from the flat plan's `row` when one is given
    /// (bit-identical to the search — same feasibility filter, same
    /// shared selection tail, same evaluations); every other rung runs
    /// the search, memo-warm from the plan (a relaxed
    /// rung's widened screens can need points outside the row).
    pub(crate) fn custom_relaxed(
        &self,
        model: &Model,
        mut row: Option<&ModelRow>,
        engine: &Engine,
    ) -> Result<CustomResult, ClaireError> {
        let base = self.effective_constraints(model.name(), engine);
        let ((config, report), degradation) = with_relaxation_observed(
            self.opts.policy,
            &base,
            Some(engine.telemetry()),
            model.name(),
            |cons| {
                let (mut cfg, _) = match row.take() {
                    Some(row) => custom_from_row(model, row, cons, DseObjective::MinArea),
                    None => custom_config_with_engine(
                        model,
                        &self.opts.space,
                        cons,
                        DseObjective::MinArea,
                        engine,
                    ),
                }?;
                cluster_into_chiplets_with_engine(
                    &mut cfg,
                    std::slice::from_ref(model),
                    cons,
                    self.opts.louvain_resolution,
                    engine,
                )?;
                let report = engine.evaluate(model, &cfg)?;
                Ok((cfg, report))
            },
        )?;
        Ok(CustomResult {
            model: model.clone(),
            config,
            report,
            degradation,
        })
    }

    /// The flat execution plan for `models` under the configured
    /// space and constraints.
    fn plan(&self, models: &[Model], engine: &Engine) -> EvalTable {
        build_eval_table(
            models,
            &self.opts.space,
            &self.opts.constraints,
            engine,
            &[],
        )
    }

    /// The constraints a stage actually sees: the configured set,
    /// unless the engine's fault plan injects an unsatisfiable set for
    /// this subject (exercising the degradation ladder end to end).
    fn effective_constraints(&self, subject: &str, engine: &Engine) -> Constraints {
        match engine.faults() {
            Some(plan) if plan.infeasible_constraints(subject) => Constraints {
                chiplet_area_limit_mm2: f64::MIN_POSITIVE,
                power_density_limit_w_per_mm2: f64::MIN_POSITIVE,
                latency_slack: 0.0,
            },
            _ => self.opts.constraints,
        }
    }

    /// Rejects degenerate run inputs with a typed error instead of
    /// letting them surface as panics deep in the sweep.
    fn validate_inputs(&self) -> Result<(), ClaireError> {
        self.opts
            .space
            .validate()
            .map_err(|e| ClaireError::InvalidInput {
                what: e.to_string(),
            })
    }

    /// Materialises the subset partition of `models` according to the
    /// configured [`SubsetStrategy`].
    pub fn form_subsets(&self, models: &[Model]) -> Vec<Vec<usize>> {
        match &self.opts.subsets {
            SubsetStrategy::WeightedJaccard { threshold, scale } => {
                partition_training(models, *threshold, *scale)
            }
            SubsetStrategy::Fixed(groups) => {
                let mut assigned = vec![false; models.len()];
                let mut out = Vec::new();
                for g in groups {
                    let subset: Vec<usize> = models
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| g.iter().any(|n| n == m.name()))
                        .map(|(i, _)| i)
                        .collect();
                    for &i in &subset {
                        assigned[i] = true;
                    }
                    if !subset.is_empty() {
                        out.push(subset);
                    }
                }
                for (i, done) in assigned.iter().enumerate() {
                    if !done {
                        out.push(vec![i]);
                    }
                }
                out
            }
        }
    }

    /// Runs the training phase on `models` (the paper's `TR`).
    ///
    /// # Errors
    ///
    /// [`ClaireError::EmptyAlgorithmSet`] for an empty slice, plus any
    /// DSE or clustering failure.
    pub fn train(&self, models: &[Model]) -> Result<TrainOutput, ClaireError> {
        let engine = self.engine();
        let out = self.train_with_engine(models, &engine)?;
        self.export_telemetry(&engine)?;
        Ok(out)
    }

    /// [`Claire::train`] on an explicit [`Engine`]: custom
    /// configurations and Fig. 4 evaluations run in parallel over the
    /// algorithms, and all of them share the engine's memo tiers.
    /// The output is bit-identical to the serial flow at any thread
    /// count.
    ///
    /// The run opens with the **flat execution plan** (`plan` stage):
    /// every `(model, hw-point)` evaluation of the run is enumerated
    /// as one item set and fed through a single parallel map, and the
    /// per-model/per-subset selections replay from the resulting
    /// table (see [`crate::plan::flat`]). This is the only execution
    /// path — armed fault plans run on it too.
    ///
    /// # Errors
    ///
    /// Same as [`Claire::train`].
    pub fn train_with_engine(
        &self,
        models: &[Model],
        engine: &Engine,
    ) -> Result<TrainOutput, ClaireError> {
        if models.is_empty() {
            return Err(ClaireError::EmptyAlgorithmSet);
        }
        self.validate_inputs()?;
        let table = engine.time_stage("plan", || self.plan(models, engine));

        // --- Output 1: custom configurations.
        let customs: Vec<CustomResult> = engine.time_stage("customs", || {
            engine.try_par_map(models, |i, m| {
                self.custom_relaxed(m, Some(&table.rows[i]), engine)
            })
        })?;
        let custom_latency: BTreeMap<String, f64> = customs
            .iter()
            .map(|c| (c.model.name().to_owned(), c.report.latency_s))
            .collect();

        // The set stages (generic and libraries) under the relaxation
        // ladder: rung 0 replays from the plan's table, relaxed rungs
        // re-sweep the space (their widened screens can need points
        // outside the table). The winner is clustered over
        // `cluster_models`.
        let set_stage =
            |name: &str, members: &[usize], cluster_models: &[Model], provision_tanh: bool| {
                let mut first = true;
                with_relaxation_observed(
                    self.opts.policy,
                    &self.effective_constraints(name, engine),
                    Some(engine.telemetry()),
                    name,
                    |cons| {
                        let mut cfg = if std::mem::take(&mut first) {
                            set_config_from_table(
                                name,
                                members,
                                models,
                                &table,
                                cons,
                                &custom_latency,
                                engine,
                            )
                        } else {
                            let refs: Vec<&Model> = members.iter().map(|&i| &models[i]).collect();
                            set_config_with_engine(
                                name,
                                &refs,
                                &self.opts.space,
                                cons,
                                &custom_latency,
                                engine,
                            )
                        }?;
                        if provision_tanh {
                            cfg.classes
                                .insert(OpClass::Activation(ActivationKind::Tanh));
                        }
                        cluster_into_chiplets_with_engine(
                            &mut cfg,
                            cluster_models,
                            cons,
                            self.opts.louvain_resolution,
                            engine,
                        )?;
                        Ok(cfg)
                    },
                )
            };

        // --- Output 2: the generic configuration.
        let all_members: Vec<usize> = (0..models.len()).collect();
        let (generic, generic_degradation) = engine.time_stage("generic", || {
            set_stage(
                "C_g",
                &all_members,
                models,
                self.opts.provision_tanh_in_generic,
            )
        })?;

        // --- Output 3: library-synthesized configurations.
        //
        // The WeightedJaccard strategy pairs each subset with its raw
        // node-weight vector, merged incrementally while the similarity
        // matrix is agglomerated; the Fixed strategy keeps the legacy
        // per-subset ascending-member summation, so pinned-partition
        // (golden-table) flows stay bit-identical.
        // A subset paired with its incrementally merged raw node-weight
        // vector (`None` on the pinned `Fixed` path, which re-sums).
        type SubsetVector = (Vec<usize>, Option<BTreeMap<OpClass, f64>>);
        let subsets: Vec<SubsetVector> =
            engine.time_stage("subsets", || match &self.opts.subsets {
                SubsetStrategy::WeightedJaccard { threshold, scale } => {
                    partition_training_merged(models, *threshold, *scale)
                        .into_iter()
                        .map(|(subset, merged)| (subset, Some(merged)))
                        .collect()
                }
                SubsetStrategy::Fixed(_) => self
                    .form_subsets(models)
                    .into_iter()
                    .map(|subset| (subset, None))
                    .collect(),
            });
        let libraries: Vec<LibraryConfig> = engine.time_stage("libraries", || {
            engine.try_par_map(&subsets, |k, (subset, merged)| -> Result<_, ClaireError> {
                let name = format!("C_{}", k + 1);
                let member_models: Vec<Model> = subset.iter().map(|&i| models[i].clone()).collect();
                let (cfg, degradation) = set_stage(&name, subset, &member_models, false)?;
                // Node vector for Step #TT1 assignment: the subset's
                // summed raw node work, scaled afterwards — "the nodes
                // of the library-synthesized configurations". (Scaling
                // after the sum keeps multi-member subsets comparable
                // to singletons.)
                let raw: BTreeMap<OpClass, f64> = match merged {
                    Some(v) => v.clone(),
                    None => {
                        let mut raw = BTreeMap::new();
                        for m in &member_models {
                            for (class, w) in m.op_class_weights() {
                                *raw.entry(class).or_insert(0.0) += w;
                            }
                        }
                        raw
                    }
                };
                let vector: BTreeMap<OpClass, f64> = match self.opts.assign_scale {
                    WeightScale::Raw => raw,
                    WeightScale::Log => raw
                        .into_iter()
                        .map(|(k, w)| (k, (1.0 + w).log10()))
                        .collect(),
                    WeightScale::Binary => raw
                        .into_iter()
                        .map(|(k, w)| (k, if w > 0.0 { 1.0 } else { 0.0 }))
                        .collect(),
                };
                let nre_normalized = normalized_nre(&self.opts.nre, &cfg, &generic);
                let cumulative_custom_nre = subset
                    .iter()
                    .map(|&i| normalized_nre(&self.opts.nre, &customs[i].config, &generic))
                    .sum();
                Ok(LibraryConfig {
                    config: cfg,
                    members: subset.clone(),
                    member_names: subset
                        .iter()
                        .map(|&i| models[i].name().to_owned())
                        .collect(),
                    vector,
                    nre_normalized,
                    cumulative_custom_nre,
                    degradation,
                })
            })
        })?;

        // --- Fig. 4 data: PPA on all three configuration classes.
        let algo_ppa: Vec<AlgoPpa> = engine.time_stage("algo_ppa", || {
            engine.try_par_map(models, |i, m| -> Result<_, ClaireError> {
                let lib_idx = libraries
                    .iter()
                    .position(|l| l.members.contains(&i))
                    .ok_or_else(|| ClaireError::Internal {
                        detail: format!("training model {i} missing from every subset"),
                    })?;
                Ok(AlgoPpa {
                    model_name: m.name().to_owned(),
                    custom: customs[i].report,
                    generic: engine.evaluate(m, &generic)?,
                    library: engine.evaluate(m, &libraries[lib_idx].config)?,
                    library_index: lib_idx,
                })
            })
        })?;

        Ok(TrainOutput {
            customs,
            generic,
            libraries,
            algo_ppa,
            generic_degradation,
        })
    }

    /// Runs the test phase (`TT`) against a training output.
    ///
    /// Each test algorithm gets a custom configuration `Ct_i`, is
    /// assigned to the most similar *covering* library configuration,
    /// and is scored on coverage, utilization and PPA. Per-library NRE
    /// rows compare `NRE_k` against the cumulative custom cost of the
    /// assigned algorithms.
    ///
    /// # Errors
    ///
    /// [`ClaireError::EmptyAlgorithmSet`] for an empty slice, plus any
    /// DSE or clustering failure for the custom configurations.
    pub fn evaluate_test(
        &self,
        train: &TrainOutput,
        tests: &[Model],
    ) -> Result<TestOutput, ClaireError> {
        let engine = self.engine();
        let out = self.evaluate_test_with_engine(train, tests, &engine)?;
        self.export_telemetry(&engine)?;
        Ok(out)
    }

    /// [`Claire::evaluate_test`] with an explicit [`Engine`], so test
    /// models are evaluated in parallel and share the memo tiers of any
    /// prior training run.
    ///
    /// The test stage opens with the flat execution plan: every
    /// `(test-model, hw-point)` evaluation runs through one
    /// load-balanced parallel map before the per-model selections,
    /// clustering and assignment replay from the table — under any
    /// fault plan.
    ///
    /// # Errors
    ///
    /// Same as [`Claire::evaluate_test`].
    pub fn evaluate_test_with_engine(
        &self,
        train: &TrainOutput,
        tests: &[Model],
        engine: &Engine,
    ) -> Result<TestOutput, ClaireError> {
        if tests.is_empty() {
            return Err(ClaireError::EmptyAlgorithmSet);
        }
        self.validate_inputs()?;

        let reports: Vec<TestReport> = engine.time_stage("test", || {
            let table = self.plan(tests, engine);
            engine.try_par_map(tests, |i, m| -> Result<_, ClaireError> {
                let custom = self.custom_relaxed(m, Some(&table.rows[i]), engine)?;

                // Rank libraries by similarity; take the best that covers.
                let mv = scaled_vector(m, self.opts.assign_scale);
                let mut ranked: Vec<(usize, f64)> = train
                    .libraries
                    .iter()
                    .enumerate()
                    .map(|(i, l)| (i, claire_graph::weighted_jaccard(&mv, &l.vector)))
                    .collect();
                // Similarities are finite by construction; total_cmp
                // keeps the sort panic-free and identical on them.
                ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
                let assigned = ranked
                    .iter()
                    .find(|&&(i, _)| train.libraries[i].config.covers(m))
                    .copied();

                // The generic config covers every *training* op class by
                // construction; a test model with a novel op class cannot
                // run on it, so fall back to the custom PPA rather than
                // failing the whole test phase.
                let generic_ppa = if train.generic.covers(m) {
                    engine.evaluate(m, &train.generic)?
                } else {
                    custom.report
                };

                let (lib_idx, similarity) = match assigned {
                    Some(x) => x,
                    None => {
                        return Ok(TestReport {
                            model_name: m.name().to_owned(),
                            assigned_library: None,
                            similarity: 0.0,
                            coverage: 0.0,
                            utilization_library: 0.0,
                            utilization_generic: chiplet_utilization(m, &train.generic),
                            custom_config: custom.config.clone(),
                            ppa: AlgoPpa {
                                model_name: m.name().to_owned(),
                                custom: custom.report,
                                generic: generic_ppa,
                                library: custom.report,
                                library_index: usize::MAX,
                            },
                        });
                    }
                };

                let lib_cfg = &train.libraries[lib_idx].config;
                Ok(TestReport {
                    model_name: m.name().to_owned(),
                    assigned_library: Some(lib_idx),
                    similarity,
                    coverage: algorithm_coverage(m, lib_cfg),
                    utilization_library: chiplet_utilization(m, lib_cfg),
                    utilization_generic: chiplet_utilization(m, &train.generic),
                    custom_config: custom.config.clone(),
                    ppa: AlgoPpa {
                        model_name: m.name().to_owned(),
                        custom: custom.report,
                        generic: generic_ppa,
                        library: engine.evaluate(m, lib_cfg)?,
                        library_index: lib_idx,
                    },
                })
            })
        })?;

        let mut per_lib: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (ti, r) in reports.iter().enumerate() {
            if let Some(lib_idx) = r.assigned_library {
                per_lib.entry(lib_idx).or_default().push(ti);
            }
        }

        let nre_rows = per_lib
            .into_iter()
            .map(|(lib_idx, test_indices)| {
                let names: Vec<String> = test_indices
                    .iter()
                    .map(|&i| tests[i].name().to_owned())
                    .collect();
                let cumulative: f64 = test_indices
                    .iter()
                    .map(|&i| {
                        normalized_nre(&self.opts.nre, &reports[i].custom_config, &train.generic)
                    })
                    .sum();
                (
                    lib_idx,
                    names,
                    cumulative,
                    train.libraries[lib_idx].nre_normalized,
                )
            })
            .collect();

        Ok(TestOutput { reports, nre_rows })
    }
}

/// The typed error for an output path the caller named that could
/// not be written (`action` failed on `path`): invalid input naming the
/// path, not a broken invariant.
fn unwritable(action: &str, path: &std::path::Path, e: &std::io::Error) -> ClaireError {
    ClaireError::InvalidInput {
        what: format!("cannot {action} {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_model::zoo;

    #[test]
    fn small_training_run_produces_all_outputs() {
        let claire = Claire::default();
        let models = [zoo::resnet18(), zoo::bert_base(), zoo::gpt2()];
        let out = claire.train(&models).unwrap();
        assert_eq!(out.customs.len(), 3);
        assert!(!out.generic.chiplets.is_empty());
        assert!(!out.libraries.is_empty());
        assert_eq!(out.algo_ppa.len(), 3);
        // Every training model is covered by the generic config.
        for m in &models {
            assert!(out.generic.covers(m), "{}", m.name());
        }
    }

    #[test]
    fn gpt2_lands_in_its_own_subset() {
        // Conv1d keeps GPT-2 out of the linear-transformer subsets.
        let claire = Claire::default();
        let out = claire
            .train(&[zoo::bert_base(), zoo::vit_base(), zoo::gpt2()])
            .unwrap();
        let gpt2_lib = out.library_of(2).unwrap();
        assert_eq!(out.libraries[gpt2_lib].members, vec![2]);
    }

    #[test]
    fn degrade_policy_rescues_impossible_area_constraint() {
        let tight = Constraints {
            chiplet_area_limit_mm2: 0.5, // nothing fits
            ..Constraints::default()
        };
        let strict = Claire::new(ClaireOptions {
            constraints: tight,
            ..ClaireOptions::default()
        });
        assert!(matches!(
            strict.train(&[zoo::alexnet()]).unwrap_err(),
            ClaireError::NoFeasibleConfiguration { .. }
        ));

        let lenient = Claire::new(ClaireOptions {
            constraints: tight,
            policy: RobustnessPolicy::Degrade,
            ..ClaireOptions::default()
        });
        let out = lenient.train(&[zoo::alexnet()]).unwrap();
        assert!(out.is_degraded());
        assert!(out.customs[0].degradation.is_some());
        assert!(out.customs[0].report.latency_s.is_finite());
    }

    #[test]
    fn degenerate_space_is_a_typed_error() {
        let claire = Claire::new(ClaireOptions {
            space: DseSpace {
                sa_sizes: vec![],
                ..DseSpace::default()
            },
            ..ClaireOptions::default()
        });
        assert!(matches!(
            claire.train(&[zoo::alexnet()]).unwrap_err(),
            ClaireError::InvalidInput { .. }
        ));
    }

    #[test]
    fn empty_sets_error() {
        let claire = Claire::default();
        assert_eq!(
            claire.train(&[]).unwrap_err(),
            ClaireError::EmptyAlgorithmSet
        );
    }

    #[test]
    fn test_phase_assigns_and_scores() {
        let claire = Claire::default();
        let out = claire
            .train(&[zoo::resnet18(), zoo::resnet50(), zoo::llama3_8b()])
            .unwrap();
        let tests = [zoo::alexnet()];
        let t = claire.evaluate_test(&out, &tests).unwrap();
        let r = &t.reports[0];
        // AlexNet must join the CNN library with full coverage.
        let lib = r.assigned_library.unwrap();
        assert!(out.libraries[lib]
            .member_names
            .iter()
            .any(|n| n.contains("Resnet")));
        assert_eq!(r.coverage, 1.0);
        assert!(r.utilization_library > r.utilization_generic);
        assert!(!t.nre_rows.is_empty());
    }

    #[test]
    fn library_nre_cheaper_than_cumulative_custom() {
        let claire = Claire::default();
        let out = claire
            .train(&[zoo::resnet18(), zoo::resnet50(), zoo::mobilenet_v2()])
            .unwrap();
        for lib in &out.libraries {
            if lib.members.len() > 1 {
                assert!(
                    lib.nre_normalized < lib.cumulative_custom_nre,
                    "library {} not cheaper",
                    lib.config.name
                );
            }
        }
    }
}
