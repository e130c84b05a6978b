//! A resident engine: one warm [`Engine`] serving many requests.
//!
//! The one-shot façade ([`Claire`]) builds an engine per call, so every
//! process pays the cold path once per run and the memo tiers die with
//! it. [`ResidentEngine`] inverts that: one engine — its tiers behind
//! the existing shard locks — lives for the process and is shared (via
//! `&self`, or `Arc<ResidentEngine>` across threads) by every request.
//! Three request families are served:
//!
//! - **custom** ([`ResidentEngine::custom_batch`]): derive a custom,
//!   clustered configuration per model. A whole batch is planned as
//!   *one* flat evaluation table, so the single `par_map` load-balances
//!   across requests, not just within one.
//! - **assign** ([`ResidentEngine::assign_batch`]): score test models
//!   against the resident training output (built lazily, once).
//! - **what-if** ([`ResidentEngine::what_if`]): probe feasibility of a
//!   model under caller-supplied constraints without failing the
//!   server.
//!
//! Per-request knobs (degrade policy, constraint overrides) ride a
//! cheap [`Claire`] clone; the engine — and with it every memo tier —
//! is always the shared one. Combined with
//! [`Engine::load_snapshot`](crate::Engine::load_snapshot), a freshly
//! started server answers its first request at warm-reflow speed.

use crate::claire::{Claire, ClaireOptions, CustomResult, TestReport, TrainOutput};
use crate::config::Constraints;
use crate::dse::RobustnessPolicy;
use crate::error::ClaireError;
use crate::parallel::Engine;
use crate::plan::flat::build_eval_table;
use crate::telemetry::{EventRing, QuantileDigest, QuantileSummary, RateSnapshot, RateWindows};
use claire_model::Model;
use serde::{Number, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// How many lifecycle events the in-memory flight recorder retains.
/// At the serve layer's ≤ 4 events per request this bounds a dump to
/// the last ~60 requests — enough to reconcile the final batch of any
/// death with what clients observed.
pub const FLIGHT_RING_CAPACITY: usize = 256;

/// Poison-tolerant lock: observer state is append-only summaries, so a
/// panicking recorder leaves at worst one complete record.
fn obs_lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One stage in a serve request's lifecycle, in transition order:
/// `Received → Admitted | Shed → Dispatched → Evaluating → Answered |
/// Errored`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LifecycleStage {
    /// The request line arrived (well-formed or not) and was assigned
    /// its trace id.
    Received,
    /// The request entered the admission queue.
    Admitted,
    /// The request was answered `Overloaded` at admission (queue full).
    Shed,
    /// The dispatcher drained the request into a batch.
    Dispatched,
    /// The batch entered engine evaluation with this request live.
    Evaluating,
    /// A success response was delivered.
    Answered,
    /// A typed error response was delivered.
    Errored,
}

impl LifecycleStage {
    /// Every stage, in transition order.
    pub const ALL: [LifecycleStage; 7] = [
        LifecycleStage::Received,
        LifecycleStage::Admitted,
        LifecycleStage::Shed,
        LifecycleStage::Dispatched,
        LifecycleStage::Evaluating,
        LifecycleStage::Answered,
        LifecycleStage::Errored,
    ];

    /// The stage's wire label.
    pub fn label(self) -> &'static str {
        match self {
            LifecycleStage::Received => "received",
            LifecycleStage::Admitted => "admitted",
            LifecycleStage::Shed => "shed",
            LifecycleStage::Dispatched => "dispatched",
            LifecycleStage::Evaluating => "evaluating",
            LifecycleStage::Answered => "answered",
            LifecycleStage::Errored => "errored",
        }
    }
}

/// One lifecycle transition of one serve request — the unit the event
/// log streams and the flight recorder retains.
#[derive(Debug, Clone)]
pub struct LifecycleEvent {
    /// Microseconds since the serve epoch (injected by the caller; the
    /// observer never reads a wall clock).
    pub t_us: u64,
    /// The transition.
    pub stage: LifecycleStage,
    /// The serve-assigned monotonic trace id.
    pub trace: u64,
    /// The caller's correlation id, echoed verbatim.
    pub id: Value,
    /// The request op label (`custom`, `assign`, `what_if`, `stats`,
    /// or `invalid` for lines that never parsed).
    pub op: &'static str,
    /// The dispatch batch, from [`LifecycleStage::Dispatched`] on.
    pub batch: Option<u64>,
    /// Admission-to-dispatch wait, set on `Dispatched`.
    pub queue_wait_us: Option<u64>,
    /// Outcome code on terminal stages: 0 for `Answered`, the typed
    /// error code (CLI exit-code numbering) for `Errored`/`Shed`.
    pub outcome: Option<i64>,
}

impl LifecycleEvent {
    /// Serialises the event as one JSON object (the event-log line and
    /// flight-dump entry format).
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("t_us".to_owned(), Value::Number(Number::PosInt(self.t_us))),
            (
                "event".to_owned(),
                Value::String(self.stage.label().to_owned()),
            ),
            (
                "trace".to_owned(),
                Value::Number(Number::PosInt(self.trace)),
            ),
            ("id".to_owned(), self.id.clone()),
            ("op".to_owned(), Value::String(self.op.to_owned())),
        ];
        if let Some(batch) = self.batch {
            fields.push(("batch".to_owned(), Value::Number(Number::PosInt(batch))));
        }
        if let Some(us) = self.queue_wait_us {
            fields.push((
                "queue_wait_us".to_owned(),
                Value::Number(Number::PosInt(us)),
            ));
        }
        if let Some(code) = self.outcome {
            fields.push((
                "outcome".to_owned(),
                Value::Number(Number::PosInt(code.max(0) as u64)),
            ));
        }
        Value::Object(fields)
    }
}

/// The resident engine's live-observability hub: the monotonic trace
/// sequence, the flight-recorder ring, exact latency digests, and the
/// sliding-window rate trackers. All time is injected (µs since the
/// serve epoch) — no wall-clock reads, so identical request sequences
/// produce identical digests and rates at any thread count.
#[derive(Debug)]
pub struct ServeObserver {
    trace_seq: AtomicU64,
    ring: Mutex<EventRing<LifecycleEvent>>,
    queue_wait_us: Mutex<QuantileDigest>,
    latency_us: Mutex<QuantileDigest>,
    requests: Mutex<RateWindows>,
    sheds: Mutex<RateWindows>,
    expiries: Mutex<RateWindows>,
}

impl Default for ServeObserver {
    fn default() -> Self {
        ServeObserver::new()
    }
}

impl ServeObserver {
    /// A fresh observer with an empty flight ring of
    /// `FLIGHT_RING_CAPACITY` (256) events.
    pub fn new() -> Self {
        ServeObserver {
            trace_seq: AtomicU64::new(0),
            ring: Mutex::new(EventRing::new(FLIGHT_RING_CAPACITY)),
            queue_wait_us: Mutex::new(QuantileDigest::new()),
            latency_us: Mutex::new(QuantileDigest::new()),
            requests: Mutex::new(RateWindows::new()),
            sheds: Mutex::new(RateWindows::new()),
            expiries: Mutex::new(RateWindows::new()),
        }
    }

    /// Assigns the next monotonic trace id (1-based).
    pub fn next_trace(&self) -> u64 {
        self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records one lifecycle transition into the flight ring, folding
    /// its rate contribution at the injected time.
    pub fn observe(&self, event: LifecycleEvent) {
        match event.stage {
            LifecycleStage::Received => obs_lock(&self.requests).record(event.t_us),
            LifecycleStage::Shed => obs_lock(&self.sheds).record(event.t_us),
            LifecycleStage::Answered | LifecycleStage::Errored if event.outcome == Some(14) => {
                obs_lock(&self.expiries).record(event.t_us);
            }
            _ => {}
        }
        obs_lock(&self.ring).push(event);
    }

    /// Records one admission-queue wait into the exact digest.
    pub fn record_queue_wait_us(&self, us: u64) {
        obs_lock(&self.queue_wait_us).record(us);
    }

    /// Records one end-to-end (admission to delivery) latency into the
    /// exact digest.
    pub fn record_latency_us(&self, us: u64) {
        obs_lock(&self.latency_us).record(us);
    }

    /// The exact queue-wait quantile summary so far.
    pub fn queue_wait_summary(&self) -> QuantileSummary {
        obs_lock(&self.queue_wait_us).summary()
    }

    /// The exact end-to-end latency quantile summary so far.
    pub fn latency_summary(&self) -> QuantileSummary {
        obs_lock(&self.latency_us).summary()
    }

    /// The request / shed / deadline-expiry window rates at the
    /// injected time.
    pub fn rates(&self, now_us: u64) -> (RateSnapshot, RateSnapshot, RateSnapshot) {
        (
            obs_lock(&self.requests).snapshot(now_us),
            obs_lock(&self.sheds).snapshot(now_us),
            obs_lock(&self.expiries).snapshot(now_us),
        )
    }

    /// A snapshot of the flight ring: retained events (time-ordered,
    /// serialised), lifetime total, and how many capacity evicted.
    ///
    /// Ring order is insertion order, and concurrent recorders can
    /// interleave a later-stamped event ahead of an earlier one from
    /// another thread; a stable sort on `t_us` restores a monotone
    /// trail while preserving each trace's lifecycle order (a trace's
    /// events are recorded sequentially with non-decreasing stamps).
    ///
    /// Uses `try_lock` so a panic hook can call it on the very thread
    /// that panicked while pushing an event: instead of self-deadlock
    /// the dump degrades to an empty event list and zero counts. Use
    /// [`ServeObserver::flight_counts`] for counts alone.
    pub fn flight_events(&self) -> (Vec<Value>, u64, u64) {
        let ring = match self.ring.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return (Vec::new(), 0, 0),
        };
        let mut events: Vec<&LifecycleEvent> = ring.iter().collect();
        events.sort_by_key(|event| event.t_us);
        (
            events.into_iter().map(LifecycleEvent::to_value).collect(),
            ring.total(),
            ring.evicted(),
        )
    }

    /// The flight ring's lifetime total and evicted counts, for the
    /// in-band `stats` probe. Waits for the ring lock, so a probe that
    /// races a push on another thread still reads exact counts, and
    /// recovers a poisoned lock. Never call it from the panic hook;
    /// [`ServeObserver::flight_events`] is the dump path's read.
    pub fn flight_counts(&self) -> (u64, u64) {
        let ring = obs_lock(&self.ring);
        (ring.total(), ring.evicted())
    }
}

/// One custom-configuration request in a [`ResidentEngine::custom_batch`].
#[derive(Debug, Clone)]
pub struct CustomRequest {
    /// The algorithm to derive a configuration for.
    pub model: Model,
    /// Per-request robustness policy; `None` inherits the resident
    /// options.
    pub policy: Option<RobustnessPolicy>,
    /// Per-request constraint override; `None` inherits the resident
    /// options. Overridden requests run the single-subject search (the
    /// shared flat table is screened under the resident constraints,
    /// so a *looser* override could need points outside it) — still
    /// memo-warm, just not table-replayed.
    pub constraints: Option<Constraints>,
    /// Cooperative cancellation flag: set it (from a watchdog, a
    /// deadline, a disconnect) and the request stops consuming workers
    /// at the next flat-plan checkpoint, answering
    /// [`ClaireError::DeadlineExceeded`]. `None` means the request
    /// runs to completion.
    pub cancel: Option<Arc<AtomicBool>>,
    /// The deadline the caller declared (milliseconds), echoed into
    /// the [`ClaireError::DeadlineExceeded`] answer when `cancel`
    /// fires. Informational only — enforcement is the caller's
    /// watchdog setting `cancel`.
    pub deadline_ms: Option<u64>,
}

impl CustomRequest {
    /// A request that inherits every resident option.
    pub fn new(model: Model) -> Self {
        CustomRequest {
            model,
            policy: None,
            constraints: None,
            cancel: None,
            deadline_ms: None,
        }
    }

    /// True when the request's cancel flag has been set.
    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// The typed answer for a cancelled request.
    fn deadline_error(&self) -> ClaireError {
        ClaireError::DeadlineExceeded {
            deadline_ms: self.deadline_ms.unwrap_or(0),
            stage: "evaluating",
        }
    }
}

/// The outcome of a [`ResidentEngine::what_if`] probe.
#[derive(Debug, Clone)]
pub struct WhatIfReport {
    /// Whether a feasible configuration exists under the probed
    /// constraints (without any relaxation).
    pub feasible: bool,
    /// The configuration and PPA when feasible.
    pub result: Option<CustomResult>,
    /// The typed infeasibility when not (`NoFeasibleConfiguration`,
    /// `ChipletAreaUnsatisfiable`, or `IncompleteCoverage`).
    pub infeasibility: Option<ClaireError>,
}

/// A long-lived engine + façade pair serving batched requests over
/// shared memo tiers. See the module docs.
#[derive(Debug)]
pub struct ResidentEngine {
    claire: Claire,
    engine: Engine,
    training: Vec<Model>,
    trained: OnceLock<Result<TrainOutput, ClaireError>>,
    /// Checkpoints written so far (the snapshot generation counter).
    checkpoint_gen: AtomicU64,
    /// Live-observability hub: trace ids, flight ring, latency
    /// digests, window rates.
    observer: ServeObserver,
}

impl ResidentEngine {
    /// Builds a resident engine from run options and the training set
    /// used by assignment requests. The engine is constructed exactly
    /// as the one-shot façade would (thread resolution, tracing armed
    /// iff a trace path is configured), so resident answers are
    /// bit-identical to one-shot answers.
    pub fn new(opts: ClaireOptions, training: Vec<Model>) -> Self {
        let engine =
            Engine::for_space(&opts.space).with_tracing(opts.telemetry.trace_out.is_some());
        ResidentEngine {
            claire: Claire::new(opts),
            engine,
            training,
            trained: OnceLock::new(),
            checkpoint_gen: AtomicU64::new(0),
            observer: ServeObserver::new(),
        }
    }

    /// The live-observability hub (trace-id assignment, lifecycle
    /// recording, quantile and rate summaries).
    pub fn observer(&self) -> &ServeObserver {
        &self.observer
    }

    /// The shared engine (for snapshot load/save, stats, telemetry).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The resident options.
    pub fn options(&self) -> &ClaireOptions {
        self.claire.options()
    }

    /// Loads the warm-state snapshot named by the resident options
    /// into the shared engine; see [`Claire::load_warm_state`].
    ///
    /// # Errors
    ///
    /// [`ClaireError::SnapshotInvalid`] on a corrupt snapshot; the
    /// engine stays cold-usable.
    pub fn load_warm_state(&self) -> Result<bool, ClaireError> {
        self.claire.load_warm_state(&self.engine)
    }

    /// Saves the shared engine's memo tiers to the snapshot named by
    /// the resident options; see [`Claire::save_warm_state`].
    ///
    /// # Errors
    ///
    /// Those of [`Claire::save_warm_state`]: the cache dir cannot be
    /// created or the snapshot cannot be written.
    pub fn save_warm_state(&self) -> Result<bool, ClaireError> {
        self.claire.save_warm_state(&self.engine)
    }

    /// Checkpoints warm state if the snapshot would change: saves
    /// through [`ResidentEngine::save_warm_state`], which skips the
    /// write while the file on disk already holds exactly these tiers
    /// (so a server restarted on a warm snapshot does not rewrite an
    /// identical file), and otherwise saves atomically (unique temp +
    /// rename, so a crash mid-write leaves the previous generation
    /// intact). The generation counter is bumped exactly when a file
    /// was written.
    ///
    /// Returns the new generation when a checkpoint was written,
    /// `None` when skipped (clean tiers, or no cache dir configured).
    ///
    /// # Errors
    ///
    /// Snapshot write failures, typed; the tiers themselves are
    /// untouched and serving can continue.
    pub fn checkpoint(&self) -> Result<Option<u64>, ClaireError> {
        if !self.save_warm_state()? {
            return Ok(None);
        }
        let generation = self.checkpoint_gen.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(Some(generation))
    }

    /// How many warm-state checkpoints this resident has written.
    pub fn checkpoint_generation(&self) -> u64 {
        self.checkpoint_gen.load(Ordering::Relaxed)
    }

    /// A façade clone with per-request overrides applied.
    fn claire_for(
        &self,
        policy: Option<RobustnessPolicy>,
        constraints: Option<Constraints>,
    ) -> Claire {
        match (policy, constraints) {
            (None, None) => self.claire.clone(),
            (p, c) => {
                let mut opts = self.claire.options().clone();
                if let Some(p) = p {
                    opts.policy = p;
                }
                if let Some(c) = c {
                    opts.constraints = c;
                }
                Claire::new(opts)
            }
        }
    }

    /// Serves a batch of custom-configuration requests. Every request
    /// without a constraint override shares **one** flat evaluation
    /// table — one `par_map` over the union of all `(model, hw-point)`
    /// items — and replays its selection from it; overridden requests
    /// run the (memo-warm) single-subject search. Results are in
    /// request order, each independently succeeding or failing.
    pub fn custom_batch(
        &self,
        requests: &[CustomRequest],
    ) -> Vec<Result<CustomResult, ClaireError>> {
        // Partition: table-eligible requests batch into one plan.
        let eligible: Vec<usize> = requests
            .iter()
            .enumerate()
            .filter(|(_, r)| r.constraints.is_none())
            .map(|(i, _)| i)
            .collect();
        let mut out: Vec<Option<Result<CustomResult, ClaireError>>> =
            requests.iter().map(|_| None).collect();

        if !eligible.is_empty() {
            let models: Vec<Model> = eligible
                .iter()
                .map(|&i| requests[i].model.clone())
                .collect();
            let cancels: Vec<Arc<AtomicBool>> = eligible
                .iter()
                .map(|&i| requests[i].cancel.clone().unwrap_or_default())
                .collect();
            let opts = self.claire.options();
            let table = self.engine.time_stage("plan", || {
                build_eval_table(
                    &models,
                    &opts.space,
                    &opts.constraints,
                    &self.engine,
                    &cancels,
                )
            });
            for (row, &i) in table.rows.iter().zip(&eligible) {
                // A cancelled request's row is garbage by contract —
                // answer the typed deadline error, never the row.
                if requests[i].cancelled() {
                    out[i] = Some(Err(requests[i].deadline_error()));
                    continue;
                }
                let claire = self.claire_for(requests[i].policy, None);
                out[i] = Some(claire.custom_relaxed(&requests[i].model, Some(row), &self.engine));
            }
        }

        for (i, req) in requests.iter().enumerate() {
            if out[i].is_none() {
                if req.cancelled() {
                    out[i] = Some(Err(req.deadline_error()));
                    continue;
                }
                let claire = self.claire_for(req.policy, req.constraints);
                out[i] = Some(claire.custom_for_with_engine(&req.model, &self.engine));
            }
        }

        out.into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    Err(ClaireError::Internal {
                        detail: "batched request produced no result".into(),
                    })
                })
            })
            .collect()
    }

    /// The resident training output, built on first use and shared by
    /// every assignment request afterwards.
    ///
    /// # Errors
    ///
    /// The (cached) training failure, if the resident training set
    /// cannot be trained.
    pub fn train_output(&self) -> Result<&TrainOutput, ClaireError> {
        self.trained
            .get_or_init(|| self.claire.train_with_engine(&self.training, &self.engine))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Scores a batch of test models against the resident training
    /// output — assignment, coverage, utilization, and PPA on
    /// custom/generic/library, exactly as the one-shot test phase. The
    /// whole batch shares one flat evaluation table.
    ///
    /// # Errors
    ///
    /// Training failure or any per-model evaluation failure.
    pub fn assign_batch(&self, models: &[Model]) -> Result<Vec<TestReport>, ClaireError> {
        let train = self.train_output()?;
        let out = self
            .claire
            .evaluate_test_with_engine(train, models, &self.engine)?;
        Ok(out.reports)
    }

    /// Scores one test model; see [`ResidentEngine::assign_batch`].
    ///
    /// # Errors
    ///
    /// Same as [`ResidentEngine::assign_batch`].
    pub fn assign(&self, model: &Model) -> Result<TestReport, ClaireError> {
        let mut reports = self.assign_batch(std::slice::from_ref(model))?;
        reports.pop().ok_or(ClaireError::Internal {
            detail: "test phase returned no report for a one-model batch".into(),
        })
    }

    /// Probes whether `model` has a feasible configuration under
    /// `constraints`, without relaxation and without failing the
    /// server: infeasibility is an answer, not an error.
    ///
    /// # Errors
    ///
    /// Genuine evaluation failures (invalid inputs, internal errors) —
    /// never plain infeasibility.
    pub fn what_if(
        &self,
        model: &Model,
        constraints: Constraints,
    ) -> Result<WhatIfReport, ClaireError> {
        let claire = self.claire_for(Some(RobustnessPolicy::FailFast), Some(constraints));
        match claire.custom_for_with_engine(model, &self.engine) {
            Ok(result) => Ok(WhatIfReport {
                feasible: true,
                result: Some(result),
                infeasibility: None,
            }),
            Err(
                e @ (ClaireError::NoFeasibleConfiguration { .. }
                | ClaireError::ChipletAreaUnsatisfiable { .. }
                | ClaireError::IncompleteCoverage { .. }),
            ) => Ok(WhatIfReport {
                feasible: false,
                result: None,
                infeasibility: Some(e),
            }),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_model::zoo;

    #[test]
    fn batched_customs_match_one_shot() {
        let resident = ResidentEngine::new(ClaireOptions::default(), vec![]);
        let requests = vec![
            CustomRequest::new(zoo::resnet18()),
            CustomRequest::new(zoo::gpt2()),
        ];
        let batched = resident.custom_batch(&requests);
        let claire = Claire::default();
        for (req, got) in requests.iter().zip(&batched) {
            let got = got.as_ref().expect("batched custom succeeds");
            let one_shot = claire.custom_for(&req.model).expect("one-shot succeeds");
            assert_eq!(got.config.chiplets.len(), one_shot.config.chiplets.len());
            assert_eq!(got.report, one_shot.report);
        }
    }

    #[test]
    fn what_if_reports_infeasibility_as_an_answer() {
        let resident = ResidentEngine::new(ClaireOptions::default(), vec![]);
        let impossible = Constraints {
            chiplet_area_limit_mm2: 0.5,
            ..Constraints::default()
        };
        let report = resident
            .what_if(&zoo::alexnet(), impossible)
            .expect("probe itself succeeds");
        assert!(!report.feasible);
        assert!(report.infeasibility.is_some());

        let roomy = resident
            .what_if(&zoo::alexnet(), Constraints::default())
            .expect("probe succeeds");
        assert!(roomy.feasible);
        assert!(roomy.result.is_some());
    }

    #[test]
    fn custom_batch_degrades_with_provenance_under_degrade_policy() {
        // The resident constraints are unsatisfiable at rung 0; under
        // `Degrade` every batched request must still come back with an
        // answer, carrying the relaxation provenance — both down the
        // table-replay path and the constraint-override fallback path.
        let tight = Constraints {
            chiplet_area_limit_mm2: 0.5,
            ..Constraints::default()
        };
        let resident = ResidentEngine::new(
            ClaireOptions {
                constraints: tight,
                policy: RobustnessPolicy::Degrade,
                ..ClaireOptions::default()
            },
            vec![],
        );
        let mut overridden = CustomRequest::new(zoo::resnet18());
        overridden.constraints = Some(tight);
        let requests = vec![CustomRequest::new(zoo::alexnet()), overridden];
        let results = resident.custom_batch(&requests);
        for (req, got) in requests.iter().zip(&results) {
            let got = got
                .as_ref()
                .unwrap_or_else(|e| panic!("{} not rescued: {e}", req.model.name()));
            assert!(
                got.degradation.is_some(),
                "{} lacks degradation provenance",
                req.model.name()
            );
            assert!(got.report.latency_s.is_finite());
        }
        // Provenance matches the one-shot façade bit for bit.
        let one_shot = Claire::new(ClaireOptions {
            constraints: Constraints {
                chiplet_area_limit_mm2: 0.5,
                ..Constraints::default()
            },
            policy: RobustnessPolicy::Degrade,
            ..ClaireOptions::default()
        })
        .custom_for(&zoo::alexnet())
        .expect("one-shot degrade");
        let batched = results[0].as_ref().expect("batched degrade");
        assert_eq!(
            format!("{:?}", batched.degradation),
            format!("{:?}", one_shot.degradation)
        );
        assert_eq!(batched.report, one_shot.report);
    }

    #[test]
    fn what_if_pins_fail_fast_even_under_resident_degrade_policy() {
        // A what-if probe must answer "infeasible", never silently
        // relax: the resident Degrade policy may not leak into it.
        let resident = ResidentEngine::new(
            ClaireOptions {
                policy: RobustnessPolicy::Degrade,
                ..ClaireOptions::default()
            },
            vec![],
        );
        let impossible = Constraints {
            chiplet_area_limit_mm2: 0.5,
            ..Constraints::default()
        };
        let report = resident
            .what_if(&zoo::alexnet(), impossible)
            .expect("probe succeeds");
        assert!(!report.feasible, "degrade policy leaked into what_if");
        assert!(matches!(
            report.infeasibility,
            Some(ClaireError::NoFeasibleConfiguration { .. })
        ));
    }

    #[test]
    fn cancelled_requests_answer_deadline_exceeded_without_contamination() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let resident = ResidentEngine::new(ClaireOptions::default(), vec![]);
        let cancel = Arc::new(AtomicBool::new(true));
        let mut doomed = CustomRequest::new(zoo::resnet18());
        doomed.cancel = Some(cancel);
        doomed.deadline_ms = Some(7);
        let requests = vec![CustomRequest::new(zoo::alexnet()), doomed];
        let results = resident.custom_batch(&requests);
        match &results[1] {
            Err(ClaireError::DeadlineExceeded { deadline_ms, .. }) => {
                assert_eq!(*deadline_ms, 7);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The surviving request is bit-identical to a batch that never
        // carried a cancelled neighbour: memo tiers are exact, so
        // cancellation cannot contaminate completed work.
        let alone = resident.custom_batch(&[CustomRequest::new(zoo::alexnet())]);
        let survivor = results[0].as_ref().expect("survivor succeeds");
        let reference = alone[0].as_ref().expect("solo succeeds");
        assert_eq!(survivor.report, reference.report);
        assert_eq!(
            format!("{:?}", survivor.config),
            format!("{:?}", reference.config)
        );
    }

    #[test]
    fn checkpoints_are_throttled_by_dirty_tier_deltas() {
        let dir = std::env::temp_dir().join(format!("claire-resident-ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let resident = ResidentEngine::new(
            ClaireOptions {
                cache_dir: Some(dir.clone()),
                ..ClaireOptions::default()
            },
            vec![],
        );
        resident.custom_batch(&[CustomRequest::new(zoo::alexnet())]);
        assert_eq!(resident.checkpoint().expect("first checkpoint"), Some(1));
        // Nothing new memoized: the dirty-delta throttle skips.
        assert_eq!(resident.checkpoint().expect("clean checkpoint"), None);
        resident.custom_batch(&[CustomRequest::new(zoo::resnet18())]);
        assert_eq!(resident.checkpoint().expect("dirty checkpoint"), Some(2));
        assert_eq!(resident.checkpoint_generation(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_flight_counts_wait_out_a_held_ring_lock() {
        let observer = ServeObserver::new();
        let pushed = FLIGHT_RING_CAPACITY as u64 + 9;
        for t in 0..pushed {
            observer.observe(LifecycleEvent {
                t_us: t,
                stage: LifecycleStage::Received,
                trace: t + 1,
                id: Value::Null,
                op: "custom",
                batch: None,
                queue_wait_us: None,
                outcome: None,
            });
        }
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let observer = &observer;
        // Everything is read while a second thread holds the ring
        // lock, as a connection thread pushing a lifecycle event does,
        // and asserted only once it has let go.
        let (dumped, waited, counts) = std::thread::scope(|s| {
            s.spawn(move || {
                let _ring = observer.ring.lock().expect("ring lock");
                held_tx.send(()).expect("signal held");
                release_rx.recv().expect("await release");
            });
            held_rx.recv().expect("lock held");
            let dumped = observer.flight_events();
            let counts = s.spawn(|| observer.flight_counts());
            // A read that waits for the lock cannot finish while it is
            // held, whatever the schedule; the pause only gives a read
            // that does not wait the time to finish early and be seen.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let waited = !counts.is_finished();
            release_tx.send(()).expect("release");
            (dumped, waited, counts.join().expect("counts thread"))
        });
        // The dump path's `try_lock` gives up under contention.
        let (events, total, evicted) = dumped;
        assert!(events.is_empty());
        assert_eq!((total, evicted), (0, 0));
        // The stats read waits for the lock and reads exact counts.
        assert!(waited, "read counts through a held lock");
        assert_eq!(counts, (pushed, pushed - FLIGHT_RING_CAPACITY as u64));
    }

    #[test]
    fn assignment_reuses_the_lazily_trained_output() {
        let resident = ResidentEngine::new(
            ClaireOptions::default(),
            vec![zoo::resnet18(), zoo::resnet50(), zoo::gpt2()],
        );
        let report = resident.assign(&zoo::alexnet()).expect("assign");
        assert!(report.assigned_library.is_some());
        // Second call must not retrain: the cached output is the same
        // allocation.
        let first = std::ptr::from_ref(resident.train_output().expect("trained"));
        let second = std::ptr::from_ref(resident.train_output().expect("trained"));
        assert_eq!(first, second);
        let again = resident.assign(&zoo::alexnet()).expect("assign");
        assert_eq!(report.ppa.library, again.ppa.library);
    }
}
