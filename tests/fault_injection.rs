//! The fault-injection harness: every fault class, at 1, 2 and 8
//! worker threads, must end in a typed [`ClaireError`] or a
//! degradation-flagged-but-finite result — never a panic and never a
//! non-finite number escaping into a report. A zero-rate plan must be
//! bit-identical to running with no plan at all.
//!
//! Injected worker panics print the default panic-hook backtrace to
//! stderr while being contained; noisy output from this suite is
//! expected and harmless.

use claire::core::{
    Claire, ClaireError, ClaireOptions, Engine, FaultClass, FaultPlan, PpaReport, RobustnessPolicy,
};
use claire::model::zoo;

/// The serial edge case, a small pool, and more workers than cores.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn assert_finite(report: &PpaReport) {
    assert!(report.latency_s.is_finite(), "latency {report:?}");
    assert!(report.energy_j.is_finite(), "energy {report:?}");
    assert!(report.area_mm2.is_finite(), "area {report:?}");
    assert!(report.nop_energy_j.is_finite(), "nop {report:?}");
    assert!(report.noc_energy_j.is_finite(), "noc {report:?}");
}

/// Runs `custom_for` for Alexnet on an engine armed with `class` at
/// `rate`, returning the outcome plus the injection count.
fn faulted_custom(
    class: FaultClass,
    rate: f64,
    threads: usize,
    policy: RobustnessPolicy,
) -> (Result<claire::core::CustomResult, ClaireError>, u64) {
    let plan = FaultPlan::new(0xFA11).with(class, rate);
    let engine = Engine::new(threads).with_faults(plan);
    let claire = Claire::new(ClaireOptions {
        policy,
        ..ClaireOptions::default()
    });
    let out = claire.custom_for_with_engine(&zoo::alexnet(), &engine);
    let injected = engine.faults().map(|p| p.injections(class)).unwrap_or(0);
    (out, injected)
}

#[test]
fn nan_ppa_surfaces_as_typed_error_never_a_panic() {
    for threads in THREAD_COUNTS {
        let (out, injected) =
            faulted_custom(FaultClass::NanPpa, 1.0, threads, RobustnessPolicy::FailFast);
        assert!(injected > 0, "rate-1.0 NaN plan never fired");
        let err = out.expect_err("NaN energies must not produce a result");
        assert!(
            matches!(
                err,
                ClaireError::NonFiniteMetric { .. } | ClaireError::NoFeasibleConfiguration { .. }
            ),
            "{threads} threads: unexpected error {err}"
        );
    }
}

#[test]
fn inf_ppa_surfaces_as_typed_error_never_a_panic() {
    for threads in THREAD_COUNTS {
        let (out, injected) =
            faulted_custom(FaultClass::InfPpa, 1.0, threads, RobustnessPolicy::FailFast);
        assert!(injected > 0);
        let err = out.expect_err("Inf energies must not produce a result");
        assert!(
            matches!(
                err,
                ClaireError::NonFiniteMetric { .. } | ClaireError::NoFeasibleConfiguration { .. }
            ),
            "{threads} threads: unexpected error {err}"
        );
    }
}

#[test]
fn perturbed_ppa_stays_finite_and_deterministic() {
    let mut outcomes = Vec::new();
    for threads in THREAD_COUNTS {
        let (out, injected) = faulted_custom(
            FaultClass::PerturbPpa,
            1.0,
            threads,
            RobustnessPolicy::FailFast,
        );
        assert!(injected > 0);
        let custom = out.expect("finite drift flows through normally");
        assert_finite(&custom.report);
        assert!(custom.degradation.is_none(), "drift is not degradation");
        outcomes.push(format!("{:?}", custom.report));
    }
    // The same seed must produce the same drifted report at every
    // thread count: injection decisions are per-site, not per-worker.
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[1], outcomes[2]);
}

#[test]
fn dropped_coverage_surfaces_as_typed_error() {
    for threads in THREAD_COUNTS {
        let (out, injected) = faulted_custom(
            FaultClass::DropCoverage,
            1.0,
            threads,
            RobustnessPolicy::FailFast,
        );
        assert!(injected > 0);
        let err = out.expect_err("dropped coverage must not produce a result");
        assert!(
            matches!(
                err,
                ClaireError::IncompleteCoverage { .. }
                    | ClaireError::NoFeasibleConfiguration { .. }
            ),
            "{threads} threads: unexpected error {err}"
        );
    }
}

#[test]
fn worker_panics_are_contained_as_typed_errors() {
    let models = [zoo::alexnet(), zoo::resnet18()];
    for threads in THREAD_COUNTS {
        let plan = FaultPlan::new(7).with(FaultClass::WorkerPanic, 1.0);
        let engine = Engine::new(threads).with_faults(plan);
        let claire = Claire::new(ClaireOptions::default());
        let err = claire
            .train_with_engine(&models, &engine)
            .expect_err("panicking workers must not produce a result");
        assert!(
            matches!(err, ClaireError::WorkerPanic { .. }),
            "{threads} threads: unexpected error {err}"
        );
        let injected = engine
            .faults()
            .map(|p| p.injections(FaultClass::WorkerPanic))
            .unwrap_or(0);
        assert!(injected > 0);
    }
}

#[test]
fn poisoned_cache_shards_recover_bit_identically() {
    let claire = Claire::new(ClaireOptions::default());
    for threads in THREAD_COUNTS {
        let plain = Engine::new(threads);
        let baseline = claire
            .custom_for_with_engine(&zoo::alexnet(), &plain)
            .expect("baseline");

        let plan = FaultPlan::new(0xFA11).with(FaultClass::PoisonShard, 1.0);
        let engine = Engine::new(threads).with_faults(plan);
        let injected = engine
            .faults()
            .map_or(0, |p| p.injections(FaultClass::PoisonShard));
        assert_eq!(injected, 3, "the Louvain, graph and interner locks");
        let poisoned = claire
            .custom_for_with_engine(&zoo::alexnet(), &engine)
            .expect("poisoned memo locks are recoverable");
        assert_finite(&poisoned.report);
        // The run read every poisoned lock, so recovery was exercised.
        let stats = engine.stats();
        assert!(stats.graph_hits + stats.graph_misses >= 1, "{stats:?}");
        assert!(stats.louvain_hits + stats.louvain_misses >= 1, "{stats:?}");
        assert!(stats.struct_entries >= 1, "{stats:?}");
        // Poisoning never corrupts stored values, so recovery is
        // exact, not merely approximate.
        assert_eq!(
            format!("{:?}", (&poisoned.config, &poisoned.report)),
            format!("{:?}", (&baseline.config, &baseline.report)),
            "{threads} threads"
        );
    }
}

#[test]
fn injected_infeasibility_fails_fast_or_degrades_by_policy() {
    for threads in THREAD_COUNTS {
        let (out, injected) = faulted_custom(
            FaultClass::InfeasibleConstraints,
            1.0,
            threads,
            RobustnessPolicy::FailFast,
        );
        assert!(injected > 0);
        let err = out.expect_err("unsatisfiable constraints must fail fast");
        assert!(
            matches!(
                err,
                ClaireError::NoFeasibleConfiguration { .. }
                    | ClaireError::ChipletAreaUnsatisfiable { .. }
            ),
            "{threads} threads: unexpected error {err}"
        );

        let (out, _) = faulted_custom(
            FaultClass::InfeasibleConstraints,
            1.0,
            threads,
            RobustnessPolicy::Degrade,
        );
        let rescued = out.expect("degrade mode walks the relaxation ladder");
        assert_finite(&rescued.report);
        let degradation = rescued.degradation.expect("relaxation must be flagged");
        assert!(!degradation.steps.is_empty());
    }
}

#[test]
fn failed_noc_links_route_around_or_error_typed() {
    for threads in THREAD_COUNTS {
        // Moderate rate: some links die, the torus routes around them.
        let (out, _) = faulted_custom(
            FaultClass::FailedNocLink,
            0.3,
            threads,
            RobustnessPolicy::FailFast,
        );
        match out {
            Ok(custom) => assert_finite(&custom.report),
            Err(e) => assert!(
                matches!(
                    e,
                    ClaireError::NoRoute { .. } | ClaireError::NoFeasibleConfiguration { .. }
                ),
                "{threads} threads: unexpected error {e}"
            ),
        }

        // Every link dead: small tori (1-2 units per direction) have
        // no alternative path left, so a typed NoRoute (or an
        // infeasible sweep) is the only acceptable failure.
        let (out, injected) = faulted_custom(
            FaultClass::FailedNocLink,
            1.0,
            threads,
            RobustnessPolicy::FailFast,
        );
        assert!(injected > 0);
        match out {
            Ok(custom) => assert_finite(&custom.report),
            Err(e) => assert!(
                matches!(
                    e,
                    ClaireError::NoRoute { .. } | ClaireError::NoFeasibleConfiguration { .. }
                ),
                "{threads} threads: unexpected error {e}"
            ),
        }
    }
}

#[test]
fn zero_rate_plan_is_bit_identical_to_no_plan() {
    let models = [zoo::alexnet(), zoo::resnet18()];
    let claire = Claire::new(ClaireOptions::default());
    for threads in THREAD_COUNTS {
        let plain = Engine::new(threads);
        let reference = format!("{:?}", claire.train_with_engine(&models, &plain));

        // Armed with *nothing*: all hooks present, no decisions fire.
        let idle = Engine::new(threads).with_faults(FaultPlan::new(0xFA11));
        let got = format!("{:?}", claire.train_with_engine(&models, &idle));
        assert_eq!(reference, got, "{threads} threads");
        assert_eq!(
            idle.faults().map(|p| p.total_injections()),
            Some(0),
            "zero-rate plan must never inject"
        );
    }
}

/// Runs a train + test flow on an engine armed with `class` at `rate`
/// at every thread count, asserting the runs agree bit for bit and
/// that each ran on the flat plan. Returns the shared fingerprint.
fn faulted_flow_is_thread_count_independent(
    class: FaultClass,
    rate: f64,
    policy: RobustnessPolicy,
) -> String {
    let training = [zoo::resnet18(), zoo::alexnet(), zoo::bert_base()];
    let tests = [zoo::vgg16(), zoo::gpt2()];
    let claire = Claire::new(ClaireOptions {
        policy,
        ..ClaireOptions::default()
    });
    let mut fingerprints = Vec::new();
    for threads in THREAD_COUNTS {
        let plan = FaultPlan::new(0xFA11).with(class, rate);
        let engine = Engine::new(threads).with_faults(plan);
        let train = claire
            .train_with_engine(&training, &engine)
            .expect("the faulted flow trains");
        let test = claire
            .evaluate_test_with_engine(&train, &tests, &engine)
            .expect("the faulted flow tests");
        let injected = engine.faults().map(|p| p.injections(class)).unwrap_or(0);
        assert!(injected > 0, "{class:?} at {rate} never fired");
        let stats = engine.stats();
        assert!(
            stats.stages.iter().any(|(name, _)| name == "plan"),
            "{threads} threads: the faulted flow must run on the flat plan: {stats:?}"
        );
        fingerprints.push(format!("{train:?}\n{test:?}"));
    }
    assert_eq!(fingerprints[0], fingerprints[1], "1 vs 2 threads");
    assert_eq!(fingerprints[1], fingerprints[2], "2 vs 8 threads");
    fingerprints.swap_remove(0)
}

#[test]
fn perturbed_flow_runs_on_the_plan_at_any_thread_count() {
    faulted_flow_is_thread_count_independent(
        FaultClass::PerturbPpa,
        0.3,
        RobustnessPolicy::FailFast,
    );
}

#[test]
fn infeasible_flow_degrades_on_the_plan_at_any_thread_count() {
    let fingerprint = faulted_flow_is_thread_count_independent(
        FaultClass::InfeasibleConstraints,
        0.5,
        RobustnessPolicy::Degrade,
    );
    assert!(
        fingerprint.contains("degradation: Some"),
        "a 0.5 infeasibility rate must degrade some subject"
    );
}
