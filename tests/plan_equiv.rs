//! Equivalence suite for the flat execution plan, the only execution
//! path: the planned flow (one up-front item set through a single
//! load-balanced parallel map, selections replayed from the
//! evaluation table) must produce results **bit-identical** to the
//! same flow on the serial oracle engine — one worker, no memo tiers,
//! no screens — at every thread count, cache on or off, fail-fast or
//! degrade. Comparisons go through `format!("{:?}")`, which
//! prints `f64` exactly, so two equal strings mean two bit-equal
//! result sets.

use claire::core::plan::build_eval_table;
use claire::core::{
    Claire, ClaireOptions, Constraints, Engine, RobustnessPolicy, SubsetStrategy, WeightScale,
};
use claire::model::zoo;
use std::time::Instant;

/// Thread counts the suite sweeps: the serial edge case, a small
/// pool, and more workers than the machine has cores.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn planned() -> ClaireOptions {
    ClaireOptions::default()
}

/// The oracle engine: one worker, no memo tiers, no screens — every
/// DSE point is priced exactly by the bare evaluator.
fn oracle() -> Engine {
    Engine::serial().with_cache(false).with_pruning(false)
}

/// Full train + test fingerprint of one flow run. The model slices
/// are shared across runs so process-global instance ids (which the
/// Debug rendering includes) cancel out of the comparison.
fn run_fingerprint(
    opts: ClaireOptions,
    training: &[claire::model::Model],
    tests: &[claire::model::Model],
    engine: &Engine,
) -> String {
    let claire = Claire::new(opts);
    let train = claire.train_with_engine(training, engine).unwrap();
    let test = claire
        .evaluate_test_with_engine(&train, tests, engine)
        .unwrap();
    format!("{train:?}\n{test:?}")
}

#[test]
fn planned_flow_equals_serial_oracle_bit_for_bit() {
    let training = [
        zoo::resnet18(),
        zoo::alexnet(),
        zoo::bert_base(),
        zoo::vgg16(),
    ];
    let tests = [zoo::resnet50(), zoo::vit_base()];
    let reference = run_fingerprint(planned(), &training, &tests, &oracle());
    for threads in THREAD_COUNTS {
        for cache in [false, true] {
            let engine = Engine::new(threads).with_cache(cache);
            let got = run_fingerprint(planned(), &training, &tests, &engine);
            assert_eq!(
                got, reference,
                "planned flow diverged from the serial oracle at {threads} thread(s), \
                 cache {cache}"
            );
        }
    }
}

#[test]
fn planned_flow_equals_serial_oracle_with_jaccard_subsets() {
    // A training set chosen so agglomeration forms several
    // multi-member subsets, so the library stage's table replay (set
    // screen ⊆ member screens, member-order early-exit totals) is
    // exercised on non-singleton member lists too.
    let opts = ClaireOptions {
        subsets: SubsetStrategy::WeightedJaccard {
            threshold: 0.6,
            scale: WeightScale::Log,
        },
        ..ClaireOptions::default()
    };
    let training = [
        zoo::resnet18(),
        zoo::resnet50(),
        zoo::mobilenet_v2(),
        zoo::bert_base(),
        zoo::vit_base(),
        zoo::gpt2(),
    ];
    let claire = Claire::new(opts);
    let reference = format!(
        "{:?}",
        claire.train_with_engine(&training, &oracle()).unwrap()
    );
    for threads in THREAD_COUNTS {
        for cache in [false, true] {
            let engine = Engine::new(threads).with_cache(cache);
            let got = format!(
                "{:?}",
                claire.train_with_engine(&training, &engine).unwrap()
            );
            assert_eq!(
                got, reference,
                "planned library synthesis diverged from the serial oracle at \
                 {threads} thread(s), cache {cache}"
            );
        }
    }
}

#[test]
fn planned_flow_equals_serial_oracle_under_degrade() {
    // An impossible chiplet-area budget forces every stage down the
    // constraint-relaxation ladder: rung 0 replays from the plan
    // table, the relaxed rungs re-run the single-subject searches —
    // and the outputs must still match the serial oracle bit for bit.
    let tight = Constraints {
        chiplet_area_limit_mm2: 0.5,
        ..Constraints::default()
    };
    let claire_planned = Claire::new(ClaireOptions {
        constraints: tight,
        policy: RobustnessPolicy::Degrade,
        ..ClaireOptions::default()
    });
    let training = [zoo::resnet18(), zoo::alexnet()];
    let tests = [zoo::vgg16()];

    let oracle = oracle();
    let train_ref = claire_planned
        .train_with_engine(&training, &oracle)
        .unwrap();
    assert!(train_ref.is_degraded(), "scenario must actually degrade");
    let test_ref = claire_planned
        .evaluate_test_with_engine(&train_ref, &tests, &oracle)
        .unwrap();
    let reference = format!("{train_ref:?}\n{test_ref:?}");

    for threads in THREAD_COUNTS {
        for cache in [false, true] {
            let engine = Engine::new(threads).with_cache(cache);
            let train = claire_planned
                .train_with_engine(&training, &engine)
                .unwrap();
            let test = claire_planned
                .evaluate_test_with_engine(&train, &tests, &engine)
                .unwrap();
            assert_eq!(
                format!("{train:?}\n{test:?}"),
                reference,
                "degraded planned flow diverged from the serial oracle at \
                 {threads} thread(s), cache {cache}"
            );
        }
    }
}

#[test]
fn plan_memo_tiers_see_traffic() {
    // Both memo tiers must carry traffic on a planned multi-model
    // flow: the merged member-graph path gives the graph tier its
    // first cold hits (member graphs cached by the customs stage are
    // reused by the generic build), and the Louvain tier serves every
    // repeated `(graph, γ)` clustering.
    let engine = Engine::new(2);
    let claire = Claire::new(planned());
    let training = [zoo::resnet18(), zoo::alexnet(), zoo::bert_base()];
    let train = claire.train_with_engine(&training, &engine).unwrap();
    let tests = [zoo::vgg16()];
    claire
        .evaluate_test_with_engine(&train, &tests, &engine)
        .unwrap();
    let stats = engine.stats();
    assert!(stats.plan_items > 0, "no plan items enumerated: {stats:?}");
    assert!(
        stats.louvain_misses > 0 && stats.graph_misses > 0,
        "memo tiers stored nothing: {stats:?}"
    );
    assert!(
        stats.louvain_hits > 0,
        "repeated clusterings never hit the louvain tier — repeat-\u{3b3} \
         requests are re-deriving: {stats:?}"
    );
    assert!(
        stats.merged_graph_builds > 0,
        "no multi-member graph assembled from cached members: {stats:?}"
    );
    assert!(
        stats.graph_hits > 0,
        "graph tier's cold hit rate is still zero: {stats:?}"
    );
    assert!(
        stats.stages.iter().any(|(name, _)| name == "plan"),
        "plan stage not timed: {stats:?}"
    );
}

#[test]
fn a_lapsed_deadline_leaves_every_other_row_bit_identical() {
    let models = [
        zoo::resnet18(),
        zoo::alexnet(),
        zoo::bert_base(),
        zoo::vgg16(),
    ];
    const LAPSED: usize = 1;
    let opts = planned();
    let rows = |threads: usize, deadlines: &[Option<Instant>]| {
        let engine = Engine::new(threads);
        build_eval_table(&models, &opts.space, &opts.constraints, &engine, deadlines).rows
    };
    for threads in THREAD_COUNTS {
        let reference = rows(threads, &[]);
        let mut deadlines = vec![None; models.len()];
        deadlines[LAPSED] = Some(Instant::now());
        let got = rows(threads, &deadlines);
        for (mi, (got, want)) in got.iter().zip(&reference).enumerate() {
            if mi != LAPSED {
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{} row moved beside a lapsed deadline at {threads} threads",
                    models[mi].name()
                );
            }
        }
        // Every checkpoint saw the lapse: the lapsed model priced
        // nothing.
        assert!(got[LAPSED].reports.iter().all(Option::is_none));
    }
}
