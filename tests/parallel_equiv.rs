//! Equivalence suite for the parallel, memoized evaluation engine:
//! every thread count and every cache setting must produce results
//! **bit-identical** to the serial, uncached reference. Comparisons
//! go through `format!("{:?}")`, which prints `f64` exactly (Rust's
//! float Debug output round-trips), so two equal strings mean two
//! bit-equal result sets — down to NaN-free float payloads, orderings
//! and tie-breaks.

use claire::core::dse::{
    custom_config, custom_config_with_engine, sweep, sweep_with_engine, DseObjective,
};
use claire::core::telemetry::Metric;
use claire::core::{Claire, ClaireOptions, Constraints, Engine, SubsetStrategy, WeightScale};
use claire::model::zoo;
use claire::ppa::{DseSpace, HwParams};
use std::sync::Arc;

/// Thread counts the suite sweeps: the serial edge case, a small
/// pool, and more workers than this container has cores.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn dse_sweep_is_bit_identical_at_any_thread_count() {
    let space = DseSpace::default();
    let cons = Constraints::default();
    for model in [zoo::resnet18(), zoo::bert_base(), zoo::peanut_rcnn()] {
        let reference = format!("{:?}", sweep(&model, &space, &cons));
        for threads in THREAD_COUNTS {
            let engine = Engine::new(threads);
            let got = format!("{:?}", sweep_with_engine(&model, &space, &cons, &engine));
            assert_eq!(
                got,
                reference,
                "{} sweep diverged at {threads} thread(s)",
                model.name()
            );
        }
    }
}

#[test]
fn dse_sweep_cache_on_equals_cache_off() {
    let space = DseSpace::default();
    let cons = Constraints::default();
    let model = zoo::vgg16();
    let off = format!(
        "{:?}",
        sweep_with_engine(&model, &space, &cons, &Engine::new(4).with_cache(false))
    );
    let on = format!(
        "{:?}",
        sweep_with_engine(&model, &space, &cons, &Engine::new(4).with_cache(true))
    );
    assert_eq!(on, off, "memo cache changed sweep results");
    // Unscreened, every point is priced: through the prepared shell
    // pricer on the cache-on engine, through `Engine::evaluate` on the
    // cache-off one.
    for space in [DseSpace::default(), DseSpace::dense(6)] {
        for (name, make) in &zoo::TABLE {
            let model = make();
            let sweep = |cache: bool| {
                let engine = Engine::new(4).with_cache(cache).with_pruning(false);
                format!("{:?}", sweep_with_engine(&model, &space, &cons, &engine))
            };
            assert_eq!(
                sweep(true),
                sweep(false),
                "memo cache changed the unscreened {name} sweep over {} points",
                space.len()
            );
        }
    }
}

#[test]
fn custom_config_selection_is_thread_count_independent() {
    let space = DseSpace::default();
    let cons = Constraints::default();
    let model = zoo::swin_t();
    let reference = format!("{:?}", custom_config(&model, &space, &cons).unwrap());
    for threads in THREAD_COUNTS {
        for cache in [false, true] {
            let engine = Engine::new(threads).with_cache(cache);
            let got = format!(
                "{:?}",
                custom_config_with_engine(&model, &space, &cons, DseObjective::MinArea, &engine)
                    .unwrap()
            );
            assert_eq!(
                got, reference,
                "selection diverged at {threads} thread(s), cache {cache}"
            );
        }
    }
}

#[test]
fn full_training_flow_is_bit_identical_across_engines() {
    let claire = Claire::new(ClaireOptions::default());
    let models = [
        zoo::resnet18(),
        zoo::alexnet(),
        zoo::bert_base(),
        zoo::vgg16(),
    ];
    let reference = format!(
        "{:?}",
        claire
            .train_with_engine(&models, &Engine::serial().with_cache(false))
            .unwrap()
    );
    for threads in THREAD_COUNTS {
        for cache in [false, true] {
            let engine = Engine::new(threads).with_cache(cache);
            let got = format!("{:?}", claire.train_with_engine(&models, &engine).unwrap());
            assert_eq!(
                got, reference,
                "training flow diverged at {threads} thread(s), cache {cache}"
            );
        }
    }
}

#[test]
fn library_synthesis_is_bit_identical_across_engines() {
    // Parallel library synthesis: the subset fan-out (one `C_k`
    // configuration per WeightedJaccard subset, clustered through the
    // engine's graph and Louvain memo tiers) must not change any
    // output bit. The training set is chosen so agglomeration forms
    // several multi-member subsets — compact CNNs, attention
    // transformers, and the Conv1d-bearing GPT-2 — exercising the
    // merged-vector maintenance and the per-subset par_map.
    let claire = Claire::new(ClaireOptions {
        subsets: SubsetStrategy::WeightedJaccard {
            threshold: 0.6,
            scale: WeightScale::Log,
        },
        ..ClaireOptions::default()
    });
    let models = [
        zoo::resnet18(),
        zoo::resnet50(),
        zoo::mobilenet_v2(),
        zoo::bert_base(),
        zoo::vit_base(),
        zoo::gpt2(),
    ];
    let reference = format!(
        "{:?}",
        claire
            .train_with_engine(&models, &Engine::serial().with_cache(false))
            .unwrap()
    );
    for threads in THREAD_COUNTS {
        for cache in [false, true] {
            let engine = Engine::new(threads).with_cache(cache);
            let got = format!("{:?}", claire.train_with_engine(&models, &engine).unwrap());
            assert_eq!(
                got, reference,
                "library synthesis diverged at {threads} thread(s), cache {cache}"
            );
        }
    }
}

#[test]
fn clustering_memo_tiers_see_traffic_during_training() {
    let engine = Engine::new(2);
    let claire = Claire::new(ClaireOptions::default());
    claire
        .train_with_engine(&[zoo::resnet18(), zoo::alexnet()], &engine)
        .unwrap();
    let stats = engine.stats();
    assert!(
        stats.graph_misses > 0,
        "graph cache untouched by training: {stats:?}"
    );
    assert!(
        stats.louvain_hits + stats.louvain_misses > 0,
        "louvain cache untouched by training: {stats:?}"
    );
    for stage in ["customs", "generic", "subsets", "libraries", "algo_ppa"] {
        assert!(
            stats.stages.iter().any(|(name, _)| name == stage),
            "stage {stage} not timed: {stats:?}"
        );
    }
}

#[test]
fn test_phase_is_bit_identical_across_engines() {
    let claire = Claire::new(ClaireOptions::default());
    let training = [
        zoo::resnet18(),
        zoo::alexnet(),
        zoo::bert_base(),
        zoo::vgg16(),
    ];
    let tests = [zoo::resnet50(), zoo::vit_base()];
    let serial = Engine::serial().with_cache(false);
    let train = claire.train_with_engine(&training, &serial).unwrap();
    let reference = format!(
        "{:?}",
        claire
            .evaluate_test_with_engine(&train, &tests, &serial)
            .unwrap()
    );
    for threads in THREAD_COUNTS {
        let engine = Engine::new(threads);
        let got = format!(
            "{:?}",
            claire
                .evaluate_test_with_engine(&train, &tests, &engine)
                .unwrap()
        );
        assert_eq!(got, reference, "test phase diverged at {threads} thread(s)");
    }
}

#[test]
fn staged_sweep_is_bit_identical_to_exhaustive_everywhere() {
    // The staged screens (area + latency lower bound) must be
    // deterministic and selection-preserving: at every thread count,
    // cache on or off, the screened sweep output is Debug-string
    // identical to the serial screened reference, an order-preserving
    // subset of the exhaustive oracle whose removals all sit outside
    // the latency-slack window, and every objective's selection from
    // either list is bit-identical.
    let space = DseSpace::default();
    let cons = Constraints::default();
    for model in [zoo::vgg16(), zoo::bert_base()] {
        let oracle = sweep_with_engine(
            &model,
            &space,
            &cons,
            &Engine::serial().with_cache(false).with_pruning(false),
        );
        let oracle_ref = format!("{oracle:?}");
        let staged_ref = format!(
            "{:?}",
            sweep_with_engine(
                &model,
                &space,
                &cons,
                &Engine::serial().with_cache(false).with_pruning(true)
            )
        );
        for threads in THREAD_COUNTS {
            for cache in [false, true] {
                for pruning in [false, true] {
                    let engine = Engine::new(threads).with_cache(cache).with_pruning(pruning);
                    let got = format!("{:?}", sweep_with_engine(&model, &space, &cons, &engine));
                    let want = if pruning { &staged_ref } else { &oracle_ref };
                    assert_eq!(
                        &got,
                        want,
                        "{} sweep diverged at {threads} thread(s), cache {cache}, \
                         pruning {pruning}",
                        model.name()
                    );
                }
            }
        }
        // Screened ⊆ oracle, order preserved, removals out of window.
        let staged = sweep_with_engine(&model, &space, &cons, &Engine::serial());
        let oracle_dbg: Vec<String> = oracle.iter().map(|p| format!("{p:?}")).collect();
        let mut cursor = 0usize;
        for p in &staged {
            let needle = format!("{p:?}");
            let pos = oracle_dbg[cursor..]
                .iter()
                .position(|e| *e == needle)
                .unwrap_or_else(|| panic!("staged point {} missing from oracle", p.hw));
            cursor += pos + 1;
        }
        let best_latency = oracle
            .iter()
            .map(|p| p.report.latency_s)
            .fold(f64::INFINITY, f64::min);
        let limit = best_latency * (1.0 + cons.latency_slack);
        let staged_set: std::collections::BTreeSet<String> =
            staged.iter().map(|p| format!("{p:?}")).collect();
        for p in &oracle {
            if !staged_set.contains(&format!("{p:?}")) {
                assert!(
                    p.report.latency_s > limit,
                    "{} pruned but inside the latency window",
                    p.hw
                );
            }
        }
        for objective in DseObjective::ALL {
            let a = format!(
                "{:?}",
                custom_config_with_engine(&model, &space, &cons, objective, &Engine::serial())
                    .unwrap()
            );
            let b = format!(
                "{:?}",
                custom_config_with_engine(
                    &model,
                    &space,
                    &cons,
                    objective,
                    &Engine::serial().with_pruning(false)
                )
                .unwrap()
            );
            assert_eq!(a, b, "{} {objective:?} selection diverged", model.name());
        }
    }
}

#[test]
fn staged_selection_is_bit_identical_to_exhaustive() {
    let space = DseSpace::default();
    let cons = Constraints::default();
    let model = zoo::swin_t();
    for objective in [
        DseObjective::MinArea,
        DseObjective::MinLatency,
        DseObjective::MinEnergyDelayProduct,
    ] {
        let reference = format!(
            "{:?}",
            custom_config_with_engine(
                &model,
                &space,
                &cons,
                objective,
                &Engine::serial().with_pruning(false)
            )
            .unwrap()
        );
        // The screens' counters are what the dense-space CI gate
        // reads, so they must not depend on the thread count either.
        let mut screen_counts = Vec::new();
        for threads in THREAD_COUNTS {
            let engine = Engine::new(threads);
            let got = format!(
                "{:?}",
                custom_config_with_engine(&model, &space, &cons, objective, &engine).unwrap()
            );
            assert_eq!(
                got, reference,
                "staged {objective:?} selection diverged at {threads} thread(s)"
            );
            let s = engine.stats();
            screen_counts.push((s.dse_pruned, s.dse_lb_pruned, s.dse_evaluated));
        }
        assert!(
            screen_counts.windows(2).all(|w| w[0] == w[1]),
            "staged {objective:?} screen counts (area-pruned, lb-pruned, evaluated) \
             diverged across {THREAD_COUNTS:?} threads: {screen_counts:?}"
        );
    }
}

#[test]
fn area_tier_and_structural_keys_see_traffic() {
    let space = DseSpace::default();
    let cons = Constraints::default();
    for threads in THREAD_COUNTS {
        let engine = Engine::new(threads);
        // Two *independent* constructions of the same architecture:
        // distinct instance ids, identical layer content.
        let first = zoo::resnet18();
        let second = zoo::resnet18();
        sweep_with_engine(&first, &space, &cons, &engine);
        let cold = engine.stats();
        assert_eq!(cold.struct_entries, 1, "one architecture interned");
        sweep_with_engine(&second, &space, &cons, &engine);
        let warm = engine.stats();
        assert_eq!(
            warm.struct_entries, 1,
            "structurally identical model must not add an interner entry"
        );
        assert_eq!(
            warm.struct_instances, 2,
            "both instances mapped onto the shared structure"
        );
        // The graph tier keys by structure too: the second instance's
        // universal graph is the entry the first one's build stored.
        let hw = HwParams::new(32, 32, 16, 16);
        let built = engine.universal_csr(std::slice::from_ref(&first), &hw);
        let shared = engine.universal_csr(std::slice::from_ref(&second), &hw);
        let after = engine.stats();
        assert_eq!(
            (after.graph_hits, after.graph_misses),
            (warm.graph_hits + 1, warm.graph_misses + 1),
            "structural keys must serve the second instance's graph from \
             cache ({threads} thread(s))"
        );
        assert!(Arc::ptr_eq(&built, &shared), "{after:?}");
        assert_eq!(after.struct_entries, 1, "{after:?}");
    }
}

#[test]
fn cache_off_engine_interns_nothing() {
    let engine = Engine::new(2).with_cache(false);
    sweep_with_engine(
        &zoo::resnet18(),
        &DseSpace::default(),
        &Constraints::default(),
        &engine,
    );
    let stats = engine.stats();
    assert_eq!(stats.struct_entries, 0);
    assert_eq!(stats.struct_instances, 0);
    assert_eq!(stats.area_entries, 0);
}

#[test]
fn engine_counters_see_traffic_during_a_sweep() {
    // A sweep prices through one prepared shell pricer: its cycle
    // tables and energy fold run the batch kernel, every point leaves
    // through exactly one screen or exact pricing, and no memo tier is
    // read. A second sweep builds a fresh pricer, so it repeats the
    // same work exactly.
    let engine = Engine::new(2);
    let model = zoo::resnet18();
    let space = DseSpace::default();
    let sweep = || sweep_with_engine(&model, &space, &Constraints::default(), &engine);
    let counts = || {
        let s = engine.stats();
        let batch_sums = engine.telemetry().counter(Metric::BatchSums);
        (batch_sums, s.dse_pruned, s.dse_lb_pruned, s.dse_evaluated)
    };
    sweep();
    let first = counts();
    let stats = engine.stats();
    assert!(
        first.0 > 0,
        "no compute sum priced through the batch kernel: {stats:?}"
    );
    assert_eq!(
        first.1 + first.2 + first.3,
        space.len() as u64,
        "every point is screened or priced once: {stats:?}"
    );
    assert!(first.3 > 0, "nothing priced: {stats:?}");
    sweep();
    let second = counts();
    let stats = engine.stats();
    assert_eq!(
        second,
        (2 * first.0, 2 * first.1, 2 * first.2, 2 * first.3),
        "a second sweep repeats the first one's work: {stats:?}"
    );
    assert_eq!(stats.struct_entries, 1, "{stats:?}");
    assert_eq!(
        stats.louvain_hits + stats.louvain_misses + stats.graph_hits + stats.graph_misses,
        0,
        "a sweep reads no memo tier: {stats:?}"
    );
}

#[test]
fn weight_streaming_is_bit_identical_across_engines() {
    use claire::core::evaluate::evaluate_with;
    use claire::core::{DesignConfig, EvalOptions};
    use claire::ppa::MemoryModel;
    // Weight streaming prices each layer on its own, through
    // `Engine::layer_cost` rather than the interned batch; the
    // reference prices through `DirectCosts`.
    let streaming = EvalOptions {
        memory: Some(MemoryModel::ddr4_3200()),
        ..EvalOptions::default()
    };
    for model in [
        zoo::alexnet(),
        zoo::resnet50(),
        zoo::mobilenet_v2(),
        zoo::bert_base(),
        zoo::gpt2(),
    ] {
        let classes: std::collections::BTreeSet<_> = model.op_class_counts().into_keys().collect();
        let configs: Vec<DesignConfig> = DseSpace::default()
            .iter()
            .map(|hw| DesignConfig::monolithic("streaming", hw, classes.clone()))
            .collect();
        let reference: Vec<String> = configs
            .iter()
            .map(|c| format!("{:?}", evaluate_with(&model, c, streaming)))
            .collect();
        let name = model.name();
        assert!(reference.iter().all(|r| r.starts_with("Ok(")), "{name}");
        for threads in THREAD_COUNTS {
            for cache in [true, false] {
                let engine = Engine::new(threads).with_cache(cache);
                let got = engine.par_map(&configs, |_, c| {
                    format!("{:?}", engine.evaluate_with(&model, c, streaming))
                });
                assert_eq!(
                    got, reference,
                    "{name} at {threads} thread(s), cache {cache}"
                );
            }
        }
    }
}
