//! Warm-state snapshot suite: the serialized memo tiers must be a
//! pure accelerant. A flow resumed from a snapshot is bit-identical
//! to a cold flow, the snapshot bytes are canonical (independent of
//! thread count and evaluation order), and every corruption mode is
//! rejected with a typed error that degrades to a cold start —
//! never a panic, never a poisoned engine.

use claire::core::dse::sweep_with_engine;
use claire::core::{Claire, ClaireError, ClaireOptions, Constraints, Engine, SNAPSHOT_VERSION};
use claire::model::zoo;
use claire::ppa::DseSpace;
use proptest::prelude::*;
use std::path::PathBuf;

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("claire-snap-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn flow_from_snapshot_is_bit_identical_to_cold() {
    let dir = scratch("flow");
    let claire = Claire::new(ClaireOptions::default());
    let training = [zoo::resnet18(), zoo::alexnet()];
    let tests = [zoo::vgg16()];

    let cold = Engine::new(2);
    let cold_train = claire
        .train_with_engine(&training, &cold)
        .expect("cold train");
    let cold_test = claire
        .evaluate_test_with_engine(&cold_train, &tests, &cold)
        .expect("cold test");
    let reference = format!("{cold_train:?}\n{cold_test:?}");

    let path = dir.join("claire.snapshot");
    assert!(cold.save_snapshot(&path).expect("save"), "nothing saved");

    let warm = Engine::new(2);
    assert!(warm.load_snapshot(&path).expect("load"), "nothing loaded");
    let loaded_signature = warm.tier_signature();
    let warm_train = claire
        .train_with_engine(&training, &warm)
        .expect("warm train");
    let warm_test = claire
        .evaluate_test_with_engine(&warm_train, &tests, &warm)
        .expect("warm test");
    assert_eq!(
        format!("{warm_train:?}\n{warm_test:?}"),
        reference,
        "flow from snapshot diverged from the cold flow"
    );

    // The warm flow re-derives nothing the snapshot carried: every
    // memo lookup is a hit, and no tier grows, so the snapshot would
    // not be rewritten.
    let stats = warm.stats();
    assert_eq!(stats.louvain_misses, 0, "{stats:?}");
    assert_eq!(stats.graph_misses, 0, "{stats:?}");
    assert_eq!(warm.tier_signature(), loaded_signature, "{stats:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_bytes_are_identical_across_thread_counts() {
    let claire = Claire::new(ClaireOptions::default());
    let training = [zoo::resnet18(), zoo::gpt2()];
    let mut snapshots = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(threads);
        claire.train_with_engine(&training, &engine).expect("train");
        snapshots.push((threads, engine.snapshot_bytes().expect("encode")));
    }
    let (_, reference) = &snapshots[0];
    for (threads, bytes) in &snapshots[1..] {
        assert_eq!(
            bytes, reference,
            "snapshot bytes diverged at {threads} threads"
        );
    }
}

#[test]
fn area_screening_leaves_no_warm_state() {
    // A cap below every point's area: the area screen drops all 4,096
    // points, so nothing is priced, bounded or interned.
    let space = DseSpace::dense(8);
    assert_eq!(space.len(), 4096);
    let cons = Constraints {
        chiplet_area_limit_mm2: 0.0,
        ..Constraints::default()
    };
    let engine = Engine::new(2);
    let signature = engine.tier_signature();
    let out = sweep_with_engine(&zoo::alexnet(), &space, &cons, &engine);
    assert!(out.is_empty());
    assert_eq!(
        engine.stats().dse_pruned,
        4096,
        "every point is over the cap"
    );
    assert_eq!(
        engine.tier_signature(),
        signature,
        "the screen memoized state"
    );
    assert_eq!(
        engine.snapshot_bytes().expect("encode"),
        Engine::new(2).snapshot_bytes().expect("encode fresh"),
        "area screening left warm state behind"
    );
}

#[test]
fn search_state_is_independent_of_points_priced() {
    // No tier is keyed by a hardware point the search prices alone:
    // sweeping 81, 256 or 4,096 points leaves the same warm state.
    let spaces = [DseSpace::default(), DseSpace::dense(4), DseSpace::dense(8)];
    assert_eq!(
        spaces.iter().map(DseSpace::len).collect::<Vec<_>>(),
        [81, 256, 4096]
    );
    for model in [zoo::alexnet(), zoo::resnet18()] {
        let states: Vec<_> = spaces
            .iter()
            .map(|space| {
                let engine = Engine::new(2);
                sweep_with_engine(&model, space, &Constraints::default(), &engine);
                (
                    engine.snapshot_bytes().expect("encode"),
                    engine.tier_signature(),
                )
            })
            .collect();
        for (space, (bytes, signature)) in spaces.iter().zip(&states).skip(1) {
            assert_eq!(
                (bytes.len(), signature),
                (states[0].0.len(), &states[0].1),
                "{}: {} points left a different warm state than 81",
                model.name(),
                space.len()
            );
            assert_eq!(bytes, &states[0].0, "{}", model.name());
        }
    }
    // A search whose area screen empties the space prices nothing, so
    // its shell pricer resolves nothing: no interned structure.
    let engine = Engine::new(2);
    let nothing_fits = Constraints {
        chiplet_area_limit_mm2: 0.5,
        ..Constraints::default()
    };
    let out = sweep_with_engine(
        &zoo::resnet18(),
        &DseSpace::default(),
        &nothing_fits,
        &engine,
    );
    assert!(out.is_empty());
    assert_eq!(
        engine.tier_signature(),
        Engine::new(2).tier_signature(),
        "an emptied search left warm state behind"
    );
}

#[test]
fn corruption_is_typed_and_degrades_to_cold_start() {
    let dir = scratch("corrupt");
    let claire = Claire::new(ClaireOptions {
        cache_dir: Some(dir.clone()),
        ..ClaireOptions::default()
    });
    let model = zoo::alexnet();

    let cold = Engine::new(2);
    let reference = claire
        .custom_for_with_engine(&model, &cold)
        .expect("cold custom");
    assert!(claire.save_warm_state(&cold).expect("save"));
    let path = claire.snapshot_path().expect("cache dir set");
    let valid = std::fs::read(&path).expect("snapshot bytes");

    // Every corruption mode: (tag, mutated bytes, detail substring).
    let mut truncated = valid.clone();
    truncated.truncate(17);
    let mut bad_magic = valid.clone();
    bad_magic[0] ^= 0xFF;
    let mut foreign_endian = valid.clone();
    foreign_endian.swap(8, 9); // byte-swapped BOM
    let mut bad_version = valid.clone();
    bad_version[10] = bad_version[10].wrapping_add(1);
    // A file from the previous format version, otherwise intact.
    let mut previous_version = valid.clone();
    previous_version[10..14].copy_from_slice(&(SNAPSHOT_VERSION - 1).to_le_bytes());
    let mut bad_checksum = valid.clone();
    *bad_checksum.last_mut().expect("non-empty") ^= 0x01;
    let cases = [
        ("truncated", truncated, "short"),
        ("magic", bad_magic, "magic"),
        ("endianness", foreign_endian, "endian"),
        ("version", bad_version, "version"),
        ("previous version", previous_version, "version"),
        ("checksum", bad_checksum, "checksum"),
    ];

    for (tag, bytes, detail) in cases {
        std::fs::write(&path, &bytes).expect("write corrupt");
        let engine = Engine::new(2);
        let err = claire.load_warm_state(&engine).expect_err(tag);
        match &err {
            ClaireError::SnapshotInvalid { detail: d } => {
                assert!(d.contains(detail), "{tag}: unexpected detail {d:?}");
            }
            other => panic!("{tag}: expected SnapshotInvalid, got {other:?}"),
        }
        // The rejected load left the engine untouched: the cold run
        // still works and matches the reference bit for bit.
        let recovered = claire
            .custom_for_with_engine(&model, &engine)
            .unwrap_or_else(|e| panic!("{tag}: engine unusable after rejected load: {e}"));
        assert_eq!(
            format!("{recovered:?}"),
            format!("{reference:?}"),
            "{tag}: cold fallback diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_writers_never_tear_the_snapshot() {
    // Two engines with *different* warm contents race saves to one
    // path. Unique temp names mean every rename publishes a complete
    // file, so whichever writer lands last, the path always holds one
    // of the two valid snapshots — never an interleaving.
    let dir = scratch("race");
    let path = dir.join("claire.snapshot");
    let claire = Claire::new(ClaireOptions::default());

    let warm = |model: claire::model::Model| {
        let engine = Engine::new(2);
        claire
            .custom_for_with_engine(&model, &engine)
            .expect("warm custom");
        engine
    };
    let a = warm(zoo::alexnet());
    let b = warm(zoo::resnet18());
    let valid = [
        a.snapshot_bytes().expect("encode a"),
        b.snapshot_bytes().expect("encode b"),
    ];

    const ROUNDS: usize = 24;
    std::thread::scope(|s| {
        for engine in [&a, &b] {
            let path = &path;
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    assert!(engine.save_snapshot(path).expect("racing save"));
                }
            });
        }
    });

    let on_disk = std::fs::read(&path).expect("snapshot exists");
    assert!(
        valid.contains(&on_disk),
        "path holds bytes that match neither writer: torn file"
    );
    let restored = Engine::new(2);
    assert!(restored.load_snapshot(&path).expect("post-race load"));
    assert!(
        std::fs::read_dir(&dir)
            .expect("scratch dir")
            .filter_map(Result::ok)
            .all(|e| !e.file_name().to_string_lossy().contains("tmp")),
        "temp files were left behind"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Options persisting warm state to `dir`.
fn cached(dir: &std::path::Path) -> Claire {
    Claire::new(ClaireOptions {
        cache_dir: Some(dir.to_path_buf()),
        ..ClaireOptions::default()
    })
}

/// An engine warmed by one custom run per model.
fn warmed(claire: &Claire, models: &[claire::model::Model]) -> Engine {
    let engine = Engine::new(2);
    for model in models {
        claire
            .custom_for_with_engine(model, &engine)
            .expect("custom");
    }
    engine
}

#[test]
fn warm_state_is_not_rewritten_when_nothing_grew() {
    let dir = scratch("skip");
    let claire = cached(&dir);
    let cold = warmed(&claire, &[zoo::alexnet()]);
    assert!(claire.save_warm_state(&cold).expect("first save"));
    assert!(
        !claire.save_warm_state(&cold).expect("repeat save"),
        "a save right after a save rewrote the snapshot"
    );
    let path = claire.snapshot_path().expect("cache dir set");
    let saved = std::fs::read(&path).expect("snapshot bytes");

    // Load into empty tiers, rerun the same work: nothing grew.
    let warm = Engine::new(2);
    assert!(claire.load_warm_state(&warm).expect("load"));
    claire
        .custom_for_with_engine(&zoo::alexnet(), &warm)
        .expect("warm custom");
    assert!(
        !claire.save_warm_state(&warm).expect("warm save"),
        "a warm run that memoized nothing rewrote the snapshot"
    );
    assert_eq!(std::fs::read(&path).expect("snapshot bytes"), saved);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_state_is_rewritten_after_new_work_or_a_replaced_or_deleted_file() {
    let dir = scratch("rewrite");
    let claire = cached(&dir);
    let path = claire.snapshot_path().expect("cache dir set");
    let seed = warmed(&claire, &[zoo::alexnet()]);
    assert!(claire.save_warm_state(&seed).expect("seed save"));

    let warm = Engine::new(2);
    assert!(claire.load_warm_state(&warm).expect("load"));

    // New work memoized since the load.
    claire
        .custom_for_with_engine(&zoo::resnet18(), &warm)
        .expect("new work");
    assert!(claire.save_warm_state(&warm).expect("grown save"));
    let grown = std::fs::read(&path).expect("snapshot bytes");
    assert_eq!(grown, warm.snapshot_bytes().expect("encode"));
    assert!(!claire.save_warm_state(&warm).expect("clean save"));

    // Another writer replaced the file.
    let other = warmed(&claire, &[zoo::vgg16()]);
    assert!(other.save_snapshot(&path).expect("other writer"));
    assert!(
        claire
            .save_warm_state(&warm)
            .expect("save over a foreign file"),
        "a file replaced by another writer was left in place"
    );
    assert_eq!(std::fs::read(&path).expect("snapshot bytes"), grown);

    // The file was deleted.
    std::fs::remove_file(&path).expect("delete snapshot");
    assert!(
        claire.save_warm_state(&warm).expect("save after delete"),
        "a deleted snapshot was not rewritten"
    );
    assert_eq!(std::fs::read(&path).expect("snapshot bytes"), grown);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_state_is_rewritten_after_loading_into_non_empty_tiers() {
    let dir = scratch("busy");
    let claire = cached(&dir);
    let seed = warmed(&claire, &[zoo::alexnet()]);
    assert!(claire.save_warm_state(&seed).expect("seed save"));

    // The tiers held work of their own before the load, so they no
    // longer equal the file's contents.
    let busy = warmed(&claire, &[zoo::resnet18()]);
    assert!(claire.load_warm_state(&busy).expect("load"));
    assert!(
        claire.save_warm_state(&busy).expect("merged save"),
        "a load into non-empty tiers was taken as matching the file"
    );
    let path = claire.snapshot_path().expect("cache dir set");
    assert_eq!(
        std::fs::read(&path).expect("snapshot bytes"),
        busy.snapshot_bytes().expect("encode")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_snapshot_is_a_quiet_cold_start() {
    let dir = scratch("missing");
    let claire = Claire::new(ClaireOptions {
        cache_dir: Some(dir.join("never-written")),
        ..ClaireOptions::default()
    });
    let engine = Engine::new(1);
    assert!(!claire
        .load_warm_state(&engine)
        .expect("missing is not an error"));
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Round-tripping is idempotent and canonical: an engine warmed
    /// by any subset of workloads in any order produces the same
    /// bytes as an engine restored from its own snapshot, and the
    /// same bytes as a second engine warmed in a different order.
    #[test]
    fn snapshot_round_trip_is_canonical(
        order in proptest::collection::vec(0usize..4, 1..4),
        threads in 1usize..4,
    ) {
        let pool = [zoo::alexnet(), zoo::resnet18(), zoo::vgg16(), zoo::gpt2()];
        let claire = Claire::new(ClaireOptions::default());

        let warm = |indices: &[usize], threads: usize| {
            let engine = Engine::new(threads);
            for &i in indices {
                claire
                    .custom_for_with_engine(&pool[i], &engine)
                    .expect("custom");
            }
            engine
        };

        let a = warm(&order, threads);
        let bytes_a = a.snapshot_bytes().expect("encode a");

        // Restore into a fresh engine: the re-encoded bytes match.
        let dir = scratch("prop");
        let path = dir.join("claire.snapshot");
        std::fs::write(&path, &bytes_a).expect("write");
        let restored = Engine::new(threads);
        prop_assert!(restored.load_snapshot(&path).expect("load"));
        prop_assert_eq!(&restored.snapshot_bytes().expect("encode restored"), &bytes_a);

        // A different evaluation order (and thread count) over the
        // same workload set reaches the same canonical bytes.
        let reversed: Vec<usize> = order.iter().rev().copied().collect();
        let b = warm(&reversed, 4usize.saturating_sub(threads).max(1));
        prop_assert_eq!(&b.snapshot_bytes().expect("encode b"), &bytes_a);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One mutation of a snapshot body. Offsets are fractions of the body
/// length, so every case lands somewhere inside it.
#[derive(Debug, Clone)]
enum Mutation {
    /// XOR one byte with a non-zero mask.
    Flip { at: f64, mask: u8 },
    /// Cut the body short.
    Truncate { at: f64 },
    /// Add `by` to the first small non-zero `u32` at or after the
    /// offset — most often a record count.
    Inflate { at: f64, by: u32 },
}

impl Mutation {
    fn apply(&self, body: &mut Vec<u8>) {
        let offset = |at: f64, len: usize| ((at * len as f64) as usize).min(len.saturating_sub(1));
        match *self {
            Mutation::Flip { at, mask } => {
                let i = offset(at, body.len());
                body[i] ^= mask;
            }
            Mutation::Truncate { at } => body.truncate(offset(at, body.len())),
            Mutation::Inflate { at, by } => {
                let start = offset(at, body.len());
                let word =
                    |i: usize| u32::from_le_bytes([body[i], body[i + 1], body[i + 2], body[i + 3]]);
                let hit =
                    (start..body.len().saturating_sub(3)).find(|&i| (1..=4096).contains(&word(i)));
                if let Some(i) = hit {
                    let inflated = word(i).wrapping_add(by);
                    body[i..i + 4].copy_from_slice(&inflated.to_le_bytes());
                }
            }
        }
    }
}

/// FNV-1a 64, the snapshot body checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The header length: magic, byte-order mark, version, length, checksum.
const HEADER_LEN: usize = 30;

/// A cold Alexnet custom run: the model instance (instance ids show
/// in the rendering), the run's snapshot, and its debug rendering.
struct Reference {
    model: claire::model::Model,
    snapshot: Vec<u8>,
    rendered: String,
}

fn alexnet_reference() -> &'static Reference {
    static REFERENCE: std::sync::OnceLock<Reference> = std::sync::OnceLock::new();
    REFERENCE.get_or_init(|| {
        let model = zoo::alexnet();
        let engine = Engine::new(2);
        let result = Claire::new(ClaireOptions::default())
            .custom_for_with_engine(&model, &engine)
            .expect("cold custom");
        Reference {
            snapshot: engine.snapshot_bytes().expect("encode"),
            rendered: format!("{result:?}"),
            model,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Body corruption that the checksum cannot see (length and FNV
    /// re-stamped) is still caught by the decoder: a load returns `Ok`
    /// or a typed `SnapshotInvalid`, never panics, and after a
    /// rejection the engine runs cold exactly as if never touched.
    #[test]
    fn restamped_body_mutations_never_panic_or_leak_into_the_engine(
        mutation in prop_oneof![
            (0.0f64..1.0, 1u8..255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
            (0.0f64..1.0).prop_map(|at| Mutation::Truncate { at }),
            (0.0f64..1.0, 1u32..u32::MAX).prop_map(|(at, by)| Mutation::Inflate { at, by }),
        ],
    ) {
        let reference = alexnet_reference();
        let valid = &reference.snapshot;
        let mut body = valid[HEADER_LEN..].to_vec();
        mutation.apply(&mut body);
        let mut bytes = valid[..HEADER_LEN].to_vec();
        bytes[14..22].copy_from_slice(&(body.len() as u64).to_le_bytes());
        bytes[22..30].copy_from_slice(&fnv1a(&body).to_le_bytes());
        bytes.extend_from_slice(&body);

        let dir = scratch("mutate");
        let path = dir.join("claire.snapshot");
        std::fs::write(&path, &bytes).expect("write mutated");
        let engine = Engine::new(2);
        let loaded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.load_snapshot(&path)
        }));
        std::fs::remove_dir_all(&dir).ok();
        match loaded {
            Err(_) => prop_assert!(false, "{mutation:?}: load panicked"),
            Ok(Ok(_)) => {}
            Ok(Err(ClaireError::SnapshotInvalid { .. })) => {
                let claire = Claire::new(ClaireOptions::default());
                let recovered = claire
                    .custom_for_with_engine(&reference.model, &engine)
                    .expect("cold run after a rejected load");
                prop_assert_eq!(
                    &format!("{recovered:?}"),
                    &reference.rendered,
                    "{:?}",
                    mutation
                );
            }
            Ok(Err(other)) => prop_assert!(false, "{mutation:?}: untyped error {other:?}"),
        }
    }
}
