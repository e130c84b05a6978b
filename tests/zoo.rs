//! The zoo table: every set and every name lookup reads one
//! `(name, constructor)` table, and `by_name` builds only the model
//! asked for. Every zoo model's layer names, JSON and `print(model)`
//! text are pinned by `tests/golden/zoo_layer_names.txt`; regenerate
//! it with `GOLDEN_BLESS=1 cargo test --test zoo`.

use claire::model::parse::to_torch_print;
use claire::model::{zoo, Model};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Model instance ids come from one process-wide counter, so the test
/// that counts constructions must not overlap another that builds
/// models. Every test here that builds a model holds this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn names(models: &[Model]) -> Vec<&str> {
    models.iter().map(Model::name).collect()
}

#[test]
fn table_holds_27_distinct_names() {
    assert_eq!(zoo::TABLE.len(), 27);
    let distinct: BTreeSet<&str> = zoo::TABLE.iter().map(|(name, _)| *name).collect();
    assert_eq!(distinct.len(), 27);
}

#[test]
fn each_constructor_builds_the_model_its_key_names() {
    let _guard = serial();
    for (name, make) in &zoo::TABLE {
        assert_eq!(make().name(), *name);
    }
}

#[test]
fn by_name_builds_the_constructors_model_for_every_key() {
    let _guard = serial();
    for (name, make) in &zoo::TABLE {
        let found = zoo::by_name(name).unwrap_or_else(|| panic!("{name} not found"));
        assert_eq!(found, make(), "{name}");
    }
}

#[test]
fn by_name_builds_only_the_model_asked_for() {
    let _guard = serial();
    for (name, _) in &zoo::TABLE {
        let before = zoo::alexnet().instance_id();
        let found = zoo::by_name(name).expect("every key resolves");
        assert_eq!(found.instance_id(), before + 1, "{name}");
    }
}

#[test]
fn sets_are_the_tables_slices_in_paper_order() {
    let _guard = serial();
    let slice = |range: std::ops::Range<usize>| -> Vec<&str> {
        zoo::TABLE[range].iter().map(|(name, _)| *name).collect()
    };
    let training = zoo::training_set();
    assert_eq!(
        names(&training),
        [
            "Resnet18",
            "VGG16",
            "Densenet121",
            "Mobilenetv2",
            "PEANUT RCNN",
            "Resnet50",
            "Mixtral-8x7B",
            "GPT2",
            "Meta Llama-3-8B",
            "DPT-Large",
            "DINOv2-large",
            "SWIN-T",
            "Whisperv3-large",
        ]
    );
    assert_eq!(names(&training), slice(0..13));
    let test = zoo::test_set();
    assert_eq!(
        names(&test),
        [
            "BERT-base",
            "Graphormer",
            "ViT-base",
            "AST",
            "DETR",
            "Alexnet"
        ]
    );
    assert_eq!(names(&test), slice(13..19));
    let extended = zoo::extended_test_set();
    assert_eq!(
        names(&extended),
        [
            "Wav2Vec2-base",
            "DistilGPT2",
            "MaskRCNN-R50",
            "ConvNeXt-T",
            "EfficientNet-B0",
        ]
    );
    assert_eq!(names(&extended), slice(19..24));
    assert_eq!(slice(24..27), ["UNet", "T5-small", "CLIP-ViT-B32"]);
    assert_eq!(
        (zoo::TRAINING, zoo::TEST, zoo::EXTENDED_TEST),
        (0..13, 13..19, 19..24)
    );
}

#[test]
fn unknown_and_wrong_case_names_resolve_to_none() {
    for name in [
        "NotAModel",
        "",
        "resnet18",
        "RESNET18",
        "bert-base",
        "Resnet18 ",
    ] {
        assert!(zoo::by_name(name).is_none(), "{name:?} resolved");
    }
}

/// Every [`zoo::TABLE`] constructor, then the three decode variants.
fn every_zoo_constructor() -> Vec<zoo::Entry> {
    let decode: [zoo::Entry; 3] = [
        ("GPT2 (decode)", zoo::gpt2_decode),
        ("Meta Llama-3-8B (decode)", zoo::llama3_8b_decode),
        ("Mixtral-8x7B (decode)", zoo::mixtral_8x7b_decode),
    ];
    zoo::TABLE.iter().copied().chain(decode).collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One fixture line: the model's layer count and FNV-1a digests of
/// its newline-joined layer names, its JSON and its `print(model)`
/// text.
fn fingerprint(m: &Model) -> String {
    let names: Vec<&str> = m.layers().iter().map(|l| &*l.name).collect();
    let json = serde_json::to_string(m).expect("zoo models serialize");
    format!(
        "{}\tlayers={}\tnames={:016x}\tjson={:016x}\tprint={:016x}\n",
        m.name(),
        m.layer_count(),
        fnv1a(names.join("\n").as_bytes()),
        fnv1a(json.as_bytes()),
        fnv1a(to_torch_print(m).as_bytes()),
    )
}

#[test]
fn zoo_layer_names_match_the_golden_fixture() {
    let _guard = serial();
    let rendered: String = every_zoo_constructor()
        .iter()
        .map(|(name, make)| {
            let m = make();
            assert_eq!(m.name(), *name);
            fingerprint(&m)
        })
        .collect();
    let path = format!(
        "{}/tests/golden/zoo_layer_names.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &rendered).unwrap_or_else(|e| panic!("{path}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with GOLDEN_BLESS=1 to create)"));
    assert_eq!(rendered, expected, "zoo layer names diverged from {path}");
}

#[test]
fn every_zoo_model_round_trips_through_json() {
    let _guard = serial();
    for (name, make) in every_zoo_constructor() {
        let m = make();
        let json = serde_json::to_string(&m).expect("zoo models serialize");
        let back: Model = serde_json::from_str(&json).expect("zoo JSON parses back");
        assert_eq!(back, m, "{name}");
        assert_eq!(
            format!("{:?}", back.layers()),
            format!("{:?}", m.layers()),
            "{name}"
        );
        assert_eq!(
            serde_json::to_string(&back).expect("serializes"),
            json,
            "{name}"
        );
    }
}
