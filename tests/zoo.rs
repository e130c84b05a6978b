//! The zoo table: every set and every name lookup reads one
//! `(name, constructor)` table, and `by_name` builds only the model
//! asked for.

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
