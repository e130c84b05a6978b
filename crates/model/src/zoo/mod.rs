//! The CLAIRE model zoo: architecturally faithful layer-by-layer
//! descriptions of the 19 AI algorithms used in the paper, plus eight
//! extended test algorithms.
//!
//! [`TABLE`] holds all 27 as `(name, constructor)` pairs, in paper
//! order, and every set and lookup reads it:
//!
//! * Training set (Table I, [`TRAINING`]): ResNet-18, VGG-16,
//!   DenseNet-121, MobileNetV2, PEANUT-RCNN, ResNet-50, Mixtral-8x7B,
//!   GPT-2, Meta-Llama-3-8B, DPT-Large, DINOv2-large, Swin-T,
//!   Whisper-v3-large.
//! * Test set (Input #6, [`TEST`]): BERT-base, Graphormer, ViT-base,
//!   AST, DETR, AlexNet.
//! * Extended test set ([`EXTENDED_TEST`]), the paper's future-work
//!   direction: Wav2Vec2-base, DistilGPT2, Mask R-CNN R50, ConvNeXt-T,
//!   EfficientNet-B0.
//! * Three more extended models that no set holds: U-Net, T5-small and
//!   CLIP ViT-B/32.
//!
//! [`by_name`] finds one entry and builds only that model.
//!
//! Every generator walks the published architecture and emits the same
//! layer records a `print(model)` dump would yield for the module types
//! the paper considers (Conv2d/Conv1d/Linear/activations/poolings plus
//! the printed Flatten/Permute modules of torchvision Swin). Modules
//! PyTorch applies functionally (e.g. `torch.flatten` in ResNet's
//! `forward`) are *not* printed and therefore not emitted, matching the
//! paper's extraction path.

mod cnn;
mod detection;
mod extended;
mod extended2;
mod llm;
mod transformer;

pub(crate) mod common;

pub use cnn::{alexnet, densenet121, mobilenet_v2, resnet18, resnet50, vgg16};
pub use detection::{detr, peanut_rcnn};
pub use extended::{convnext_tiny, distilgpt2, efficientnet_b0, mask_rcnn_r50, wav2vec2_base};
pub use extended2::{clip_vit_b32, t5_small, unet};
pub use llm::{
    gpt2, gpt2_decode, llama3_8b, llama3_8b_decode, mixtral_8x7b, mixtral_8x7b_decode,
    whisper_v3_large,
};
pub use transformer::{ast, bert_base, dinov2_large, dpt_large, graphormer, swin_t, vit_base};

use std::ops::Range;

use crate::Model;

/// A zoo entry: the model's [`Model::name`] and its constructor.
pub type Entry = (&'static str, fn() -> Model);

/// Every zoo model, in paper order. The sets are slices of it.
pub static TABLE: [Entry; 27] = [
    ("Resnet18", resnet18),
    ("VGG16", vgg16),
    ("Densenet121", densenet121),
    ("Mobilenetv2", mobilenet_v2),
    ("PEANUT RCNN", peanut_rcnn),
    ("Resnet50", resnet50),
    ("Mixtral-8x7B", mixtral_8x7b),
    ("GPT2", gpt2),
    ("Meta Llama-3-8B", llama3_8b),
    ("DPT-Large", dpt_large),
    ("DINOv2-large", dinov2_large),
    ("SWIN-T", swin_t),
    ("Whisperv3-large", whisper_v3_large),
    ("BERT-base", bert_base),
    ("Graphormer", graphormer),
    ("ViT-base", vit_base),
    ("AST", ast),
    ("DETR", detr),
    ("Alexnet", alexnet),
    ("Wav2Vec2-base", wav2vec2_base),
    ("DistilGPT2", distilgpt2),
    ("MaskRCNN-R50", mask_rcnn_r50),
    ("ConvNeXt-T", convnext_tiny),
    ("EfficientNet-B0", efficientnet_b0),
    ("UNet", unet),
    ("T5-small", t5_small),
    ("CLIP-ViT-B32", clip_vit_b32),
];

/// The training set's slice of [`TABLE`].
pub const TRAINING: Range<usize> = 0..13;
/// The test set's slice of [`TABLE`].
pub const TEST: Range<usize> = 13..19;
/// The extended test set's slice of [`TABLE`]. The entries after it
/// belong to no set.
pub const EXTENDED_TEST: Range<usize> = 19..24;

fn build(slice: Range<usize>) -> Vec<Model> {
    TABLE[slice].iter().map(|(_, make)| make()).collect()
}

/// The 13 training-set algorithms (paper Table I), in table order.
pub fn training_set() -> Vec<Model> {
    build(TRAINING)
}

/// The 6 test-set algorithms (paper Input #6), in paper order.
pub fn test_set() -> Vec<Model> {
    build(TEST)
}

/// The five extended test algorithms, ordered to target C_4, C_5,
/// C_2, C_1 and the CNN/LLM boundary respectively.
pub fn extended_test_set() -> Vec<Model> {
    build(EXTENDED_TEST)
}

/// Builds the zoo model named `name` (exact, case-sensitive match
/// against [`TABLE`]), and no other.
pub fn by_name(name: &str) -> Option<Model> {
    TABLE
        .iter()
        .find(|(key, _)| *key == name)
        .map(|(_, make)| make())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Table I parameter counts, within a ±8 % modelling tolerance
    /// (we reconstruct architectures from their publications; the paper
    /// counted checkpoint tensors).
    #[test]
    fn table1_param_counts() {
        let expect_m: &[(&str, f64)] = &[
            ("Resnet18", 11.7),
            ("VGG16", 138.0),
            ("Densenet121", 7.98),
            ("Mobilenetv2", 3.5),
            ("PEANUT RCNN", 14.21),
            ("Resnet50", 25.5),
            ("Mixtral-8x7B", 46_700.0),
            ("GPT2", 137.0),
            ("Meta Llama-3-8B", 8_030.0),
            ("DPT-Large", 342.0),
            ("DINOv2-large", 304.0),
            ("SWIN-T", 29.0),
            ("Whisperv3-large", 1_540.0),
        ];
        for (name, want) in expect_m {
            let m = by_name(name).unwrap_or_else(|| panic!("missing {name}"));
            let got = m.param_count() as f64 / 1.0e6;
            let rel = (got - want).abs() / want;
            assert!(
                rel < 0.08,
                "{name}: expected {want} M params, got {got:.2} M ({:.1} % off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn every_model_has_positive_compute() {
        for m in training_set().iter().chain(test_set().iter()) {
            assert!(m.macs() > 0, "{} has no MACs", m.name());
            assert!(m.layer_count() > 3, "{} suspiciously small", m.name());
        }
    }
}
