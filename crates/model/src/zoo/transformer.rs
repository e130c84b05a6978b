//! Encoder-style transformers: Swin-T, DPT-Large, DINOv2-large
//! (training set) and BERT-base, Graphormer, ViT-base, AST (test set).

use super::common::*;
use crate::layer::ActivationKind;
use crate::model::{Model, ModelBuilder, ModelClass};

const GELU: ActivationKind = ActivationKind::Gelu;
const RELU: ActivationKind = ActivationKind::Relu;

/// Swin-T (Liu et al., 2021), 29 M parameters.
///
/// torchvision's `SwinTransformer` prints `Permute` modules around each
/// stage and a `Flatten` before the classifier head — the origin of the
/// FLATTEN/PERMUTE capabilities in the paper's chiplet library L2.
pub fn swin_t() -> Model {
    let mut b = ModelBuilder::new("SWIN-T", ModelClass::Transformer);
    let dims = [96_u32, 192, 384, 768];
    let depths = [2_u32, 2, 6, 2];
    let mut res = 56_u32; // 224 / 4 patch grid

    conv2d(&mut b, "features.0.0", 3, 96, 4, 4, 0, (224, 224), 1);
    permute(&mut b, "features.0.2", u64::from(res) * u64::from(res) * 96);

    for (stage, (&d, &depth)) in dims.iter().zip(depths.iter()).enumerate() {
        let tokens = res * res;
        for blk in 0..depth {
            EncoderBlock::standard(d, 4 * d, tokens, GELU)
                .emit(&mut b, format_args!("features.{}.{blk}", 2 * stage + 1));
        }
        if stage + 1 < dims.len() {
            // PatchMerging: 4d -> 2d linear reduction at half resolution.
            res /= 2;
            linear(
                &mut b,
                format_args!("features.{}.reduction", 2 * stage + 2),
                4 * d,
                2 * d,
                res * res,
            );
        }
    }
    permute(&mut b, "permute", u64::from(res) * u64::from(res) * 768);
    adaptive_avg_pool(&mut b, "avgpool", 768, (res, res), 1);
    flatten(&mut b, "flatten", 768);
    linear(&mut b, "head", 768, 1000, 1);
    // Relative-position bias tables + layer norms.
    b.extra_params(700_000);
    b.build()
}

/// ViT-Large backbone shared by DPT-Large and (at patch 14) DINOv2.
fn vit_backbone(
    b: &mut ModelBuilder,
    prefix: &str,
    patch: u32,
    image: u32,
    d: u32,
    depth: u32,
    fused_qkv: bool,
) -> u32 {
    let grid = image / patch;
    let tokens = grid * grid + 1; // + [CLS]
    conv2d(
        b,
        format_args!("{prefix}.patch_embed"),
        3,
        d,
        patch,
        patch,
        0,
        (image, image),
        1,
    );
    for blk in 0..depth {
        let mut block = EncoderBlock::standard(d, 4 * d, tokens, GELU);
        block.fused_qkv = fused_qkv;
        block.emit(b, format_args!("{prefix}.blocks.{blk}"));
    }
    tokens
}

/// DPT-Large (Ranftl et al., 2021), 342 M parameters: ViT-L/16 at 384²
/// plus the convolutional reassemble/fusion decoder with ReLU.
///
/// Spatial sizes in the decoder follow what a `print(model)`-based
/// extraction can see: DPT's pyramid upsampling happens in functional
/// `interpolate` calls that print no module, so every fusion/head conv
/// propagates at the backbone's 24×24 token grid — matching the
/// paper's Step #TR1 ingestion (and keeping DPT's compute profile
/// transformer-dominated, as its Table III grouping implies).
pub fn dpt_large() -> Model {
    let mut b = ModelBuilder::new("DPT-Large", ModelClass::Transformer);
    vit_backbone(&mut b, "backbone", 16, 384, 1024, 24, false);

    // Reassemble: project four tapped token maps to pyramid channels.
    let grid = 384 / 16; // 24
    let pyramid = [96_u32, 192, 384, 768];
    for (i, &ch) in pyramid.iter().enumerate() {
        let reassemble = b.prefix(format_args!("neck.reassemble.{i}"));
        // Readout projection: concatenated [token; CLS] back to d.
        linear(
            &mut b,
            reassemble.child("readout_project"),
            2 * 1024,
            1024,
            grid * grid,
        );
        conv2d(
            &mut b,
            reassemble.child("projection"),
            1024,
            ch,
            1,
            1,
            0,
            (grid, grid),
            1,
        );
        // Channel-align to the 256-wide fusion trunk.
        conv2d(
            &mut b,
            format_args!("neck.convs.{i}"),
            ch,
            256,
            3,
            1,
            1,
            (grid, grid),
            1,
        );
    }
    // Four RefineNet-style fusion stages, two residual conv units each.
    for i in 0..4_u32 {
        for j in 0..2 {
            let rcu = b.prefix(format_args!("neck.fusion.{i}.rcu{j}"));
            conv2d_act(
                &mut b,
                rcu.child("conv1"),
                256,
                256,
                3,
                1,
                1,
                (grid, grid),
                1,
                RELU,
            );
            conv2d_act(
                &mut b,
                rcu.child("conv2"),
                256,
                256,
                3,
                1,
                1,
                (grid, grid),
                1,
                RELU,
            );
        }
        conv2d(
            &mut b,
            format_args!("neck.fusion.{i}.project"),
            256,
            256,
            1,
            1,
            0,
            (grid, grid),
            1,
        );
    }
    // Monocular-depth head.
    conv2d(&mut b, "head.conv1", 256, 128, 3, 1, 1, (grid, grid), 1);
    conv2d_act(
        &mut b,
        "head.conv2",
        128,
        32,
        3,
        1,
        1,
        (grid, grid),
        1,
        RELU,
    );
    conv2d_act(&mut b, "head.conv3", 32, 1, 1, 1, 0, (grid, grid), 1, RELU);
    // Position embeddings + norms.
    b.extra_params(1_200_000);
    b.build()
}

/// DINOv2-large (Oquab et al., 2024), 304 M parameters: ViT-L/14 at
/// 518² with fused QKV projections.
pub fn dinov2_large() -> Model {
    let mut b = ModelBuilder::new("DINOv2-large", ModelClass::Transformer);
    vit_backbone(&mut b, "backbone", 14, 518, 1024, 24, true);
    b.extra_params(1_500_000); // pos-embed, norms, mask token
    b.build()
}

/// BERT-base (Devlin et al., 2019) — test set. The pooler's printed
/// `Tanh` is the only Tanh layer across the 19 algorithms, which is why
/// the GELU unit's tanh core matters for test-phase coverage.
pub fn bert_base() -> Model {
    let mut b = ModelBuilder::new("BERT-base", ModelClass::Transformer);
    let (d, ffn, tokens) = (768, 3072, 128);
    for blk in 0..12 {
        EncoderBlock::standard(d, ffn, tokens, GELU)
            .emit(&mut b, format_args!("encoder.layer.{blk}"));
    }
    linear(&mut b, "pooler.dense", d, d, 1);
    act(
        &mut b,
        "pooler.activation",
        ActivationKind::Tanh,
        u64::from(d),
    );
    // Word (30522), position (512) and token-type embeddings + norms.
    b.extra_params(23_837_184);
    b.build()
}

/// Graphormer (Ying et al., 2021) — test set. Graph transformer over
/// node tokens; all compute is Linear + GELU.
pub fn graphormer() -> Model {
    let mut b = ModelBuilder::new("Graphormer", ModelClass::Transformer);
    let (d, ffn, tokens) = (768, 3072, 128);
    for blk in 0..12 {
        EncoderBlock::standard(d, ffn, tokens, GELU).emit(&mut b, format_args!("layers.{blk}"));
    }
    linear(&mut b, "lm_head_transform", d, d, tokens);
    act(
        &mut b,
        "lm_head_act",
        GELU,
        u64::from(d) * u64::from(tokens),
    );
    // Atom/edge/spatial/degree encoders.
    b.extra_params(1_600_000);
    b.build()
}

/// ViT-base /16 (Wu et al., 2020) — test set.
pub fn vit_base() -> Model {
    let mut b = ModelBuilder::new("ViT-base", ModelClass::Transformer);
    let tokens = vit_backbone(&mut b, "encoder", 16, 224, 768, 12, false);
    debug_assert_eq!(tokens, 197);
    linear(&mut b, "head", 768, 1000, 1);
    b.extra_params(200_000);
    b.build()
}

/// AST — Audio Spectrogram Transformer (Gong et al., 2021) — test set.
/// A ViT-B encoder over 16×16 patches of a 128×1024 log-mel
/// spectrogram (1212 patches + 2 tokens at stride 10 in the original;
/// we use the HF non-overlapping variant's 512 patches + 2).
pub fn ast() -> Model {
    let mut b = ModelBuilder::new("AST", ModelClass::Transformer);
    conv2d(
        &mut b,
        "embeddings.patch_embeddings",
        1,
        768,
        16,
        16,
        0,
        (128, 1024),
        1,
    );
    let tokens = (128 / 16) * (1024 / 16) + 2;
    for blk in 0..12 {
        EncoderBlock::standard(768, 3072, tokens, GELU)
            .emit(&mut b, format_args!("encoder.layer.{blk}"));
    }
    linear(&mut b, "classifier.dense", 768, 527, 1);
    b.extra_params(500_000);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivationKind, OpClass, PoolingKind};

    #[test]
    fn swin_t_params_near_29m() {
        let p = swin_t().param_count() as f64 / 1e6;
        assert!((27.5..30.0).contains(&p), "{p}");
    }

    #[test]
    fn swin_t_prints_flatten_and_permute() {
        let c = swin_t().op_class_counts();
        assert!(c.contains_key(&OpClass::Flatten));
        assert!(c.contains_key(&OpClass::Permute));
        assert!(c.contains_key(&OpClass::Pooling(PoolingKind::AdaptiveAvgPool)));
    }

    #[test]
    fn dpt_large_params_near_342m() {
        let p = dpt_large().param_count() as f64 / 1e6;
        assert!((320.0..365.0).contains(&p), "{p}");
    }

    #[test]
    fn dpt_has_relu_and_gelu_and_convs() {
        let c = dpt_large().op_class_counts();
        assert!(c.contains_key(&OpClass::Activation(ActivationKind::Relu)));
        assert!(c.contains_key(&OpClass::Activation(ActivationKind::Gelu)));
        assert!(c.contains_key(&OpClass::Conv2d));
        assert!(!c.keys().any(|k| matches!(k, OpClass::Pooling(_))));
    }

    #[test]
    fn dinov2_params_near_304m() {
        let p = dinov2_large().param_count() as f64 / 1e6;
        assert!((295.0..312.0).contains(&p), "{p}");
    }

    #[test]
    fn bert_base_params_near_110m() {
        let p = bert_base().param_count() as f64 / 1e6;
        assert!((105.0..113.0).contains(&p), "{p}");
    }

    #[test]
    fn bert_inventory_is_linear_gelu_tanh() {
        let c = bert_base().op_class_counts();
        let classes: Vec<_> = c.keys().copied().collect();
        assert_eq!(
            classes,
            vec![
                OpClass::Linear,
                OpClass::Activation(ActivationKind::Gelu),
                OpClass::Activation(ActivationKind::Tanh),
            ]
        );
    }

    #[test]
    fn vit_base_params_near_86m() {
        let p = vit_base().param_count() as f64 / 1e6;
        assert!((84.0..89.0).contains(&p), "{p}");
    }

    #[test]
    fn vit_base_inventory() {
        let c = vit_base().op_class_counts();
        let classes: Vec<_> = c.keys().copied().collect();
        assert_eq!(
            classes,
            vec![
                OpClass::Conv2d,
                OpClass::Linear,
                OpClass::Activation(ActivationKind::Gelu),
            ]
        );
    }

    #[test]
    fn graphormer_is_linear_gelu_only() {
        let c = graphormer().op_class_counts();
        assert_eq!(c.len(), 2);
        assert!(c.contains_key(&OpClass::Linear));
        assert!(c.contains_key(&OpClass::Activation(ActivationKind::Gelu)));
    }

    #[test]
    fn ast_token_count() {
        // 8 x 64 patches + cls + distillation token.
        let m = ast();
        let qkv = m
            .layers()
            .iter()
            .find(|l| l.name.contains("attn.q"))
            .unwrap();
        match &qkv.kind {
            crate::LayerKind::Linear(l) => assert_eq!(l.tokens, 514),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn swin_linear_dominates_edges() {
        // LINEAR-LINEAR should be the most frequent edge combination in
        // any transformer (Fig. 2's observation).
        let m = swin_t();
        let combos = m.edge_combination_counts();
        let ll = combos[&(OpClass::Linear, OpClass::Linear)];
        let max = combos.values().copied().max().unwrap();
        assert_eq!(ll, max);
    }
}
