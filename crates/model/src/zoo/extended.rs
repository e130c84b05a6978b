//! Extended test set — the paper's future-work direction: "A
//! comprehensive algorithm test set with similar architectures will
//! address the unassigned cases in Table III" (the library
//! configurations C_2, C_4 and C_5 that received no test algorithm).
//!
//! Five additional, architecturally faithful test algorithms whose
//! compute profiles target those gaps:
//!
//! * [`wav2vec2_base`] — Conv1d front-end + transformer (Whisper-like,
//!   → C_4 territory)
//! * [`distilgpt2`] — all-Conv1D decoder (GPT-2-like, → C_5)
//! * [`mask_rcnn_r50`] — detection R-CNN with RoIAlign and
//!   LastLevelMaxPool (PEANUT-like, → C_2)
//! * [`convnext_tiny`] — modern CNN with GELU/Permute/Flatten
//!   (→ C_1)
//! * [`efficientnet_b0`] — SiLU CNN with squeeze-excite pooling
//!   (stresses the CNN/LLM boundary)

use super::common::*;
use crate::layer::{ActivationKind, LayerKind, Pooling, PoolingKind};
use crate::model::{Model, ModelBuilder, ModelClass};

const GELU: ActivationKind = ActivationKind::Gelu;
const RELU: ActivationKind = ActivationKind::Relu;
const SILU: ActivationKind = ActivationKind::Silu;

/// Wav2Vec2-base (Baevski et al., 2020), ≈ 95 M parameters: a 7-layer
/// strided Conv1d feature extractor over raw audio followed by a
/// 12-block transformer encoder.
pub fn wav2vec2_base() -> Model {
    let mut b = ModelBuilder::new("Wav2Vec2-base", ModelClass::Transformer);
    // Feature extractor over 1 s of 16 kHz audio.
    let mut len = conv1d(&mut b, "feature_extractor.conv0", 1, 512, 10, 5, 0, 16_000);
    act(&mut b, "feature_extractor.act0", GELU, u64::from(len) * 512);
    for i in 1..5 {
        len = conv1d(
            &mut b,
            format_args!("feature_extractor.conv{i}"),
            512,
            512,
            3,
            2,
            0,
            len,
        );
        act(
            &mut b,
            format_args!("feature_extractor.act{i}"),
            GELU,
            u64::from(len) * 512,
        );
    }
    for i in 5..7 {
        len = conv1d(
            &mut b,
            format_args!("feature_extractor.conv{i}"),
            512,
            512,
            2,
            2,
            0,
            len,
        );
        act(
            &mut b,
            format_args!("feature_extractor.act{i}"),
            GELU,
            u64::from(len) * 512,
        );
    }
    linear(&mut b, "feature_projection", 512, 768, len);
    for blk in 0..12 {
        EncoderBlock::standard(768, 3072, len, GELU)
            .emit(&mut b, format_args!("encoder.layers.{blk}"));
    }
    // Relative positional conv embedding + norms.
    b.extra_params(4_700_000);
    b.build()
}

/// DistilGPT2 (Sanh et al., 2019), ≈ 88 M parameters as the hub counts
/// them: six GPT-2 blocks, every projection an HF `Conv1D` module.
pub fn distilgpt2() -> Model {
    let mut b = ModelBuilder::new("DistilGPT2", ModelClass::Llm);
    let (d, ffn, seq) = (768_u32, 3072_u32, 1024_u32);
    for blk in 0..6 {
        let p = b.prefix(format_args!("h.{blk}"));
        conv1d(&mut b, p.child("attn.c_attn"), d, 3 * d, 1, 1, 0, seq);
        conv1d(&mut b, p.child("attn.c_proj"), d, d, 1, 1, 0, seq);
        conv1d(&mut b, p.child("mlp.c_fc"), d, ffn, 1, 1, 0, seq);
        act(
            &mut b,
            p.child("mlp.act"),
            GELU,
            u64::from(ffn) * u64::from(seq),
        );
        conv1d(&mut b, p.child("mlp.c_proj"), ffn, d, 1, 1, 0, seq);
    }
    // wte + wpe + norms + persisted causal-mask buffers.
    b.extra_params(50_257 * 768 + 1024 * 768 + 20_000 + 6 * 1024 * 1024);
    b.build()
}

/// Mask R-CNN with a ResNet-50 + FPN backbone (torchvision), ≈ 44 M
/// parameters — the PEANUT-family detection profile with RoIAlign,
/// LastLevelMaxPool and a two-FC box head.
pub fn mask_rcnn_r50() -> Model {
    let mut b = ModelBuilder::new("MaskRCNN-R50", ModelClass::Rcnn);

    // ResNet-50 trunk at the 800x800 detection resolution.
    let mut fm = conv2d_act(
        &mut b,
        "backbone.body.conv1",
        3,
        64,
        7,
        2,
        3,
        (800, 800),
        1,
        RELU,
    );
    fm = pool2d(
        &mut b,
        "backbone.body.maxpool",
        PoolingKind::MaxPool,
        64,
        fm,
        3,
        2,
        1,
    );
    let mut in_ch = 64;
    let mut stage_fms = Vec::new();
    for (stage, &blocks) in [3_u32, 4, 6, 3].iter().enumerate() {
        let mid = 64 << stage;
        let out_ch = mid * 4;
        for blk in 0..blocks {
            let stride = if stage > 0 && blk == 0 { 2 } else { 1 };
            let prefix = b.prefix(format_args!("backbone.body.layer{}.{blk}", stage + 1));
            if stride != 1 || in_ch != out_ch {
                conv2d(
                    &mut b,
                    prefix.child("downsample"),
                    in_ch,
                    out_ch,
                    1,
                    stride,
                    0,
                    fm,
                    1,
                );
            }
            fm = conv2d_act(
                &mut b,
                prefix.child("conv1"),
                in_ch,
                mid,
                1,
                1,
                0,
                fm,
                1,
                RELU,
            );
            fm = conv2d_act(
                &mut b,
                prefix.child("conv2"),
                mid,
                mid,
                3,
                stride,
                1,
                fm,
                1,
                RELU,
            );
            fm = conv2d_act(
                &mut b,
                prefix.child("conv3"),
                mid,
                out_ch,
                1,
                1,
                0,
                fm,
                1,
                RELU,
            );
            in_ch = out_ch;
        }
        stage_fms.push((out_ch, fm));
    }

    // FPN + extra level.
    for (i, &(ch, sfm)) in stage_fms.iter().enumerate() {
        conv2d(
            &mut b,
            format_args!("backbone.fpn.inner.{i}"),
            ch,
            256,
            1,
            1,
            0,
            sfm,
            1,
        );
        conv2d(
            &mut b,
            format_args!("backbone.fpn.layer.{i}"),
            256,
            256,
            3,
            1,
            1,
            sfm,
            1,
        );
    }
    let (_, top) = stage_fms[3];
    b.push(
        "backbone.fpn.extra_blocks",
        LayerKind::Pooling(Pooling {
            kind: PoolingKind::LastLevelMaxPool,
            input_elements: u64::from(top.0) * u64::from(top.1) * 256,
            output_elements: u64::from(top.0 / 2) * u64::from(top.1 / 2) * 256,
        }),
    );

    // RPN.
    let rpn_fm = stage_fms[2].1;
    conv2d_act(&mut b, "rpn.head.conv", 256, 256, 3, 1, 1, rpn_fm, 1, RELU);
    conv2d(&mut b, "rpn.head.cls_logits", 256, 3, 1, 1, 0, rpn_fm, 1);
    conv2d(&mut b, "rpn.head.bbox_pred", 256, 12, 1, 1, 0, rpn_fm, 1);

    // Box branch: RoIAlign -> two 1024-wide FCs (torchvision TwoMLPHead).
    let rois = 100_u64;
    b.push(
        "roi_heads.box_roi_pool",
        LayerKind::Pooling(Pooling {
            kind: PoolingKind::RoiAlign,
            input_elements: u64::from(rpn_fm.0) * u64::from(rpn_fm.1) * 256,
            output_elements: rois * 7 * 7 * 256,
        }),
    );
    linear(&mut b, "roi_heads.box_head.fc6", 256 * 7 * 7, 1024, 100);
    act(&mut b, "roi_heads.box_head.act6", RELU, 1024 * 100);
    linear(&mut b, "roi_heads.box_head.fc7", 1024, 1024, 100);
    act(&mut b, "roi_heads.box_head.act7", RELU, 1024 * 100);
    linear(&mut b, "roi_heads.box_predictor.cls_score", 1024, 91, 100);
    linear(&mut b, "roi_heads.box_predictor.bbox_pred", 1024, 364, 100);

    // Mask branch: RoIAlign at 14x14 + four 3x3 convs + predictor.
    b.push(
        "roi_heads.mask_roi_pool",
        LayerKind::Pooling(Pooling {
            kind: PoolingKind::RoiAlign,
            input_elements: u64::from(rpn_fm.0) * u64::from(rpn_fm.1) * 256,
            output_elements: rois * 14 * 14 * 256,
        }),
    );
    for i in 0..4 {
        conv2d_act(
            &mut b,
            format_args!("roi_heads.mask_head.{i}"),
            256,
            256,
            3,
            1,
            1,
            (14, 14),
            1,
            RELU,
        );
    }
    conv2d(
        &mut b,
        "roi_heads.mask_predictor",
        256,
        91,
        1,
        1,
        0,
        (28, 28),
        1,
    );
    b.extra_params(60_000); // batch norms
    b.build()
}

/// ConvNeXt-T (Liu et al., 2022), ≈ 28.6 M parameters: depthwise 7×7
/// convolutions, GELU MLPs, printed `Permute` modules around each
/// block and a `Flatten` in the classifier (torchvision).
pub fn convnext_tiny() -> Model {
    let mut b = ModelBuilder::new("ConvNeXt-T", ModelClass::Cnn);
    let dims = [96_u32, 192, 384, 768];
    let depths = [3_u32, 3, 9, 3];
    let mut fm = conv2d(&mut b, "features.0.0", 3, 96, 4, 4, 0, (224, 224), 1);
    for (stage, (&dim, &depth)) in dims.iter().zip(depths.iter()).enumerate() {
        for blk in 0..depth {
            let p = b.prefix(format_args!("features.{}.{blk}", 2 * stage + 1));
            let spatial = u64::from(fm.0) * u64::from(fm.1);
            conv2d(&mut b, p.child("dwconv"), dim, dim, 7, 1, 3, fm, dim);
            permute(&mut b, p.child("permute1"), spatial * u64::from(dim));
            linear(&mut b, p.child("pwconv1"), dim, 4 * dim, fm.0 * fm.1);
            act(&mut b, p.child("act"), GELU, spatial * u64::from(4 * dim));
            linear(&mut b, p.child("pwconv2"), 4 * dim, dim, fm.0 * fm.1);
            permute(&mut b, p.child("permute2"), spatial * u64::from(dim));
        }
        if stage + 1 < dims.len() {
            fm = conv2d(
                &mut b,
                format_args!("features.{}.downsample", 2 * stage + 2),
                dim,
                dims[stage + 1],
                2,
                2,
                0,
                fm,
                1,
            );
        }
    }
    adaptive_avg_pool(&mut b, "avgpool", 768, fm, 1);
    flatten(&mut b, "classifier.1", 768);
    linear(&mut b, "classifier.2", 768, 1000, 1);
    b.extra_params(120_000); // layer norms / scales
    b.build()
}

/// EfficientNet-B0 (Tan & Le, 2019), ≈ 5.3 M parameters: SiLU MBConv
/// blocks with squeeze-excite (printed `AdaptiveAvgPool2d`).
pub fn efficientnet_b0() -> Model {
    let mut b = ModelBuilder::new("EfficientNet-B0", ModelClass::Cnn);
    let mut fm = conv2d_act(&mut b, "features.0", 3, 32, 3, 2, 1, (224, 224), 1, SILU);
    let mut in_ch = 32_u32;

    // (expansion, out channels, repeats, stride, kernel)
    let cfg: &[(u32, u32, u32, u32, u32)] = &[
        (1, 16, 1, 1, 3),
        (6, 24, 2, 2, 3),
        (6, 40, 2, 2, 5),
        (6, 80, 3, 2, 3),
        (6, 112, 3, 1, 5),
        (6, 192, 4, 2, 5),
        (6, 320, 1, 1, 3),
    ];
    let mut idx = 1;
    for &(t, c, n, s, k) in cfg {
        for rep in 0..n {
            let stride = if rep == 0 { s } else { 1 };
            let hidden = in_ch * t;
            let p = b.prefix(format_args!("features.{idx}"));
            if t != 1 {
                fm = conv2d_act(
                    &mut b,
                    p.child("expand"),
                    in_ch,
                    hidden,
                    1,
                    1,
                    0,
                    fm,
                    1,
                    SILU,
                );
            }
            fm = conv2d_act(
                &mut b,
                p.child("depthwise"),
                hidden,
                hidden,
                k,
                stride,
                k / 2,
                fm,
                hidden,
                SILU,
            );
            // Squeeze-excite: printed AdaptiveAvgPool2d + two 1x1 convs.
            let se = (in_ch / 4).max(1);
            adaptive_avg_pool(&mut b, p.child("se.avgpool"), hidden, fm, 1);
            conv2d_act(
                &mut b,
                p.child("se.fc1"),
                hidden,
                se,
                1,
                1,
                0,
                (1, 1),
                1,
                SILU,
            );
            conv2d(&mut b, p.child("se.fc2"), se, hidden, 1, 1, 0, (1, 1), 1);
            fm = conv2d(&mut b, p.child("project"), hidden, c, 1, 1, 0, fm, 1);
            in_ch = c;
            idx += 1;
        }
    }
    conv2d_act(&mut b, "features.8", in_ch, 1280, 1, 1, 0, fm, 1, SILU);
    adaptive_avg_pool(&mut b, "avgpool", 1280, fm, 1);
    linear(&mut b, "classifier.1", 1280, 1000, 1);
    b.extra_params(42_000); // batch norms
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpClass, PoolingKind};

    #[test]
    fn wav2vec2_params_near_95m() {
        let p = wav2vec2_base().param_count() as f64 / 1e6;
        assert!((90.0..99.0).contains(&p), "{p}");
    }

    #[test]
    fn wav2vec2_has_conv1d_front_end() {
        let c = wav2vec2_base().op_class_counts();
        assert_eq!(c[&OpClass::Conv1d], 7);
        assert!(c[&OpClass::Linear] > 50);
    }

    #[test]
    fn distilgpt2_params_near_88m() {
        let p = distilgpt2().param_count() as f64 / 1e6;
        assert!((84.0..92.0).contains(&p), "{p}");
    }

    #[test]
    fn distilgpt2_is_conv1d_gelu_only() {
        let c = distilgpt2().op_class_counts();
        assert_eq!(c.len(), 2);
        assert!(c.contains_key(&OpClass::Conv1d));
    }

    #[test]
    fn mask_rcnn_params_near_44m() {
        let p = mask_rcnn_r50().param_count() as f64 / 1e6;
        assert!((42.0..47.0).contains(&p), "{p}");
    }

    #[test]
    fn mask_rcnn_has_detection_pooling() {
        let c = mask_rcnn_r50().op_class_counts();
        assert_eq!(c[&OpClass::Pooling(PoolingKind::RoiAlign)], 2);
        assert!(c.contains_key(&OpClass::Pooling(PoolingKind::LastLevelMaxPool)));
    }

    #[test]
    fn convnext_params_near_28_6m() {
        let p = convnext_tiny().param_count() as f64 / 1e6;
        assert!((27.0..30.0).contains(&p), "{p}");
    }

    #[test]
    fn convnext_prints_permute_and_flatten() {
        let c = convnext_tiny().op_class_counts();
        assert!(c[&OpClass::Permute] >= 36);
        assert!(c.contains_key(&OpClass::Flatten));
        assert!(c.contains_key(&OpClass::Activation(crate::ActivationKind::Gelu)));
    }

    #[test]
    fn efficientnet_params_near_5_3m() {
        let p = efficientnet_b0().param_count() as f64 / 1e6;
        assert!((4.8..5.9).contains(&p), "{p}");
    }

    #[test]
    fn efficientnet_is_silu_cnn_with_se_pooling() {
        let c = efficientnet_b0().op_class_counts();
        assert!(c.contains_key(&OpClass::Activation(crate::ActivationKind::Silu)));
        assert!(!c.contains_key(&OpClass::Activation(crate::ActivationKind::Relu)));
        assert!(c[&OpClass::Pooling(PoolingKind::AdaptiveAvgPool)] >= 16);
    }
}
