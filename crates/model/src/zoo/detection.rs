//! Detection / navigation workloads: PEANUT-RCNN (training set) and
//! DETR (test set).

use super::common::*;
use crate::layer::{ActivationKind, LayerKind, Pooling, PoolingKind};
use crate::model::{Model, ModelBuilder, ModelClass};

const RELU: ActivationKind = ActivationKind::Relu;

/// PEANUT-RCNN (Zhai & Wang, 2022), 14.21 M parameters.
///
/// The detection component of the PEANUT target-prediction pipeline: a
/// torchvision-style R-CNN with a ResNet-18 + FPN backbone. Its
/// `LastLevelMaxPool` and `RoIAlign` modules make it the most
/// layer-diverse training algorithm — the paper notes the generic
/// configuration's area "was strongly influenced by the PEANUT-RCNN
/// algorithm, which has the most diverse set of layer types".
pub fn peanut_rcnn() -> Model {
    let mut b = ModelBuilder::new("PEANUT RCNN", ModelClass::Rcnn);

    // --- ResNet-18 backbone (no classifier head), 800x800 detection input.
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
    for (stage, &blocks) in [2_u32, 2, 2, 2].iter().enumerate() {
        let out_ch = 64 << stage;
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
                out_ch,
                3,
                stride,
                1,
                fm,
                1,
                RELU,
            );
            fm = conv2d_act(
                &mut b,
                prefix.child("conv2"),
                out_ch,
                out_ch,
                3,
                1,
                1,
                fm,
                1,
                RELU,
            );
            in_ch = out_ch;
        }
        stage_fms.push((out_ch, fm));
    }

    // --- FPN: lateral 1x1 + output 3x3 per pyramid level, then the
    // extra LastLevelMaxPool level.
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
    let (_, top_fm) = stage_fms[3];
    b.push(
        "backbone.fpn.extra_blocks",
        LayerKind::Pooling(Pooling {
            kind: PoolingKind::LastLevelMaxPool,
            input_elements: u64::from(top_fm.0) * u64::from(top_fm.1) * 256,
            output_elements: u64::from(top_fm.0 / 2) * u64::from(top_fm.1 / 2) * 256,
        }),
    );

    // --- RPN head over the P4 level.
    let rpn_fm = stage_fms[2].1;
    conv2d_act(&mut b, "rpn.head.conv", 256, 256, 3, 1, 1, rpn_fm, 1, RELU);
    conv2d(&mut b, "rpn.head.cls_logits", 256, 3, 1, 1, 0, rpn_fm, 1);
    conv2d(&mut b, "rpn.head.bbox_pred", 256, 12, 1, 1, 0, rpn_fm, 1);

    // --- RoIAlign + lightweight conv box head (PEANUT keeps the head
    // small; a torchvision two-FC head would triple the budget).
    let rois = 100_u64;
    b.push(
        "roi_heads.box_roi_pool",
        LayerKind::Pooling(Pooling {
            kind: PoolingKind::RoiAlign,
            input_elements: u64::from(rpn_fm.0) * u64::from(rpn_fm.1) * 256,
            output_elements: rois * 7 * 7 * 256,
        }),
    );
    conv2d_act(
        &mut b,
        "roi_heads.box_head.conv",
        256,
        256,
        1,
        1,
        0,
        (7, 7),
        1,
        RELU,
    );
    linear(&mut b, "roi_heads.box_predictor.cls_score", 256, 91, 100);
    linear(&mut b, "roi_heads.box_predictor.bbox_pred", 256, 364, 100);
    b.extra_params(40_000); // batch norms
    b.build()
}

/// DETR (Carion et al., 2020) — test set, ~41 M parameters.
///
/// ResNet-50 backbone (Conv2d/ReLU/MaxPool; global pooling removed)
/// feeding a 256-wide encoder–decoder transformer whose FFNs use ReLU.
pub fn detr() -> Model {
    let mut b = ModelBuilder::new("DETR", ModelClass::Transformer);

    // --- ResNet-50 backbone at 800x800, no avgpool/fc.
    let mut fm = conv2d_act(
        &mut b,
        "backbone.conv1",
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
        "backbone.maxpool",
        PoolingKind::MaxPool,
        64,
        fm,
        3,
        2,
        1,
    );
    let mut in_ch = 64;
    for (stage, &blocks) in [3_u32, 4, 6, 3].iter().enumerate() {
        let mid = 64 << stage;
        let out_ch = mid * 4;
        for blk in 0..blocks {
            let stride = if stage > 0 && blk == 0 { 2 } else { 1 };
            let prefix = b.prefix(format_args!("backbone.layer{}.{blk}", stage + 1));
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
    }

    // --- 1x1 projection into the transformer width.
    conv2d(&mut b, "input_proj", 2048, 256, 1, 1, 0, fm, 1);
    let enc_tokens = fm.0 * fm.1; // 25 x 25 at 800 input
    let dec_tokens = 100; // object queries
    let (d, ffn) = (256_u32, 2048_u32);

    for i in 0..6 {
        EncoderBlock::standard(d, ffn, enc_tokens, RELU)
            .emit(&mut b, format_args!("transformer.encoder.layers.{i}"));
    }
    for i in 0..6 {
        let p = b.prefix(format_args!("transformer.decoder.layers.{i}"));
        EncoderBlock::standard(d, ffn, dec_tokens, RELU).emit(&mut b, p);
        // Cross-attention projections.
        linear(&mut b, p.child("multihead_attn.q"), d, d, dec_tokens);
        linear(&mut b, p.child("multihead_attn.k"), d, d, enc_tokens);
        linear(&mut b, p.child("multihead_attn.v"), d, d, enc_tokens);
        linear(&mut b, p.child("multihead_attn.out"), d, d, dec_tokens);
    }

    // --- Prediction heads.
    linear(&mut b, "class_embed", d, 92, dec_tokens);
    for i in 0..3 {
        linear(
            &mut b,
            format_args!("bbox_embed.layers.{i}"),
            d,
            if i == 2 { 4 } else { d },
            dec_tokens,
        );
        if i < 2 {
            act(
                &mut b,
                format_args!("bbox_embed.act.{i}"),
                RELU,
                u64::from(d) * u64::from(dec_tokens),
            );
        }
    }
    b.extra_params(180_000); // query embeddings, norms
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivationKind, OpClass, PoolingKind};

    #[test]
    fn peanut_params_near_14_21m() {
        let p = peanut_rcnn().param_count() as f64 / 1e6;
        assert!((13.4..15.1).contains(&p), "{p}");
    }

    #[test]
    fn peanut_has_the_most_diverse_pooling() {
        let c = peanut_rcnn().op_class_counts();
        assert!(c.contains_key(&OpClass::Pooling(PoolingKind::MaxPool)));
        assert!(c.contains_key(&OpClass::Pooling(PoolingKind::LastLevelMaxPool)));
        assert!(c.contains_key(&OpClass::Pooling(PoolingKind::RoiAlign)));
    }

    #[test]
    fn peanut_is_most_diverse_training_algorithm() {
        use crate::zoo::training_set;
        let peanut_kinds = peanut_rcnn().op_class_counts().len();
        for m in training_set() {
            assert!(
                m.op_class_counts().len() <= peanut_kinds,
                "{} more diverse than PEANUT",
                m.name()
            );
        }
    }

    #[test]
    fn detr_params_near_41m() {
        let p = detr().param_count() as f64 / 1e6;
        assert!((39.0..44.0).contains(&p), "{p}");
    }

    #[test]
    fn detr_inventory_matches_table5_groups() {
        // DETR must exercise exactly {Conv2d, Linear, ReLU, MaxPool}
        // for the utilization figures of Table V.
        let c = detr().op_class_counts();
        let classes: Vec<_> = c.keys().copied().collect();
        assert_eq!(
            classes,
            vec![
                OpClass::Conv2d,
                OpClass::Linear,
                OpClass::Activation(ActivationKind::Relu),
                OpClass::Pooling(PoolingKind::MaxPool),
            ]
        );
    }

    #[test]
    fn detr_ffn_uses_relu_not_gelu() {
        let c = detr().op_class_counts();
        assert!(!c.contains_key(&OpClass::Activation(ActivationKind::Gelu)));
    }
}
