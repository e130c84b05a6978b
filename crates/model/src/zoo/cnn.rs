//! Convolutional networks of the paper: ResNet-18/50, VGG-16,
//! DenseNet-121, MobileNetV2 (training set) and AlexNet (test set).
//!
//! Shapes follow the torchvision implementations at 224×224 input.
//! Printed-module fidelity matters for the utilization metric:
//! e.g. torchvision MobileNetV2 pools functionally (`F.adaptive_avg_
//! pool2d`) so no pooling layer is emitted, while ResNet/VGG/AlexNet
//! print an `AdaptiveAvgPool2d` module.

use super::common::*;
use crate::layer::{ActivationKind, PoolingKind};
use crate::model::{Model, ModelBuilder, ModelClass};

const RELU: ActivationKind = ActivationKind::Relu;

/// ResNet-18 (He et al., 2015), 11.7 M parameters.
pub fn resnet18() -> Model {
    resnet_basic("Resnet18", &[2, 2, 2, 2])
}

fn resnet_basic(name: &str, depths: &[u32; 4]) -> Model {
    let mut b = ModelBuilder::new(name, ModelClass::Cnn);
    let mut fm = conv2d_act(&mut b, "conv1", 3, 64, 7, 2, 3, (224, 224), 1, RELU);
    fm = pool2d(&mut b, "maxpool", PoolingKind::MaxPool, 64, fm, 3, 2, 1);

    let mut in_ch = 64;
    for (stage, &blocks) in depths.iter().enumerate() {
        let out_ch = 64 << stage;
        for blk in 0..blocks {
            let stride = if stage > 0 && blk == 0 { 2 } else { 1 };
            let prefix = b.prefix(format_args!("layer{}.{blk}", stage + 1));
            if stride != 1 || in_ch != out_ch {
                // Projection shortcut.
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
    }
    adaptive_avg_pool(&mut b, "avgpool", in_ch, fm, 1);
    linear(&mut b, "fc", in_ch, 1000, 1);
    // Batch-norm scales/shifts (not a considered layer type).
    b.extra_params(9_600);
    b.build()
}

/// ResNet-50 (He et al., 2015), 25.5 M parameters (bottleneck blocks).
pub fn resnet50() -> Model {
    let mut b = ModelBuilder::new("Resnet50", ModelClass::Cnn);
    let mut fm = conv2d_act(&mut b, "conv1", 3, 64, 7, 2, 3, (224, 224), 1, RELU);
    fm = pool2d(&mut b, "maxpool", PoolingKind::MaxPool, 64, fm, 3, 2, 1);

    let depths = [3_u32, 4, 6, 3];
    let mut in_ch = 64;
    for (stage, &blocks) in depths.iter().enumerate() {
        let mid = 64 << stage;
        let out_ch = mid * 4;
        for blk in 0..blocks {
            let stride = if stage > 0 && blk == 0 { 2 } else { 1 };
            let prefix = b.prefix(format_args!("layer{}.{blk}", stage + 1));
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
    adaptive_avg_pool(&mut b, "avgpool", in_ch, fm, 1);
    linear(&mut b, "fc", in_ch, 1000, 1);
    b.extra_params(53_000); // batch norms
    b.build()
}

/// VGG-16 (Simonyan & Zisserman, 2015), 138 M parameters.
pub fn vgg16() -> Model {
    let mut b = ModelBuilder::new("VGG16", ModelClass::Cnn);
    let cfg: &[&[u32]] = &[
        &[64, 64],
        &[128, 128],
        &[256, 256, 256],
        &[512, 512, 512],
        &[512, 512, 512],
    ];
    let mut fm = (224_u32, 224_u32);
    let mut in_ch = 3;
    let mut idx = 0;
    for (stage, outs) in cfg.iter().enumerate() {
        for &out_ch in outs.iter() {
            fm = conv2d_act(
                &mut b,
                format_args!("features.{idx}"),
                in_ch,
                out_ch,
                3,
                1,
                1,
                fm,
                1,
                RELU,
            );
            in_ch = out_ch;
            idx += 2;
        }
        fm = pool2d(
            &mut b,
            format_args!("features.pool{stage}"),
            PoolingKind::MaxPool,
            in_ch,
            fm,
            2,
            2,
            0,
        );
        idx += 1;
    }
    adaptive_avg_pool(&mut b, "avgpool", in_ch, fm, 7);
    linear(&mut b, "classifier.0", 512 * 7 * 7, 4096, 1);
    act(&mut b, "classifier.1", RELU, 4096);
    linear(&mut b, "classifier.3", 4096, 4096, 1);
    act(&mut b, "classifier.4", RELU, 4096);
    linear(&mut b, "classifier.6", 4096, 1000, 1);
    b.build()
}

/// DenseNet-121 (Huang et al., 2018), 7.98 M parameters.
///
/// The printed `AvgPool2d` in each transition is the source of the
/// `AVGPOOL` capability in the paper's chiplet library L1; the final
/// global pool is functional in torchvision and therefore absent.
pub fn densenet121() -> Model {
    let mut b = ModelBuilder::new("Densenet121", ModelClass::Cnn);
    let growth = 32_u32;
    let mut fm = conv2d_act(
        &mut b,
        "features.conv0",
        3,
        64,
        7,
        2,
        3,
        (224, 224),
        1,
        RELU,
    );
    fm = pool2d(
        &mut b,
        "features.pool0",
        PoolingKind::MaxPool,
        64,
        fm,
        3,
        2,
        1,
    );

    let mut ch = 64_u32;
    let blocks = [6_u32, 12, 24, 16];
    for (bi, &layers) in blocks.iter().enumerate() {
        for li in 0..layers {
            let prefix = b.prefix(format_args!(
                "features.denseblock{}.denselayer{}",
                bi + 1,
                li + 1
            ));
            // 1x1 bottleneck to 4*growth, then 3x3 to growth.
            conv2d_act(
                &mut b,
                prefix.child("conv1"),
                ch,
                4 * growth,
                1,
                1,
                0,
                fm,
                1,
                RELU,
            );
            conv2d_act(
                &mut b,
                prefix.child("conv2"),
                4 * growth,
                growth,
                3,
                1,
                1,
                fm,
                1,
                RELU,
            );
            ch += growth;
        }
        if bi + 1 < blocks.len() {
            let out = ch / 2;
            conv2d(
                &mut b,
                format_args!("features.transition{}.conv", bi + 1),
                ch,
                out,
                1,
                1,
                0,
                fm,
                1,
            );
            fm = pool2d(
                &mut b,
                format_args!("features.transition{}.pool", bi + 1),
                PoolingKind::AvgPool,
                out,
                fm,
                2,
                2,
                0,
            );
            ch = out;
        }
    }
    linear(&mut b, "classifier", ch, 1000, 1);
    b.extra_params(167_000); // batch norms
    b.build()
}

/// MobileNetV2 (Sandler et al., 2019), 3.5 M parameters.
///
/// All activations are ReLU6; global pooling is functional in
/// torchvision (not printed), so the extraction sees only Conv2d,
/// ReLU6 and the classifier Linear.
pub fn mobilenet_v2() -> Model {
    const RELU6: ActivationKind = ActivationKind::Relu6;
    let mut b = ModelBuilder::new("Mobilenetv2", ModelClass::Cnn);
    let mut fm = conv2d_act(&mut b, "features.0", 3, 32, 3, 2, 1, (224, 224), 1, RELU6);
    let mut in_ch = 32_u32;

    // (expansion t, output channels c, repeats n, first stride s)
    let cfg: &[(u32, u32, u32, u32)] = &[
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut idx = 1;
    for &(t, c, n, s) in cfg {
        for rep in 0..n {
            let stride = if rep == 0 { s } else { 1 };
            let hidden = in_ch * t;
            let prefix = b.prefix(format_args!("features.{idx}"));
            if t != 1 {
                fm = conv2d_act(
                    &mut b,
                    prefix.child("expand"),
                    in_ch,
                    hidden,
                    1,
                    1,
                    0,
                    fm,
                    1,
                    RELU6,
                );
            }
            fm = conv2d_act(
                &mut b,
                prefix.child("depthwise"),
                hidden,
                hidden,
                3,
                stride,
                1,
                fm,
                hidden,
                RELU6,
            );
            // Linear bottleneck: projection conv has no activation.
            fm = conv2d(&mut b, prefix.child("project"), hidden, c, 1, 1, 0, fm, 1);
            in_ch = c;
            idx += 1;
        }
    }
    conv2d_act(&mut b, "features.18", in_ch, 1280, 1, 1, 0, fm, 1, RELU6);
    linear(&mut b, "classifier.1", 1280, 1000, 1);
    b.extra_params(34_000); // batch norms
    b.build()
}

/// AlexNet (Krizhevsky et al.), test-set algorithm.
pub fn alexnet() -> Model {
    let mut b = ModelBuilder::new("Alexnet", ModelClass::Cnn);
    let mut fm = conv2d_act(&mut b, "features.0", 3, 64, 11, 4, 2, (224, 224), 1, RELU);
    fm = pool2d(&mut b, "features.2", PoolingKind::MaxPool, 64, fm, 3, 2, 0);
    fm = conv2d_act(&mut b, "features.3", 64, 192, 5, 1, 2, fm, 1, RELU);
    fm = pool2d(&mut b, "features.5", PoolingKind::MaxPool, 192, fm, 3, 2, 0);
    fm = conv2d_act(&mut b, "features.6", 192, 384, 3, 1, 1, fm, 1, RELU);
    fm = conv2d_act(&mut b, "features.8", 384, 256, 3, 1, 1, fm, 1, RELU);
    fm = conv2d_act(&mut b, "features.10", 256, 256, 3, 1, 1, fm, 1, RELU);
    fm = pool2d(
        &mut b,
        "features.12",
        PoolingKind::MaxPool,
        256,
        fm,
        3,
        2,
        0,
    );
    adaptive_avg_pool(&mut b, "avgpool", 256, fm, 6);
    linear(&mut b, "classifier.1", 256 * 6 * 6, 4096, 1);
    act(&mut b, "classifier.2", RELU, 4096);
    linear(&mut b, "classifier.4", 4096, 4096, 1);
    act(&mut b, "classifier.5", RELU, 4096);
    linear(&mut b, "classifier.6", 4096, 1000, 1);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivationKind, OpClass, PoolingKind};

    #[test]
    fn resnet18_params_near_11_7m() {
        let p = resnet18().param_count() as f64 / 1e6;
        assert!((11.0..12.3).contains(&p), "{p}");
    }

    #[test]
    fn resnet50_params_near_25_5m() {
        let p = resnet50().param_count() as f64 / 1e6;
        assert!((24.5..26.5).contains(&p), "{p}");
    }

    #[test]
    fn vgg16_params_near_138m() {
        let p = vgg16().param_count() as f64 / 1e6;
        assert!((136.0..140.0).contains(&p), "{p}");
    }

    #[test]
    fn densenet121_params_near_7_98m() {
        let p = densenet121().param_count() as f64 / 1e6;
        assert!((7.5..8.5).contains(&p), "{p}");
    }

    #[test]
    fn mobilenetv2_params_near_3_5m() {
        let p = mobilenet_v2().param_count() as f64 / 1e6;
        assert!((3.2..3.8).contains(&p), "{p}");
    }

    #[test]
    fn alexnet_params_near_61m() {
        let p = alexnet().param_count() as f64 / 1e6;
        assert!((59.0..63.0).contains(&p), "{p}");
    }

    #[test]
    fn vgg16_macs_near_15_5g() {
        let g = vgg16().macs() as f64 / 1e9;
        assert!((15.0..16.0).contains(&g), "{g}");
    }

    #[test]
    fn resnet50_macs_near_4_1g() {
        let g = resnet50().macs() as f64 / 1e9;
        assert!((3.8..4.4).contains(&g), "{g}");
    }

    #[test]
    fn mobilenetv2_uses_only_relu6() {
        let counts = mobilenet_v2().op_class_counts();
        assert!(counts.contains_key(&OpClass::Activation(ActivationKind::Relu6)));
        assert!(!counts.contains_key(&OpClass::Activation(ActivationKind::Relu)));
        // torchvision pools functionally -> no pooling node.
        assert!(!counts.keys().any(|c| matches!(c, OpClass::Pooling(_))));
    }

    #[test]
    fn densenet_has_printed_avgpool_transitions() {
        let counts = densenet121().op_class_counts();
        assert_eq!(counts[&OpClass::Pooling(PoolingKind::AvgPool)], 3);
        // Global pool is functional -> absent.
        assert!(!counts.contains_key(&OpClass::Pooling(PoolingKind::AdaptiveAvgPool)));
    }

    #[test]
    fn alexnet_module_groups_match_paper_inventory() {
        // Table V relies on AlexNet exercising exactly these 5 classes.
        let counts = alexnet().op_class_counts();
        let classes: Vec<_> = counts.keys().copied().collect();
        assert_eq!(
            classes,
            vec![
                OpClass::Conv2d,
                OpClass::Linear,
                OpClass::Activation(ActivationKind::Relu),
                OpClass::Pooling(PoolingKind::MaxPool),
                OpClass::Pooling(PoolingKind::AdaptiveAvgPool),
            ]
        );
    }

    #[test]
    fn resnet18_spatial_chain_ends_at_7x7() {
        // The last conv's OFM must be 7x7 for 224 input.
        let m = resnet18();
        let last_conv = m
            .layers()
            .iter()
            .rev()
            .find_map(|l| match &l.kind {
                crate::LayerKind::Conv2d(c) => Some(c),
                _ => None,
            })
            .unwrap();
        assert_eq!(last_conv.ofm(), (7, 7));
    }
}
