//! Second wave of extended test algorithms, broadening the
//! future-work evaluation beyond the first extended set: a dense
//! prediction U-Net, an encoder–decoder text transformer with ReLU
//! FFNs (T5), and a dual-tower contrastive model (CLIP).

use super::common::*;
use crate::layer::{ActivationKind, PoolingKind};
use crate::model::{Model, ModelBuilder, ModelClass};

const RELU: ActivationKind = ActivationKind::Relu;
const GELU: ActivationKind = ActivationKind::Gelu;

/// U-Net (Ronneberger et al., 2015) at 256², ≈ 31 M parameters:
/// a conv/ReLU/MaxPool encoder and a conv decoder (the functional
/// up-sampling between stages prints no module, as with DPT).
pub fn unet() -> Model {
    let mut b = ModelBuilder::new("UNet", ModelClass::Cnn);
    let mut fm = (256_u32, 256_u32);
    let mut ch = 3_u32;
    // Encoder: double conv + pool, channels 64..1024.
    let widths = [64_u32, 128, 256, 512];
    for (i, &w) in widths.iter().enumerate() {
        let down = b.prefix(format_args!("down{i}"));
        fm = conv2d_act(&mut b, down.child("conv1"), ch, w, 3, 1, 1, fm, 1, RELU);
        fm = conv2d_act(&mut b, down.child("conv2"), w, w, 3, 1, 1, fm, 1, RELU);
        ch = w;
        fm = pool2d(
            &mut b,
            down.child("pool"),
            PoolingKind::MaxPool,
            ch,
            fm,
            2,
            2,
            0,
        );
    }
    // Bottleneck.
    fm = conv2d_act(&mut b, "mid.conv1", ch, 1024, 3, 1, 1, fm, 1, RELU);
    fm = conv2d_act(&mut b, "mid.conv2", 1024, 1024, 3, 1, 1, fm, 1, RELU);
    ch = 1024;
    // Decoder: double conv per stage over concatenated skip features
    // (upsampling is functional => spatial size stays at the print-
    // visible resolution, channel arithmetic follows the skip concat).
    for (i, &w) in widths.iter().rev().enumerate() {
        let up = b.prefix(format_args!("up{i}"));
        fm = conv2d_act(&mut b, up.child("conv1"), ch + w, w, 3, 1, 1, fm, 1, RELU);
        fm = conv2d_act(&mut b, up.child("conv2"), w, w, 3, 1, 1, fm, 1, RELU);
        ch = w;
    }
    conv2d(&mut b, "head", ch, 2, 1, 1, 0, fm, 1);
    b.extra_params(24_000); // batch norms
    b.build()
}

/// T5-small (Raffel et al., 2020), ≈ 60 M parameters: encoder–decoder
/// transformer whose feed-forward blocks use **ReLU**, unusually for
/// a text model — it probes the CNN/transformer boundary in the
/// assignment metric.
pub fn t5_small() -> Model {
    let mut b = ModelBuilder::new("T5-small", ModelClass::Transformer);
    let (d, ffn) = (512_u32, 2048_u32);
    let enc_tokens = 512_u32;
    let dec_tokens = 128_u32;
    for i in 0..6 {
        EncoderBlock::standard(d, ffn, enc_tokens, RELU)
            .emit(&mut b, format_args!("encoder.block.{i}"));
    }
    for i in 0..6 {
        let p = b.prefix(format_args!("decoder.block.{i}"));
        EncoderBlock::standard(d, ffn, dec_tokens, RELU).emit(&mut b, p);
        // Cross-attention.
        linear(&mut b, p.child("cross.q"), d, d, dec_tokens);
        linear(&mut b, p.child("cross.k"), d, d, enc_tokens);
        linear(&mut b, p.child("cross.v"), d, d, enc_tokens);
        linear(&mut b, p.child("cross.out"), d, d, dec_tokens);
    }
    linear(&mut b, "lm_head", d, 32_128, dec_tokens);
    // The token embedding is tied to lm_head (already counted above);
    // extras are relative-position biases + RMS norms.
    b.extra_params(400_000);
    b.build()
}

/// CLIP ViT-B/32 (Radford et al., 2021), ≈ 151 M parameters: a ViT-B
/// image tower (32×32 patches) and a 12-block text tower sharing a
/// contrastive embedding space; all compute is Conv2d + Linear + GELU.
pub fn clip_vit_b32() -> Model {
    let mut b = ModelBuilder::new("CLIP-ViT-B32", ModelClass::Transformer);
    // Image tower.
    conv2d(&mut b, "visual.conv1", 3, 768, 32, 32, 0, (224, 224), 1);
    let img_tokens = (224 / 32) * (224 / 32) + 1;
    for i in 0..12 {
        EncoderBlock::standard(768, 3072, img_tokens, GELU)
            .emit(&mut b, format_args!("visual.transformer.{i}"));
    }
    linear(&mut b, "visual.proj", 768, 512, 1);
    // Text tower.
    let txt_tokens = 77;
    for i in 0..12 {
        EncoderBlock::standard(512, 2048, txt_tokens, GELU)
            .emit(&mut b, format_args!("transformer.{i}"));
    }
    linear(&mut b, "text_projection", 512, 512, 1);
    // Token embedding (49408 x 512) + positional tables + norms.
    b.extra_params(49_408 * 512 + 500_000);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivationKind, OpClass, PoolingKind};

    #[test]
    fn unet_params_near_31m() {
        let p = unet().param_count() as f64 / 1e6;
        assert!((28.0..34.0).contains(&p), "{p}");
    }

    #[test]
    fn unet_is_a_pure_relu_cnn() {
        let c = unet().op_class_counts();
        assert!(c.contains_key(&OpClass::Conv2d));
        assert!(c.contains_key(&OpClass::Pooling(PoolingKind::MaxPool)));
        assert!(!c.contains_key(&OpClass::Linear));
        assert!(!c.contains_key(&OpClass::Activation(ActivationKind::Gelu)));
    }

    #[test]
    fn t5_params_near_60m() {
        let p = t5_small().param_count() as f64 / 1e6;
        assert!((55.0..65.0).contains(&p), "{p}");
    }

    #[test]
    fn t5_is_linear_relu() {
        let c = t5_small().op_class_counts();
        assert_eq!(c.len(), 2);
        assert!(c.contains_key(&OpClass::Linear));
        assert!(c.contains_key(&OpClass::Activation(ActivationKind::Relu)));
    }

    #[test]
    fn clip_params_near_151m() {
        let p = clip_vit_b32().param_count() as f64 / 1e6;
        assert!((144.0..158.0).contains(&p), "{p}");
    }

    #[test]
    fn clip_mixes_towers() {
        let c = clip_vit_b32().op_class_counts();
        assert_eq!(c[&OpClass::Conv2d], 1);
        assert!(c[&OpClass::Linear] > 100);
        assert!(c.contains_key(&OpClass::Activation(ActivationKind::Gelu)));
    }
}
