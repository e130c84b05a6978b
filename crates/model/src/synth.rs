//! Seeded synthetic workload generation — for DSE stress testing,
//! scaling benchmarks, and fuzzing beyond the 24 built-in algorithms.
//!
//! Generators are fully deterministic in the seed and always produce
//! shape-consistent models whose layer classes stay within the
//! framework's supported set.

use crate::layer::{ActivationKind, PoolingKind};
use crate::model::{Model, ModelBuilder, ModelClass};
use crate::zoo::common::{
    act, adaptive_avg_pool, conv1d, conv2d_act, linear, pool2d, EncoderBlock,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload family to synthesise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Strided convolutional stack + classifier head.
    Cnn,
    /// Encoder transformer (Linear/GELU).
    Transformer,
    /// Conv1d front-end + encoder (speech-style).
    Audio,
}

/// Generates one synthetic model. Deterministic in `(seed, family)`.
///
/// # Example
///
/// ```
/// use claire_model::synth::{random_model, Family};
///
/// let a = random_model(7, Family::Cnn);
/// let b = random_model(7, Family::Cnn);
/// assert_eq!(a, b); // reproducible
/// assert!(a.macs() > 0);
/// ```
pub fn random_model(seed: u64, family: Family) -> Model {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x434c_4149_5245_0001);
    match family {
        Family::Cnn => random_cnn(&mut rng, seed),
        Family::Transformer => random_transformer(&mut rng, seed),
        Family::Audio => random_audio(&mut rng, seed),
    }
}

/// Generates `n` models cycling through the families. Deterministic in
/// `seed`.
pub fn random_suite(seed: u64, n: usize) -> Vec<Model> {
    (0..n)
        .map(|i| {
            let family = match i % 3 {
                0 => Family::Cnn,
                1 => Family::Transformer,
                _ => Family::Audio,
            };
            random_model(seed.wrapping_add(i as u64), family)
        })
        .collect()
}

fn random_cnn(rng: &mut StdRng, seed: u64) -> Model {
    let mut b = ModelBuilder::new(format!("synth-cnn-{seed}"), ModelClass::Cnn);
    let stages = rng.gen_range(2..6);
    let act_kind = if rng.gen_bool(0.7) {
        ActivationKind::Relu
    } else {
        ActivationKind::Relu6
    };
    let mut fm = (224_u32, 224_u32);
    let mut ch = 3_u32;
    let mut out_ch = 1_u32 << rng.gen_range(4_u32..7); // 16..64
    fm = conv2d_act(&mut b, "stem", ch, out_ch, 7, 2, 3, fm, 1, act_kind);
    ch = out_ch;
    for stage in 0..stages {
        let blocks = rng.gen_range(1..4);
        out_ch = (ch * 2).min(512);
        for blk in 0..blocks {
            let stride = if blk == 0 && fm.0 > 14 { 2 } else { 1 };
            fm = conv2d_act(
                &mut b,
                format_args!("s{stage}.b{blk}"),
                ch,
                out_ch,
                3,
                stride,
                1,
                fm,
                1,
                act_kind,
            );
            ch = out_ch;
        }
        if rng.gen_bool(0.5) && fm.0 >= 4 {
            fm = pool2d(
                &mut b,
                format_args!("s{stage}.pool"),
                PoolingKind::MaxPool,
                ch,
                fm,
                2,
                2,
                0,
            );
        }
    }
    adaptive_avg_pool(&mut b, "avgpool", ch, fm, 1);
    linear(&mut b, "fc", ch, rng.gen_range(10..1001), 1);
    b.build()
}

fn random_transformer(rng: &mut StdRng, seed: u64) -> Model {
    let mut b = ModelBuilder::new(format!("synth-xf-{seed}"), ModelClass::Transformer);
    let d = 64 * rng.gen_range(2_u32..17); // 128..1024
    let depth = rng.gen_range(2..25);
    let tokens = rng.gen_range(16..1025);
    let kind = if rng.gen_bool(0.75) {
        ActivationKind::Gelu
    } else {
        ActivationKind::Silu
    };
    if rng.gen_bool(0.5) {
        // Patch-embedding front end.
        conv2d_act(&mut b, "patch", 3, d, 16, 16, 0, (224, 224), 1, kind);
    }
    for blk in 0..depth {
        EncoderBlock::standard(d, 4 * d, tokens, kind).emit(&mut b, format_args!("blocks.{blk}"));
    }
    linear(&mut b, "head", d, rng.gen_range(2..50_000), 1);
    b.build()
}

fn random_audio(rng: &mut StdRng, seed: u64) -> Model {
    let mut b = ModelBuilder::new(format!("synth-audio-{seed}"), ModelClass::Transformer);
    let channels = 64 * rng.gen_range(1_u32..9);
    let mut len = rng.gen_range(1_000..8_001);
    let convs = rng.gen_range(2..6);
    let mut in_ch = rng.gen_range(1..129);
    for i in 0..convs {
        let stride = rng.gen_range(1..4);
        len = conv1d(
            &mut b,
            format_args!("fe.{i}"),
            in_ch,
            channels,
            3,
            stride,
            1,
            len,
        );
        act(
            &mut b,
            format_args!("fe.{i}.act"),
            ActivationKind::Gelu,
            u64::from(len) * u64::from(channels),
        );
        in_ch = channels;
        if len < 8 {
            break;
        }
    }
    let depth = rng.gen_range(2..13);
    for blk in 0..depth {
        EncoderBlock::standard(channels, 4 * channels, len.max(1), ActivationKind::Gelu)
            .emit(&mut b, format_args!("enc.{blk}"));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpClass;

    #[test]
    fn deterministic_per_seed() {
        for family in [Family::Cnn, Family::Transformer, Family::Audio] {
            assert_eq!(random_model(42, family), random_model(42, family));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_model(1, Family::Cnn);
        let b = random_model(2, Family::Cnn);
        assert_ne!(a, b);
    }

    #[test]
    fn families_have_expected_signatures() {
        let cnn = random_model(5, Family::Cnn);
        assert!(cnn.op_class_counts().contains_key(&OpClass::Conv2d));
        let audio = random_model(5, Family::Audio);
        assert!(audio.op_class_counts().contains_key(&OpClass::Conv1d));
        let xf = random_model(5, Family::Transformer);
        assert!(xf.op_class_counts().contains_key(&OpClass::Linear));
    }

    #[test]
    fn suite_is_deterministic_and_sized() {
        let s1 = random_suite(9, 12);
        let s2 = random_suite(9, 12);
        assert_eq!(s1.len(), 12);
        assert_eq!(s1, s2);
    }

    #[test]
    fn synthetic_models_are_well_formed() {
        for m in random_suite(123, 30) {
            assert!(m.macs() > 0, "{}", m.name());
            assert!(m.layer_count() >= 3, "{}", m.name());
            for l in m.layers() {
                assert!(l.output_elements() > 0, "{}: {}", m.name(), l.name);
            }
        }
    }
}
