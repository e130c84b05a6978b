//! Language and speech models: GPT-2, Meta-Llama-3-8B, Mixtral-8x7B,
//! Whisper-v3-large.
//!
//! GPT-2 and Whisper carry `Conv1d` nodes — the paper notes these "use
//! a 1D convolution module, differing from traditional architectures,
//! and are grouped separately" (each gets its own library subset).

use super::common::*;
use crate::layer::ActivationKind;
use crate::model::{Model, ModelBuilder, ModelClass};

const GELU: ActivationKind = ActivationKind::Gelu;

/// GPT-2 (Radford et al., 2019), 137 M parameters as reported on the
/// HuggingFace hub (124.4 M weights + the persistent causal-mask
/// buffers stored in the checkpoint).
///
/// HuggingFace GPT-2 implements every projection as a `Conv1D` module,
/// so the extraction sees CONV1D nodes, not LINEAR ones.
pub fn gpt2() -> Model {
    gpt2_with_tokens("GPT2", 1024)
}

/// GPT-2 generating one token (decode phase) — for the memory-wall
/// ablations.
pub fn gpt2_decode() -> Model {
    gpt2_with_tokens("GPT2 (decode)", 1)
}

fn gpt2_with_tokens(name: &str, seq: u32) -> Model {
    let mut b = ModelBuilder::new(name, ModelClass::Llm);
    let (d, ffn) = (768_u32, 3072_u32);
    for blk in 0..12 {
        let p = b.prefix(format_args!("h.{blk}"));
        // Fused QKV projection: d -> 3d.
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
    // wte 50257x768 + wpe 1024x768 + layer norms + 12 causal-mask
    // buffers of 1024^2 (persisted in the checkpoint; HF counts them).
    b.extra_params(50_257 * 768 + 1024 * 768 + 40_000 + 12 * 1024 * 1024);
    b.build()
}

/// Meta-Llama-3-8B (AI@Meta, 2024), 8.03 B parameters.
///
/// 32 decoder blocks, d = 4096, gated MLP of width 14336 with SiLU,
/// grouped-query attention with 8 KV heads (1024-wide K/V projections).
/// Modelled at a 2048-token prefill.
pub fn llama3_8b() -> Model {
    llama3_8b_with_tokens("Meta Llama-3-8B", 2048)
}

/// Llama-3-8B generating one token (decode phase): every weight still
/// streams once, but only a single position's worth of MACs runs —
/// the memory-bound regime the memory-wall ablation quantifies.
pub fn llama3_8b_decode() -> Model {
    llama3_8b_with_tokens("Meta Llama-3-8B (decode)", 1)
}

fn llama3_8b_with_tokens(name: &str, tokens: u32) -> Model {
    let mut b = ModelBuilder::new(name, ModelClass::Llm);
    let blk = GatedBlock {
        d: 4096,
        ffn: 14336,
        tokens,
        kv: 1024,
    };
    for i in 0..32 {
        let layer = b.prefix(format_args!("layers.{i}"));
        blk.emit_attention(&mut b, layer.child("self_attn"));
        blk.emit_mlp(&mut b, layer.child("mlp"));
    }
    linear(&mut b, "lm_head", 4096, 128_256, tokens);
    // Untied input embedding (128256 x 4096) + RMS norms.
    b.extra_params(128_256 * 4096 + 270_000);
    b.build()
}

/// Mixtral-8x7B (Jiang et al., 2024), 46.7 B parameters.
///
/// 32 decoder blocks with 8 SwiGLU experts each (all expert weights
/// exist on-die even though 2 are active per token — NRE and area care
/// about instantiated hardware, and the extraction sees every printed
/// expert module).
pub fn mixtral_8x7b() -> Model {
    mixtral_8x7b_with_tokens("Mixtral-8x7B", 2048)
}

/// Mixtral-8x7B generating one token (decode phase).
pub fn mixtral_8x7b_decode() -> Model {
    mixtral_8x7b_with_tokens("Mixtral-8x7B (decode)", 1)
}

fn mixtral_8x7b_with_tokens(name: &str, tokens: u32) -> Model {
    let mut b = ModelBuilder::new(name, ModelClass::MoeLlm);
    let blk = GatedBlock {
        d: 4096,
        ffn: 14336,
        tokens,
        kv: 1024,
    };
    for i in 0..32 {
        let layer = b.prefix(format_args!("layers.{i}"));
        blk.emit_attention(&mut b, layer.child("self_attn"));
        // Router.
        linear(&mut b, layer.child("gate"), 4096, 8, tokens);
        for e in 0..8 {
            blk.emit_mlp(&mut b, format_args!("layers.{i}.experts.{e}"));
        }
    }
    linear(&mut b, "lm_head", 4096, 32_000, tokens);
    b.extra_params(32_000 * 4096 + 270_000); // input embedding + norms
    b.build()
}

/// Whisper-large-v3 (Radford et al., 2022), 1.54 B parameters.
///
/// Two genuine `nn.Conv1d` layers front the encoder (128 mel bins →
/// 1280 channels over 3000 frames), followed by 32 encoder and 32
/// decoder blocks (d = 1280, FFN 5120, GELU).
pub fn whisper_v3_large() -> Model {
    let mut b = ModelBuilder::new("Whisperv3-large", ModelClass::Transformer);
    let (d, ffn) = (1280_u32, 5120_u32);
    let enc_tokens = 1500_u32;
    let dec_tokens = 224_u32;

    let l1 = conv1d(&mut b, "encoder.conv1", 128, d, 3, 1, 1, 3000);
    act(&mut b, "encoder.act1", GELU, u64::from(l1) * u64::from(d));
    let l2 = conv1d(&mut b, "encoder.conv2", d, d, 3, 2, 1, l1);
    act(&mut b, "encoder.act2", GELU, u64::from(l2) * u64::from(d));
    debug_assert_eq!(l2, enc_tokens);

    for i in 0..32 {
        EncoderBlock::standard(d, ffn, enc_tokens, GELU)
            .emit(&mut b, format_args!("encoder.layers.{i}"));
    }
    for i in 0..32 {
        let p = b.prefix(format_args!("decoder.layers.{i}"));
        // Self-attention + cross-attention + MLP.
        EncoderBlock::standard(d, ffn, dec_tokens, GELU).emit(&mut b, p);
        linear(&mut b, p.child("encoder_attn.q"), d, d, dec_tokens);
        linear(&mut b, p.child("encoder_attn.k"), d, d, enc_tokens);
        linear(&mut b, p.child("encoder_attn.v"), d, d, enc_tokens);
        linear(&mut b, p.child("encoder_attn.out"), d, d, dec_tokens);
    }
    linear(&mut b, "proj_out", d, 51_866, dec_tokens);
    // Token + learned position embeddings + norms. proj_out is tied to
    // the token embedding, so only position tables and norms are extra.
    b.extra_params((1500 + 448) * 1280 + 330_000);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivationKind, OpClass};

    #[test]
    fn gpt2_params_near_137m() {
        let p = gpt2().param_count() as f64 / 1e6;
        assert!((130.0..141.0).contains(&p), "{p}");
    }

    #[test]
    fn gpt2_decode_keeps_weights_drops_work() {
        let prefill = gpt2();
        let decode = gpt2_decode();
        assert_eq!(prefill.param_count(), decode.param_count());
        assert!(decode.macs() * 500 < prefill.macs());
    }

    #[test]
    fn gpt2_uses_conv1d_not_linear() {
        let c = gpt2().op_class_counts();
        assert!(c.contains_key(&OpClass::Conv1d));
        assert!(!c.contains_key(&OpClass::Linear));
    }

    #[test]
    fn llama3_params_near_8b() {
        let p = llama3_8b().param_count() as f64 / 1e9;
        assert!((7.7..8.3).contains(&p), "{p}");
    }

    #[test]
    fn llama3_is_linear_silu_only() {
        let c = llama3_8b().op_class_counts();
        assert_eq!(c.len(), 2);
        assert!(c.contains_key(&OpClass::Linear));
        assert!(c.contains_key(&OpClass::Activation(ActivationKind::Silu)));
    }

    #[test]
    fn mixtral_params_near_46_7b() {
        let p = mixtral_8x7b().param_count() as f64 / 1e9;
        assert!((45.5..48.0).contains(&p), "{p}");
    }

    #[test]
    fn mixtral_has_eight_experts_per_block() {
        let m = mixtral_8x7b();
        let experts = m
            .layers()
            .iter()
            .filter(|l| l.name.starts_with("layers.0.experts.") && l.name.ends_with("gate_proj"))
            .count();
        assert_eq!(experts, 8);
    }

    #[test]
    fn whisper_params_near_1_54b() {
        let p = whisper_v3_large().param_count() as f64 / 1e9;
        assert!((1.48..1.62).contains(&p), "{p}");
    }

    #[test]
    fn whisper_mixes_conv1d_and_linear() {
        let c = whisper_v3_large().op_class_counts();
        assert_eq!(c[&OpClass::Conv1d], 2);
        assert!(c[&OpClass::Linear] > 100);
    }

    #[test]
    fn whisper_encoder_front_end_halves_frames() {
        let m = whisper_v3_large();
        match &m.layers()[2].kind {
            crate::LayerKind::Conv1d(c) => assert_eq!(c.output_length(), 1500),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gpt2_conv1d_edges_dominate() {
        let combos = gpt2().edge_combination_counts();
        let cc = combos[&(OpClass::Conv1d, OpClass::Conv1d)];
        assert!(cc >= 24, "CONV1D-CONV1D count {cc}");
    }
}
