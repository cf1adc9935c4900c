//! Pins the synthetic checkpoint itself, tensor by tensor.
//!
//! Every other pin sees the seeded weights only through logits after a
//! forward pass. These digests — FNV-1a over the bits of each tensor,
//! each per-layer tensor folded across the layers in order — were
//! captured from the one-draw-at-a-time generator (`next_normal_f32` in a
//! loop), so a faster `fill_normal` must reproduce it bit for bit.

use speedllm::llama::config::ModelConfig;
use speedllm::llama::weights::TransformerWeights;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, values: &[f32]) -> u64 {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// `(tensor, digest)` for every tensor of the checkpoint, in the order
/// `TransformerWeights::synthetic` draws them.
fn digests(cfg: ModelConfig, seed: u64) -> Vec<(&'static str, u64)> {
    let w = TransformerWeights::synthetic(cfg, seed);
    let layers = |name, tensor: fn(&speedllm::llama::weights::LayerWeights) -> &[f32]| {
        (
            name,
            w.layers.iter().fold(FNV_OFFSET, |h, l| fnv1a(h, tensor(l))),
        )
    };
    let mut out = vec![
        ("token_embedding", fnv1a(FNV_OFFSET, &w.token_embedding)),
        layers("rms_att", |l| &l.rms_att),
        layers("wq", |l| &l.wq),
        layers("wk", |l| &l.wk),
        layers("wv", |l| &l.wv),
        layers("wo", |l| &l.wo),
        layers("rms_ffn", |l| &l.rms_ffn),
        layers("w1", |l| &l.w1),
        layers("w2", |l| &l.w2),
        layers("w3", |l| &l.w3),
        ("rms_final", fnv1a(FNV_OFFSET, &w.rms_final)),
    ];
    if let Some(wcls) = &w.wcls {
        out.push(("wcls", fnv1a(FNV_OFFSET, wcls)));
    }
    out
}

fn check(model: &str, cfg: ModelConfig, seed: u64, want: &[(&str, u64)]) {
    let got = digests(cfg, seed);
    assert_eq!(
        got, want,
        "{model} seed {seed}: the synthetic weights moved; actual digests above"
    );
}

#[test]
fn test_tiny_weights_match_their_pinned_digests() {
    check(
        "test_tiny",
        ModelConfig::test_tiny(),
        42,
        &[
            ("token_embedding", 0x373d_6c51_d55c_937d),
            ("rms_att", 0xdfcb_3795_c607_c825),
            ("wq", 0x2513_34f0_4f37_38c7),
            ("wk", 0x5b9c_5879_5efe_0b62),
            ("wv", 0xbc3b_e769_2fd7_681f),
            ("wo", 0x3219_8292_2a13_2d13),
            ("rms_ffn", 0xdfcb_3795_c607_c825),
            ("w1", 0x6fa5_c8ed_35d9_553a),
            ("w2", 0xc14c_f113_5dfc_4c72),
            ("w3", 0xe482_3c4d_ae55_fe29),
            ("rms_final", 0x4e92_7ff8_33e1_31a5),
        ],
    );
}

#[test]
fn stories260k_weights_match_their_pinned_digests() {
    check(
        "stories260k",
        ModelConfig::stories260k(),
        42,
        &[
            ("token_embedding", 0xa21c_6412_d9de_de12),
            ("rms_att", 0xe75c_870e_0d9c_9525),
            ("wq", 0xcf7a_3fe2_b7e3_c6ba),
            ("wk", 0xa209_d909_57b7_ec9b),
            ("wv", 0x65d1_6519_7797_256e),
            ("wo", 0x1cc4_b41f_4d2b_b864),
            ("rms_ffn", 0xe75c_870e_0d9c_9525),
            ("w1", 0x13ce_771b_2bd0_46ad),
            ("w2", 0xa907_a968_a76a_7108),
            ("w3", 0x0b28_a231_0876_539e),
            ("rms_final", 0xeafc_7871_27b7_6d25),
        ],
    );
}

#[test]
fn stories15m_weights_match_their_pinned_digests() {
    check(
        "stories15m",
        ModelConfig::stories15m(),
        42,
        &[
            ("token_embedding", 0x3b4c_9cd4_b6d1_94bf),
            ("rms_att", 0x0e7e_c69b_ecb8_f125),
            ("wq", 0xe056_a2cf_c367_8949),
            ("wk", 0x0113_2068_ac90_016a),
            ("wv", 0x5148_5c12_279f_1000),
            ("wo", 0x4a94_eb24_0fc3_f214),
            ("rms_ffn", 0x0e7e_c69b_ecb8_f125),
            ("w1", 0xef5e_8043_3811_3ef3),
            ("w2", 0x4741_52da_1e78_27fc),
            ("w3", 0xc10c_64f1_4b04_2550),
            ("rms_final", 0x7600_260c_dd9c_f025),
        ],
    );
}

#[test]
fn stories15m_draft_weights_match_their_pinned_digests() {
    let draft = ModelConfig::draft_for(&ModelConfig::stories15m());
    check(
        "stories15m draft",
        draft,
        43,
        &[
            ("token_embedding", 0x6db2_4c3a_9722_7290),
            ("rms_att", 0xe75c_870e_0d9c_9525),
            ("wq", 0x0338_944d_1694_6ff3),
            ("wk", 0x5e77_4375_6c15_da11),
            ("wv", 0x4a64_e10a_739d_f861),
            ("wo", 0x6b1b_7656_9542_5a06),
            ("rms_ffn", 0xe75c_870e_0d9c_9525),
            ("w1", 0xa9c3_1894_3289_9bae),
            ("w2", 0xd754_f21d_8200_5a06),
            ("w3", 0x6975_067d_5941_89de),
            ("rms_final", 0xeafc_7871_27b7_6d25),
        ],
    );
}
