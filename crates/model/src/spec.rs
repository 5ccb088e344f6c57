//! Architecture metadata for decoder-only transformer models.
//!
//! The LLM-PQ assigner never touches real weights: partition and
//! quantization decisions are made from architecture metadata alone
//! (hidden size, layer count, vocabulary size…), exactly like the paper's
//! analytical memory model (§4.1). [`ModelSpec`] is that metadata.

use serde::{Deserialize, Serialize};

/// The model family. The paper evaluates the OPT and BLOOM families;
/// they differ in positional-encoding scheme and embedding layout, which
/// affects the memory model of the embedding stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelFamily {
    /// Meta's OPT family: learned positional embeddings, tied LM head.
    Opt,
    /// BigScience BLOOM family: ALiBi attention (no positional embedding
    /// table), embedding LayerNorm.
    Bloom,
}

impl ModelFamily {
    /// Whether the family carries a learned positional-embedding table.
    pub fn has_positional_embedding(self) -> bool {
        matches!(self, ModelFamily::Opt)
    }
}

/// Static description of a decoder-only transformer.
///
/// All byte-size helpers take an explicit `bits_per_param` so the same
/// spec serves FP16, INT8 and 3/4-bit weight-only quantization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Family (OPT / BLOOM).
    pub family: ModelFamily,
    /// Human-readable name, e.g. `"opt-30b"`.
    pub name: String,
    /// Number of decoder layers (`L` in the paper).
    pub n_layers: usize,
    /// Hidden dimension (`h1` in the paper's notation table).
    pub hidden: usize,
    /// Number of attention heads.
    pub n_heads: usize,
    /// Feed-forward (MLP) inner dimension; 4·hidden for both families.
    pub ffn_hidden: usize,
    /// Vocabulary size (`vocab_s`).
    pub vocab: usize,
    /// Maximum position embeddings (`d_t` rows of the position table).
    pub max_positions: usize,
}

impl ModelSpec {
    /// Construct a spec with the conventional `ffn = 4·hidden` expansion.
    pub fn new(
        family: ModelFamily,
        name: impl Into<String>,
        n_layers: usize,
        hidden: usize,
        n_heads: usize,
        vocab: usize,
        max_positions: usize,
    ) -> Self {
        assert!(hidden.is_multiple_of(n_heads), "hidden must divide evenly by heads");
        Self {
            family,
            name: name.into(),
            n_layers,
            hidden,
            n_heads,
            ffn_hidden: 4 * hidden,
            vocab,
            max_positions,
        }
    }

    /// Dimension of one attention head.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.n_heads
    }

    /// Parameter count of **one decoder layer**: QKV/output projections
    /// (4·h²), the two MLP projections (2·h·ffn), their biases, and two
    /// LayerNorms. These are the only parameters the paper's memory model
    /// counts inside a decoder layer ("only linear and layer norm layers
    /// contribute", §4.1).
    pub fn params_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        let f = self.ffn_hidden as u64;
        let attn = 4 * h * h + 4 * h; // Wq,Wk,Wv,Wo + biases
        let mlp = h * f + f + f * h + h; // W1+b1, W2+b2
        let norms = 2 * 2 * h; // two LayerNorms, scale+shift each
        attn + mlp + norms
    }

    /// Parameter count of the linear (matmul) weights of one decoder
    /// layer — the portion that weight-only quantization compresses.
    pub fn linear_params_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        let f = self.ffn_hidden as u64;
        4 * h * h + 2 * h * f
    }

    /// Parameter count of the embedding stage: token embeddings
    /// (`vocab × h`), positional embeddings when the family has them
    /// (`max_positions × h`), and the final LayerNorm. The LM head is
    /// tied to the token embedding in both families.
    pub fn embedding_params(&self) -> u64 {
        let h = self.hidden as u64;
        let tok = self.vocab as u64 * h;
        let pos = if self.family.has_positional_embedding() {
            self.max_positions as u64 * h
        } else {
            0
        };
        tok + pos + 2 * h
    }

    /// Total parameter count (decoder stack + embeddings).
    pub fn total_params(&self) -> u64 {
        self.n_layers as u64 * self.params_per_layer() + self.embedding_params()
    }

    /// Bytes of weight storage for one decoder layer when its linear
    /// weights are stored at `bits_per_param` bits; non-linear parameters
    /// (norms, biases) always stay FP16 as in GPTQ-style serving.
    pub fn layer_weight_bytes(&self, bits_per_param: f64) -> f64 {
        let linear = self.linear_params_per_layer() as f64 * bits_per_param / 8.0;
        let rest = (self.params_per_layer() - self.linear_params_per_layer()) as f64 * 2.0;
        linear + rest
    }

    /// Bytes of the embedding stage, always held in FP16 (the paper never
    /// quantizes embeddings).
    pub fn embedding_bytes(&self) -> f64 {
        self.embedding_params() as f64 * 2.0
    }

    /// `(row, group)` pairs of one decoder layer's linear weights split
    /// into groups of `group` input elements per output row: four
    /// attention projections are `hidden × hidden`, W1 is `ffn × hidden`,
    /// W2 is `hidden × ffn`.
    pub fn quant_groups(&self, group: usize) -> f64 {
        let h = self.hidden as f64;
        let f = self.ffn_hidden as f64;
        let gpr = |cols: f64| (cols / group as f64).ceil();
        4.0 * h * gpr(h) + f * gpr(h) + h * gpr(f)
    }

    /// Bytes of group-wise quantization metadata for one decoder layer's
    /// linear weights: what the packed layout holds, one
    /// [`crate::SCALE_BYTES`] scale per `(row, group)`.
    pub fn quant_scale_bytes(&self, group: usize) -> f64 {
        self.quant_groups(group) * crate::SCALE_BYTES as f64
    }

    /// KV-cache bytes for **one decoder layer**, for `batch` sequences of
    /// reserved length `seq_len` (prompt + generated tokens, as LLM-PQ
    /// pre-allocates the maximum sentence length), with each cache element
    /// stored at `kv_bits` bits.
    pub fn kv_bytes_per_layer(&self, batch: usize, seq_len: usize, kv_bits: f64) -> f64 {
        // K and V each store `hidden` values per token.
        2.0 * batch as f64 * seq_len as f64 * self.hidden as f64 * kv_bits / 8.0
    }

    /// A short identifier such as `opt-30b` suitable for file names.
    pub fn id(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt_1p3b() -> ModelSpec {
        ModelSpec::new(ModelFamily::Opt, "opt-1.3b", 24, 2048, 32, 50272, 2048)
    }

    #[test]
    fn param_count_matches_published_size() {
        // OPT-1.3b has ~1.3e9 parameters; our accounting should land within 10%.
        let spec = opt_1p3b();
        let total = spec.total_params() as f64;
        assert!(
            (total - 1.3e9).abs() / 1.3e9 < 0.10,
            "got {total:.3e} params"
        );
    }

    #[test]
    fn linear_params_are_a_subset() {
        let spec = opt_1p3b();
        assert!(spec.linear_params_per_layer() < spec.params_per_layer());
    }

    #[test]
    fn quantized_layer_is_smaller() {
        let spec = opt_1p3b();
        let fp16 = spec.layer_weight_bytes(16.0);
        let int8 = spec.layer_weight_bytes(8.0);
        let int4 = spec.layer_weight_bytes(4.0);
        let int3 = spec.layer_weight_bytes(3.0);
        assert!(fp16 > int8 && int8 > int4 && int4 > int3);
        // Linear weights dominate, so INT8 should be close to half of FP16.
        assert!((int8 / fp16 - 0.5).abs() < 0.02);
    }

    #[test]
    fn kv_cache_scales_linearly() {
        let spec = opt_1p3b();
        let a = spec.kv_bytes_per_layer(8, 612, 16.0);
        let b = spec.kv_bytes_per_layer(16, 612, 16.0);
        assert!((b / a - 2.0).abs() < 1e-12);
        let c = spec.kv_bytes_per_layer(8, 612, 8.0);
        assert!((a / c - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bloom_has_no_positional_table() {
        let bloom = ModelSpec::new(ModelFamily::Bloom, "bloom-3b", 30, 2560, 32, 250880, 2048);
        let opt = opt_1p3b();
        assert!(!bloom.family.has_positional_embedding());
        assert!(opt.family.has_positional_embedding());
        assert_eq!(
            bloom.embedding_params(),
            250880 * 2560 + 2 * 2560,
            "BLOOM embedding = token table + final norm"
        );
    }

    #[test]
    #[should_panic(expected = "hidden must divide")]
    fn rejects_indivisible_heads() {
        ModelSpec::new(ModelFamily::Opt, "bad", 2, 100, 3, 1000, 128);
    }
}
