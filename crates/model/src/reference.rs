//! A small, runnable decoder-only transformer.
//!
//! This is the live substrate for every quality experiment: it executes
//! real pre-LN attention + MLP math in `f32`, with a per-layer KV cache
//! and the two generative phases (prefill / decode). Quantization
//! experiments swap in really-quantized weight matrices and measure the
//! resulting perplexity change — the quantity Figures 4/8 and Tables 1/6
//! of the paper report.
//!
//! The model is *synthetic* (seeded random weights). Perplexity is
//! measured against corpora sampled from the FP32 model itself (see
//! `llmpq-quality`), so the FP32 model is by construction the true data
//! distribution and quantization degrades PPL monotonically — matching
//! the paper's experimental shape without needing trained checkpoints.

use crate::linear::LinearOp;
use crate::tensor::{add_assign, add_bias, gelu, layer_norm, Matrix};
use llmpq_kernels::{DensePanels, KvBlocks, RowKv};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of a reference transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefConfig {
    /// Number of decoder layers.
    pub n_layers: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// MLP inner dimension.
    pub ffn: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length (positional table rows / KV capacity).
    pub max_seq: usize,
    /// Weight-initialization seed.
    pub seed: u64,
    /// Use ALiBi attention biases instead of learned positional
    /// embeddings (the BLOOM family's scheme).
    pub alibi: bool,
}

impl RefConfig {
    /// A tiny config for unit tests.
    pub fn tiny() -> Self {
        Self { n_layers: 2, hidden: 32, n_heads: 4, ffn: 64, vocab: 96, max_seq: 64, seed: 7, alibi: false }
    }

    /// A laptop-scale stand-in preserving a zoo model's *layer count* so
    /// layer-range experiments (Table 1: "layers 0–8 of OPT-1.3b") keep
    /// their meaning, while shrinking width to stay runnable.
    pub fn scaled_like(n_layers: usize, seed: u64) -> Self {
        Self { n_layers, hidden: 64, n_heads: 4, ffn: 128, vocab: 256, max_seq: 128, seed, alibi: false }
    }

    /// A BLOOM-style stand-in: same scale as [`RefConfig::scaled_like`]
    /// but with ALiBi attention and no positional-embedding table.
    pub fn scaled_like_bloom(n_layers: usize, seed: u64) -> Self {
        Self { alibi: true, ..Self::scaled_like(n_layers, seed) }
    }
}

/// Weights of one decoder layer. Projection operators are stored as
/// `(out_features, in_features)`, matching `Matrix::matmul_t`; each is a
/// [`LinearOp`] — dense `f32` on the FP path, packed low-bit after
/// quantization (served by the fused dequant-GEMM, bit-identical to the
/// dense forward over dequantized weights).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerWeights {
    /// Query projection, `hidden × hidden`.
    pub wq: LinearOp,
    /// Key projection.
    pub wk: LinearOp,
    /// Value projection.
    pub wv: LinearOp,
    /// Attention output projection.
    pub wo: LinearOp,
    /// MLP up-projection, `ffn × hidden`.
    pub w1: LinearOp,
    /// MLP down-projection, `hidden × ffn`.
    pub w2: LinearOp,
    /// Biases for q/k/v/o (hidden each).
    pub bq: Vec<f32>,
    /// Key bias.
    pub bk: Vec<f32>,
    /// Value bias.
    pub bv: Vec<f32>,
    /// Output bias.
    pub bo: Vec<f32>,
    /// MLP biases.
    pub b1: Vec<f32>,
    /// MLP down bias.
    pub b2: Vec<f32>,
    /// Pre-attention LayerNorm scale/shift.
    pub ln1_g: Vec<f32>,
    /// Pre-attention LayerNorm shift.
    pub ln1_b: Vec<f32>,
    /// Pre-MLP LayerNorm scale.
    pub ln2_g: Vec<f32>,
    /// Pre-MLP LayerNorm shift.
    pub ln2_b: Vec<f32>,
}

impl LayerWeights {
    /// Random init with trained-like magnitudes (`~1/sqrt(fan_in)`).
    pub fn random(cfg: &RefConfig, seed: u64) -> Self {
        let h = cfg.hidden;
        let f = cfg.ffn;
        let sh = 1.0 / (h as f32).sqrt();
        let sf = 1.0 / (f as f32).sqrt();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bias = |n: usize, s: f32| -> Vec<f32> {
            (0..n).map(|_| rng.gen_range(-s..=s)).collect()
        };
        let bq = bias(h, 0.02);
        let bk = bias(h, 0.02);
        let bv = bias(h, 0.02);
        let bo = bias(h, 0.02);
        let b1 = bias(f, 0.02);
        let b2 = bias(h, 0.02);
        Self {
            wq: LinearOp::Dense(Matrix::random(h, h, sh, seed ^ 0x11)),
            wk: LinearOp::Dense(Matrix::random(h, h, sh, seed ^ 0x22)),
            wv: LinearOp::Dense(Matrix::random(h, h, sh, seed ^ 0x33)),
            wo: LinearOp::Dense(Matrix::random(h, h, sh, seed ^ 0x44)),
            w1: LinearOp::Dense(Matrix::random(f, h, sh, seed ^ 0x55)),
            w2: LinearOp::Dense(Matrix::random(h, f, sf, seed ^ 0x66)),
            bq,
            bk,
            bv,
            bo,
            b1,
            b2,
            ln1_g: vec![1.0; h],
            ln1_b: vec![0.0; h],
            ln2_g: vec![1.0; h],
            ln2_b: vec![0.0; h],
        }
    }

    /// The six linear operators, with stable operator names — the unit
    /// the paper's variance indicator sums over (`O_i` in Proposition 2).
    pub fn linear_operators(&self) -> [(&'static str, &LinearOp); 6] {
        [
            ("wq", &self.wq),
            ("wk", &self.wk),
            ("wv", &self.wv),
            ("wo", &self.wo),
            ("w1", &self.w1),
            ("w2", &self.w2),
        ]
    }

    /// This layer with every linear operator replaced by `f(index,
    /// operator)` — `index` as in [`Self::linear_operators`] — and biases
    /// and norm parameters copied: how a loader builds the served form of
    /// a layer without first copying the dense one.
    pub fn map_operators(&self, mut f: impl FnMut(usize, &LinearOp) -> LinearOp) -> Self {
        Self {
            wq: f(0, &self.wq),
            wk: f(1, &self.wk),
            wv: f(2, &self.wv),
            wo: f(3, &self.wo),
            w1: f(4, &self.w1),
            w2: f(5, &self.w2),
            bq: self.bq.clone(),
            bk: self.bk.clone(),
            bv: self.bv.clone(),
            bo: self.bo.clone(),
            b1: self.b1.clone(),
            b2: self.b2.clone(),
            ln1_g: self.ln1_g.clone(),
            ln1_b: self.ln1_b.clone(),
            ln2_g: self.ln2_g.clone(),
            ln2_b: self.ln2_b.clone(),
        }
    }

    /// Bytes the layer's projection weights keep resident — packed
    /// payloads count their true (bits-scaled) footprint, dense weights
    /// their full `f32` size. Biases and norm parameters are negligible
    /// and excluded.
    pub fn resident_weight_bytes(&self) -> usize {
        self.linear_operators().iter().map(|(_, op)| op.resident_bytes()).sum()
    }
}

/// One sequence's cached keys and values as [`forward_layer`] sees them:
/// blocks of 16 positions as attention reads them ([`KvBlocks`]: keys
/// k-major, values as rows) and a place to put the rows it computes. Its
/// layers are those of the shard it caches, counted from 0
/// ([`forward_shard`]): a ring stage's store holds its own layers only.
/// The serving engines' paged store keeps K/V that way and hands out a
/// view of a block chain, read in place; [`KvCache`] keeps rows and
/// transposes its keys into blocks on every call.
pub trait KvSeq {
    /// One layer's blocks as [`Self::blocks`] hands them out.
    type Blocks<'s>: KvBlocks
    where
        Self: 's;
    /// Positions of `layer` cached so far.
    fn cached(&self, layer: usize) -> usize;
    /// The blocks of every cached position of `layer`.
    fn blocks(&self, layer: usize) -> Self::Blocks<'_>;
    /// Store the rows of `k` / `v` (`t_new × hidden`) as the next `t_new`
    /// positions of `layer`.
    fn push_rows(&mut self, layer: usize, k: &Matrix, v: &Matrix);
}

/// Per-layer KV cache for a single sequence, contiguous and row-major:
/// row `pos` of `k[layer]` / `v[layer]` is that position's key / value.
/// The form of the offline oracle, calibration and the KV transfer path
/// (the serving engines keep keys in k-major blocks instead); attention
/// reads its values in place and its keys through a per-call transpose
/// ([`RowKv`]).
#[derive(Debug, Clone, Default)]
pub struct KvCache {
    /// Cached keys per layer, each `t × hidden`.
    pub k: Vec<Matrix>,
    /// Cached values per layer.
    pub v: Vec<Matrix>,
}

impl KvCache {
    /// Empty cache for `n_layers` layers of width `hidden`.
    pub fn new(n_layers: usize, hidden: usize) -> Self {
        Self {
            k: (0..n_layers).map(|_| Matrix::zeros(0, hidden)).collect(),
            v: (0..n_layers).map(|_| Matrix::zeros(0, hidden)).collect(),
        }
    }

    /// Number of cached positions (same for every layer).
    pub fn len(&self) -> usize {
        self.k.first().map_or(0, |m| m.rows)
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl KvSeq for KvCache {
    type Blocks<'s> = RowKv<'s>;

    fn cached(&self, layer: usize) -> usize {
        self.k[layer].rows
    }

    fn blocks(&self, layer: usize) -> RowKv<'_> {
        let (k, v) = (&self.k[layer], &self.v[layer]);
        RowKv::new(&k.data, &v.data, k.rows, k.cols)
    }

    fn push_rows(&mut self, layer: usize, k_new: &Matrix, v_new: &Matrix) {
        let k = &mut self.k[layer];
        k.data.extend_from_slice(&k_new.data);
        k.rows += k_new.rows;
        let v = &mut self.v[layer];
        v.data.extend_from_slice(&v_new.data);
        v.rows += v_new.rows;
    }
}

/// Output of a generation call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenerationOutput {
    /// The generated token ids (excluding the prompt).
    pub tokens: Vec<usize>,
}

/// The reference model: embeddings + decoder stack + tied LM head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefModel {
    /// Configuration.
    pub cfg: RefConfig,
    /// Token embedding table, `vocab × hidden` (tied LM head).
    pub embed: Matrix,
    /// Positional embedding table, `max_seq × hidden`.
    pub pos: Matrix,
    /// Decoder layers.
    pub layers: Vec<LayerWeights>,
    /// Final LayerNorm scale.
    pub ln_f_g: Vec<f32>,
    /// Final LayerNorm shift.
    pub ln_f_b: Vec<f32>,
}

impl RefModel {
    /// Build a model with seeded random weights.
    pub fn new(cfg: RefConfig) -> Self {
        assert!(
            cfg.n_heads > 0 && cfg.hidden.is_multiple_of(cfg.n_heads),
            "hidden must divide evenly by heads"
        );
        let layers = (0..cfg.n_layers)
            .map(|i| LayerWeights::random(&cfg, cfg.seed.wrapping_add(1000 + i as u64)))
            .collect();
        Self {
            embed: Matrix::random(cfg.vocab, cfg.hidden, 0.5, cfg.seed ^ 0xE),
            pos: Matrix::random(cfg.max_seq, cfg.hidden, 0.05, cfg.seed ^ 0xF),
            layers,
            ln_f_g: vec![1.0; cfg.hidden],
            ln_f_b: vec![0.0; cfg.hidden],
            cfg,
        }
    }

    /// Embed `tokens` starting at absolute position `start_pos`.
    pub fn embed_tokens(&self, tokens: &[usize], start_pos: usize) -> Matrix {
        embed_tokens(&self.cfg, &self.embed, &self.pos, tokens, start_pos)
    }

    /// Apply the final LayerNorm and tied LM head, returning logits
    /// (`t × vocab`).
    pub fn project_logits(&self, x: &Matrix) -> Matrix {
        let mut x = x.clone();
        layer_norm(&mut x, &self.ln_f_g, &self.ln_f_b);
        x.matmul_t(&self.embed)
    }

    /// Logits of the last row of `x` only (`vocab` long) — what sampling
    /// the next token needs. Rows of [`Self::project_logits`] are
    /// independent, so this equals its last row bit-for-bit at `1/t` of
    /// the LM-head work.
    pub fn last_row_logits(&self, x: &Matrix) -> Vec<f32> {
        let last = Matrix::from_vec(1, x.cols, x.row(x.rows - 1).to_vec());
        self.project_logits(&last).data
    }

    /// Prefill: run the whole prompt through all layers, returning logits
    /// for every position and the populated KV cache.
    pub fn prefill(&self, tokens: &[usize]) -> (Matrix, KvCache) {
        let mut cache = KvCache::new(self.cfg.n_layers, self.cfg.hidden);
        let x = forward_shard(&self.cfg, &self.layers, 0, self.embed_tokens(tokens, 0), &mut cache, OutRows::All);
        (self.project_logits(&x), cache)
    }

    /// Decode one token given the cache; returns logits for the next token.
    pub fn decode_step(&self, token: usize, cache: &mut KvCache) -> Vec<f32> {
        let x = self.embed_tokens(&[token], cache.len());
        self.project_logits(&forward_shard(&self.cfg, &self.layers, 0, x, cache, OutRows::All)).data
    }

    /// Greedy/temperature sampling of `n_new` tokens after `prompt`.
    /// `temperature == 0` means greedy argmax.
    pub fn generate(&self, prompt: &[usize], n_new: usize, temperature: f32, seed: u64) -> GenerationOutput {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        assert!(prompt.len() + n_new <= self.cfg.max_seq, "sequence exceeds max_seq");
        let (logits, mut cache) = self.prefill(prompt);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n_new);
        let mut next = sample_from_logits(logits.row(logits.rows - 1), temperature, &mut rng);
        for step in 0..n_new {
            out.push(next);
            if step + 1 == n_new {
                break;
            }
            let logits = self.decode_step(next, &mut cache);
            next = sample_from_logits(&logits, temperature, &mut rng);
        }
        GenerationOutput { tokens: out }
    }

    /// This model with its decoder layers replaced by `layers`:
    /// embeddings and the final norm copied.
    pub fn with_layers(&self, layers: Vec<LayerWeights>) -> RefModel {
        RefModel {
            cfg: self.cfg,
            embed: self.embed.clone(),
            pos: self.pos.clone(),
            layers,
            ln_f_g: self.ln_f_g.clone(),
            ln_f_b: self.ln_f_b.clone(),
        }
    }

    /// Teacher-forced negative log-likelihood of `tokens` (natural log,
    /// averaged per predicted token). `exp` of this is perplexity.
    pub fn nll(&self, tokens: &[usize]) -> f64 {
        assert!(tokens.len() >= 2, "need at least two tokens for NLL");
        let (logits, _) = self.prefill(&tokens[..tokens.len() - 1]);
        let mut total = 0.0f64;
        for (i, &target) in tokens.iter().enumerate().skip(1) {
            let row = logits.row(i - 1);
            total += -log_softmax_at(row, target);
        }
        total / (tokens.len() - 1) as f64
    }
}

/// A model without its decoder layers: what a pipeline master computes
/// with — tokens in, the ring's hidden states out to logits — while the
/// stage workers own the layers.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelHead {
    /// Configuration of the whole model.
    pub cfg: RefConfig,
    /// Token embedding table, `vocab × hidden` (tied LM head).
    pub embed: Matrix,
    /// Positional embedding table, `max_seq × hidden`.
    pub pos: Matrix,
    /// Final LayerNorm scale.
    pub ln_f_g: Vec<f32>,
    /// Final LayerNorm shift.
    pub ln_f_b: Vec<f32>,
    /// `embed` once more, as the GEMM kernel stages it: the logits of a
    /// decode step are a one-row product against the whole table, and
    /// from this copy staging it is a plain copy, not a transpose.
    logits_weight: DensePanels,
}

impl ModelHead {
    /// A copy of `model`'s head.
    pub fn of(model: &RefModel) -> Self {
        Self {
            cfg: model.cfg,
            logits_weight: DensePanels::new(&model.embed.data, model.embed.rows, model.embed.cols),
            embed: model.embed.clone(),
            pos: model.pos.clone(),
            ln_f_g: model.ln_f_g.clone(),
            ln_f_b: model.ln_f_b.clone(),
        }
    }

    /// [`RefModel::embed_tokens`] of the model this is the head of.
    pub fn embed_tokens(&self, tokens: &[usize], start_pos: usize) -> Matrix {
        embed_tokens(&self.cfg, &self.embed, &self.pos, tokens, start_pos)
    }

    /// [`RefModel::last_row_logits`] of the model this is the head of,
    /// bit for bit.
    pub fn last_row_logits(&self, x: &Matrix) -> Vec<f32> {
        let mut last = Matrix::from_vec(1, x.cols, x.row(x.rows - 1).to_vec());
        layer_norm(&mut last, &self.ln_f_g, &self.ln_f_b);
        self.logits_weight.gemm_t(&last.data, 1)
    }
}

fn embed_tokens(
    cfg: &RefConfig,
    embed: &Matrix,
    pos_table: &Matrix,
    tokens: &[usize],
    start_pos: usize,
) -> Matrix {
    let mut x = Matrix::zeros(tokens.len(), cfg.hidden);
    for (i, &t) in tokens.iter().enumerate() {
        assert!(t < cfg.vocab, "token {t} out of vocab");
        let pos = start_pos + i;
        assert!(pos < cfg.max_seq, "position {pos} exceeds max_seq");
        let e = embed.row(t);
        if cfg.alibi {
            x.row_mut(i).copy_from_slice(e);
        } else {
            let p = pos_table.row(pos);
            for (j, v) in x.row_mut(i).iter_mut().enumerate() {
                *v = e[j] + p[j];
            }
        }
    }
    x
}

/// Inputs observed at each linear operator during one layer forward —
/// the `X` in the paper's quantization objective ‖WX − W̃X‖² and in the
/// variance indicator's `G(X)` term. Collected by [`forward_layer`]
/// during calibration.
#[derive(Debug, Clone, Default)]
pub struct OperatorTaps {
    /// Input to wq/wk/wv (the post-LN hidden states).
    pub attn_in: Matrix,
    /// Input to wo (concatenated attention heads).
    pub wo_in: Matrix,
    /// Input to w1 (post-LN residual stream).
    pub w1_in: Matrix,
    /// Input to w2 (post-GELU activations).
    pub w2_in: Matrix,
}

impl OperatorTaps {
    /// The input of each linear operator, in
    /// [`LayerWeights::linear_operators`] order.
    pub fn inputs(&self) -> [&Matrix; 6] {
        [&self.attn_in, &self.attn_in, &self.attn_in, &self.wo_in, &self.w1_in, &self.w2_in]
    }
}

/// The ALiBi slope of attention head `h` out of `n`: `2^(−8(h+1)/n)`
/// (Press et al.), the scheme BLOOM uses.
pub fn alibi_slope(head: usize, n_heads: usize) -> f32 {
    2f32.powf(-8.0 * (head as f32 + 1.0) / n_heads as f32)
}

/// Which rows of its output a layer forward computes. The K/V of every
/// row are computed and cached whatever the choice; the choice restricts
/// only what follows them — Q, attention, `wo`, the residuals, LN2 and
/// the MLP. [`forward_shard`] applies it to the model's final layer only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutRows {
    /// Every row, `t_new × hidden`: a layer whose output feeds another
    /// layer, and every oracle.
    All,
    /// The last row alone, `1 × hidden`, bit for bit the last row of
    /// [`OutRows::All`]: the model's final layer when a step samples.
    Last,
    /// No row, `0 × hidden`: the model's final layer when nothing reads
    /// the step's logits (a prefill chunk that is not the prompt's last).
    KvOnly,
}

/// Run layers `first..first + layers.len()` of the model `cfg` describes
/// over hidden states `x` (`t_new × hidden`: a prompt chunk or one
/// token), layer `i` of the shard on layer `i` of `cache`. `rows` applies
/// to the shard's last layer when that is the model's last (`first +
/// layers.len() == cfg.n_layers`); any other shard returns every row, the
/// next shard's input.
pub fn forward_shard(
    cfg: &RefConfig,
    layers: &[LayerWeights],
    first: usize,
    mut x: Matrix,
    cache: &mut impl KvSeq,
    rows: OutRows,
) -> Matrix {
    let ends_model = first + layers.len() == cfg.n_layers;
    for (l, w) in layers.iter().enumerate() {
        let rows = if ends_model && l + 1 == layers.len() { rows } else { OutRows::All };
        x = forward_layer(cfg, w, l, &x, cache, rows, None);
    }
    x
}

/// One decoder layer of the model `cfg` describes (its heads and ALiBi
/// come from there), on layer `layer` of `cache`; `taps`, when given,
/// receives the inputs of its linear operators. Everything that decides
/// its time is a kernels-crate call: six (fused dequant-)GEMMs, attention
/// over the blocks `cache` hands out, GELU. LN1 and the K/V GEMMs run
/// over all `t_new` rows and push them to `cache`; `rows` says which rows
/// the rest runs on. Rows are independent and every reduction has a fixed
/// order — row `i` of an `m`-row GEMM is the one-row call, and attention
/// row `i` is the one-row call at position `past + i` — so row `i` of a
/// `t_new`-row call is bit-identical to the one-row call on a cache
/// holding the rows before it, and [`OutRows::Last`] is bit-identical to
/// the last row of [`OutRows::All`].
pub fn forward_layer(
    cfg: &RefConfig,
    w: &LayerWeights,
    layer: usize,
    x: &Matrix,
    cache: &mut impl KvSeq,
    rows: OutRows,
    taps: Option<&mut OperatorTaps>,
) -> Matrix {
    let h = x.cols;
    let t_new = x.rows;
    let past = cache.cached(layer);

    // --- Attention block (pre-LN): every row's K/V into the cache ---
    let mut xn = x.clone();
    layer_norm(&mut xn, &w.ln1_g, &w.ln1_b);
    let mut k = w.wk.forward_t(&xn);
    add_bias(&mut k, &w.bk);
    let mut v = w.wv.forward_t(&xn);
    add_bias(&mut v, &w.bv);
    cache.push_rows(layer, &k, &v);

    // The rows computed from here on, and the position of the first.
    let last;
    let (x, xn, pos0) = match rows {
        OutRows::KvOnly => return Matrix::zeros(0, h),
        OutRows::Last if t_new > 1 => {
            let row = |m: &Matrix| Matrix::from_vec(1, h, m.row(t_new - 1).to_vec());
            last = row(x);
            (&last, row(&xn), past + t_new - 1)
        }
        OutRows::All | OutRows::Last => (x, xn, past),
    };
    let m = x.rows;
    let mut q = w.wq.forward_t(&xn);
    add_bias(&mut q, &w.bq);
    // ALiBi penalizes distance linearly per head; slope 0 is no bias.
    let n_heads = cfg.n_heads;
    let slopes: Vec<f32> =
        (0..n_heads).map(|head| if cfg.alibi { alibi_slope(head, n_heads) } else { 0.0 }).collect();
    let mut attn_out = Matrix::zeros(m, h);
    llmpq_kernels::attention(&q.data, m, h, pos0, &slopes, &cache.blocks(layer), &mut attn_out.data);
    let mut attn_proj = w.wo.forward_t(&attn_out);
    add_bias(&mut attn_proj, &w.bo);
    let mut x1 = x.clone();
    add_assign(&mut x1, &attn_proj);

    // --- MLP block (pre-LN) ---
    let mut xn2 = x1.clone();
    layer_norm(&mut xn2, &w.ln2_g, &w.ln2_b);
    let mut hmid = w.w1.forward_t(&xn2);
    add_bias(&mut hmid, &w.b1);
    gelu(&mut hmid);
    let mut out = w.w2.forward_t(&hmid);
    add_bias(&mut out, &w.b2);
    add_assign(&mut out, &x1);

    if let Some(taps) = taps {
        *taps = OperatorTaps { attn_in: xn, wo_in: attn_out, w1_in: xn2, w2_in: hmid };
    }
    out
}

/// Log-softmax value at index `target`.
pub fn log_softmax_at(logits: &[f32], target: usize) -> f64 {
    let max = logits.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v)) as f64;
    let lse = logits.iter().map(|&v| ((v as f64) - max).exp()).sum::<f64>().ln() + max;
    logits[target] as f64 - lse
}

/// Greedy token choice over a logits row — the one expression every
/// engine and oracle shares, so "bit-identical to `generate`" rests on
/// a single definition. `total_cmp` orders all floats (`-0.0 < 0.0`,
/// positive NaN above `+inf`), so no comparison can panic; the last of
/// equal maxima wins; an empty row argmaxes to 0.
pub fn argmax(logits: &[f32]) -> usize {
    logits.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map_or(0, |(i, _)| i)
}

/// Sample a token from raw logits at `temperature` (0 → [`argmax`]).
pub fn sample_from_logits(logits: &[f32], temperature: f32, rng: &mut SmallRng) -> usize {
    if temperature <= 0.0 {
        return argmax(logits);
    }
    let max = logits.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let weights: Vec<f64> = logits.iter().map(|&v| (((v - max) / temperature) as f64).exp()).collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use llmpq_kernels::{quantize_packed, PackBits, DEFAULT_GROUP};

    #[test]
    fn nan_logits_ties_and_signed_zeros_have_a_defined_argmax() {
        // A NaN logit must not take down the caller (the serving
        // scheduler thread samples with this on every token).
        assert_eq!(argmax(&[0.5, f32::NAN, 2.0]), 1, "positive NaN sorts above every number");
        assert_eq!(argmax(&[f32::NAN; 3]), 2);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(sample_from_logits(&[1.0, f32::NAN], 0.0, &mut rng), 1);
        // Equal maxima: the last index wins.
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0, 3.0, 0.0]), 4);
        // Signed zeros are ordered, not tied: -0.0 < 0.0.
        assert_eq!(argmax(&[0.0, -0.0]), 0);
        assert_eq!(argmax(&[-0.0, 0.0]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn the_heads_logits_are_the_models_bit_for_bit() {
        // The head projects through its k-major copy of the embedding
        // table, the model through the row-major table itself.
        let model = RefModel::new(RefConfig { vocab: 83, ..RefConfig::tiny() });
        let head = ModelHead::of(&model);
        let x = Matrix::random(3, model.cfg.hidden, 1.0, 7);
        let (got, want) = (head.last_row_logits(&x), model.last_row_logits(&x));
        assert_eq!(got.len(), want.len());
        assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
        assert_eq!(model.with_layers(model.layers.clone()), model);
    }

    #[test]
    fn prefill_then_decode_matches_full_prefill() {
        // Decoding token-by-token with the cache must produce the same
        // logits as prefilling the whole sequence — the KV-cache
        // correctness invariant.
        let model = RefModel::new(RefConfig::tiny());
        let seq = [3usize, 17, 42, 8, 25];
        let (full_logits, _) = model.prefill(&seq);

        let (_, mut cache) = model.prefill(&seq[..2]);
        let mut last = Vec::new();
        for &t in &seq[2..] {
            last = model.decode_step(t, &mut cache);
        }
        let want = full_logits.row(full_logits.rows - 1);
        for (a, b) in want.iter().zip(last.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "prefill {a} vs decode {b}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// However a sequence is cut into prefill chunks and single-token
        /// steps, the last position's logits are those of the whole-prompt
        /// prefill, bit for bit — head widths that leave lane tails, ALiBi
        /// on and off, lengths that cross the attention row block.
        #[test]
        fn any_split_into_chunks_and_steps_matches_whole_prefill(
            n_heads in prop_oneof![Just(1usize), Just(2), Just(4)],
            head_dim in prop_oneof![Just(4usize), Just(12), Just(64)],
            alibi in prop_oneof![Just(false), Just(true)],
            len in 2usize..=80,
            cuts in proptest::collection::vec(1usize..24, 1..12),
            seed in 0u64..1000,
        ) {
            let hidden = n_heads * head_dim;
            let cfg = RefConfig { n_layers: 2, hidden, n_heads, ffn: 2 * hidden, vocab: 50, max_seq: 80, seed, alibi };
            let model = RefModel::new(cfg);
            let mut rng = SmallRng::seed_from_u64(seed);
            let seq: Vec<usize> = (0..len).map(|_| rng.gen_range(0..cfg.vocab)).collect();
            let (full, _) = model.prefill(&seq);

            // Odd cuts are prefill chunks of that many tokens, even cuts
            // that many single-token decode steps.
            let mut cache = KvCache::new(cfg.n_layers, hidden);
            let mut x = Matrix::zeros(0, hidden);
            let mut cuts = cuts.into_iter().cycle();
            while cache.len() < len {
                let cut = cuts.next().unwrap();
                let take = cut.min(len - cache.len());
                for chunk in seq[cache.len()..][..take].chunks(if cut % 2 == 1 { take } else { 1 }) {
                    let e = model.embed_tokens(chunk, cache.len());
                    x = forward_shard(&cfg, &model.layers, 0, e, &mut cache, OutRows::All);
                }
            }
            let last = model.last_row_logits(&x);
            for (a, b) in full.row(len - 1).iter().zip(&last) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// The serving forms of the layer against the full one: `Last`
        /// is the full forward's last row and `KvOnly` no row, bit for
        /// bit, and both leave the K/V the full forward leaves — a
        /// following decode step reads them to the same bits. Dense and
        /// packed weights (the one-row GEMM takes another body than the
        /// staged one), ALiBi on and off, chunks across the attention
        /// row block on empty and filled caches.
        #[test]
        fn last_and_kv_only_rows_are_the_full_forwards(
            m in prop::sample::select(vec![1usize, 2, 17, 64, 70]),
            past in prop::sample::select(vec![0usize, 5, 64]),
            bits in prop::sample::select(vec![None, Some(PackBits::Int3), Some(PackBits::Int4), Some(PackBits::Int8)]),
            alibi in prop_oneof![Just(false), Just(true)],
            seed in 0u64..1000,
        ) {
            let cfg = RefConfig { n_layers: 1, hidden: 64, n_heads: 4, ffn: 128, vocab: 8, max_seq: 160, seed, alibi };
            let w = LayerWeights::random(&cfg, seed).map_operators(|_, op| match bits {
                None => op.clone(),
                Some(b) => {
                    let d = op.dense();
                    LinearOp::Packed(quantize_packed(&d.data, d.rows, d.cols, b, DEFAULT_GROUP))
                }
            });
            let fwd = |x: &Matrix, cache: &mut KvCache, rows| forward_layer(&cfg, &w, 0, x, cache, rows, None);
            let mut full_cache = KvCache::new(1, cfg.hidden);
            fwd(&Matrix::random(past, cfg.hidden, 1.0, seed ^ 1), &mut full_cache, OutRows::All);
            let (mut last_cache, mut kv_cache) = (full_cache.clone(), full_cache.clone());
            let x = Matrix::random(m, cfg.hidden, 1.0, seed ^ 2);
            let full = fwd(&x, &mut full_cache, OutRows::All);
            let last = fwd(&x, &mut last_cache, OutRows::Last);
            let none = fwd(&x, &mut kv_cache, OutRows::KvOnly);
            let bits_of = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!((last.rows, last.cols, none.rows, none.cols), (1, cfg.hidden, 0, cfg.hidden));
            prop_assert_eq!(bits_of(&last.data), bits_of(full.row(m - 1)));
            let next = Matrix::random(1, cfg.hidden, 1.0, seed ^ 3);
            let want = fwd(&next, &mut full_cache, OutRows::All);
            for cache in [&mut last_cache, &mut kv_cache] {
                prop_assert_eq!(bits_of(&fwd(&next, cache, OutRows::All).data), bits_of(&want.data));
                prop_assert_eq!(bits_of(&cache.k[0].data), bits_of(&full_cache.k[0].data));
                prop_assert_eq!(bits_of(&cache.v[0].data), bits_of(&full_cache.v[0].data));
            }
        }
    }

    #[test]
    #[should_panic(expected = "hidden must divide evenly by heads")]
    fn rejects_a_head_count_that_does_not_divide_the_width() {
        RefModel::new(RefConfig { hidden: 30, ..RefConfig::tiny() });
    }

    #[test]
    #[should_panic(expected = "hidden must divide evenly by heads")]
    fn rejects_zero_heads() {
        RefModel::new(RefConfig { n_heads: 0, ..RefConfig::tiny() });
    }

    #[test]
    #[should_panic(expected = "hidden must divide evenly by heads")]
    fn rejects_more_heads_than_columns() {
        RefModel::new(RefConfig { n_heads: 64, ..RefConfig::tiny() });
    }

    #[test]
    fn generation_is_deterministic_given_seed() {
        let model = RefModel::new(RefConfig::tiny());
        let a = model.generate(&[1, 2, 3], 10, 0.8, 99);
        let b = model.generate(&[1, 2, 3], 10, 0.8, 99);
        assert_eq!(a, b);
        let c = model.generate(&[1, 2, 3], 10, 0.8, 100);
        // Overwhelmingly likely to differ somewhere.
        assert!(a != c || a.tokens.iter().all(|&t| t < model.cfg.vocab));
    }

    #[test]
    fn greedy_generation_temperature_zero() {
        let model = RefModel::new(RefConfig::tiny());
        let a = model.generate(&[5, 6], 8, 0.0, 1);
        let b = model.generate(&[5, 6], 8, 0.0, 2);
        assert_eq!(a, b, "greedy decoding ignores the sampling seed");
    }

    #[test]
    fn nll_is_finite_and_positive() {
        let model = RefModel::new(RefConfig::tiny());
        let toks = model.generate(&[1], 20, 1.0, 5).tokens;
        let mut seq = vec![1usize];
        seq.extend(toks);
        let nll = model.nll(&seq);
        assert!(nll.is_finite() && nll > 0.0);
        // PPL can't beat uniform better than vocab size allows.
        assert!(nll < (model.cfg.vocab as f64).ln() * 2.0);
    }

    #[test]
    fn model_prefers_its_own_samples() {
        // Sequences sampled from the model should have lower NLL than
        // uniform-random sequences — the property the quality experiments
        // rely on.
        let model = RefModel::new(RefConfig::tiny());
        let own = {
            let toks = model.generate(&[7], 30, 0.9, 11).tokens;
            let mut s = vec![7usize];
            s.extend(toks);
            model.nll(&s)
        };
        let mut rng = SmallRng::seed_from_u64(13);
        let rand_seq: Vec<usize> = (0..31).map(|_| rng.gen_range(0..model.cfg.vocab)).collect();
        let random = model.nll(&rand_seq);
        assert!(own < random, "own {own:.3} vs random {random:.3}");
    }

    #[test]
    fn perturbing_weights_raises_nll_on_own_corpus() {
        // The core mechanism behind every PPL-vs-bitwidth figure.
        let model = RefModel::new(RefConfig::tiny());
        let toks = model.generate(&[2], 40, 0.9, 21).tokens;
        let mut seq = vec![2usize];
        seq.extend(toks);
        let base = model.nll(&seq);

        let mut noisy = model.clone();
        let mut rng = SmallRng::seed_from_u64(3);
        for l in &mut noisy.layers {
            let (wq, w2) = (l.wq.dense_mut(), l.w2.dense_mut());
            for v in wq.data.iter_mut().chain(w2.data.iter_mut()) {
                *v += rng.gen_range(-0.15..0.15);
            }
        }
        let worse = noisy.nll(&seq);
        assert!(worse > base, "noise should hurt: {base:.4} -> {worse:.4}");
    }

    #[test]
    fn forward_layer_shapes() {
        let cfg = RefConfig::tiny();
        let model = RefModel::new(cfg);
        let mut cache = KvCache::new(cfg.n_layers, cfg.hidden);
        let x = model.embed_tokens(&[1, 2, 3], 0);
        let y = forward_layer(&cfg, &model.layers[0], 0, &x, &mut cache, OutRows::All, None);
        assert_eq!(y.rows, 3);
        assert_eq!(y.cols, cfg.hidden);
        assert_eq!(cache.k[0].rows, 3);
        assert_eq!(cache.k[1].rows, 0, "only layer 0 was run");
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn rejects_out_of_vocab_tokens() {
        let model = RefModel::new(RefConfig::tiny());
        model.prefill(&[10_000]);
    }

    #[test]
    fn alibi_model_prefill_decode_equivalence() {
        // The KV-cache invariant must hold under ALiBi too: the bias
        // depends only on absolute key distance, which the cache encodes.
        let cfg = RefConfig { alibi: true, ..RefConfig::tiny() };
        let model = RefModel::new(cfg);
        let seq = [3usize, 17, 42, 8, 25, 61];
        let (full_logits, _) = model.prefill(&seq);
        let (_, mut cache) = model.prefill(&seq[..2]);
        let mut last = Vec::new();
        for &t in &seq[2..] {
            last = model.decode_step(t, &mut cache);
        }
        for (a, b) in full_logits.row(full_logits.rows - 1).iter().zip(last.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "prefill {a} vs decode {b}");
        }
    }

    #[test]
    fn alibi_changes_attention_behaviour() {
        let base = RefModel::new(RefConfig::tiny());
        let alibi = RefModel::new(RefConfig { alibi: true, ..RefConfig::tiny() });
        // Same weights (same seed), different positional scheme ⇒
        // different logits on a multi-token prompt.
        let (a, _) = base.prefill(&[1, 2, 3, 4, 5]);
        let (b, _) = alibi.prefill(&[1, 2, 3, 4, 5]);
        assert_ne!(a.data, b.data);
    }

    #[test]
    fn alibi_slopes_decay_geometrically() {
        let s: Vec<f32> = (0..4).map(|h| alibi_slope(h, 4)).collect();
        assert!((s[0] - 0.25).abs() < 1e-6);
        for w in s.windows(2) {
            assert!((w[1] / w[0] - 0.25).abs() < 1e-6, "ratio 2^-2 per head");
        }
    }

    #[test]
    fn alibi_embedding_skips_positional_table() {
        let cfg = RefConfig { alibi: true, ..RefConfig::tiny() };
        let model = RefModel::new(cfg);
        // The same token at two positions embeds identically under ALiBi.
        let a = model.embed_tokens(&[5], 0);
        let b = model.embed_tokens(&[5], 10);
        assert_eq!(a, b);
        // …but not under learned positions.
        let base = RefModel::new(RefConfig::tiny());
        assert_ne!(base.embed_tokens(&[5], 0), base.embed_tokens(&[5], 10));
    }

    #[test]
    fn log_softmax_normalizes() {
        let logits = vec![0.5f32, -1.0, 2.0, 0.0];
        let total: f64 = (0..4).map(|i| log_softmax_at(&logits, i).exp()).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
