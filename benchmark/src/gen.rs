//! Seeded load generator: every request and every arrival time is a pure
//! function of `(seed, workload, index)`, so the same seed reproduces
//! the same request bytes on any commit, and a request can be generated
//! without knowing how many a time-bound run will send.
//!
//! Lengths and inter-arrival gaps are *stratified*: within each block of
//! [`BLOCK`] consecutive requests the draws are a seeded permutation of
//! `BLOCK` evenly spaced quantiles of the target distribution. Every
//! seed therefore offers the same work per block and only its order
//! changes, which keeps run-to-run spread down without making the
//! inputs identical — and makes a block the natural *lap* to time (see
//! `stats::quiet_laps`): short enough to fit between the host's noisy spells,
//! yet the same work every time.

/// Requests per stratification block.
pub const BLOCK: usize = 10;

/// SplitMix64: tiny, seedable, and independent of the vendored `rand`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for one `(seed, stream, index)` triple; distinct triples
    /// give unrelated sequences.
    pub fn keyed(seed: u64, stream: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.0 = r.next_u64() ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `index`-th element of a seeded permutation stream over `0..BLOCK`,
/// re-shuffled for every block.
fn stratum(seed: u64, stream: u64, index: usize) -> usize {
    let mut rng = Rng::keyed(seed, stream, (index / BLOCK) as u64);
    let mut perm: [usize; BLOCK] = std::array::from_fn(|i| i);
    for i in (1..BLOCK).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    perm[index % BLOCK]
}

/// Stratified uniform integer in `lo..=hi` for request `index`.
pub fn strat_uniform(seed: u64, stream: u64, index: usize, lo: usize, hi: usize) -> usize {
    let q = (stratum(seed, stream, index) as f64 + 0.5) / BLOCK as f64;
    lo + ((hi - lo + 1) as f64 * q) as usize
}

/// One completion request, before it is rendered to bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqSpec {
    /// Prompt token ids.
    pub prompt: Vec<usize>,
    /// Tokens to generate.
    pub max_tokens: usize,
    /// Ask for a chunked per-token stream.
    pub stream: bool,
}

/// The request mix of a serving workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Prompt length range of an ordinary request.
    pub prompt: (usize, usize),
    /// Prompt length range of a long request.
    pub long_prompt: (usize, usize),
    /// Long requests per [`BLOCK`] (0 = none).
    pub long_per_block: usize,
    /// Generated-token range.
    pub max_tokens: (usize, usize),
    /// Stream tokens as they land.
    pub stream: bool,
    /// Vocabulary the prompt tokens are drawn from.
    pub vocab: usize,
}

impl Mix {
    /// Request `index` of the list `seed` defines.
    pub fn request(&self, seed: u64, index: usize) -> ReqSpec {
        let long = stratum(seed, 1, index) < self.long_per_block;
        let (lo, hi) = if long { self.long_prompt } else { self.prompt };
        let plen = strat_uniform(seed, 2, index, lo, hi);
        let max_tokens = strat_uniform(seed, 3, index, self.max_tokens.0, self.max_tokens.1);
        let mut rng = Rng::keyed(seed, 4, index as u64);
        let prompt = (0..plen).map(|_| rng.below(self.vocab)).collect();
        ReqSpec {
            prompt,
            max_tokens,
            stream: self.stream,
        }
    }
}

impl ReqSpec {
    /// The JSON body `/v1/completions` takes.
    pub fn body(&self) -> String {
        let mut s = String::with_capacity(32 + 4 * self.prompt.len());
        s.push_str("{\"prompt\":[");
        for (i, t) in self.prompt.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&t.to_string());
        }
        s.push_str(&format!(
            "],\"max_tokens\":{},\"stream\":{}}}",
            self.max_tokens, self.stream
        ));
        s
    }

    /// The whole HTTP/1.1 request as it goes on the socket.
    pub fn http_bytes(&self) -> Vec<u8> {
        let body = self.body();
        format!(
            "POST /v1/completions HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .into_bytes()
    }
}

/// Due times (seconds from the start of the run) of an open-loop
/// schedule at `rate` requests per second: exponential gaps, stratified
/// per block and scaled so each block spans exactly `BLOCK / rate`
/// seconds. Request `i` is due at `schedule[i]`.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    // Mean of the BLOCK exponential quantile midpoints (slightly under 1
    // because the far tail is cut), used to renormalise the gaps.
    let quantile = |j: usize| -(1.0 - (j as f64 + 0.5) / BLOCK as f64).ln();
    let mean: f64 = (0..BLOCK).map(quantile).sum::<f64>() / BLOCK as f64;
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            t += quantile(stratum(seed, 5, i)) / (mean * rate);
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHAT: Mix = Mix {
        prompt: (8, 24),
        long_prompt: (128, 256),
        long_per_block: 1,
        max_tokens: (48, 80),
        stream: true,
        vocab: 512,
    };

    fn bytes(seed: u64, n: usize) -> Vec<u8> {
        (0..n)
            .flat_map(|i| CHAT.request(seed, i).http_bytes())
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(bytes(7, 64), bytes(7, 64));
        assert_ne!(bytes(7, 64), bytes(8, 64));
        assert_eq!(poisson_schedule(7, 6.0, 100), poisson_schedule(7, 6.0, 100));
        assert_ne!(poisson_schedule(7, 6.0, 100), poisson_schedule(8, 6.0, 100));
    }

    #[test]
    fn lengths_stay_in_range_and_blocks_offer_equal_work() {
        let work = |seed: u64, block: usize| -> usize {
            (block * BLOCK..(block + 1) * BLOCK)
                .map(|i| {
                    let r = CHAT.request(seed, i);
                    let long = r.prompt.len() >= 128;
                    assert!(
                        long || (8..=24).contains(&r.prompt.len()),
                        "{}",
                        r.prompt.len()
                    );
                    assert!(!long || r.prompt.len() <= 256);
                    assert!((48..=80).contains(&r.max_tokens));
                    assert!(r.prompt.iter().all(|&t| t < 512));
                    r.max_tokens
                })
                .sum()
        };
        assert_eq!(work(1, 0), work(2, 3));
        let longs = (0..BLOCK)
            .filter(|&i| CHAT.request(5, i).prompt.len() >= 128)
            .count();
        assert_eq!(longs, 1);
    }

    #[test]
    fn realised_rate_is_within_five_percent_of_nominal() {
        for (seed, n) in [(1u64, 60usize), (2, 160), (3, 75)] {
            let s = poisson_schedule(seed, 6.0, n);
            assert!(s.windows(2).all(|w| w[1] > w[0]));
            let rate = n as f64 / s[n - 1];
            assert!((rate / 6.0 - 1.0).abs() < 0.05, "seed {seed}: {rate}");
        }
    }

    #[test]
    fn body_is_the_json_the_server_parses() {
        let r = ReqSpec {
            prompt: vec![3, 14, 15],
            max_tokens: 9,
            stream: false,
        };
        assert_eq!(
            r.body(),
            "{\"prompt\":[3,14,15],\"max_tokens\":9,\"stream\":false}"
        );
        let http = String::from_utf8(r.http_bytes()).unwrap();
        assert!(http.starts_with("POST /v1/completions HTTP/1.1\r\n"));
        assert!(http.contains(&format!("Content-Length: {}\r\n\r\n", r.body().len())));
    }
}
