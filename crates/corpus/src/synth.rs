//! Synthetic corpus generators.
//!
//! The paper evaluates on NYTimes, PubMed and ClueWeb12, which are not
//! redistributable here. These generators produce corpora with the same
//! *statistical shape* — document-length distribution, Zipfian word
//! frequencies, and (for the LDA generator) a planted topic structure — so the
//! relative behaviour of the samplers (convergence curves, speedups, cache
//! behaviour) is preserved.

use crate::{Corpus, Document, Vocabulary, WordId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration shared by the synthetic generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Number of documents `D`.
    pub num_docs: usize,
    /// Vocabulary size `V`.
    pub vocab_size: usize,
    /// Mean document length `T/D` (document lengths are geometric around it).
    pub mean_doc_len: usize,
    /// Number of planted topics (LDA generator only).
    pub num_topics: usize,
    /// Dirichlet hyper-parameter for document-topic proportions.
    pub alpha: f64,
    /// Dirichlet hyper-parameter for topic-word distributions.
    pub beta: f64,
    /// Zipf exponent for the unigram generator and for the word-popularity
    /// skew of the LDA generator.
    pub zipf_exponent: f64,
    /// Seed for reproducibility.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            num_docs: 1000,
            vocab_size: 2000,
            mean_doc_len: 100,
            num_topics: 20,
            alpha: 0.5,
            beta: 0.1,
            zipf_exponent: 1.05,
            seed: 42,
        }
    }
}

/// Samples from a Gamma(shape, 1) distribution using the Marsaglia–Tsang
/// method (with the standard boost for shape < 1). Only needs a uniform RNG,
/// so we avoid an extra dependency on `rand_distr`.
fn sample_gamma<R: Rng>(rng: &mut R, shape: f64) -> f64 {
    debug_assert!(shape > 0.0);
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^{1/a}
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen::<f64>();
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Samples a point on the probability simplex from a symmetric Dirichlet.
fn sample_dirichlet<R: Rng>(rng: &mut R, dim: usize, concentration: f64) -> Vec<f64> {
    let mut g: Vec<f64> = (0..dim).map(|_| sample_gamma(rng, concentration)).collect();
    let sum: f64 = g.iter().sum();
    if sum <= 0.0 {
        // Degenerate draw (can happen for very small concentration); fall back to uniform.
        return vec![1.0 / dim as f64; dim];
    }
    for x in &mut g {
        *x /= sum;
    }
    g
}

/// Builds a cumulative distribution for O(log n) sampling by binary search.
#[derive(Debug, Clone)]
struct Cdf {
    cumulative: Vec<f64>,
}

impl Cdf {
    fn from_weights(weights: &[f64]) -> Self {
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w.max(0.0);
            cumulative.push(acc);
        }
        Self { cumulative }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("empty CDF");
        let u = rng.gen::<f64>() * total;
        match self.cumulative.binary_search_by(|x| x.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Generates corpora from the LDA generative model itself (Section 2.1):
/// draw `θ_d ~ Dir(α)`, `φ_k ~ Dir(β)` (skewed towards a Zipfian word
/// popularity), then for each token draw a topic and a word.
///
/// Because the topics are planted, integration tests can verify that the
/// samplers actually *recover* structure, not merely that likelihood goes up.
#[derive(Debug, Clone)]
pub struct LdaGenerator {
    config: SyntheticConfig,
    /// The planted topic-word distributions, one per topic.
    topic_word: Vec<Vec<f64>>,
}

impl LdaGenerator {
    /// Creates a generator with freshly drawn planted topics.
    pub fn new(config: SyntheticConfig) -> Self {
        assert!(config.num_topics > 0, "need at least one topic");
        assert!(config.vocab_size > 0, "need a non-empty vocabulary");
        let mut rng = SmallRng::seed_from_u64(config.seed);
        // Zipfian base popularity so the generated corpus has the power-law
        // column sizes that Section 5 relies on.
        let base: Vec<f64> = (0..config.vocab_size)
            .map(|i| 1.0 / ((i + 1) as f64).powf(config.zipf_exponent))
            .collect();
        let topic_word = (0..config.num_topics)
            .map(|_| {
                let dir = sample_dirichlet(&mut rng, config.vocab_size, config.beta.max(1e-3));
                let mut phi: Vec<f64> = dir.iter().zip(&base).map(|(d, b)| d * b).collect();
                let s: f64 = phi.iter().sum();
                for p in &mut phi {
                    *p /= s;
                }
                phi
            })
            .collect();
        Self { config, topic_word }
    }

    /// Generates the corpus. Deterministic for a fixed configuration.
    pub fn generate(&self) -> Corpus {
        let cfg = &self.config;
        let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(1));
        let topic_cdfs: Vec<Cdf> = self.topic_word.iter().map(|p| Cdf::from_weights(p)).collect();
        let mut docs = Vec::with_capacity(cfg.num_docs);
        for _ in 0..cfg.num_docs {
            let theta = sample_dirichlet(&mut rng, cfg.num_topics, cfg.alpha.max(1e-3));
            let theta_cdf = Cdf::from_weights(&theta);
            let len = sample_doc_len(&mut rng, cfg.mean_doc_len);
            let mut tokens = Vec::with_capacity(len);
            for _ in 0..len {
                let k = theta_cdf.sample(&mut rng);
                let w = topic_cdfs[k].sample(&mut rng) as WordId;
                tokens.push(w);
            }
            docs.push(Document::from_tokens(tokens));
        }
        let vocab = Vocabulary::synthetic(cfg.vocab_size);
        Corpus::from_parts(docs, vocab).expect("generated tokens are always in range")
    }
}

/// The Zipfian word-frequency profile of a corpus with no topic structure.
/// Used by the partitioning experiment, which only depends on the
/// word-frequency power law.
#[derive(Debug, Clone)]
pub struct ZipfGenerator {
    config: SyntheticConfig,
}

impl ZipfGenerator {
    /// Creates a Zipfian unigram generator.
    pub fn new(config: SyntheticConfig) -> Self {
        assert!(config.vocab_size > 0, "need a non-empty vocabulary");
        Self { config }
    }

    /// Just the term-frequency profile (column sizes), without materializing
    /// documents — used by the Figure 4 partitioning experiment, which needs
    /// ClueWeb-scale vocabularies that would be too big to materialize.
    pub fn term_frequency_profile(&self, total_tokens: u64) -> Vec<u64> {
        let cfg = &self.config;
        let weights: Vec<f64> =
            (0..cfg.vocab_size).map(|i| 1.0 / ((i + 1) as f64).powf(cfg.zipf_exponent)).collect();
        let sum: f64 = weights.iter().sum();
        let mut tf: Vec<u64> =
            weights.iter().map(|w| ((w / sum) * total_tokens as f64).round() as u64).collect();
        // Keep the total exact by dumping the rounding residue on the most frequent word.
        let assigned: u64 = tf.iter().sum();
        if assigned < total_tokens {
            tf[0] += total_tokens - assigned;
        } else if assigned > total_tokens {
            tf[0] = tf[0].saturating_sub(assigned - total_tokens);
        }
        tf
    }
}

/// Document lengths: geometric-ish around the mean, at least 2 tokens, using a
/// simple two-sided jitter so the distribution has realistic spread without
/// extreme outliers.
fn sample_doc_len<R: Rng>(rng: &mut R, mean: usize) -> usize {
    let mean = mean.max(2) as f64;
    let u: f64 = rng.gen_range(0.25f64..1.75f64);
    (mean * u).round().max(2.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_sampler_has_roughly_correct_mean() {
        let mut rng = SmallRng::seed_from_u64(7);
        for &shape in &[0.5, 1.0, 2.5, 10.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| sample_gamma(&mut rng, shape)).sum::<f64>() / n as f64;
            assert!((mean - shape).abs() < 0.15 * shape.max(1.0), "gamma({shape}) mean was {mean}");
        }
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = SmallRng::seed_from_u64(3);
        for &c in &[0.01, 0.5, 5.0] {
            let d = sample_dirichlet(&mut rng, 50, c);
            let s: f64 = d.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(d.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn lda_generator_is_deterministic() {
        let cfg = SyntheticConfig {
            num_docs: 50,
            vocab_size: 200,
            mean_doc_len: 30,
            ..Default::default()
        };
        let a = LdaGenerator::new(cfg).generate();
        let b = LdaGenerator::new(cfg).generate();
        assert_eq!(a.num_tokens(), b.num_tokens());
        assert_eq!(a.term_frequencies(), b.term_frequencies());
    }

    #[test]
    fn lda_generator_respects_config_shape() {
        let cfg = SyntheticConfig {
            num_docs: 80,
            vocab_size: 300,
            mean_doc_len: 40,
            ..Default::default()
        };
        let c = LdaGenerator::new(cfg).generate();
        assert_eq!(c.num_docs(), 80);
        assert_eq!(c.vocab_size(), 300);
        let mean = c.num_tokens() as f64 / c.num_docs() as f64;
        assert!((mean - 40.0).abs() < 12.0, "mean doc len {mean}");
    }

    #[test]
    fn planted_topics_are_distributions() {
        let gen = LdaGenerator::new(SyntheticConfig {
            vocab_size: 100,
            num_topics: 5,
            ..Default::default()
        });
        for phi in &gen.topic_word {
            let s: f64 = phi.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_generator_produces_power_law() {
        let cfg = SyntheticConfig { vocab_size: 1000, zipf_exponent: 1.1, ..Default::default() };
        let tf = ZipfGenerator::new(cfg).term_frequency_profile(30_000);
        // The most frequent words dominate: the top 1 % of words carry a
        // disproportionate share of the tokens.
        let top: u64 = tf.iter().take(10).sum();
        assert!(top as f64 > 0.2 * 30_000.0, "top-10 share too small: {top}");
    }

    #[test]
    fn term_frequency_profile_sums_to_total() {
        let cfg = SyntheticConfig { vocab_size: 5000, zipf_exponent: 1.0, ..Default::default() };
        let gen = ZipfGenerator::new(cfg);
        let tf = gen.term_frequency_profile(1_000_000);
        assert_eq!(tf.iter().sum::<u64>(), 1_000_000);
        assert!(tf[0] >= tf[100]);
    }

    #[test]
    fn doc_len_sampler_stays_positive() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(sample_doc_len(&mut rng, 1) >= 2);
            let l = sample_doc_len(&mut rng, 100);
            assert!((25..=200).contains(&l), "doc len {l} out of expected range");
        }
    }
}
