//! F+LDA (Yu, Hsieh, Yun, Vishwanathan & Dhillon, WWW 2015).
//!
//! The conditional of Eq. 1 is split into a sparse document part
//! `C_dk(C_wk+β)/(C_k+β̄)`, enumerated over the non-zeros of `c_d`, and a
//! dense smoothing part `α(C_wk+β)/(C_k+β̄)`. The tokens are visited **word
//! by word** and the smoothing part is kept in an F+ tree so it can be
//! sampled *exactly* in O(log K) and updated in O(log K) whenever a count
//! changes — no staleness, no MH correction.
//!
//! Because it visits word-by-word, the random accesses go to the
//! document-topic matrix `C_d` (the `O(DK)` matrix of Table 2); the optional
//! [`warplda_cachesim::MemoryProbe`] instrumentation models exactly those
//! accesses for the Table 4 experiment.

use rand::rngs::SmallRng;
use rand::Rng;

use warplda_cachesim::{MemoryProbe, NoProbe, RegionId};
use warplda_corpus::{Corpus, WordMajorView};
use warplda_sampling::{new_rng, FTree};

use crate::counts::TopicCounts;
use crate::params::ModelParams;
use crate::sampler::Sampler;
use crate::state::SamplerState;

/// The F+LDA sampler, generic over an optional memory probe.
pub struct FPlusLda<P: MemoryProbe = NoProbe> {
    params: ModelParams,
    /// The token order the sampler visits.
    word_view: WordMajorView,
    state: SamplerState,
    rng: SmallRng,
    iterations: u64,
    beta_bar: f64,
    probe: P,
    region_cd: RegionId,
    region_cw: RegionId,
    region_ck: RegionId,
}

impl FPlusLda<NoProbe> {
    /// Creates an uninstrumented sampler with random initial assignments.
    pub fn new(corpus: &Corpus, params: ModelParams, seed: u64) -> Self {
        Self::with_probe(corpus, params, seed, NoProbe)
    }
}

impl<P: MemoryProbe> FPlusLda<P> {
    /// Creates a sampler whose count-structure accesses are reported to
    /// `probe`. The probed address space models the canonical layouts of the
    /// original implementation: a dense `D×K` document-topic matrix, a dense
    /// `V×K` word-topic matrix and a length-`K` global vector.
    pub fn with_probe(corpus: &Corpus, params: ModelParams, seed: u64, mut probe: P) -> Self {
        let word_view = WordMajorView::from_corpus(corpus);
        let mut rng = new_rng(seed);
        let state = SamplerState::init_random(corpus, params, &mut rng);
        let beta_bar = params.beta_bar(corpus.vocab_size());
        let k = params.num_topics;
        let region_cd = probe.register_region("Cd matrix", corpus.num_docs() * k, 4);
        let region_cw = probe.register_region("Cw matrix", corpus.vocab_size() * k, 4);
        let region_ck = probe.register_region("ck vector", k, 4);
        Self {
            params,
            word_view,
            state,
            rng,
            iterations: 0,
            beta_bar,
            probe,
            region_cd,
            region_cw,
            region_ck,
        }
    }

    /// The current state (counts + assignments).
    #[cfg(test)]
    fn state(&self) -> &SamplerState {
        &self.state
    }

    /// The memory probe (e.g. to read cache statistics after a run).
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Builds the F+ tree of the smoothing term for word `w` from fresh counts.
    fn build_tree(&mut self, w: u32) -> FTree {
        let k = self.params.num_topics;
        let alpha = self.params.alpha;
        let beta = self.params.beta;
        let mut weights = vec![0.0f64; k];
        for (t, weight) in weights.iter_mut().enumerate() {
            let cwk = self.state.word_topic(w, t as u32) as f64;
            let ck = self.state.topic(t as u32) as f64;
            *weight = alpha * (cwk + beta) / (ck + self.beta_bar);
        }
        FTree::new(&weights)
    }

    /// Refreshes the tree entries of the two topics whose counts changed.
    fn refresh_tree(&mut self, tree: &mut FTree, w: u32, topics: [u32; 2]) {
        let alpha = self.params.alpha;
        let beta = self.params.beta;
        for &t in &topics {
            let cwk = self.state.word_topic(w, t) as f64;
            let ck = self.state.topic(t) as f64;
            tree.set(t as usize, alpha * (cwk + beta) / (ck + self.beta_bar));
        }
    }
}

impl<P: MemoryProbe> Sampler for FPlusLda<P> {
    fn params(&self) -> &ModelParams {
        &self.params
    }

    fn run_iteration(&mut self) {
        let k = self.params.num_topics;
        let beta = self.params.beta;
        let beta_bar = self.beta_bar;

        for w in 0..self.word_view.num_words() {
            let w = w as u32;
            if self.word_view.word_len(w) == 0 {
                continue;
            }
            let mut tree = self.build_tree(w);
            // Sequential pass over this word's column when building the tree.
            for t in 0..k {
                self.probe.read(self.region_cw, w as usize * k + t);
                self.probe.read(self.region_ck, t);
            }

            let token_indices: Vec<u32> = self.word_view.word_token_indices(w).to_vec();
            let docs: Vec<u32> = self.word_view.word_docs(w).to_vec();
            for (slot, &i) in token_indices.iter().enumerate() {
                let i = i as usize;
                let d = docs[slot];
                let old = self.state.remove_token(d, w, i);
                self.refresh_tree(&mut tree, w, [old, old]);
                self.probe.write(self.region_cd, d as usize * k + old as usize);
                self.probe.write(self.region_cw, w as usize * k + old as usize);
                self.probe.write(self.region_ck, old as usize);

                // Sparse document part with fresh counts: random accesses to the
                // rows of the D×K matrix (the expensive part for F+LDA).
                let mut doc_weights: Vec<(u32, f64)> = Vec::new();
                let mut doc_total = 0.0;
                let pairs = self.state.doc_counts(d).to_pairs();
                for &(t, cdk) in &pairs {
                    self.probe.read(self.region_cd, d as usize * k + t as usize);
                    self.probe.read(self.region_cw, w as usize * k + t as usize);
                    self.probe.read(self.region_ck, t as usize);
                    let cwk = self.state.word_topic(w, t) as f64;
                    let ck = self.state.topic(t) as f64;
                    let wgt = cdk as f64 * (cwk + beta) / (ck + beta_bar);
                    doc_total += wgt;
                    doc_weights.push((t, wgt));
                }

                // Exact draw from doc part + smoothing tree.
                let u = self.rng.gen::<f64>() * (doc_total + tree.total());
                let new = if u < doc_total && !doc_weights.is_empty() {
                    let mut acc = 0.0;
                    let mut chosen = doc_weights[doc_weights.len() - 1].0;
                    for &(t, wgt) in &doc_weights {
                        acc += wgt;
                        if u < acc {
                            chosen = t;
                            break;
                        }
                    }
                    chosen
                } else {
                    tree.sample(&mut self.rng) as u32
                };

                self.state.assign_token(d, w, i, new);
                self.refresh_tree(&mut tree, w, [new, old]);
                self.probe.write(self.region_cd, d as usize * k + new as usize);
                self.probe.write(self.region_cw, w as usize * k + new as usize);
                self.probe.write(self.region_ck, new as usize);
            }
        }
        self.iterations += 1;
    }

    fn iterations(&self) -> u64 {
        self.iterations
    }

    fn assignments(&self) -> Vec<u32> {
        self.state.assignments().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgs::CollapsedGibbs;
    use crate::eval::log_joint_likelihood_of_state;
    use warplda_cachesim::CountingProbe;
    use warplda_corpus::CorpusBuilder;

    fn themed_corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        for _ in 0..25 {
            b.push_text_doc(["car", "engine", "wheel", "road", "car"]);
            b.push_text_doc(["piano", "violin", "chord", "melody", "piano"]);
        }
        b.build().unwrap()
    }

    #[test]
    fn counts_stay_consistent() {
        let corpus = themed_corpus();
        let mut s = FPlusLda::new(&corpus, ModelParams::new(5, 0.3, 0.05), 3);
        for _ in 0..3 {
            s.run_iteration();
            s.state().assert_consistent(&corpus);
        }
    }

    #[test]
    fn converges_close_to_cgs() {
        let corpus = themed_corpus();
        let params = ModelParams::new(2, 0.5, 0.1);
        let mut fplus = FPlusLda::new(&corpus, params, 5);
        let mut cgs = CollapsedGibbs::new(&corpus, params, 5);
        let ll0 = log_joint_likelihood_of_state(fplus.state());
        for _ in 0..30 {
            fplus.run_iteration();
            cgs.run_iteration();
        }
        let ll_f = log_joint_likelihood_of_state(fplus.state());
        let ll_cgs = log_joint_likelihood_of_state(cgs.state());
        assert!(ll_f > ll0, "likelihood should improve: {ll0} -> {ll_f}");
        assert!(
            (ll_f - ll_cgs).abs() < 0.05 * ll_cgs.abs(),
            "F+LDA {ll_f} should approach CGS {ll_cgs} (exact sampler)"
        );
    }

    #[test]
    fn separates_planted_topics() {
        let corpus = themed_corpus();
        let mut s = FPlusLda::new(&corpus, ModelParams::new(2, 0.5, 0.1), 37);
        for _ in 0..40 {
            s.run_iteration();
        }
        let car = corpus.vocab().get("car").unwrap();
        let piano = corpus.vocab().get("piano").unwrap();
        let car_topic = (0..2u32).max_by_key(|&t| s.state().word_topic(car, t)).unwrap();
        let piano_topic = (0..2u32).max_by_key(|&t| s.state().word_topic(piano, t)).unwrap();
        assert_ne!(car_topic, piano_topic);
    }

    #[test]
    fn probe_sees_doc_matrix_random_accesses() {
        let corpus = themed_corpus();
        let mut s =
            FPlusLda::with_probe(&corpus, ModelParams::new(4, 0.5, 0.1), 41, CountingProbe::new());
        s.run_iteration();
        let report = s.probe().report();
        let cd = report.iter().find(|(name, _, _)| name == "Cd matrix").unwrap();
        assert!(cd.1 + cd.2 > 0, "Cd matrix must be touched");
        let (reads, writes) = s.probe().totals();
        assert!(reads > 0 && writes > 0);
    }
}
