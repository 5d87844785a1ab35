//! LightLDA (Yuan et al., WWW 2015) and its ablation ladder towards WarpLDA.
//!
//! LightLDA samples each token with O(1) Metropolis–Hastings steps that
//! alternate between two cheap proposals (Section 3.2):
//!
//! * the **doc proposal** `q_doc(k) ∝ C_dk + α`, drawn by random positioning
//!   over the document's tokens;
//! * the **word proposal** `q_word(k) ∝ (C_wk + β)/(C_k + β̄)`, drawn from a
//!   stale per-word alias table.
//!
//! Counts are updated instantly (like CGS). The [`LightLdaVariant`] knobs
//! reproduce the ladder of Figure 7 of the WarpLDA paper, which moves
//! LightLDA step by step towards WarpLDA:
//!
//! | Variant | meaning |
//! |---------|---------|
//! | `standard()` | plain LightLDA |
//! | `delayed_word()` | `+DW`: word-topic counts only refreshed at iteration end |
//! | `delayed_word_doc()` | `+DW+DD`: document-topic counts delayed as well |
//! | `warp_like()` | `+DW+DD+SP`: additionally uses WarpLDA's simple proposal `q_word ∝ C_wk + β` |

use rand::rngs::SmallRng;
use rand::Rng;

use warplda_cachesim::{MemoryProbe, NoProbe, RegionId};
use warplda_corpus::{Corpus, DocMajorView};
use warplda_sampling::{new_rng, AliasTable, Dice};

use crate::counts::{HashCounts, TopicCounts};
use crate::params::ModelParams;
use crate::sampler::Sampler;
use crate::state::SamplerState;

/// Which of the Figure 7 ablation knobs are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LightLdaVariant {
    /// `+DW`: the word-topic counts used for sampling are a snapshot taken at
    /// the start of the iteration.
    pub delayed_word_counts: bool,
    /// `+DD`: the document-topic counts used for sampling are a snapshot taken
    /// at the start of the iteration.
    pub delayed_doc_counts: bool,
    /// `+SP`: use WarpLDA's simple word proposal `q_word(k) ∝ C_wk + β`
    /// instead of `(C_wk + β)/(C_k + β̄)`.
    pub simple_word_proposal: bool,
}

impl LightLdaVariant {
    /// Plain LightLDA.
    pub fn standard() -> Self {
        Self::default()
    }

    /// `LightLDA+DW` of Figure 7.
    pub fn delayed_word() -> Self {
        Self { delayed_word_counts: true, ..Self::default() }
    }

    /// `LightLDA+DW+DD` of Figure 7.
    pub fn delayed_word_doc() -> Self {
        Self { delayed_word_counts: true, delayed_doc_counts: true, ..Self::default() }
    }

    /// `LightLDA+DW+DD+SP` of Figure 7 — the closest LightLDA gets to WarpLDA
    /// while still being LightLDA.
    pub fn warp_like() -> Self {
        Self { delayed_word_counts: true, delayed_doc_counts: true, simple_word_proposal: true }
    }

    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match (self.delayed_word_counts, self.delayed_doc_counts, self.simple_word_proposal) {
            (false, false, false) => "LightLDA",
            (true, false, false) => "LightLDA+DW",
            (true, true, false) => "LightLDA+DW+DD",
            (true, true, true) => "LightLDA+DW+DD+SP",
            _ => "LightLDA (custom)",
        }
    }
}

/// Per-word stale alias table for the word proposal.
struct WordProposalTable {
    table: AliasTable,
    /// Stale sparse counts used to evaluate the proposal density.
    stale_pairs: Vec<(u32, u32)>,
    draws: u32,
}

/// The LightLDA sampler, generic over an optional memory probe.
pub struct LightLda<P: MemoryProbe = NoProbe> {
    params: ModelParams,
    /// The token order the sampler visits.
    doc_view: DocMajorView,
    /// `L_w` of every word: a proposal table is rebuilt after `max(L_w, 8)`
    /// draws.
    term_frequencies: Vec<u64>,
    state: SamplerState,
    rng: SmallRng,
    iterations: u64,
    beta_bar: f64,
    mh_steps: u32,
    variant: LightLdaVariant,
    stale_doc: Option<Vec<HashCounts>>,
    stale_word: Option<Vec<HashCounts>>,
    word_tables: Vec<Option<WordProposalTable>>,
    probe: P,
    region_cd: RegionId,
    region_cw: RegionId,
    region_ck: RegionId,
}

impl LightLda<NoProbe> {
    /// Creates a plain LightLDA sampler with `mh_steps` MH steps per token.
    pub fn new(corpus: &Corpus, params: ModelParams, mh_steps: u32, seed: u64) -> Self {
        Self::with_variant_and_probe(
            corpus,
            params,
            mh_steps,
            seed,
            LightLdaVariant::standard(),
            NoProbe,
        )
    }

    /// Creates a sampler with one of the Figure 7 ablation variants.
    pub fn with_variant(
        corpus: &Corpus,
        params: ModelParams,
        mh_steps: u32,
        seed: u64,
        variant: LightLdaVariant,
    ) -> Self {
        Self::with_variant_and_probe(corpus, params, mh_steps, seed, variant, NoProbe)
    }
}

impl<P: MemoryProbe> LightLda<P> {
    /// Fully general constructor: variant + memory probe.
    pub fn with_variant_and_probe(
        corpus: &Corpus,
        params: ModelParams,
        mh_steps: u32,
        seed: u64,
        variant: LightLdaVariant,
        mut probe: P,
    ) -> Self {
        assert!(mh_steps >= 1, "need at least one MH step per token");
        let doc_view = DocMajorView::build(corpus);
        let mut rng = new_rng(seed);
        let state = SamplerState::init_random(corpus, params, &mut rng);
        let beta_bar = params.beta_bar(corpus.vocab_size());
        let k = params.num_topics;
        let region_cd = probe.register_region("Cd matrix", corpus.num_docs() * k, 4);
        let region_cw = probe.register_region("Cw matrix", corpus.vocab_size() * k, 4);
        let region_ck = probe.register_region("ck vector", k, 4);
        let word_tables = (0..corpus.vocab_size()).map(|_| None).collect();
        Self {
            params,
            doc_view,
            term_frequencies: corpus.term_frequencies(),
            state,
            rng,
            iterations: 0,
            beta_bar,
            mh_steps,
            variant,
            stale_doc: None,
            stale_word: None,
            word_tables,
            probe,
            region_cd,
            region_cw,
            region_ck,
        }
    }

    /// The current (instantly updated) state.
    #[cfg(test)]
    fn state(&self) -> &SamplerState {
        &self.state
    }

    /// The memory probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Document-topic count as seen by the *sampler* (stale when `+DD`).
    #[inline]
    fn s_doc_topic(&self, d: u32, t: u32) -> u32 {
        match &self.stale_doc {
            Some(snapshot) => snapshot[d as usize].get(t),
            None => self.state.doc_topic(d, t),
        }
    }

    /// Word-topic count as seen by the sampler (stale when `+DW`).
    #[inline]
    fn s_word_topic(&self, w: u32, t: u32) -> u32 {
        match &self.stale_word {
            Some(snapshot) => snapshot[w as usize].get(t),
            None => self.state.word_topic(w, t),
        }
    }

    /// Unnormalized target density of topic `t` for token `(d, w)`, using the
    /// sampler-visible counts.
    #[inline]
    fn target_weight(&self, d: u32, w: u32, t: u32) -> f64 {
        let cdk = self.s_doc_topic(d, t) as f64;
        let cwk = self.s_word_topic(w, t) as f64;
        let ck = self.state.topic(t) as f64;
        (cdk + self.params.alpha) * (cwk + self.params.beta) / (ck + self.beta_bar)
    }

    /// Doc-proposal density of topic `t` (unnormalized): `C_dk + α`.
    #[inline]
    fn doc_proposal_weight(&self, d: u32, t: u32) -> f64 {
        self.s_doc_topic(d, t) as f64 + self.params.alpha
    }

    /// Word-proposal density of topic `t` (unnormalized), evaluated with the
    /// stale counts the alias table was built from.
    fn word_proposal_weight(&self, w: u32, t: u32) -> f64 {
        let table = self.word_tables[w as usize].as_ref().expect("built before its first draw");
        let stale = table.stale_pairs.iter().find(|&&(k, _)| k == t).map_or(0, |&(_, c)| c) as f64;
        if self.variant.simple_word_proposal {
            stale + self.params.beta
        } else {
            (stale + self.params.beta) / (self.state.topic(t) as f64 + self.beta_bar)
        }
    }

    /// (Re)builds the stale word-proposal alias table for word `w`.
    fn rebuild_word_table(&mut self, w: u32) {
        let k = self.params.num_topics;
        let beta = self.params.beta;
        let mut weights = vec![0.0f64; k];
        for (t, weight) in weights.iter_mut().enumerate() {
            let cwk = self.s_word_topic(w, t as u32) as f64;
            *weight = if self.variant.simple_word_proposal {
                cwk + beta
            } else {
                (cwk + beta) / (self.state.topic(t as u32) as f64 + self.beta_bar)
            };
        }
        let stale_pairs: Vec<(u32, u32)> = match &self.stale_word {
            Some(snapshot) => snapshot[w as usize].to_pairs(),
            None => self.state.word_counts(w).to_pairs(),
        };
        self.word_tables[w as usize] =
            Some(WordProposalTable { table: AliasTable::new(&weights), stale_pairs, draws: 0 });
    }

    /// Draws from the doc proposal `q_doc(k) ∝ C_dk + α` by random positioning
    /// over the document's tokens plus the uniform smoothing component.
    fn draw_doc_proposal(&mut self, d: u32) -> u32 {
        let len = self.doc_view.doc_len(d);
        let alpha_bar = self.params.alpha_bar();
        let k = self.params.num_topics;
        if len > 0 && self.rng.gen::<f64>() < len as f64 / (len as f64 + alpha_bar) {
            let pos = self.rng.dice(len);
            let range = self.doc_view.doc_range(d);
            self.state.topic_of(range.start + pos)
        } else {
            self.rng.dice(k) as u32
        }
    }

    /// Takes the delayed-count snapshots at the start of an iteration.
    fn refresh_snapshots(&mut self) {
        if self.variant.delayed_doc_counts {
            self.stale_doc = Some(
                (0..self.doc_view.num_docs())
                    .map(|d| self.state.doc_counts(d as u32).clone())
                    .collect(),
            );
        }
        if self.variant.delayed_word_counts {
            self.stale_word = Some(
                (0..self.state.num_words())
                    .map(|w| self.state.word_counts(w as u32).clone())
                    .collect(),
            );
        }
    }
}

impl<P: MemoryProbe> Sampler for LightLda<P> {
    fn params(&self) -> &ModelParams {
        &self.params
    }

    fn run_iteration(&mut self) {
        self.refresh_snapshots();
        let k = self.params.num_topics;

        for d in 0..self.doc_view.num_docs() {
            let d = d as u32;
            for i in self.doc_view.doc_range(d) {
                let w = self.doc_view.word_of(i);
                // Instant (ground-truth) counts always track the assignments; the
                // delayed variants simply *sample* from the stale snapshots.
                let old = self.state.remove_token(d, w, i);
                self.probe.write(self.region_cd, d as usize * k + old as usize);
                self.probe.write(self.region_cw, w as usize * k + old as usize);
                self.probe.write(self.region_ck, old as usize);

                let mut z = old;
                for step in 0..self.mh_steps {
                    // The doc/word proposal alternation is one global cycle that
                    // continues across iterations; with an odd M (notably the
                    // Figure 7 ladder's M = 1) consecutive iterations would
                    // otherwise keep drawing the same proposal kind forever and
                    // never mix over the other dimension.
                    let use_doc_proposal =
                        (self.iterations * self.mh_steps as u64 + step as u64).is_multiple_of(2);
                    let candidate = if use_doc_proposal {
                        self.draw_doc_proposal(d)
                    } else {
                        let needs_rebuild = match &self.word_tables[w as usize] {
                            None => true,
                            Some(t) => t.draws as u64 >= self.term_frequencies[w as usize].max(8),
                        };
                        if needs_rebuild {
                            self.rebuild_word_table(w);
                        }
                        let table = self.word_tables[w as usize].as_mut().expect("just built");
                        table.draws += 1;
                        table.table.sample(&mut self.rng) as u32
                    };

                    // Count-structure accesses for the acceptance ratio.
                    self.probe.read(self.region_cd, d as usize * k + z as usize);
                    self.probe.read(self.region_cd, d as usize * k + candidate as usize);
                    self.probe.read(self.region_cw, w as usize * k + z as usize);
                    self.probe.read(self.region_cw, w as usize * k + candidate as usize);
                    self.probe.read(self.region_ck, z as usize);
                    self.probe.read(self.region_ck, candidate as usize);

                    if candidate == z {
                        continue;
                    }
                    let (q_from, q_to) = if use_doc_proposal {
                        (self.doc_proposal_weight(d, z), self.doc_proposal_weight(d, candidate))
                    } else {
                        (self.word_proposal_weight(w, z), self.word_proposal_weight(w, candidate))
                    };
                    let num = self.target_weight(d, w, candidate) * q_from;
                    let den = self.target_weight(d, w, z) * q_to;
                    let ratio = if den <= 0.0 { 1.0 } else { num / den };
                    if ratio >= 1.0 || self.rng.gen::<f64>() < ratio {
                        z = candidate;
                    }
                }

                self.state.assign_token(d, w, i, z);
                self.probe.write(self.region_cd, d as usize * k + z as usize);
                self.probe.write(self.region_cw, w as usize * k + z as usize);
                self.probe.write(self.region_ck, z as usize);
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
            b.push_text_doc(["bread", "flour", "oven", "yeast", "bread"]);
            b.push_text_doc(["rocket", "orbit", "launch", "fuel", "rocket"]);
        }
        b.build().unwrap()
    }

    #[test]
    fn counts_stay_consistent_for_all_variants() {
        let corpus = themed_corpus();
        for variant in [
            LightLdaVariant::standard(),
            LightLdaVariant::delayed_word(),
            LightLdaVariant::delayed_word_doc(),
            LightLdaVariant::warp_like(),
        ] {
            let mut s =
                LightLda::with_variant(&corpus, ModelParams::new(4, 0.3, 0.05), 2, 3, variant);
            for _ in 0..2 {
                s.run_iteration();
                s.state().assert_consistent(&corpus);
            }
        }
    }

    #[test]
    fn likelihood_improves_and_approaches_cgs() {
        let corpus = themed_corpus();
        let params = ModelParams::new(2, 0.5, 0.1);
        let mut light = LightLda::new(&corpus, params, 4, 5);
        let mut cgs = CollapsedGibbs::new(&corpus, params, 5);
        let ll0 = log_joint_likelihood_of_state(light.state());
        for _ in 0..40 {
            light.run_iteration();
            cgs.run_iteration();
        }
        let ll_l = log_joint_likelihood_of_state(light.state());
        let ll_c = log_joint_likelihood_of_state(cgs.state());
        assert!(ll_l > ll0, "likelihood should improve: {ll0} -> {ll_l}");
        assert!(
            (ll_l - ll_c).abs() < 0.06 * ll_c.abs(),
            "LightLDA {ll_l} should approach CGS {ll_c}"
        );
    }

    #[test]
    fn all_variants_converge_to_similar_likelihood() {
        // The qualitative claim of Figure 7: delayed updates and the simple
        // proposal do not change the converged quality much.
        let corpus = themed_corpus();
        let params = ModelParams::new(2, 0.5, 0.1);
        let mut finals = Vec::new();
        for variant in [
            LightLdaVariant::standard(),
            LightLdaVariant::delayed_word(),
            LightLdaVariant::delayed_word_doc(),
            LightLdaVariant::warp_like(),
        ] {
            let mut s = LightLda::with_variant(&corpus, params, 2, 7, variant);
            for _ in 0..40 {
                s.run_iteration();
            }
            finals.push(log_joint_likelihood_of_state(s.state()));
        }
        let best = finals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let worst = finals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            (best - worst).abs() < 0.06 * best.abs(),
            "variants should converge to similar likelihoods: {finals:?}"
        );
    }

    #[test]
    fn variant_labels_match_figure7() {
        assert_eq!(LightLdaVariant::standard().label(), "LightLDA");
        assert_eq!(LightLdaVariant::delayed_word().label(), "LightLDA+DW");
        assert_eq!(LightLdaVariant::delayed_word_doc().label(), "LightLDA+DW+DD");
        assert_eq!(LightLdaVariant::warp_like().label(), "LightLDA+DW+DD+SP");
    }

    #[test]
    fn probe_sees_word_matrix_accesses() {
        let corpus = themed_corpus();
        let mut s = LightLda::with_variant_and_probe(
            &corpus,
            ModelParams::new(4, 0.5, 0.1),
            2,
            11,
            LightLdaVariant::standard(),
            CountingProbe::new(),
        );
        s.run_iteration();
        let report = s.probe().report();
        let cw = report.iter().find(|(name, _, _)| name == "Cw matrix").unwrap();
        assert!(cw.1 > 0, "Cw matrix reads expected");
    }

    #[test]
    #[should_panic(expected = "at least one MH step")]
    fn zero_mh_steps_rejected() {
        let corpus = themed_corpus();
        let _ = LightLda::new(&corpus, ModelParams::new(2, 0.5, 0.1), 0, 1);
    }
}
