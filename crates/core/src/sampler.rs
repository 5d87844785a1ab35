//! The common [`Sampler`] interface shared by WarpLDA and all baselines.

use std::borrow::Cow;

use warplda_corpus::{Corpus, DocMajorView, Document, WordMajorView};
use warplda_sparse::TokenMatrix;

use crate::eval;
use crate::params::ModelParams;
use crate::state::SamplerState;

/// An LDA inference algorithm that refines topic assignments iteration by
/// iteration.
///
/// A sampler provides what its callers read: the model parameters, one
/// iteration at a time, the iteration count and the assignments. Everything
/// else (proposals, count layouts, phases) is an implementation detail of
/// each sampler. The provided methods derive the word-major assignments, a
/// counted snapshot and the log likelihood from those; a sampler overrides
/// them where its own layout serves them without a copy. Timing is the
/// caller's: the [`Trainer`](crate::Trainer) clocks each `run_iteration`, and
/// that clock is the only iteration clock.
pub trait Sampler {
    /// The model hyper-parameters.
    fn params(&self) -> &ModelParams;

    /// Runs one full iteration (one pass over all tokens; for WarpLDA one
    /// document phase plus one word phase).
    fn run_iteration(&mut self);

    /// Number of iterations completed so far.
    fn iterations(&self) -> u64;

    /// Current topic assignments, in document-major token order.
    fn assignments(&self) -> Vec<u32>;

    /// Current assignments in **word-major** token order, with the column
    /// offsets that cut them into words: word `w`'s topics are
    /// `z[offsets[w]..offsets[w + 1]]`, ascending by document and in token
    /// order within one. This is the column order of a [`TokenMatrix`].
    ///
    /// The default builds the [`TokenMatrix`] of `corpus` and scatters the
    /// doc-major assignments through its row pointers. WarpLDA stores its
    /// records in this order, so it copies each record's assignment in one
    /// forward pass and borrows its own offsets, without reading `corpus`.
    ///
    /// # Panics
    /// The default panics if the sampler's token count differs from
    /// `corpus`'s.
    fn word_major_assignments(&self, corpus: &Corpus) -> (Cow<'_, [u32]>, Vec<u32>) {
        let matrix =
            TokenMatrix::from_rows(corpus.vocab_size(), corpus.docs().iter().map(Document::tokens));
        let doc_major = self.assignments();
        assert_eq!(
            doc_major.len(),
            matrix.num_entries(),
            "the sampler holds {} tokens but the corpus has {}",
            doc_major.len(),
            matrix.num_entries()
        );
        let mut z = vec![0; doc_major.len()];
        for (&e, &t) in matrix.row_ptr().iter().zip(&doc_major) {
            z[e as usize] = t;
        }
        (Cow::Owned(matrix.col_offsets().to_vec()), z)
    }

    /// Builds a [`SamplerState`] (counts included) for the current
    /// assignments, recounting from `corpus`. The view arguments are unused:
    /// they stay only because the repository benchmark calls this signature,
    /// and go once it stops building the views.
    fn snapshot_state(&self, corpus: &Corpus, _: &DocMajorView, _: &WordMajorView) -> SamplerState {
        SamplerState::from_assignments(corpus, *self.params(), self.assignments())
    }

    /// Log joint likelihood of the current assignments, computed without
    /// building count tables ([`eval::log_joint_likelihood`]); samplers that
    /// store their assignments in another order stream them from where they
    /// lie instead of gathering a copy.
    fn log_likelihood(
        &self,
        corpus: &Corpus,
        doc_view: &DocMajorView,
        word_view: &WordMajorView,
    ) -> f64 {
        eval::log_joint_likelihood(corpus, doc_view, word_view, self.params(), &self.assignments())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::log_joint_likelihood_of_state;
    use crate::CollapsedGibbs;

    /// A fake sampler that flips all assignments to topic 0 on the first
    /// iteration; lets us test the trait's default methods in isolation.
    struct Fake {
        params: ModelParams,
        z: Vec<u32>,
        iters: u64,
    }

    impl Sampler for Fake {
        fn params(&self) -> &ModelParams {
            &self.params
        }
        fn run_iteration(&mut self) {
            self.z.iter_mut().for_each(|t| *t = 0);
            self.iters += 1;
        }
        fn iterations(&self) -> u64 {
            self.iters
        }
        fn assignments(&self) -> Vec<u32> {
            self.z.clone()
        }
    }

    /// The defaults `s` does not override agree with the assignments: the
    /// streamed likelihood equals the counted snapshot's bit for bit, and the
    /// word-major scatter lists each word's topics in the occurrence order of
    /// the word view.
    fn check_defaults(s: &dyn Sampler, corpus: &Corpus, dv: &DocMajorView, wv: &WordMajorView) {
        let z = s.assignments();
        let state = s.snapshot_state(corpus, dv, wv);
        assert_eq!(state.assignments(), &z[..]);
        let ll = s.log_likelihood(corpus, dv, wv);
        assert_eq!(ll.to_bits(), log_joint_likelihood_of_state(&state).to_bits());
        let (offsets, word_major) = s.word_major_assignments(corpus);
        assert_eq!(offsets.len(), wv.num_words() + 1);
        for (w, range) in offsets.windows(2).enumerate() {
            let want: Vec<u32> =
                wv.word_token_indices(w as u32).iter().map(|&i| z[i as usize]).collect();
            assert_eq!(word_major[range[0] as usize..range[1] as usize], want);
        }
    }

    #[test]
    fn default_methods_work() {
        let mut b = warplda_corpus::CorpusBuilder::new();
        b.push_text_doc(["p", "q", "p"]);
        b.push_text_doc(["q", "r"]);
        let corpus = b.build().unwrap();
        let dv = DocMajorView::build(&corpus);
        let wv = WordMajorView::build(&corpus, &dv);
        let params = ModelParams::new(2, 0.5, 0.1);
        let mut fake = Fake { params, z: vec![0, 1, 0, 1, 0], iters: 0 };
        check_defaults(&fake, &corpus, &dv, &wv);
        for _ in 0..3 {
            fake.run_iteration();
        }
        assert_eq!(fake.iterations(), 3);
        check_defaults(&fake, &corpus, &dv, &wv);

        // A baseline takes the same defaults over its own state.
        let mut cgs = CollapsedGibbs::new(&corpus, params, 7);
        cgs.run_iteration();
        cgs.run_iteration();
        check_defaults(&cgs, &corpus, &dv, &wv);
    }
}
