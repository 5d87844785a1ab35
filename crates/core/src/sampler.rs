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
/// The trait is deliberately small: the experiment harness only needs to run
/// iterations, read back assignments and compute likelihoods; everything else
/// (proposals, count layouts, phases) is an implementation detail of each
/// sampler.
pub trait Sampler {
    /// Short human-readable name used in reports ("WarpLDA", "LightLDA", …).
    fn name(&self) -> &'static str;

    /// The model hyper-parameters.
    fn params(&self) -> &ModelParams;

    /// Runs one full iteration (one pass over all tokens; for WarpLDA one
    /// document phase plus one word phase).
    fn run_iteration(&mut self);

    /// Number of iterations completed so far.
    fn iterations(&self) -> u64;

    /// Current topic assignments, in document-major token order.
    fn assignments(&self) -> Vec<u32>;

    /// Seconds the sampler spent inside its sampling phases during the most
    /// recent [`run_iteration`](Self::run_iteration), measured by the sampler
    /// itself, when it keeps phase clocks (WarpLDA serial and parallel do).
    ///
    /// The harness wall clock around `run_iteration` additionally includes
    /// whatever bookkeeping the caller does between starting its timer and
    /// the phase entry (snapshotting, logging, checkpoint scheduling), so
    /// throughput derived from it mixes harness overhead into the sampler's
    /// number. Phase time excludes that overhead; an `IterationRecord` carries
    /// both.
    /// Both clocks are wall time, so CPU contention from other threads of
    /// the process (e.g. an overlapped evaluation worker on a
    /// core-constrained machine) still shows up in either.
    fn last_iteration_phase_seconds(&self) -> Option<f64> {
        None
    }

    /// Borrowed view of the current assignments in document-major token
    /// order, when the sampler stores them contiguously in that order.
    ///
    /// The baseline samplers (CGS, F+LDA, LightLDA) keep their assignments
    /// doc-major inside a [`SamplerState`] and return `Some`, so evaluation
    /// never forces the intermediate `Vec<u32>` copy that
    /// [`assignments`](Self::assignments) makes. WarpLDA stores topics in CSC
    /// entry order, so it returns `None` (the default): its doc-major order is
    /// a gather through the row pointers, and a consumer that counts per word
    /// reads [`word_major_assignments`](Self::word_major_assignments) instead.
    fn assignments_slice(&self) -> Option<&[u32]> {
        None
    }

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
        let gathered;
        let doc_major = match self.assignments_slice() {
            Some(z) => z,
            None => {
                gathered = self.assignments();
                &gathered
            }
        };
        assert_eq!(
            doc_major.len(),
            matrix.num_entries(),
            "the sampler holds {} tokens but the corpus has {}",
            doc_major.len(),
            matrix.num_entries()
        );
        let mut z = vec![0; doc_major.len()];
        for (&e, &t) in matrix.row_ptr().iter().zip(doc_major) {
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
        let gathered;
        let z = match self.assignments_slice() {
            Some(z) => z,
            None => {
                gathered = self.assignments();
                &gathered
            }
        };
        eval::log_joint_likelihood(corpus, doc_view, word_view, self.params(), z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake sampler that flips all assignments to topic 0 on the first
    /// iteration; lets us test the trait's default methods in isolation.
    struct Fake {
        params: ModelParams,
        z: Vec<u32>,
        iters: u64,
    }

    impl Sampler for Fake {
        fn name(&self) -> &'static str {
            "Fake"
        }
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
        fn assignments_slice(&self) -> Option<&[u32]> {
            Some(&self.z)
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
        let ll_before = fake.log_likelihood(&corpus, &dv, &wv);
        assert!(ll_before.is_finite());
        for _ in 0..3 {
            fake.run_iteration();
        }
        assert_eq!(fake.iterations(), 3);
        assert!(fake.log_likelihood(&corpus, &dv, &wv).is_finite());
        // The snapshot counts the current assignments.
        let state = fake.snapshot_state(&corpus, &dv, &wv);
        assert_eq!(state.assignments(), &fake.assignments()[..]);
        assert_eq!(state.assignments(), fake.assignments_slice().unwrap());
        // The word-major scatter lists each word's topics in the occurrence
        // order of the word view.
        let (offsets, word_major) = fake.word_major_assignments(&corpus);
        assert_eq!(offsets.len(), wv.num_words() + 1);
        let z = fake.assignments();
        for (w, range) in offsets.windows(2).enumerate() {
            let want: Vec<u32> =
                wv.word_token_indices(w as u32).iter().map(|&i| z[i as usize]).collect();
            assert_eq!(word_major[range[0] as usize..range[1] as usize], want);
        }
    }
}
