//! Corpus handling for the WarpLDA reproduction.
//!
//! This crate provides everything the samplers need to know about the input
//! data:
//!
//! * [`Vocabulary`] — a bidirectional word ⇄ id mapping.
//! * [`Document`] and [`Corpus`] — a bag-of-words corpus stored as token id
//!   sequences, together with summary statistics ([`CorpusStats`], the data
//!   behind Table 3 of the paper).
//! * [`views`] — document-major and word-major token views (the `Zd` / `Zw`
//!   orderings of Section 4.1 of the paper); these are the structures the
//!   samplers iterate over.
//! * [`io`] — readers and writers for the UCI "bag of words" `docword` format
//!   used by the NYTimes and PubMed datasets, plus a whitespace tokenizer for
//!   raw text.
//! * [`synth`] — synthetic corpus generators: an LDA generative-model
//!   generator (planted topics) and a Zipfian unigram generator, used when the
//!   paper's corpora are not available locally.
//! * [`presets`] — scaled-down presets mimicking the shape (D, V, T/D) of the
//!   NYTimes, PubMed and ClueWeb12 corpora from Table 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod corpus;
pub mod document;
pub mod error;
pub mod io;
pub mod presets;
pub mod stats;
pub mod synth;
pub mod views;
pub mod vocab;

pub use crate::corpus::{Corpus, CorpusBuilder};
pub use document::Document;
pub use error::CorpusError;
pub use io::{tokenize_query_into, OovPolicy};
pub use presets::DatasetPreset;
pub use stats::CorpusStats;
pub use synth::{LdaGenerator, SyntheticConfig, ZipfGenerator};
pub use views::{DocMajorView, TokenRef, WordMajorView};
pub use vocab::Vocabulary;

/// Identifier of a word in the vocabulary (a *word*, not an occurrence).
pub type WordId = u32;
/// Identifier of a document.
pub type DocId = u32;
