//! The system under test: every `warplda::` item the benchmark touches is
//! named here and nowhere else. A later refactor of the workspace keeps these
//! names (or leaves a forwarding alias), and this file is the whole list.
//!
//! Grouped by the crate — the *layer* — each item belongs to.

// corpus
pub use warplda::corpus::io::codec::{read_corpus, write_corpus, Decoder, Encoder};
pub use warplda::corpus::io::tokenize_query_into;
pub use warplda::corpus::{
    Corpus, DocMajorView, LdaGenerator, OovPolicy, SyntheticConfig, WordMajorView,
};

// sampling
pub use warplda::sampling::{new_rng, split_seed, AliasBuildScratch, SparseAliasTable};

// cachesim
pub use warplda::cachesim::CacheProbe;

// core (`warplda::lda`)
pub use warplda::lda::counts::{CountPool, TopicCounts};
pub use warplda::lda::trainer::EvalInput;
pub use warplda::lda::{
    load_checkpoint, log_joint_likelihood, save_checkpoint, ModelParams, ParallelWarpLda, Sampler,
    ShardedWarpLda, Trainer, TrainerConfig, WarpLda, WarpLdaConfig,
};

// net
pub use warplda::net::{begin_frame, end_frame, FrameBuffer};

// dist
pub use warplda::dist::protocol::{decode_message, encode_message, Delta, Message, Setup};
pub use warplda::dist::{FaultPhase, FaultPlan, ProcessCluster, ProcessClusterConfig};

// serve
pub use warplda::serve::wire::{
    decode_response, encode_ok_response, encode_request, Request, RequestBody, Response, STATUS_OK,
};
pub use warplda::serve::{
    InferConfig, InferScratch, InferenceEngine, Server, ServerConfig, ServerHandle, TopicModel,
};
