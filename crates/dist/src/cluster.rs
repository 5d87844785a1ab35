//! The cluster network model (Section 6.5).
//!
//! The paper's distributed experiments run on Tianhe-2: 12-core Ivy Bridge
//! nodes on a TH Express-2 fat tree. For the simulation only two properties of
//! the network matter: how many bytes a phase switch must move
//! ([`exchange_bytes_per_iteration`]: the grid partition's off-diagonal tokens
//! at the record size the real protocol ships) and how long the all-to-all
//! exchange of those bytes takes (a function of link bandwidth and latency).

use crate::protocol::record_wire_bytes;

/// Simulated cluster: worker count plus the parameters of the all-to-all
/// exchange cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of machines `P`.
    pub workers: usize,
    /// Effective point-to-point bandwidth of one machine's link, bytes/sec.
    pub link_bandwidth_bytes_per_sec: f64,
    /// One-way message latency of the interconnect, seconds.
    pub link_latency_sec: f64,
}

/// Total bytes one iteration ships across the network:
/// `tokens_crossing_per_switch` off-diagonal tokens, each a record of
/// [`record_wire_bytes`]`(K, M)` — the topic assignment plus `M` proposals at
/// the width `K` needs — exchanged at both phase switches (doc → word and
/// word → doc).
///
/// This is the single pricing formula shared by
/// [`runner::price_iteration_log`](crate::runner::price_iteration_log) and
/// [`runner::scaling_sweep`](crate::runner::scaling_sweep), and it is exactly
/// what [`ProcessCluster`](crate::ProcessCluster) forwards to workers as
/// record segments.
pub fn exchange_bytes_per_iteration(
    tokens_crossing_per_switch: u64,
    num_topics: usize,
    mh_steps: usize,
) -> u64 {
    tokens_crossing_per_switch * record_wire_bytes(num_topics, mh_steps) * 2
}

impl ClusterConfig {
    /// A Tianhe-2-like configuration: TH Express-2 class links (~6 GB/s
    /// effective per node, microsecond-scale latency).
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn tianhe2_like(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        Self { workers, link_bandwidth_bytes_per_sec: 6.0e9, link_latency_sec: 5.0e-6 }
    }

    /// Modeled wall time of an all-to-all exchange of `bytes` total bytes.
    ///
    /// The exchange runs as `P - 1` rounds of a ring all-to-all: every machine
    /// pays the link latency per round, and the `bytes / P` bytes each machine
    /// must ship flow through its own link concurrently with the others.
    /// A single machine exchanges nothing and pays nothing.
    pub fn exchange_time_sec(&self, bytes: u64) -> f64 {
        if self.workers <= 1 {
            return 0.0;
        }
        let rounds = (self.workers - 1) as f64;
        let per_link_bytes = bytes as f64 / self.workers as f64;
        self.link_latency_sec * rounds + per_link_bytes / self.link_bandwidth_bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_size_is_assignment_plus_proposals_at_the_width_k_needs() {
        for m in 1..=16u64 {
            for (k, width) in [(2, 1), (256, 1), (257, 2), (65_536, 2), (65_537, 4)] {
                assert_eq!(
                    exchange_bytes_per_iteration(10, k, m as usize),
                    10 * (m + 1) * width * 2
                );
            }
        }
    }

    #[test]
    fn exchange_time_grows_with_volume_and_is_positive() {
        let c = ClusterConfig::tianhe2_like(4);
        let small = c.exchange_time_sec(1_000);
        let large = c.exchange_time_sec(1_000_000_000);
        assert!(small > 0.0);
        assert!(large > small);
        // A gigabyte through 4 x 6 GB/s links takes on the order of 40 ms.
        assert!((0.01..1.0).contains(&large), "modeled time {large}");
    }

    #[test]
    fn single_machine_pays_no_communication() {
        let c = ClusterConfig::tianhe2_like(1);
        assert_eq!(c.exchange_time_sec(0), 0.0);
        assert_eq!(c.exchange_time_sec(1_000_000), 0.0);
    }

    #[test]
    fn latency_dominates_empty_exchanges() {
        let c = ClusterConfig::tianhe2_like(16);
        let t = c.exchange_time_sec(0);
        assert!((t - 15.0 * c.link_latency_sec).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ClusterConfig::tianhe2_like(0);
    }
}
