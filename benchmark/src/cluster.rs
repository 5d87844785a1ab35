//! The multi-process path: worker processes over loopback TCP. The compute
//! is the in-process sampler's, so whatever a cluster iteration costs beyond
//! a `ParallelWarpLda` iteration is `dist`/`net`/codec cost.

use std::collections::BTreeMap;
use std::path::Path;

use crate::spec::{Focus, Metrics, Run, FAULT_CRASHES, FAULT_ITERS, PARALLELISM};
use crate::stats::median;
use crate::sut::{FaultPhase, FaultPlan, ProcessCluster, ProcessClusterConfig};
use crate::trace::Tracer;

/// `ParallelWarpLda` assignments and `c_k`, by iteration.
pub type Oracle = BTreeMap<usize, (Vec<u32>, Vec<u32>)>;

/// Wall seconds and socket bytes of one iteration.
struct Iter {
    wall_s: f64,
    bytes: f64,
    recoveries: u32,
}

/// One cluster's life: spawn, iterate, compare with the oracle, shut down.
struct Block {
    cluster: Option<ProcessCluster>,
    spawn_s: f64,
    iters: Vec<Iter>,
    shutdown_s: f64,
    recoveries: u64,
}

impl Block {
    fn spawn(inp: &Run<'_>, faults: FaultPlan, tr: &mut Tracer) -> Result<Self, String> {
        let mut cfg = ProcessClusterConfig::new(PARALLELISM);
        cfg.worker_binary = Some(inp.worker_binary.to_owned());
        cfg.max_recoveries = 8;
        cfg.fault_plan = faults;
        let (cluster, spawn_s) = tr.time("dist.ProcessCluster.new", || {
            ProcessCluster::new(inp.corpus, inp.params, inp.config, inp.seed, cfg)
        });
        let cluster = cluster.map_err(|e| format!("ProcessCluster::new: {e}"))?;
        Ok(Self {
            cluster: Some(cluster),
            spawn_s,
            iters: Vec::new(),
            shutdown_s: 0.0,
            recoveries: 0,
        })
    }

    fn iterate(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
        let cluster = self.cluster.as_mut().expect("iterating a live cluster");
        let (report, wall_s) =
            tr.time("dist.ProcessCluster.run_iteration", || cluster.run_iteration());
        let report = report.map_err(|e| format!("ProcessCluster::run_iteration: {e}"))?;
        m.count(1, 0);
        self.iters.push(Iter {
            wall_s,
            bytes: report.bytes_exchanged as f64,
            recoveries: report.recoveries,
        });
        Ok(())
    }

    /// Compares the cluster's state with the in-process sampler's at the same
    /// iteration, shuts the cluster down and checks nothing is left of it.
    fn retire(&mut self, oracle: &Oracle, tr: &mut Tracer, m: &mut Metrics) {
        let cluster = self.cluster.take().expect("retiring a live cluster");
        let (z, ck) = &oracle[&self.iters.len()];
        m.check(
            cluster.assignments() == *z && cluster.topic_counts() == &ck[..],
            "ProcessCluster state differs from ParallelWarpLda at the same iteration",
        );
        self.recoveries = cluster.recoveries();
        let pids = cluster.worker_pids();
        let (down, shutdown_s) = tr.time("dist.ProcessCluster.shutdown", || cluster.shutdown());
        self.shutdown_s = shutdown_s;
        m.check(down.is_ok(), "ProcessCluster::shutdown reported an error");
        let alive: Vec<_> =
            pids.iter().filter(|pid| Path::new(&format!("/proc/{pid}")).exists()).collect();
        m.check(alive.is_empty(), &format!("worker processes {alive:?} outlived shutdown"));
    }
}

/// The healthy clusters, one after another, stepped one iteration at a time
/// by the interleaved sampling loop.
pub struct HealthyLane<'a> {
    inp: &'a Run<'a>,
    blocks: Vec<Block>,
}

impl<'a> HealthyLane<'a> {
    pub fn new(inp: &'a Run<'a>) -> Self {
        Self { inp, blocks: Vec::new() }
    }

    fn current_is_live(&self) -> bool {
        self.blocks.last().is_some_and(|b| b.cluster.is_some())
    }

    pub fn done(&self) -> bool {
        self.blocks.len() == self.inp.plan.cluster_blocks && !self.current_is_live()
    }

    /// One iteration of the current cluster; spawns it first if need be and
    /// retires it after its last iteration. `oracle` must already hold the
    /// in-process state for that iteration count.
    pub fn step(
        &mut self,
        oracle: &Oracle,
        tr: &mut Tracer,
        m: &mut Metrics,
    ) -> Result<(), String> {
        if self.done() {
            return Ok(());
        }
        if !self.current_is_live() {
            self.blocks.push(Block::spawn(self.inp, FaultPlan::new(), tr)?);
        }
        let block = self.blocks.last_mut().expect("just ensured");
        block.iterate(tr, m)?;
        if block.iters.len() == self.inp.plan.cluster_iters {
            block.retire(oracle, tr, m);
        }
        Ok(())
    }

    pub fn finish(self, par_iter_s: f64, m: &mut Metrics) {
        let tokens = self.inp.corpus.num_tokens() as f64;
        let blocks = &self.blocks;
        // The first iteration of a cluster also pays for page faults and
        // buffer growth in fresh worker processes; it belongs to set-up.
        let steady = |f: fn(&Iter) -> f64| {
            median(&blocks.iter().flat_map(|b| b.iters.iter().skip(1).map(f)).collect::<Vec<_>>())
        };
        let per_block = |f: fn(&Block) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());
        let iter_s = steady(|i| i.wall_s);
        m.end_to_end("cluster_tokens_per_s", tokens / iter_s);
        m.end_to_end("cluster_bytes_per_token", steady(|i| i.bytes) / tokens);
        if self.inp.workload.focus == Focus::Cluster {
            m.end_to_end("setup_s", per_block(|b| b.spawn_s + b.iters[0].wall_s));
        }
        m.layer("dist.iter_wall_s", iter_s);
        m.layer("dist.inproc_iter_wall_s", par_iter_s);
        m.layer("dist.overhead_s_per_iter", iter_s - par_iter_s);
        m.layer("dist.overhead_ratio", iter_s / par_iter_s);
        m.layer("dist.bytes_per_iter", steady(|i| i.bytes));
        m.layer("dist.spawn_handshake_s", per_block(|b| b.spawn_s));
        m.layer("dist.first_iter_extra_s", per_block(|b| b.iters[0].wall_s) - iter_s);
        m.layer("dist.shutdown_s", per_block(|b| b.shutdown_s));
    }
}

/// Fault phase: scripted crashes on alternating workers; recovery must end in
/// the fault-free state. Its numbers are per-layer only (traced runs).
pub fn faults(
    inp: &Run<'_>,
    oracle: &Oracle,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let phase = tr.begin("cluster.faults");
    let script = FAULT_CRASHES
        .iter()
        .fold(FaultPlan::new(), |p, &(it, worker)| p.crash(worker, it, FaultPhase::Doc));
    let mut block = Block::spawn(inp, script, tr)?;
    for _ in 0..FAULT_ITERS {
        block.iterate(tr, m)?;
    }
    block.retire(oracle, tr, m);
    tr.end(phase);
    m.check(
        block.recoveries == FAULT_CRASHES.len() as u64,
        &format!("{} recoveries for {} scripted crashes", block.recoveries, FAULT_CRASHES.len()),
    );
    let (calm, crashed): (Vec<&Iter>, Vec<&Iter>) =
        block.iters.iter().skip(1).partition(|i| i.recoveries == 0);
    if crashed.is_empty() || calm.is_empty() {
        return Err("the fault phase saw no crash iteration to measure".into());
    }
    // What a crash iteration costs beyond a calm one of the same cluster.
    let extra = |f: fn(&Iter) -> f64| {
        let of = |set: &[&Iter]| median(&set.iter().map(|i| f(i)).collect::<Vec<_>>());
        of(&crashed) - of(&calm)
    };
    m.layer("dist.recovery_s", extra(|i| i.wall_s));
    m.layer("dist.recovery_bytes", extra(|i| i.bytes));
    m.layer("dist.recoveries", block.recoveries as f64);
    Ok(())
}
