//! Inputs shared by the workloads, all drawn from the run's `--seed` before any
//! timer starts: the graph and its arrival order, query seeds, and the engine
//! configuration.

use crate::rng::{SplitMix, Zipf};
use ppr_core::MonteCarloConfig;
use ppr_graph::{DynamicGraph, Edge, GraphView, NodeId};
use ppr_serve::Query;

/// Graph size: `twitter_like(NODES, OUT_DEGREE)`, preferential attachment with
/// edges arriving in uniformly random order (the paper's arrival model).
pub const NODES: usize = 20_000;
pub const OUT_DEGREE: usize = 8;
/// Walk segments per node and reset probability.
pub const R: usize = 8;
pub const EPSILON: f64 = 0.2;
/// Personalized queries: top-`K` over a stitched walk of `WALK_LENGTH` visits.
pub const K: usize = 10;
pub const WALK_LENGTH: usize = 2_000;
/// Power-law exponent of personalized scores for the Corollary 9 comparison.
pub const ALPHA: f64 = 0.75;
/// Zipf exponent of query seeds over nodes ranked by follower count: the
/// rank power-law exponent the paper measured on Twitter for in-degree and
/// PageRank (Figures 2–4, α ≈ 0.76).  That a node is queried as often as that
/// law says it is followed is an assumption; no query log is available.
pub const ZIPF_S: f64 = 0.76;
/// Set-ups and restarts per run; the reported time is the fastest.
pub const SETUP_REPS: usize = 5;
pub const RESTART_REPS: usize = 9;
pub const RESTART_GAP: std::time::Duration = std::time::Duration::from_millis(250);

/// The generated graph is not kept: only its arrival order, from which each
/// set-up rebuilds the graph it needs, so the benchmark's own inputs hold as
/// little of the peak resident set as possible.
pub struct Inputs {
    pub arrivals: Vec<Edge>,
    pub seeds: SeedPicker,
    pub rng: SplitMix,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        Self::with_out_degree(seed, OUT_DEGREE)
    }

    pub fn with_out_degree(seed: u64, out_degree: usize) -> Self {
        let w = ppr_bench::workloads::twitter_like(NODES, out_degree, seed);
        let seeds = SeedPicker::new(&w.graph);
        Inputs {
            arrivals: w.arrivals,
            seeds,
            rng: SplitMix::new(seed ^ 0x6a09_e667_f3bc_c908),
        }
    }

    /// The graph holding the first `upto` arrivals.
    pub fn prefix_graph(&self, upto: usize) -> DynamicGraph {
        DynamicGraph::from_edges(&self.arrivals[..upto], NODES)
    }

    /// `n` Zipf-skewed personalized queries.
    pub fn zipf_queries(&mut self, n: usize) -> Vec<Query> {
        (0..n)
            .map(|_| personalized(self.seeds.draw(&mut self.rng)))
            .collect()
    }
}

pub fn config(seed: u64) -> MonteCarloConfig {
    MonteCarloConfig::new(EPSILON, R).with_seed(seed)
}

pub fn personalized(seed: NodeId) -> Query {
    Query::PersonalizedTopK {
        seed,
        k: K,
        walk_length: WALK_LENGTH,
        fetch_budget: None,
    }
}

/// Draws query seeds Zipf-skewed over nodes ranked by follower count: popular
/// accounts ask (and are asked about) most.
pub struct SeedPicker {
    ranked: Vec<NodeId>,
    zipf: Zipf,
}

impl SeedPicker {
    pub fn new(graph: &DynamicGraph) -> Self {
        let mut ranked: Vec<NodeId> = (0..graph.node_count()).map(NodeId::from_index).collect();
        ranked.sort_by_key(|&u| (std::cmp::Reverse(graph.in_degree(u)), u));
        let zipf = Zipf::new(ranked.len(), ZIPF_S);
        SeedPicker { ranked, zipf }
    }

    pub fn draw(&self, rng: &mut SplitMix) -> NodeId {
        self.ranked[self.zipf.sample(rng)]
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}
