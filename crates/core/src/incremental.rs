//! Incremental maintenance of Monte Carlo PageRank and SALSA under edge arrivals and
//! deletions (Section 2.2: Proposition 2, Lemma 3, Theorem 4, Proposition 5; Section
//! 2.3: Theorem 6).
//!
//! [`WalkEngine`] owns the Social Store (the evolving graph) and the PageRank Store
//! (the walk segments of every node).  Its [`WalkKind`] parameter fixes the segment
//! shape: [`IncrementalPageRank`] keeps `R` forward walk segments per node,
//! [`crate::IncrementalSalsa`] keeps `2R` alternating forward/backward ones.  Theorem 6
//! is the reason one engine serves both: SALSA maintenance is the PageRank machinery
//! with backward steps, at a constant-factor overhead.  When an edge `(u, v)` arrives:
//!
//! * only segments that visit `u` (and, for SALSA, `v`) can be affected — the store's
//!   visit postings find them without scanning anything else;
//! * each visit of such a segment to `u` that leaves through an out-edge would have
//!   taken the new edge with probability `1/outdeg(u)` (for a SALSA backward step out
//!   of `v`, `1/indeg(v)`), so the segment is rerouted at its first visit for which an
//!   independent coin with that bias comes up heads;
//! * a rerouted segment keeps its (still valid) prefix and regenerates the suffix —
//!   or, under [`RerouteStrategy::FromSource`], is regenerated entirely — at an expected
//!   cost of `O(1/ε)` walk steps.
//!
//! Deletions are symmetric: only segments that actually traverse the vanished edge are
//! repaired, from their earliest traversal of it.  The surfer at that visit had already
//! decided not to reset, so the repair re-samples the step uniformly among the
//! surviving edges (ending the segment only if none survive) before the walk goes on.
//!
//! The engine is generic over the PageRank Store layout: any
//! [`ppr_store::WalkIndexMut`] works, with the flat [`WalkStore`] as the default and
//! the sharded [`ShardedWalkStore`] available through [`WalkEngine::from_graph_sharded`].
//!
//! [`WalkEngine::apply_arrivals`] and [`WalkEngine::apply_deletions`] process a whole
//! batch at once, grouping the coin flips and index maintenance per pivot node (the
//! source of a forward step, the target of a SALSA backward step): for a pivot gaining
//! `k` edges on top of `d₀` existing ones, every visit reroutes with probability
//! `k/(d₀+k)` to a uniformly chosen new edge — exactly the distribution the `k`
//! single-edge updates compose to (each per-edge coin `1/(d₀+i)` composes by the
//! reservoir argument to `1/(d₀+k)` per new edge).  Repairs run as a deterministic
//! three-phase pipeline (candidates → reconcile → apply, see [`crate::batch`]): every
//! `(batch, pivot, segment, direction)` repair draws from its own split RNG stream, so
//! the result is **bit-identical for every shard count and thread count**, including
//! the single-shard sequential engine — `tests/differential_shard.rs` holds the system
//! to exactly that contract.  With a sharded store, phase 1 fans segment repairs out
//! across shards with `std::thread::scope`, and phase 3 applies the reconciled plan
//! with one worker per shard.  Single-edge [`WalkEngine::add_edge`] and
//! [`WalkEngine::remove_edge`] are batches of one.
//!
//! The engine keeps a [`WorkCounter`] so experiments can compare the measured update
//! work against the `nR ln m / ε²` bound of Theorem 4 and the `nR/(m ε²)` deletion bound
//! of Proposition 5.  The closed forms this engine instantiates are
//! [`crate::bounds::per_arrival_update_work`] and [`crate::bounds::total_update_work`]
//! (Theorem 4) for arrivals, [`crate::bounds::deletion_update_work`] (Proposition 5)
//! for deletions, and [`crate::bounds::salsa_total_update_work`] (Theorem 6) for SALSA.

use crate::batch::{self, BatchProfile, CandidateSet, Group};
use crate::config::{MonteCarloConfig, RerouteStrategy};
use crate::estimator::PageRankEstimates;
use crate::kind::{PageRankWalk, WalkKind};
use crate::personalized::PersonalizedWalker;
use crate::walker;
use ppr_graph::{DynamicGraph, Edge, GraphView, NodeId};
use ppr_store::{
    SegmentId, SegmentRewrites, ShardedWalkStore, SocialStore, WalkIndex, WalkIndexMut, WalkStore,
    WorkCounter,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::marker::PhantomData;

/// Work performed while processing a single edge arrival or deletion (or a whole
/// batch, when returned by [`WalkEngine::apply_arrivals`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Number of walk segments rerouted or rebuilt.
    pub segments_updated: u64,
    /// Number of random-walk steps executed to repair them.
    pub walk_steps: u64,
    /// Whether any segment was touched at all (if `false`, the arrival was absorbed by
    /// the `1 − (1 − 1/d)^{W}` filter of Section 2.2 without touching the PageRank
    /// Store).
    pub touched_walk_store: bool,
}

impl UpdateStats {
    pub(crate) fn record_segment(&mut self, steps: u64) {
        self.segments_updated += 1;
        self.walk_steps += steps;
        self.touched_walk_store = true;
    }
}

/// Monte Carlo PageRank with incrementally maintained walk segments, generic over the
/// PageRank Store layout (`W`).
pub type IncrementalPageRank<W = WalkStore> = WalkEngine<PageRankWalk, W>;

/// Monte Carlo PageRank or SALSA (the [`WalkKind`] `K`) with incrementally maintained
/// walk segments, generic over the PageRank Store layout (`W`).
///
/// Fields are `pub(crate)` so the durability layer ([`crate::durable`]) can snapshot
/// and reassemble engines without widening the public API.
#[derive(Debug)]
pub struct WalkEngine<K: WalkKind, W: WalkIndexMut = WalkStore> {
    pub(crate) store: SocialStore,
    pub(crate) walks: W,
    pub(crate) config: MonteCarloConfig,
    pub(crate) rng: SmallRng,
    pub(crate) work: WorkCounter,
    pub(crate) initialization_steps: u64,
    /// Worker threads used for the batched reroute pipeline (always 1 for a
    /// single-shard store; results never depend on this).
    pub(crate) threads: usize,
    /// Index of the next batch (arrivals or deletions), mixed into every
    /// repair-stream seed.
    pub(crate) batch_index: u64,
    /// Reusable path buffer for segment generation.
    pub(crate) scratch: Vec<NodeId>,
    /// Reusable phase-1 outputs, one per route shard.
    pub(crate) candidate_sets: Vec<CandidateSet>,
    /// Reusable per-shard phase-1 timing buffer.
    pub(crate) phase1_times: Vec<std::time::Duration>,
    /// Reusable reconciled rewrite plan.
    pub(crate) rewrites: SegmentRewrites,
    /// Accumulated wall-time breakdown of the update batches (observability only).
    pub(crate) profile: BatchProfile,
    /// Attached write-ahead log; `None` for purely in-memory engines.
    pub(crate) durability: Option<crate::durable::DurableLog>,
    /// Sequence number of the next WAL record (count of batches ever logged).
    pub(crate) wal_seq: u64,
    pub(crate) kind: PhantomData<K>,
}

impl<K: WalkKind> WalkEngine<K> {
    /// Builds the engine over a graph or an existing Social Store, generating the walk
    /// segments of every node in a single-shard [`WalkStore`].  Pass the graph by value
    /// to avoid copying it; `&DynamicGraph` is also accepted (and cloned) for callers
    /// that keep theirs.
    pub fn from_graph(graph: impl Into<SocialStore>, config: MonteCarloConfig) -> Self {
        Self::from_social_store(graph.into(), config)
    }

    /// Builds the engine over an existing Social Store, generating the walk segments of
    /// every node.
    pub fn from_social_store(store: SocialStore, config: MonteCarloConfig) -> Self {
        let walks = WalkStore::new(store.node_count(), K::SLOTS_PER_R * config.r);
        Self::with_store(store, walks, config, 1)
    }

    /// Builds the engine over an empty graph with `node_count` isolated nodes.
    pub fn new_empty(node_count: usize, config: MonteCarloConfig) -> Self {
        Self::from_graph(DynamicGraph::with_nodes(node_count), config)
    }
}

impl<K: WalkKind> WalkEngine<K, ShardedWalkStore> {
    /// Builds the engine over a [`ShardedWalkStore`] split `shards` ways, repairing
    /// update batches with up to `threads` worker threads.  The Social Store is
    /// re-sharded to the same shard count, so both stores place every node on the same
    /// shard (the shared [`ppr_store::routing::shard_of`] rule).
    ///
    /// Scores, segments, and postings are **bit-identical** to the single-shard
    /// engine's for every `(shards, threads)` combination; the knobs only change how
    /// the repair work is scheduled.
    pub fn from_graph_sharded(
        graph: impl Into<SocialStore>,
        config: MonteCarloConfig,
        shards: usize,
        threads: usize,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(threads >= 1, "need at least one worker thread");
        let store = graph.into();
        let store = if store.shard_count() == shards {
            store
        } else {
            SocialStore::from_graph(store.into_graph(), shards)
        };
        let walks = ShardedWalkStore::new(store.node_count(), K::SLOTS_PER_R * config.r, shards);
        Self::with_store(store, walks, config, threads)
    }
}

impl<K: WalkKind, W: WalkIndexMut + Sync> WalkEngine<K, W> {
    pub(crate) fn with_store(
        store: SocialStore,
        walks: W,
        config: MonteCarloConfig,
        threads: usize,
    ) -> Self {
        let node_count = store.node_count();
        let rng = SmallRng::seed_from_u64(config.seed.wrapping_add(K::RNG_SALT));
        let mut engine = Self::assemble(store, walks, config, rng, threads);
        for node in 0..node_count {
            engine.generate_segments_for(NodeId::from_index(node));
        }
        engine
    }

    /// An engine over already-populated stores, with zeroed counters and no log
    /// attached (construction and recovery both start here).
    pub(crate) fn assemble(
        store: SocialStore,
        mut walks: W,
        config: MonteCarloConfig,
        rng: SmallRng,
        threads: usize,
    ) -> Self {
        walks.set_compaction_threshold(config.compaction_threshold);
        WalkEngine {
            store,
            walks,
            config,
            rng,
            work: WorkCounter::new(),
            initialization_steps: 0,
            threads,
            batch_index: 0,
            scratch: Vec::new(),
            candidate_sets: Vec::new(),
            phase1_times: Vec::new(),
            rewrites: SegmentRewrites::new(),
            profile: BatchProfile::default(),
            durability: None,
            wal_seq: 0,
            kind: PhantomData,
        }
    }

    /// Appends one batch to the attached write-ahead log (no-op for in-memory
    /// engines).  Called **before** the batch mutates any state, so an acknowledged
    /// batch is always recoverable.
    fn log_wal(&mut self, op: ppr_persist::WalOp, edges: &[Edge]) {
        if let Some(log) = self.durability.as_mut() {
            log.append(self.wal_seq, op, edges);
            self.wal_seq += 1;
        }
    }

    /// Accumulated wall-time breakdown of every update batch since construction (or
    /// the last [`Self::reset_batch_profile`]): total time plus per-shard times of the
    /// two parallelizable phases.  [`BatchProfile::critical_path`] turns it into the
    /// wall time a one-core-per-shard deployment would pay.
    pub fn batch_profile(&self) -> &BatchProfile {
        &self.profile
    }

    /// Resets the accumulated batch profile.
    pub fn reset_batch_profile(&mut self) {
        self.profile = BatchProfile::default();
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MonteCarloConfig {
        &self.config
    }

    /// The Social Store (graph plus fetch accounting).
    pub fn social_store(&self) -> &SocialStore {
        &self.store
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DynamicGraph {
        self.store.graph()
    }

    /// The PageRank Store holding the walk segments (`R` per node for PageRank, `2R`
    /// for SALSA).
    pub fn walk_store(&self) -> &W {
        &self.walks
    }

    /// The reconciled rewrite plan of the most recent mutation (arrival batch,
    /// deletion batch, or single-edge wrapper): exactly the segment rewrites the
    /// store absorbed, in plan order.  The serving layer replays this plan into its
    /// copy-on-write generation mirror after each commit; empty when the mutation
    /// touched no segment.
    pub fn last_rewrites(&self) -> &SegmentRewrites {
        &self.rewrites
    }

    /// Number of worker threads the batched reroute pipeline may use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the worker-thread budget.  Results are bit-identical for every value; only
    /// scheduling changes.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "need at least one worker thread");
        self.threads = threads;
    }

    /// Number of nodes currently known to the engine.
    pub fn node_count(&self) -> usize {
        self.store.node_count()
    }

    /// Cumulative update work performed since construction (excluding initialization).
    pub fn work(&self) -> &WorkCounter {
        &self.work
    }

    /// Walk steps spent generating the initial segments (the `nR/ε` initialization cost
    /// the paper compares the update cost against).
    pub fn initialization_steps(&self) -> u64 {
        self.initialization_steps
    }

    /// Resets the cumulative work counter (initialization cost is kept).
    pub fn reset_work(&mut self) {
        self.work = WorkCounter::new();
    }

    /// Adds an isolated node and generates its walk segments; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.node_count());
        self.ensure_nodes(id.index() + 1);
        id
    }

    /// Processes the arrival of `edge`, repairing every affected walk segment.
    ///
    /// A single arrival is exactly a batch of one: this delegates to
    /// [`Self::apply_arrivals`], so the two paths are on identical RNG streams.
    pub fn add_edge(&mut self, edge: Edge) -> UpdateStats {
        self.apply_arrivals(std::slice::from_ref(&edge))
    }

    /// Processes a whole batch of edge arrivals, grouping the coin flips and the visit
    /// index maintenance per pivot node.
    ///
    /// All edges are inserted into the Social Store first; then, for every pivot `u`
    /// that gained `k` edges on top of `d₀` existing ones, the segments visiting `u` are
    /// enumerated **once** and each eligible visit reroutes with probability `k/(d₀+k)`
    /// to a uniformly chosen new edge — the exact composition of the `k` per-edge
    /// `1/(d₀+i)` coins.  Suffixes are regenerated on the post-batch graph.  SALSA
    /// forms forward groups per source and backward groups per target; a forward and a
    /// backward group can claim the same segment at positions of opposite parity.
    ///
    /// Repairs run as the deterministic candidate → reconcile → apply pipeline of
    /// [`crate::batch`]: each `(pivot, segment, direction)` repair draws from its own
    /// split RNG stream, candidate generation fans out over the store's shards (up to
    /// [`Self::threads`] workers), and when several groups claim the same segment the
    /// smallest reroute position wins — under the default prefix-preserving reroute,
    /// the same fixed point the sequential limit-tracking loop reaches (see
    /// [`crate::batch`] for the [`RerouteStrategy::FromSource`] case) — so results
    /// are bit-identical at any shard and thread count.
    ///
    /// Returns the aggregate statistics over the whole batch.
    pub fn apply_arrivals(&mut self, edges: &[Edge]) -> UpdateStats {
        self.rewrites.clear();
        let Some(needed) = edges
            .iter()
            .map(|e| e.source.index().max(e.target.index()) + 1)
            .max()
        else {
            return UpdateStats::default();
        };
        self.log_wal(ppr_persist::WalOp::Arrivals, edges);
        let started = std::time::Instant::now();
        let arena_before = self.walks.arena_stats();
        self.ensure_nodes(needed);

        // Group the batch per pivot in first-arrival order, capturing each pivot's
        // degree from before the batch, then insert every edge.
        let groups: Vec<Group> = K::DIRECTIONS
            .iter()
            .flat_map(|&forward| batch::group_arrivals(&self.store, edges, forward))
            .collect();
        for &edge in edges {
            self.store.add_edge(edge);
        }
        self.work.edges_processed += edges.len() as u64;
        self.repair(&groups, false, edges, started, arena_before)
    }

    /// Processes the deletion of `edge`, repairing every segment that traversed it.
    /// Returns `None` if the edge was not present.
    ///
    /// A single deletion is exactly a batch of one: this delegates to
    /// [`Self::apply_deletions`], so the two paths are on identical RNG streams.
    pub fn remove_edge(&mut self, edge: Edge) -> Option<UpdateStats> {
        if !self.store.graph().has_edge(edge) {
            return None;
        }
        Some(self.apply_deletions(std::slice::from_ref(&edge)))
    }

    /// Processes a whole batch of edge deletions, grouping the repair work per pivot
    /// node exactly as [`Self::apply_arrivals`] groups arrivals.
    ///
    /// All present edges are removed from the Social Store first; then, for every
    /// pivot `u` that lost edges, the segments visiting `u` are enumerated **once** and
    /// each segment's *earliest* traversal of a fully deleted edge (one with no
    /// surviving parallel copy) in the group's direction is repaired: under the default
    /// prefix-preserving strategy the still-valid prefix is kept, the step is
    /// re-sampled among the surviving edges without a second reset coin, and the
    /// suffix regenerates on the post-deletion graph.  Absent edges are skipped.
    ///
    /// Repairs run through the same deterministic candidate → reconcile → apply
    /// pipeline as arrivals, with one split RNG stream per `(batch, pivot, segment,
    /// direction)` repair; when several groups claim one segment, the smallest reroute
    /// position wins — which is the segment's globally earliest invalidated traversal,
    /// so the kept prefix never traverses a deleted edge.  Results are **bit-identical
    /// at any shard and thread count**, which is what makes deletion batches WAL
    /// records just like arrival batches (one record kind each).
    pub fn apply_deletions(&mut self, edges: &[Edge]) -> UpdateStats {
        self.rewrites.clear();
        if edges.is_empty() {
            return UpdateStats::default();
        }
        self.log_wal(ppr_persist::WalOp::Deletions, edges);
        let started = std::time::Instant::now();
        let arena_before = self.walks.arena_stats();

        // Remove every present edge from the Social Store up front, so candidate
        // generation sees the post-batch graph (as it does for arrivals).
        let removed: Vec<Edge> = edges
            .iter()
            .copied()
            .filter(|&edge| self.store.remove_edge(edge))
            .collect();
        self.work.edges_processed += removed.len() as u64;
        if removed.is_empty() {
            return UpdateStats::default();
        }

        // Group per pivot over the edges whose last parallel copy is gone.
        let groups: Vec<Group> = K::DIRECTIONS
            .iter()
            .flat_map(|&forward| batch::group_deletions(self.store.graph(), &removed, forward))
            .collect();
        self.repair(&groups, true, &removed, started, arena_before)
    }

    /// Verifies that every stored segment is a valid walk of its kind in the *current*
    /// graph: it starts at its source node and every consecutive pair of visits is an
    /// existing edge, traversed forward or (for SALSA's backward steps) backward.  This
    /// is the invariant incremental maintenance must preserve.
    pub fn validate_segments(&self) -> Result<(), String> {
        let graph = self.store.graph();
        let r = self.config.r;
        for node in graph.nodes() {
            for id in self.walks.segment_ids_of(node) {
                let path = self.walks.segment_path(id);
                if path.is_empty() {
                    return Err(format!("segment {id:?} of node {node} was never generated"));
                }
                if path.first() != Some(&node) {
                    return Err(format!(
                        "segment {id:?} starts at {:?}, expected {node}",
                        path.first()
                    ));
                }
                let slot = id.slot(self.walks.r());
                for (pos, pair) in path.windows(2).enumerate() {
                    let (source, target) = if K::forward_at(slot, r, pos) {
                        (pair[0], pair[1])
                    } else {
                        (pair[1], pair[0])
                    };
                    let edge = Edge { source, target };
                    if !graph.has_edge(edge) {
                        return Err(format!(
                            "segment {id:?} traverses missing edge {edge} at position {pos}"
                        ));
                    }
                }
            }
        }
        self.walks.check_consistency()
    }

    // ----- internal helpers -------------------------------------------------------

    /// Runs the candidate → reconcile → apply pipeline for one update batch whose
    /// graph change is already applied, then charges the work.  An edge of `edges`
    /// counts as filtered when no group keyed by one of its endpoints disturbed any
    /// segment.
    fn repair(
        &mut self,
        groups: &[Group],
        deletion: bool,
        edges: &[Edge],
        started: std::time::Instant,
        arena_before: ppr_store::ArenaStats,
    ) -> UpdateStats {
        let batch_index = self.batch_index;
        self.batch_index += 1;
        let threads = self.threads;

        // Phase 1: candidate generation, read-only against the pre-batch walk store
        // and the post-batch graph, partitioned by the shard owning each segment.
        let mut sets = std::mem::take(&mut self.candidate_sets);
        let mut phase1_times = std::mem::take(&mut self.phase1_times);
        {
            let graph = self.store.graph();
            let walks = &self.walks;
            let config = &self.config;
            let shards = walks.route_shards();
            let slots = walks.r();
            batch::fan_out_candidates(walks, threads, &mut sets, &mut phase1_times, |sid, set| {
                let mut scratch = std::mem::take(&mut set.scratch);
                for (gi, group) in groups.iter().enumerate() {
                    if group.targets.is_empty() {
                        continue;
                    }
                    for (id, _) in walks.segments_visiting(group.pivot) {
                        if shards > 1 && (id.index() / slots) % shards != sid {
                            continue;
                        }
                        if let Some((pos, steps)) = repair_candidate::<K, W>(
                            graph,
                            walks,
                            config,
                            batch_index,
                            group,
                            deletion,
                            id,
                            &mut scratch,
                        ) {
                            set.push(id, pos, gi, steps, &scratch);
                        }
                    }
                }
                set.scratch = scratch;
            });
        }

        // Phase 2: reconcile conflicting claims (smallest reroute position wins) into
        // a rewrite plan ordered by segment id.
        let winners = batch::reconcile_candidates(&sets);
        let mut rewrites = std::mem::take(&mut self.rewrites);
        rewrites.clear();
        let mut stats = UpdateStats::default();
        let mut touched: HashSet<(NodeId, bool)> = HashSet::new();
        for &(si, ci) in &winners {
            let cand = &sets[si].candidates[ci];
            rewrites.push(cand.seg, sets[si].path(cand));
            stats.record_segment(cand.steps);
            let group = &groups[cand.group as usize];
            touched.insert((group.pivot, group.forward));
        }

        // Phase 3: the store applies the plan (parallel per shard when it can).
        self.walks.apply_rewrites(&rewrites, threads);
        self.profile.record(
            started.elapsed(),
            &phase1_times,
            self.walks.last_apply_shard_times(),
        );
        self.profile
            .record_compactions(&arena_before, &self.walks.arena_stats());
        self.candidate_sets = sets;
        self.phase1_times = phase1_times;
        self.rewrites = rewrites;

        self.work.arrivals_filtered += edges
            .iter()
            .filter(|e| {
                !touched.contains(&(e.source, true)) && !touched.contains(&(e.target, false))
            })
            .count() as u64;
        self.work.segments_updated += stats.segments_updated;
        self.work.walk_steps += stats.walk_steps;
        stats
    }

    fn ensure_nodes(&mut self, n: usize) {
        let before = self.store.node_count();
        if n <= before {
            return;
        }
        self.store.ensure_nodes(n);
        self.walks.ensure_nodes(n);
        for node in before..n {
            self.generate_segments_for(NodeId::from_index(node));
        }
    }

    fn generate_segments_for(&mut self, node: NodeId) {
        let slots = K::SLOTS_PER_R * self.config.r;
        for slot in 0..slots {
            let id = SegmentId::new(node, slot, slots);
            self.initialization_steps += generate_segment::<K>(
                self.store.graph(),
                &self.config,
                node,
                slot,
                &mut self.rng,
                &mut self.scratch,
            );
            self.walks.set_segment(id, &self.scratch);
        }
    }
}

impl<W: WalkIndexMut + Sync> IncrementalPageRank<W> {
    /// Current PageRank estimates.
    pub fn estimates(&self) -> PageRankEstimates {
        PageRankEstimates::from_store(&self.walks, self.config.epsilon)
    }

    /// Self-normalised PageRank scores for every node (sum to 1).
    pub fn scores(&self) -> Vec<f64> {
        self.estimates().normalized().to_vec()
    }

    /// The paper's raw estimator `X_v / (nR/ε)` for a single node.
    pub fn score(&self, node: NodeId) -> f64 {
        self.estimates().score(node)
    }

    /// Runs the personalized walk of Algorithm 1 from `seed` for `walk_length` visits
    /// and returns the top-`k` nodes by visit count, excluding `seed` itself and its
    /// direct friends (as the paper's recommender does).
    ///
    /// The walk draws from the `(query_seed, query_id)` split stream of
    /// [`crate::query`] with the engine seed as the query seed and the seed node as
    /// the query id, so the answer is a pure function of the store state — identical
    /// on any thread, at any interleaving with other queries.
    pub fn personalized_top_k(
        &self,
        seed: NodeId,
        k: usize,
        walk_length: usize,
    ) -> Vec<(NodeId, f64)> {
        let walker = PersonalizedWalker::new(&self.store, &self.walks, self.config.epsilon, 0);
        let result = walker.walk_query(seed, walk_length, self.config.seed, seed.0 as u64);
        let mut exclude: HashSet<NodeId> = HashSet::new();
        exclude.insert(seed);
        exclude.extend(self.store.graph().out_neighbors(seed).iter().copied());
        result.top_k(k, &exclude)
    }
}

/// Generates the segment stored in `slot` of `node` into `buf` (cleared first) and
/// returns the number of steps taken.
fn generate_segment<K: WalkKind>(
    graph: &DynamicGraph,
    config: &MonteCarloConfig,
    node: NodeId,
    slot: usize,
    rng: &mut SmallRng,
    buf: &mut Vec<NodeId>,
) -> u64 {
    buf.clear();
    buf.push(node);
    K::extend(
        graph,
        buf,
        K::forward_at(slot, config.r, 0),
        config.epsilon,
        config.max_segment_length,
        rng,
    )
}

/// Decides whether (and where) segment `id` must be repaired for `group`, drawing from
/// the repair's own split RNG stream.  On a hit, generates the full replacement path
/// into `scratch` against the post-batch graph and returns `(reroute position, walk
/// steps)`.  Only visits to the pivot whose outgoing step has the group's direction
/// are eligible.
///
/// * **Arrivals:** at an interior visit the surfer took one of the `d₀ + k`
///   now-existing edges uniformly, so it lands on a new one with probability
///   `k/(d₀+k)` (the reservoir composition of the `k` per-edge `1/(d₀+i)` coins), each
///   new edge being equally likely.  A segment that ended at a pivot with no edge in
///   the group's direction (`d₀ = 0`) would now continue: with probability `1 − ε`
///   before a forward step, always before a backward one.  A final visit to a pivot
///   that had such edges ended with an ε-reset, which new edges do not affect.
/// * **Deletions:** detection is deterministic — the segment repairs at its earliest
///   traversal of a vanished edge.  The surfer there had already decided not to
///   reset, so the step is re-sampled uniformly among the surviving edges, and the
///   segment ends there only if none survive.
///
/// Reads only the segment's pre-batch path.  Under
/// [`RerouteStrategy::FromUpdatePoint`] this is sound because a reroute by another
/// group only changes the path *after* its own reroute position, and reconciliation
/// keeps the smallest position — coins flipped on stale suffix positions can only
/// produce candidates that lose, never a wrong winner; for deletions the smallest
/// position is the globally earliest invalidated traversal, so the kept prefix holds
/// no deleted edge.  Under [`RerouteStrategy::FromSource`] the winning group differs
/// from the old sequential first-group-wins rule, but any winner regenerates the whole
/// segment as a fresh from-source walk on the post-batch graph, and the segment
/// regenerates iff any group's coin hits under both rules — so the choice of winner
/// only selects which RNG stream draws the (identically distributed) replacement.
///
/// A candidate that later loses reconciliation wastes its generated walk (rare:
/// several pivots of one batch must hit the same segment); only applied repairs are
/// charged to [`UpdateStats`]/[`WorkCounter`], so `walk_steps` counts the work the
/// store actually absorbed.
#[allow(clippy::too_many_arguments)]
fn repair_candidate<K: WalkKind, W: WalkIndex>(
    graph: &DynamicGraph,
    walks: &W,
    config: &MonteCarloConfig,
    batch_index: u64,
    group: &Group,
    deletion: bool,
    id: SegmentId,
    scratch: &mut Vec<NodeId>,
) -> Option<(usize, u64)> {
    let path = walks.segment_path(id);
    let slot = id.slot(walks.r());
    let mut visits = path.iter().enumerate().filter(|&(pos, &visit)| {
        visit == group.pivot && K::forward_at(slot, config.r, pos) == group.forward
    });
    let mut rng = SmallRng::seed_from_u64(batch::repair_seed(
        config.seed,
        batch_index,
        group.pivot,
        id,
        !group.forward,
    ));

    // Where the segment reroutes, and (for arrivals) the new edge it takes there.
    let (pos, forced) = if deletion {
        let (pos, _) = visits.find(|&(pos, _)| {
            path.get(pos + 1)
                .is_some_and(|next| group.targets.binary_search(next).is_ok())
        })?;
        (pos, None)
    } else {
        let k = group.targets.len();
        let last_index = path.len().checked_sub(1)?;
        visits.find_map(|(pos, _)| {
            let p = if pos < last_index {
                k as f64 / (group.prior_degree + k) as f64
            } else if group.prior_degree == 0 {
                if group.forward {
                    1.0 - config.epsilon
                } else {
                    1.0
                }
            } else {
                return None;
            };
            rng.gen_bool(p)
                .then(|| (pos, Some(walker::pick_new_target(&mut rng, &group.targets))))
        })?
    };

    let steps = match config.reroute {
        RerouteStrategy::FromUpdatePoint => {
            scratch.clear();
            scratch.extend_from_slice(&path[..=pos]);
            let next = forced.or_else(|| {
                if group.forward {
                    graph.random_out_neighbor(group.pivot, &mut rng)
                } else {
                    graph.random_in_neighbor(group.pivot, &mut rng)
                }
            });
            match next {
                Some(next) if scratch.len() < config.max_segment_length => {
                    scratch.push(next);
                    1 + K::extend(
                        graph,
                        scratch,
                        K::forward_at(slot, config.r, pos + 1),
                        config.epsilon,
                        config.max_segment_length,
                        &mut rng,
                    )
                }
                _ => 0,
            }
        }
        RerouteStrategy::FromSource => {
            generate_segment::<K>(graph, config, walks.source_of(id), slot, &mut rng, scratch)
        }
    };
    Some((pos, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_baselines::power_iteration::{power_iteration, PowerIterationConfig};
    use ppr_graph::generators::{
        directed_cycle, example1_gadget, preferential_attachment_edges,
        PreferentialAttachmentConfig,
    };
    use ppr_store::WalkIndexView;

    fn config(r: usize, seed: u64) -> MonteCarloConfig {
        MonteCarloConfig::new(0.2, r).with_seed(seed)
    }

    #[test]
    fn initialization_creates_r_segments_per_node() {
        let g = directed_cycle(10);
        let engine = IncrementalPageRank::from_graph(&g, config(3, 1));
        assert_eq!(engine.node_count(), 10);
        for node in g.nodes() {
            for id in engine.walk_store().segment_ids_of(node) {
                assert_eq!(engine.walk_store().segment_source(id), Some(node));
            }
        }
        assert!(engine.validate_segments().is_ok());
        assert!(engine.initialization_steps() > 0);
        assert_eq!(engine.work().edges_processed, 0);
    }

    #[test]
    fn add_edge_keeps_segments_valid() {
        let mut engine = IncrementalPageRank::new_empty(5, config(4, 2));
        let edges = [
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 3),
            Edge::new(3, 4),
            Edge::new(4, 0),
            Edge::new(0, 2),
            Edge::new(2, 0),
        ];
        for &edge in &edges {
            engine.add_edge(edge);
            engine.validate_segments().unwrap();
        }
        assert_eq!(engine.graph().edge_count(), edges.len());
        assert_eq!(engine.work().edges_processed, edges.len() as u64);
    }

    #[test]
    fn add_edge_grows_the_node_set_and_generates_segments() {
        let mut engine = IncrementalPageRank::new_empty(1, config(2, 3));
        engine.add_edge(Edge::new(0, 7));
        assert_eq!(engine.node_count(), 8);
        for node in 0..8 {
            for id in engine.walk_store().segment_ids_of(NodeId(node)) {
                assert!(!engine.walk_store().segment_is_empty(id));
            }
        }
        engine.validate_segments().unwrap();
    }

    #[test]
    fn first_outgoing_edge_extends_previously_dangling_walks() {
        // Node 0 starts with no outgoing edges: all its segments are just [0].  After
        // the first edge 0 -> 1 arrives, a (1 − ε) fraction of them should continue.
        let mut engine = IncrementalPageRank::new_empty(2, config(200, 5));
        let before: usize = engine
            .walk_store()
            .segment_ids_of(NodeId(0))
            .map(|id| engine.walk_store().segment_len(id))
            .sum();
        assert_eq!(before, 200, "dangling node segments are single visits");
        let stats = engine.add_edge(Edge::new(0, 1));
        assert!(stats.segments_updated > 100, "most segments should extend");
        let extended = engine
            .walk_store()
            .segment_ids_of(NodeId(0))
            .filter(|&id| engine.walk_store().segment_len(id) > 1)
            .count();
        assert!(
            (120..=200).contains(&extended),
            "≈ (1-ε) of 200 segments should now leave node 0, got {extended}"
        );
        engine.validate_segments().unwrap();
    }

    #[test]
    fn arrival_update_probability_scales_with_out_degree() {
        // When u already has many outgoing edges, a new edge rarely disturbs walks.
        let mut dense = IncrementalPageRank::from_graph(
            ppr_graph::generators::complete_graph(50),
            config(5, 7),
        );
        let stats_dense = dense.add_edge(Edge::new(0, 1)); // parallel edge, outdeg 50
        let mut sparse = IncrementalPageRank::from_graph(directed_cycle(50), config(5, 7));
        let stats_sparse = sparse.add_edge(Edge::new(0, 25)); // outdeg becomes 2
        assert!(
            stats_sparse.segments_updated >= stats_dense.segments_updated,
            "sparse arrival should disturb at least as many segments ({} vs {})",
            stats_sparse.segments_updated,
            stats_dense.segments_updated
        );
        dense.validate_segments().unwrap();
        sparse.validate_segments().unwrap();
    }

    #[test]
    fn remove_edge_repairs_traversing_segments() {
        let g = directed_cycle(6);
        let mut engine = IncrementalPageRank::from_graph(&g, config(10, 11));
        // Add a chord so node 0 still has an out-edge after the deletion.
        engine.add_edge(Edge::new(0, 3));
        let stats = engine.remove_edge(Edge::new(0, 1)).expect("edge exists");
        assert!(stats.touched_walk_store || stats.segments_updated == 0);
        engine.validate_segments().unwrap();
        assert!(!engine.graph().has_edge(Edge::new(0, 1)));
    }

    #[test]
    fn remove_edge_that_leaves_node_dangling_truncates_walks() {
        let g = directed_cycle(4);
        let mut engine = IncrementalPageRank::from_graph(&g, config(8, 13));
        engine.remove_edge(Edge::new(2, 3)).expect("edge exists");
        engine.validate_segments().unwrap();
        // No stored segment may traverse 2 -> 3 any more.
        for node in engine.graph().nodes() {
            for id in engine.walk_store().segment_ids_of(node) {
                assert!(!engine.walk_store().uses_edge(id, NodeId(2), NodeId(3)));
            }
        }
    }

    #[test]
    fn deletion_repair_does_not_flip_the_reset_coin_twice() {
        // u -> a, u -> b, a -> u, b -> u: u is never dangling, so exactly an ε share of
        // u's segments stop at u.  Deleting u -> a repairs the segments that took it
        // at their first step; the surfer there had already decided not to reset, so
        // the repaired share must stay ε — a second coin would make it
        // ε + (1 − ε)·½·ε = 0.28 — and match a fresh build on the post-deletion graph.
        let (u, a, b) = (0u32, 1u32, 2u32);
        let mut graph = DynamicGraph::with_nodes(3);
        for (s, t) in [(u, a), (u, b), (a, u), (b, u)] {
            graph.add_edge(Edge::new(s, t));
        }
        let r = 20_000;
        let stop_share = |engine: &IncrementalPageRank| {
            let stopped = engine
                .walk_store()
                .segment_ids_of(NodeId(u))
                .filter(|&id| engine.walk_store().segment_len(id) == 1)
                .count();
            stopped as f64 / r as f64
        };
        let (mut repaired, mut fresh) = (0.0, 0.0);
        for seed in 0..3 {
            let mut engine = IncrementalPageRank::from_graph(&graph, config(r, seed));
            engine.remove_edge(Edge::new(u, a)).expect("edge exists");
            engine.validate_segments().unwrap();
            repaired += stop_share(&engine) / 3.0;
            let rebuilt = IncrementalPageRank::from_graph(engine.graph(), config(r, seed + 10));
            fresh += stop_share(&rebuilt) / 3.0;
        }
        assert!(
            (repaired - fresh).abs() < 0.03 && (repaired - 0.2).abs() < 0.03,
            "repaired stop share {repaired:.4} vs fresh {fresh:.4} (exact 0.2)"
        );
    }

    #[test]
    fn removing_a_missing_edge_is_a_no_op() {
        let mut engine = IncrementalPageRank::from_graph(directed_cycle(4), config(2, 1));
        assert!(engine.remove_edge(Edge::new(0, 2)).is_none());
        assert_eq!(engine.work().edges_processed, 0);
    }

    #[test]
    fn estimates_track_power_iteration_after_incremental_build() {
        // Build a 300-node preferential-attachment graph edge by edge and compare the
        // Monte Carlo estimates with power iteration on the final graph.
        let pa = PreferentialAttachmentConfig::new(300, 4, 17);
        let edges = preferential_attachment_edges(&pa);
        let mut engine = IncrementalPageRank::new_empty(300, config(20, 23));
        for &edge in &edges {
            engine.add_edge(edge);
        }
        engine.validate_segments().unwrap();

        let exact = power_iteration(engine.graph(), &PowerIterationConfig::with_epsilon(0.2));
        let estimates = engine.estimates();
        let tvd = estimates.total_variation_distance(&exact.scores);
        assert!(
            tvd < 0.12,
            "incrementally maintained estimates should track power iteration, TVD = {tvd:.4}"
        );

        // The incremental estimates should be about as good as estimates built from
        // scratch on the final graph with the same parameters.
        let fresh = IncrementalPageRank::from_graph(engine.graph(), config(20, 29));
        let fresh_tvd = fresh.estimates().total_variation_distance(&exact.scores);
        assert!(
            tvd < fresh_tvd * 2.0 + 0.02,
            "incremental TVD {tvd:.4} should be comparable to fresh TVD {fresh_tvd:.4}"
        );
    }

    #[test]
    fn batched_arrivals_match_sequential_accuracy() {
        // Replay the same preferential-attachment stream through apply_arrivals in
        // chunks; the estimates must track power iteration exactly as the per-edge
        // replay does, and every invariant must hold after every batch.
        let pa = PreferentialAttachmentConfig::new(300, 4, 19);
        let edges = preferential_attachment_edges(&pa);
        let mut engine = IncrementalPageRank::new_empty(300, config(20, 31));
        for chunk in edges.chunks(64) {
            let stats = engine.apply_arrivals(chunk);
            assert!(stats.segments_updated >= stats.touched_walk_store as u64);
            engine.validate_segments().unwrap();
        }
        assert_eq!(engine.graph().edge_count(), edges.len());
        assert_eq!(engine.work().edges_processed, edges.len() as u64);

        let exact = power_iteration(engine.graph(), &PowerIterationConfig::with_epsilon(0.2));
        let tvd = engine.estimates().total_variation_distance(&exact.scores);
        assert!(
            tvd < 0.12,
            "batched arrivals must stay as accurate as sequential ones, TVD = {tvd:.4}"
        );
    }

    #[test]
    fn batched_arrivals_group_work_per_source() {
        // A hub gaining many edges at once: one batch touches the hub's postings once,
        // and the result is a valid, accurate store.
        let mut engine = IncrementalPageRank::new_empty(40, config(5, 37));
        let spokes: Vec<Edge> = (1..40u32).map(|i| Edge::new(0, i)).collect();
        let stats = engine.apply_arrivals(&spokes);
        engine.validate_segments().unwrap();
        assert!(stats.touched_walk_store, "a dangling hub must extend walks");
        // Empty batches are a no-op.
        let empty = engine.apply_arrivals(&[]);
        assert_eq!(empty, UpdateStats::default());
    }

    #[test]
    fn batched_and_sequential_single_edges_agree() {
        // apply_arrivals over singleton slices is behaviourally identical to add_edge
        // (same RNG streams, same reroutes) — add_edge *is* a batch of one.
        let g = directed_cycle(12);
        let mut a = IncrementalPageRank::from_graph(&g, config(6, 41));
        let mut b = IncrementalPageRank::from_graph(&g, config(6, 41));
        for (i, edge) in [Edge::new(0, 5), Edge::new(3, 9), Edge::new(5, 1)]
            .into_iter()
            .enumerate()
        {
            let sa = a.add_edge(edge);
            let sb = b.apply_arrivals(std::slice::from_ref(&edge));
            assert_eq!(sa, sb, "edge {i}: stats must match");
        }
        // remove_edge is a batch of one too: remove_edge(e) ≡ apply_deletions(&[e]).
        for (i, edge) in [Edge::new(0, 1), Edge::new(3, 9), Edge::new(7, 8)]
            .into_iter()
            .enumerate()
        {
            let sa = a.remove_edge(edge).expect("edge exists");
            let sb = b.apply_deletions(std::slice::from_ref(&edge));
            assert_eq!(sa, sb, "deletion {i}: stats must match");
        }
        assert_eq!(a.scores(), b.scores());
        assert_eq!(a.work(), b.work());
    }

    #[test]
    fn sharded_engine_is_bit_identical_to_single_shard() {
        // The full differential harness lives in tests/differential_shard.rs; this is
        // the in-crate smoke version of the same contract.
        let pa = PreferentialAttachmentConfig::new(80, 3, 59);
        let edges = preferential_attachment_edges(&pa);
        let mut flat = IncrementalPageRank::new_empty(80, config(4, 61));
        let mut sharded = IncrementalPageRank::from_graph_sharded(
            DynamicGraph::with_nodes(80),
            config(4, 61),
            4,
            4,
        );
        for chunk in edges.chunks(37) {
            let sa = flat.apply_arrivals(chunk);
            let sb = sharded.apply_arrivals(chunk);
            assert_eq!(sa, sb, "batch stats must match");
        }
        assert_eq!(flat.scores(), sharded.scores());
        assert_eq!(
            flat.walk_store().total_visits(),
            sharded.walk_store().total_visits()
        );
        assert_eq!(
            WalkIndexView::visit_counts(flat.walk_store()),
            sharded.walk_store().visit_counts()
        );
        sharded.validate_segments().unwrap();
    }

    #[test]
    fn thread_count_never_changes_results() {
        let pa = PreferentialAttachmentConfig::new(60, 3, 67);
        let edges = preferential_attachment_edges(&pa);
        let mut one = IncrementalPageRank::from_graph_sharded(
            DynamicGraph::with_nodes(60),
            config(3, 71),
            3,
            1,
        );
        let mut many = IncrementalPageRank::from_graph_sharded(
            DynamicGraph::with_nodes(60),
            config(3, 71),
            3,
            4,
        );
        for chunk in edges.chunks(25) {
            one.apply_arrivals(chunk);
            many.apply_arrivals(chunk);
            // Retargeting the thread budget mid-stream must not matter either.
            many.set_threads(if many.threads() == 4 { 2 } else { 4 });
        }
        assert_eq!(one.scores(), many.scores());
        assert_eq!(
            one.walk_store().visit_counts(),
            many.walk_store().visit_counts()
        );
    }

    #[test]
    fn sharded_engine_reshards_the_social_store_to_match() {
        let engine =
            IncrementalPageRank::from_graph_sharded(directed_cycle(9), config(2, 73), 3, 2);
        assert_eq!(engine.social_store().shard_count(), 3);
        assert_eq!(engine.walk_store().shard_count(), 3);
        for node in 0..9u32 {
            assert_eq!(
                engine.social_store().shard_of(NodeId(node)),
                engine.walk_store().shard_of(NodeId(node))
            );
        }
        engine.validate_segments().unwrap();
    }

    #[test]
    fn steady_state_arrivals_reuse_arena_slots() {
        // Build the graph fully (slot capacities discover their segments' length
        // range), then churn it with further arrivals: reroutes in this steady state
        // must overwhelmingly rewrite their arena slot in place — relocation is the
        // only allocating path, and it only fires when a segment outgrows every length
        // it has ever had.
        let pa = PreferentialAttachmentConfig::new(400, 5, 43);
        let edges = preferential_attachment_edges(&pa);
        let mut engine = IncrementalPageRank::new_empty(400, config(5, 47));
        engine.apply_arrivals(&edges);
        // Churn: re-deliver a third of the edges as parallel copies, three times; the
        // first two rounds let every hot slot discover its length range.
        let churn: Vec<Edge> = edges.iter().copied().step_by(3).collect();
        engine.apply_arrivals(&churn);
        engine.apply_arrivals(&churn);
        let warm = engine.walk_store().arena_stats();
        engine.apply_arrivals(&churn);
        let done = engine.walk_store().arena_stats();
        let writes = done.in_place_writes - warm.in_place_writes;
        let relocations = done.relocations - warm.relocations;
        assert!(writes > 100, "the churn phase must reroute many segments");
        assert!(
            relocations * 10 < writes,
            "steady-state reroutes must be dominated by in-place slot reuse: \
             {relocations} relocations vs {writes} in-place writes"
        );
        engine.validate_segments().unwrap();
    }

    #[test]
    fn compaction_threshold_knob_reaches_the_store_arenas() {
        // First use of the PR 4 ArenaStats instrumentation as a *control* signal:
        // the MonteCarloConfig knob must thread through to the arena's half-dead
        // rule.  Long segments (small ε) overflow their power-of-two slots under
        // churn, so relocations pile up garbage; the tighter engine must compact
        // more often and hold strictly less dead arena space for the same stream.
        let pa = PreferentialAttachmentConfig::new(120, 4, 83);
        let edges = preferential_attachment_edges(&pa);
        let run = |threshold: f64| {
            let config = MonteCarloConfig::new(0.05, 2)
                .with_seed(89)
                .with_compaction_threshold(threshold);
            let mut engine = IncrementalPageRank::new_empty(120, config);
            engine.apply_arrivals(&edges);
            let churn: Vec<Edge> = edges.iter().copied().step_by(2).collect();
            for _ in 0..6 {
                engine.apply_arrivals(&churn);
            }
            engine.validate_segments().unwrap();
            engine.walk_store().arena_stats()
        };
        let default = run(1.0);
        let tight = run(0.2);
        assert!(
            default.relocations > 0,
            "the churn must actually relocate segments: {default:?}"
        );
        assert!(
            tight.compactions > default.compactions,
            "tighter threshold must compact more: {tight:?} vs {default:?}"
        );
        assert!(
            tight.dead_steps < default.dead_steps,
            "tighter threshold must waste fewer live bytes: {} vs {}",
            tight.dead_steps,
            default.dead_steps
        );
        // The batch profile charges those extra passes to the batches that ran them.
        assert!(tight.compaction_nanos >= default.compaction_nanos);
    }

    #[test]
    fn update_work_is_much_cheaper_than_reinitialization() {
        // Theorem 4: the marginal update cost for late edges is tiny compared with
        // rebuilding all walks (nR/ε steps).
        let pa = PreferentialAttachmentConfig::new(400, 5, 31);
        let edges = preferential_attachment_edges(&pa);
        let (prefix, suffix) = ppr_graph::stream::split_at_fraction(&edges, 0.9);
        let base = DynamicGraph::from_edges(&prefix, 400);
        let mut engine = IncrementalPageRank::from_graph(&base, config(5, 37));
        engine.reset_work();
        for &edge in &suffix {
            engine.add_edge(edge);
        }
        let per_edge_steps = engine.work().steps_per_edge();
        let reinit_cost = engine.config().expected_initialization_cost(400);
        assert!(
            per_edge_steps < reinit_cost / 50.0,
            "per-edge update cost {per_edge_steps:.1} should be far below re-initialization {reinit_cost:.0}"
        );
    }

    #[test]
    fn adversarial_example1_forces_many_updates() {
        // Example 1 of the paper: with the adversarial arrival order (every edge into
        // the hub first, the hub's own edges last), delivering u -> v1 while the hub is
        // still dangling forces Ω(n) segment updates, because a constant fraction of
        // all walks terminate on the hub and must now be extended.
        let ex = example1_gadget(50);
        let n = ex.graph.node_count();
        let prefix = ex.adversarial_prefix_graph();
        let mut engine = IncrementalPageRank::from_graph(&prefix, config(5, 41));
        engine.reset_work();
        let stats = engine.add_edge(ex.adversarial_edge);
        assert!(
            stats.segments_updated as usize > n / 2,
            "the adversarial edge should disturb Ω(n) segments, got {} (n = {n})",
            stats.segments_updated
        );
        engine.validate_segments().unwrap();

        // For contrast, the same edge arriving after the hub's other out-edges (the
        // random-permutation-friendly order) disturbs only O(R/ε) segments.
        let mut late_engine = IncrementalPageRank::from_graph(&ex.graph, config(5, 43));
        late_engine.reset_work();
        let late_stats = late_engine.add_edge(ex.adversarial_edge);
        assert!(
            late_stats.segments_updated * 4 < stats.segments_updated,
            "late arrival ({}) should be far cheaper than the adversarial one ({})",
            late_stats.segments_updated,
            stats.segments_updated
        );
    }

    #[test]
    fn from_source_strategy_also_preserves_validity_and_accuracy() {
        let pa = PreferentialAttachmentConfig::new(200, 4, 43);
        let edges = preferential_attachment_edges(&pa);
        let mut engine = IncrementalPageRank::new_empty(
            200,
            MonteCarloConfig::new(0.2, 10)
                .with_seed(47)
                .with_reroute(RerouteStrategy::FromSource),
        );
        for &edge in &edges {
            engine.add_edge(edge);
        }
        engine.validate_segments().unwrap();
        let exact = power_iteration(engine.graph(), &PowerIterationConfig::with_epsilon(0.2));
        let tvd = engine.estimates().total_variation_distance(&exact.scores);
        assert!(
            tvd < 0.15,
            "FromSource rerouting should stay accurate, TVD = {tvd:.4}"
        );
    }

    #[test]
    fn batched_arrivals_stay_valid_under_from_source_rerouting() {
        let pa = PreferentialAttachmentConfig::new(150, 4, 53);
        let edges = preferential_attachment_edges(&pa);
        let mut engine = IncrementalPageRank::new_empty(
            150,
            MonteCarloConfig::new(0.2, 6)
                .with_seed(59)
                .with_reroute(RerouteStrategy::FromSource),
        );
        for chunk in edges.chunks(32) {
            engine.apply_arrivals(chunk);
        }
        engine.validate_segments().unwrap();
    }

    #[test]
    fn scores_sum_to_one_and_add_node_works() {
        let mut engine = IncrementalPageRank::from_graph(directed_cycle(5), config(3, 53));
        let scores = engine.scores();
        assert_eq!(scores.len(), 5);
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let new = engine.add_node();
        assert_eq!(new, NodeId(5));
        assert_eq!(engine.node_count(), 6);
        assert_eq!(engine.scores().len(), 6);
        engine.validate_segments().unwrap();
    }

    #[test]
    fn from_graph_by_value_avoids_keeping_the_original() {
        // Satellite regression: the engine can consume its graph outright, so building
        // over a large graph does not require a second copy to stay alive.
        let graph = directed_cycle(30);
        let engine = IncrementalPageRank::from_graph(graph, config(2, 61));
        assert_eq!(engine.node_count(), 30);
        engine.validate_segments().unwrap();
    }

    #[test]
    fn personalized_top_k_returns_reachable_non_friends() {
        let mut engine = IncrementalPageRank::from_graph(directed_cycle(8), config(5, 59));
        // Add chords so node 0 has friends {1, 4}.
        engine.add_edge(Edge::new(0, 4));
        let top = engine.personalized_top_k(NodeId(0), 3, 2_000);
        assert!(top.len() <= 3);
        assert!(!top.is_empty());
        for &(node, score) in &top {
            assert!(score > 0.0);
            assert_ne!(node, NodeId(0), "the seed must be excluded");
            assert_ne!(node, NodeId(1), "direct friends must be excluded");
            assert_ne!(node, NodeId(4), "direct friends must be excluded");
        }
        // The friends-of-friends (nodes 2 and 5, reached through friends 1 and 4) are
        // the strongest recommendations; they are symmetric so either may rank first.
        let top_nodes: Vec<NodeId> = top.iter().map(|&(n, _)| n).collect();
        assert!(top_nodes.contains(&NodeId(2)));
        assert!(top_nodes.contains(&NodeId(5)));
        assert!(top[0].0 == NodeId(2) || top[0].0 == NodeId(5));
    }
}
