//! Walk kinds: the little that distinguishes PageRank maintenance from SALSA
//! maintenance (Theorem 6).
//!
//! PageRank and SALSA maintenance are one [`crate::incremental::WalkEngine`]; the kind
//! supplies only what differs between them:
//!
//! * the segment shape — PageRank segments take forward (out-edge) steps only, with
//!   an ε-reset before every step; SALSA segments alternate forward and backward
//!   (in-edge) steps, with resets only before forward steps;
//! * the slots per node — `R` for PageRank; `2R` for SALSA, slots `0..R` starting
//!   forward (the node as a hub) and `R..2R` starting backward (as an authority);
//! * which edge endpoints an update disturbs — sources only for PageRank, sources
//!   and targets for SALSA, whose backward steps leave through in-edges;
//! * the salt of the sequential generation RNG and the snapshot META kind byte.

use crate::walker;
use ppr_graph::{DynamicGraph, NodeId};
use rand::rngs::SmallRng;

/// Which engine family a store holds — decides how its walk segments are
/// interpreted (plain PageRank segments vs `2R` alternating SALSA segments).  The
/// discriminant is the kind byte of a durable snapshot's META section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EngineKind {
    /// `R` PageRank walk segments per node: personalized top-k and global rank.
    PageRank = 1,
    /// `2R` alternating SALSA segments per node: hub/authority queries.
    Salsa = 2,
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::PageRankWalk {}
    impl Sealed for super::SalsaWalk {}
}

/// The segment shape a [`crate::incremental::WalkEngine`] maintains.  Sealed: the
/// two implementations are [`PageRankWalk`] and [`SalsaWalk`].
pub trait WalkKind: sealed::Sealed + std::fmt::Debug + Send + Sync + 'static {
    /// The engine family (and, as `KIND as u8`, the snapshot META kind byte).
    const KIND: EngineKind;
    /// Walk segments stored per node, in units of the configured `R`.
    const SLOTS_PER_R: usize;
    /// The step directions segments take (`true` = forward), in the order update
    /// batches group them: forward groups key on edge sources, backward groups on
    /// edge targets, since an edge `(u, v)` changes the in-edge steps leaving `v`.
    const DIRECTIONS: &'static [bool];
    /// Added to the configured seed to seed the sequential RNG that generates the
    /// segments of new nodes.
    const RNG_SALT: u64;

    /// Whether the step leaving position `pos` of a segment stored in `slot` follows
    /// an out-edge (`true`) or an in-edge; `r` is the configured `R`.
    fn forward_at(slot: usize, r: usize, pos: usize) -> bool;

    /// Continues a walk whose current node is `path.last()` and whose next step has
    /// direction `forward`, until a reset, a node with no edge in the required
    /// direction, or `max_length` visits.  Returns the number of steps taken.
    fn extend(
        graph: &DynamicGraph,
        path: &mut Vec<NodeId>,
        forward: bool,
        epsilon: f64,
        max_length: usize,
        rng: &mut SmallRng,
    ) -> u64;
}

/// Forward-only PageRank walk segments, `R` per node (Section 2.2).
#[derive(Debug, Clone, Copy)]
pub struct PageRankWalk;

/// Alternating forward/backward SALSA walk segments, `2R` per node (Section 2.3).
#[derive(Debug, Clone, Copy)]
pub struct SalsaWalk;

impl WalkKind for PageRankWalk {
    const KIND: EngineKind = EngineKind::PageRank;
    const SLOTS_PER_R: usize = 1;
    const DIRECTIONS: &'static [bool] = &[true];
    const RNG_SALT: u64 = 0;

    fn forward_at(_slot: usize, _r: usize, _pos: usize) -> bool {
        true
    }

    fn extend(
        graph: &DynamicGraph,
        path: &mut Vec<NodeId>,
        _forward: bool,
        epsilon: f64,
        max_length: usize,
        rng: &mut SmallRng,
    ) -> u64 {
        walker::extend_pagerank_walk(graph, path, epsilon, max_length, rng)
    }
}

impl WalkKind for SalsaWalk {
    const KIND: EngineKind = EngineKind::Salsa;
    const SLOTS_PER_R: usize = 2;
    const DIRECTIONS: &'static [bool] = &[true, false];
    const RNG_SALT: u64 = 0x5a15a;

    fn forward_at(slot: usize, r: usize, pos: usize) -> bool {
        (pos % 2 == 0) == (slot < r)
    }

    fn extend(
        graph: &DynamicGraph,
        path: &mut Vec<NodeId>,
        forward: bool,
        epsilon: f64,
        max_length: usize,
        rng: &mut SmallRng,
    ) -> u64 {
        walker::extend_salsa_walk(graph, path, forward, epsilon, max_length, rng)
    }
}
