//! `ingest`: durable write traffic with no readers.
//!
//! A disk-store PageRank engine is created over the first tenth of the arrival
//! order, checkpointed, and reopened under a page budget smaller than its walk
//! heap.  One closed-loop writer commits the rest of the arrival order in
//! random-order batches through the pipelined group-commit path (WAL
//! `fdatasync` on), deletes a random share of edges that already arrived
//! (Proposition 5), and checkpoints at each quarter of the run; a fixed tail of
//! batches after the last checkpoint lives only in the WAL.  After the run the
//! store is reopened cold, replaying that tail; its digest must equal the live
//! engine's.

use crate::common::{
    commit_copies, commit_overhead, finish_trace, freeze, incremental_replay, passes, repeat_setup,
    Work,
};
use crate::inputs::{config, rss_peak_mib, Inputs, NODES, SETUP_REPS};
use crate::report::Report;
use crate::rng::SplitMix;
use crate::stats::{median, min, Samples, Timeline};
use crate::trace::{SpanId, Trace, Tracer};
use crate::Ctx;
use ppr_core::{DurabilityOptions, DurablePageRank};
use ppr_graph::Edge;
use ppr_persist::{set_thread_page_budget, PageBudget, PagerStats};
use ppr_serve::{Query, QueryEngine};
use ppr_store::StoreDigest;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A denser graph than the other workloads, so the arrival stream outlasts
/// the run with room for a faster writer; a tenth of it is checkpointed.
const OUT_DEGREE: usize = 40;
const BASE_SHARE: f64 = 0.1;
/// Batch sizes and the deletion share are assumptions, not measurements: the
/// deletions (1 edge in 16 arrivals) load Proposition 5's path while arrivals
/// stay the bulk of the stream.
const ARRIVAL_BATCH: usize = 64;
/// After each arrival batch, a deletion batch follows with this probability.
const DELETE_P: f64 = 0.25;
const DELETE_BATCH: usize = 16;
/// Page-cache budget in 4 KiB heap pages (the walk heap is several times larger).
const PAGE_BUDGET: usize = 1024;
/// Commit pipeline window (batches in flight behind the writer).
const WINDOW: usize = 16;
/// Ops committed after the last checkpoint, untimed: the WAL tail every
/// restart replays.
const TAIL_OPS: usize = 100;
/// Restarts replay the WAL tail, so fewer of them fit in a run; at over a
/// second each they span a few seconds without `RESTART_GAP`.
const INGEST_RESTARTS: usize = 3;
/// Batches whose exact work counts are reported (a prefix every run commits).
const COUNTED_BATCHES: usize = 100;

/// One commit of the writer: arrivals are a range of the arrival order, so
/// the op stream holds no second copy of it.
enum Op {
    Arrive(Range<usize>),
    Delete(Vec<Edge>),
}

impl Op {
    fn edges<'a>(&'a self, arrivals: &'a [Edge]) -> &'a [Edge] {
        match self {
            Op::Arrive(r) => &arrivals[r.clone()],
            Op::Delete(e) => e,
        }
    }
}

struct Load {
    inputs: Inputs,
    base: usize,
    ops: Vec<Op>,
    first_query: Query,
    query_seed: u64,
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut inputs = Inputs::with_out_degree(ctx.seed, OUT_DEGREE);
    let base = (inputs.arrivals.len() as f64 * BASE_SHARE) as usize;
    let ops = op_stream(&inputs.arrivals, base, SplitMix::new(inputs.rng.next_u64()));
    let first_query = inputs.zipf_queries(1).remove(0);
    report.note(format!(
        "{NODES} nodes, {base} edges checkpointed, {} ops queued ({ARRIVAL_BATCH}-edge arrivals, \
         {DELETE_BATCH}-edge deletions after {:.0}% of them), 1 closed-loop writer, no readers, \
         page budget {PAGE_BUDGET} pages, WAL fdatasync on, group commit through a \
         {WINDOW}-batch pipeline",
        ops.len(),
        DELETE_P * 100.0
    ));
    let load = Load {
        inputs,
        base,
        ops,
        first_query,
        query_seed: ctx.seed.rotate_left(29) ^ 0x1717,
    };
    // Every open in this process (including the engine's own) uses the budget.
    set_thread_page_budget(Some(PageBudget::bounded(PAGE_BUDGET)));
    passes(ctx, report, |traced, r| pass(ctx, &load, traced, r));
}

/// Arrival batches over the suffix of the arrival order, each followed with
/// probability `DELETE_P` by a batch deleting random edges that already arrived.
fn op_stream(arrivals: &[Edge], base: usize, mut rng: SplitMix) -> Vec<Op> {
    let mut live: Vec<Edge> = arrivals[..base].to_vec();
    let mut ops = Vec::new();
    for start in (base..arrivals.len()).step_by(ARRIVAL_BATCH) {
        let batch = start..(start + ARRIVAL_BATCH).min(arrivals.len());
        live.extend_from_slice(&arrivals[batch.clone()]);
        ops.push(Op::Arrive(batch));
        if rng.unit() < DELETE_P {
            let gone = (0..DELETE_BATCH)
                .map(|_| live.swap_remove(rng.below(live.len())))
                .collect();
            ops.push(Op::Delete(gone));
        }
    }
    ops
}

/// Creates the durable store over the base graph and writes its checkpoint.
fn create_store(dir: &Path, load: &Load, seed: u64) {
    let _ = std::fs::remove_dir_all(dir);
    let mut engine = DurablePageRank::create_durable_disk(
        dir,
        load.inputs.prefix_graph(load.base),
        config(seed),
    )
    .expect("creating the durable store");
    engine.checkpoint().expect("initial checkpoint");
}

/// Syncs every file of the store and the directory itself, so that the next
/// timed phase does not wait on write-back the previous phase left pending
/// (every open fsyncs the store's lock file).
fn settle(dir: &Path) {
    let entries = std::fs::read_dir(dir).expect("reading the store directory");
    for entry in entries.flatten() {
        if let Ok(file) = std::fs::File::open(entry.path()) {
            let _ = file.sync_all();
        }
    }
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

fn open(dir: &Path, options: DurabilityOptions) -> DurablePageRank {
    let mut engine = DurablePageRank::open_with(dir, options).expect("opening the durable store");
    engine.set_threads(1);
    engine
}

#[derive(Default)]
struct WriterRun {
    /// Every commit call, in order (for the traced commit overhead).
    commits: Samples,
    arrivals: Timeline,
    deletions: Timeline,
    edges: usize,
    ops: usize,
    /// Op index before which each checkpoint ran.
    checkpoints: Vec<usize>,
    checkpoint_s: Samples,
    elapsed: f64,
    /// Page-cache counters summed over every generation the run read from.
    pager: PagerStats,
    /// Ops committed after the final checkpoint.
    tail: usize,
    exhausted: bool,
}

fn add_pager(sum: &mut PagerStats, s: PagerStats) {
    sum.loads += s.loads;
    sum.hits += s.hits;
    sum.evictions += s.evictions;
    sum.refaults += s.refaults;
}

fn pass(ctx: &Ctx, load: &Load, traced: bool, report: &mut Report) {
    let t0 = Instant::now();
    let mut tracer = Tracer::new(traced, t0, 0);
    let store = |rep: usize| ctx.work.join(format!("store-{rep}"));
    let (mut serving, setup_s) = repeat_setup(
        SETUP_REPS,
        |rep| {
            if rep > 0 {
                let _ = std::fs::remove_dir_all(store(rep - 1));
            }
            store(rep)
        },
        |dir| {
            create_store(&dir, load, ctx.seed);
            let engine = tracer.span("ppr_persist.disk", "open", 0, SpanId::default(), || {
                open(&dir, DurabilityOptions::default())
            });
            let serving = freeze(&mut tracer, engine, load.query_seed);
            (serving.with_pipeline(WINDOW), dir)
        },
    );
    let dir: PathBuf = serving.1.clone();
    settle(&dir);
    let heap_pages = serving.0.engine().walk_store().heap_geometry().0 / 1024;

    let writer = write(
        &mut serving.0,
        load,
        Duration::from_secs_f64(ctx.seconds),
        &mut tracer,
    );
    let stats = serving.0.commit_stats();
    let engine = serving.0.into_engine();
    let live = StoreDigest::of(engine.walk_store());
    let disk = engine.walk_store().stats();
    let mut pager = writer.pager;
    add_pager(&mut pager, engine.walk_store().pager_stats());
    let residency = engine.walk_store().residency();
    drop(engine);
    settle(&dir);

    // Cold restarts: open (replaying the WAL tail), freeze for serving,
    // answer one query.  The first restart's store must match the live one.
    let mut restarts = Vec::new();
    let mut digest_ok = true;
    for rep in 0..INGEST_RESTARTS {
        let t = Instant::now();
        let engine = tracer.span("ppr_persist.disk", "open", 0, SpanId::default(), || {
            open(&dir, DurabilityOptions::default())
        });
        let serving = freeze(&mut tracer, engine, load.query_seed);
        std::hint::black_box(serving.handle().serve(0, &load.first_query));
        restarts.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            digest_ok = StoreDigest::of(serving.engine().walk_store()) == live;
        }
    }
    report.attempt((writer.ops + writer.tail + 1) as u64, u64::from(!digest_ok));
    if writer.exhausted {
        report.note("the op stream ran out before the run and its WAL tail ended".to_string());
    }
    if !digest_ok {
        report.note("FAILED: reopened store digest differs from the live engine".to_string());
    }

    // The issue's ingest_eps: every edge over the whole run, checkpoints and
    // the final flush included.
    let eps = writer.edges as f64 / writer.elapsed;
    let (c50, c99) = writer.arrivals.p50_p99(writer.elapsed);
    let (d50, d99) = writer.deletions.p50_p99(writer.elapsed);
    report.set("setup_s", setup_s);
    report.set("restart_s", min(&restarts));
    report.set("ops_per_s", eps);
    report.set("primary_p50_us", c50 * 1e6);
    report.set("primary_p99_us", c99 * 1e6);
    report.set("secondary_p50_us", d50 * 1e6);
    report.set("secondary_p99_us", d99 * 1e6);
    report.set("rss_peak_mb", rss_peak_mib());
    report.note(format!(
        "ingest_eps = {eps:.0} ({} edges in {:.3} s, {} checkpoints, {} ops in the WAL tail); arrival commit p50/p99 over \
         {} samples; deletion commit p50/p99 over {} samples; walk heap {heap_pages} pages vs \
         budget {PAGE_BUDGET}",
        writer.edges,
        writer.elapsed,
        writer.checkpoints.len() + 1,
        writer.tail,
        writer.arrivals.len(),
        writer.deletions.len()
    ));

    if traced {
        report.set("wal.fsyncs", stats.wal_fsyncs as f64);
        report.set(
            "wal.appends_per_fsync",
            stats.wal_appends_synced as f64 / stats.wal_fsyncs.max(1) as f64,
        );
        commit_copies(&stats, report);
        report.set("disk.checkpoint_ms", median(&writer.checkpoint_s.0) * 1e3);
        report.set("disk.pages_rewritten", disk.pages_rewritten as f64);
        report.set("disk.pages_reused", disk.pages_reused as f64);
        report.set("disk.cached_path_steps", residency.cached_path_steps as f64);
        report.set("pager.loads", pager.loads as f64);
        report.set(
            "pager.hit_rate",
            pager.hits as f64 / (pager.hits + pager.loads).max(1) as f64,
        );
        report.set("pager.evictions", pager.evictions as f64);
        report.set("pager.refaults", pager.refaults as f64);
        report.set("pager.resident_bytes", residency.resident_page_bytes as f64);
        replay_writes(ctx, load, &writer, &mut tracer, report);
        let mut trace = Trace::default();
        trace.add(tracer);
        finish_trace(ctx, &trace, report);
    }
}

/// The closed-loop writer: commits ops until the time is up, checkpointing at
/// each quarter; the clock stops once every commit is published and synced.
fn write(
    serving: &mut QueryEngine<DurablePageRank>,
    load: &Load,
    seconds: Duration,
    tracer: &mut Tracer,
) -> WriterRun {
    let mut run = WriterRun::default();
    let start = Instant::now();
    let mut next_checkpoint = 1;
    for (i, op) in load.ops.iter().enumerate() {
        let elapsed = start.elapsed();
        if elapsed >= seconds {
            break;
        }
        if elapsed >= seconds * next_checkpoint / 4 {
            add_pager(&mut run.pager, serving.engine().walk_store().pager_stats());
            let t = Instant::now();
            tracer.span(
                "ppr_persist.disk",
                "checkpoint",
                i as u64,
                SpanId::default(),
                || serving.engine_mut().checkpoint().expect("checkpoint"),
            );
            run.checkpoint_s.push(t.elapsed());
            run.checkpoints.push(i);
            next_checkpoint += 1;
        }
        let t = Instant::now();
        let root = tracer.begin("client", "commit", i as u64, SpanId::default());
        let edges = op.edges(&load.inputs.arrivals);
        match op {
            Op::Arrive(_) => tracer.span(
                "ppr_serve.engine",
                "commit_arrivals",
                i as u64,
                root,
                || serving.commit_arrivals(edges),
            ),
            Op::Delete(_) => tracer.span(
                "ppr_serve.engine",
                "commit_deletions",
                i as u64,
                root,
                || serving.commit_deletions(edges),
            ),
        };
        tracer.end(root);
        let (done, took) = (start.elapsed(), t.elapsed());
        run.commits.push(took);
        match op {
            Op::Arrive(_) => run.arrivals.push(done, took, 1),
            Op::Delete(_) => run.deletions.push(done, took, 1),
        }
        run.edges += edges.len();
        run.ops += 1;
    }
    tracer.span(
        "ppr_serve.engine",
        "flush_commits",
        0,
        SpanId::default(),
        || serving.flush_commits(),
    );
    run.elapsed = start.elapsed().as_secs_f64();

    // The fourth quarter's checkpoint, then a fixed tail only the WAL holds.
    add_pager(&mut run.pager, serving.engine().walk_store().pager_stats());
    serving.engine_mut().checkpoint().expect("checkpoint");
    let tail = &load.ops[run.ops..];
    run.exhausted = tail.len() < TAIL_OPS;
    for op in tail.iter().take(TAIL_OPS) {
        let edges = op.edges(&load.inputs.arrivals);
        match op {
            Op::Arrive(_) => serving.commit_arrivals(edges),
            Op::Delete(_) => serving.commit_deletions(edges),
        };
        run.tail += 1;
    }
    serving.flush_commits();
    run
}

/// The traced pass's write-side replay: the same ops, with checkpoints at the
/// same places, applied to a bare engine opened from the same initial
/// checkpoint with WAL fsync off.  Gives the apply time per batch, the commit
/// overhead on top of it, and the exact work counts of the first
/// `COUNTED_BATCHES` ops.
fn replay_writes(
    ctx: &Ctx,
    load: &Load,
    writer: &WriterRun,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let dir = ctx.work.join("replay");
    create_store(&dir, load, ctx.seed);
    let mut engine = open(&dir, DurabilityOptions { fsync_wal: false });
    let mut apply = Samples::default();
    let (mut all, mut arrived) = (Work::default(), Work::default());
    let mut appends = 0u64;
    let mut checkpoints = writer.checkpoints.iter().peekable();
    for (i, op) in load
        .ops
        .iter()
        .take(writer.ops.max(COUNTED_BATCHES))
        .enumerate()
    {
        if checkpoints.peek() == Some(&&i) {
            checkpoints.next();
            engine.checkpoint().expect("replay checkpoint");
        }
        let edges = op.edges(&load.inputs.arrivals);
        let wal_before = engine.durable_log().map_or(0, |l| l.wal_stats().appended);
        let t = Instant::now();
        let stats = match op {
            Op::Arrive(_) => tracer.span(
                "ppr_core.incremental",
                "apply_arrivals",
                i as u64,
                SpanId::default(),
                || engine.apply_arrivals(edges),
            ),
            Op::Delete(_) => tracer.span(
                "ppr_core.incremental",
                "apply_deletions",
                i as u64,
                SpanId::default(),
                || engine.apply_deletions(edges),
            ),
        };
        if i < writer.ops {
            apply.push(t.elapsed());
        }
        appends += engine.durable_log().map_or(0, |l| l.wal_stats().appended) - wal_before;
        all.add(&stats, edges.len());
        if let Op::Arrive(_) = op {
            arrived.add(&stats, edges.len());
        }
        if i + 1 == COUNTED_BATCHES {
            all.report_counts(report);
            report.set("count.wal_appends", appends as f64);
        }
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    incremental_replay(&apply, &all, &arrived, load.base, report);
    commit_overhead(&writer.commits, &apply.0, report);
}
