//! `mixed`: one open-loop writer and one closed-loop reader on the same engine.
//!
//! An in-memory PageRank engine starts from the first 60% of the arrival
//! order.  The writer commits the rest at a fixed edge rate, well below the
//! engine's capacity, and every commit publishes a fresh generation with an
//! empty fetch cache.  The reader sends Zipf-seeded personalized queries
//! alongside.  Commit latency is timed from each batch's scheduled due time,
//! so a stall also charges the batches queued behind it.

use crate::common::{
    check_answers, commit_copies, commit_overhead, finish_trace, freeze, incremental_replay,
    passes, repeat_setup, replay_personalized, restart, Kept, Work,
};
use crate::inputs::{config, rss_peak_mib, Inputs, NODES, SETUP_REPS};
use crate::report::Report;
use crate::stats::{Samples, Timeline};
use crate::trace::{SpanId, Trace, Tracer};
use crate::Ctx;
use ppr_core::IncrementalPageRank;
use ppr_graph::{Edge, GraphView};
use ppr_serve::{Query, QueryEngine, ServeHandle};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Share of the arrival order present at set-up.
const BASE_SHARE: f64 = 0.6;
/// Open-loop write schedule: `BATCH`-edge commits at `RATE` edges per second.
/// Both are assumptions, not measurements.  The rate is set well below the
/// writer's capacity, which every run measures and reports
/// (`gen.commit_capacity_eps`), so the writer keeps its schedule.
const RATE: f64 = 2_000.0;
const BATCH: usize = 8;
const SPIN: Duration = Duration::from_micros(200);
/// A run is valid only if the load generator's own p99 lag stays within this
/// bound.  The lag is how late a commit call started after the later of its
/// due time and the return of the previous commit: the generator's sleep and
/// scheduling error.  Time the writer spent blocked in a slow commit is the
/// program's, and is counted in the commit latency from the due time instead.
const LATE_BOUND_MS: f64 = 250.0;
const QUERIES: usize = 1 << 16;
const WARMUP: usize = 2_000;
const CHECK_EVERY: usize = 64;
const REPLAY: usize = 2_000;
/// Batches whose exact work counts are reported (a prefix every run commits).
const COUNTED_BATCHES: usize = 100;

struct Load {
    inputs: Inputs,
    base: usize,
    queries: Vec<Query>,
    warmup: Vec<Query>,
    query_seed: u64,
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut inputs = Inputs::new(ctx.seed);
    let queries = inputs.zipf_queries(QUERIES);
    let warmup = inputs.zipf_queries(WARMUP);
    let base = (inputs.arrivals.len() as f64 * BASE_SHARE) as usize;
    report.note(format!(
        "{NODES} nodes, {base} edges at set-up, writer {RATE} edges/s in {BATCH}-edge commits \
         (open loop), 1 closed-loop reader, valid if the generator's own lag p99 <= {LATE_BOUND_MS} ms"
    ));
    let load = Load {
        inputs,
        base,
        queries,
        warmup,
        query_seed: ctx.seed.rotate_left(23) ^ 0x3a3a,
    };
    passes(ctx, report, |traced, r| pass(ctx, &load, traced, r));
}

impl Load {
    fn batches(&self) -> impl Iterator<Item = &[Edge]> {
        self.inputs.arrivals[self.base..].chunks(BATCH)
    }
}

#[derive(Default)]
struct WriterRun {
    latency: Timeline,
    late: Samples,
    commit_calls: Samples,
    batches: usize,
    edges: usize,
}

#[derive(Default)]
struct ReaderRun {
    ops: Timeline,
    queries: u64,
    elapsed: f64,
    kept: u64,
    bad: u64,
    /// Latest fetch-cache stats seen per generation (traced pass).
    cache: BTreeMap<u64, (u64, u64)>,
    fetches: u64,
}

fn pass(ctx: &Ctx, load: &Load, traced: bool, report: &mut Report) {
    let t0 = Instant::now();
    let mut main_tracer = Tracer::new(traced, t0, 0);
    let (mut serving, setup_s) = repeat_setup(
        SETUP_REPS,
        |_| load.inputs.prefix_graph(load.base),
        |graph| {
            let mut engine = IncrementalPageRank::from_graph(graph, config(ctx.seed));
            engine.set_threads(1);
            let serving = freeze(&mut main_tracer, engine, load.query_seed);
            let handle = serving.handle();
            for (i, q) in load.warmup.iter().enumerate() {
                handle.serve(u64::MAX - i as u64, q);
            }
            serving
        },
    );
    let handle = serving.handle();
    if traced {
        let sample: Vec<(u64, Query)> = load.queries[..REPLAY]
            .iter()
            .enumerate()
            .map(|(i, q)| (i as u64, q.clone()))
            .collect();
        replay_personalized(
            &handle.pin(),
            load.query_seed,
            &sample,
            &mut main_tracer,
            report,
        );
    }

    let seconds = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let (writer, reader, tracers) = std::thread::scope(|s| {
        let serving = &mut serving;
        let w = s.spawn(move || writer(serving, load, start, seconds, Tracer::new(traced, t0, 1)));
        let r = s.spawn(|| reader(&handle, load, start, seconds, Tracer::new(traced, t0, 2)));
        let (w, tw) = w.join().expect("writer panicked");
        let (r, tr) = r.join().expect("reader panicked");
        (w, r, [tw, tr])
    });
    let late_p99_ms = writer.late.p50_p99().map_or(0.0, |p| p.1 * 1e3);
    // Edges per second of time inside commit calls: the rate a back-to-back
    // writer would reach beside this reader.
    let capacity = writer.edges as f64 / writer.commit_calls.0.iter().sum::<f64>();
    let valid = late_p99_ms <= LATE_BOUND_MS;
    report.attempt(
        writer.batches as u64 + reader.queries + reader.kept + 1,
        reader.bad + u64::from(!valid),
    );
    if !valid {
        report.note(format!(
            "INVALID: load generator lag p99 {late_p99_ms:.3} ms > {LATE_BOUND_MS} ms"
        ));
    }
    let stats = serving.commit_stats();

    let restart_s = restart(
        serving.into_engine(),
        load.query_seed,
        &load.queries[0],
        &mut main_tracer,
    );

    let (p50, p99) = reader.ops.p50_p99(reader.elapsed);
    let (c50, c99) = writer.latency.p50_p99(ctx.seconds);
    let qps = reader.ops.wall_rate(reader.elapsed);
    report.set("setup_s", setup_s);
    report.set("restart_s", restart_s);
    report.set("ops_per_s", qps);
    report.set("primary_p50_us", p50 * 1e6);
    report.set("primary_p99_us", p99 * 1e6);
    report.set("secondary_p50_us", c50 * 1e6);
    report.set("secondary_p99_us", c99 * 1e6);
    report.set("rss_peak_mb", rss_peak_mib());
    report.note(format!(
        "qps = {qps:.0}; query p50/p99 over {} samples; commit (from due time) p50/p99 over {} \
         samples; load generator lag p99 {late_p99_ms:.3} ms; writer at {RATE} edges/s is {:.1}% \
         of its measured commit capacity, {capacity:.0} edges/s",
        reader.ops.len(),
        writer.latency.len(),
        100.0 * RATE / capacity
    ));

    if traced {
        report.set("gen.late_p99_ms", late_p99_ms);
        report.set("gen.commit_capacity_eps", capacity);
        let (hits, misses) = reader
            .cache
            .values()
            .fold((0, 0), |(h, m), &(dh, dm)| (h + dh, m + dm));
        report.set(
            "cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        report.set(
            "cache.misses_per_query",
            misses as f64 / reader.queries.max(1) as f64,
        );
        report.set(
            "core.fetches_per_query",
            reader.fetches as f64 / reader.queries.max(1) as f64,
        );
        commit_copies(&stats, report);
        replay_writes(
            ctx,
            load,
            writer.batches,
            &writer.commit_calls,
            &mut main_tracer,
            report,
        );
        let mut trace = Trace::default();
        trace.add(main_tracer);
        for t in tracers {
            trace.add(t);
        }
        finish_trace(ctx, &trace, report);
    }
}

fn writer(
    serving: &mut QueryEngine<IncrementalPageRank>,
    load: &Load,
    start: Instant,
    seconds: Duration,
    mut tracer: Tracer,
) -> (WriterRun, Tracer) {
    let mut run = WriterRun::default();
    let interval = Duration::from_secs_f64(BATCH as f64 / RATE);
    let mut returned = start;
    for (i, batch) in load.batches().enumerate() {
        let due = start + interval * i as u32;
        if due.duration_since(start) >= seconds {
            break;
        }
        // Sleep to just short of the due time, then spin: a plain sleep
        // overshoots by a noisy tens of microseconds.
        let now = Instant::now();
        if now + SPIN < due {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let called = Instant::now();
        run.late
            .push(called.saturating_duration_since(due.max(returned)));
        let root = tracer.begin("client", "commit", i as u64, SpanId::default());
        tracer.span(
            "ppr_serve.engine",
            "commit_arrivals",
            i as u64,
            root,
            || serving.commit_arrivals(batch),
        );
        tracer.end(root);
        let done = Instant::now();
        returned = done;
        run.latency.push(done - start, done - due, batch.len());
        run.commit_calls.push(done - called);
        run.batches += 1;
        run.edges += batch.len();
    }
    (run, tracer)
}

fn reader(
    handle: &ServeHandle,
    load: &Load,
    start: Instant,
    seconds: Duration,
    mut tracer: Tracer,
) -> (ReaderRun, Tracer) {
    let mut run = ReaderRun::default();
    let mut i = 0usize;
    let query_seed = handle.query_seed();
    while start.elapsed() < seconds {
        let query = &load.queries[i % load.queries.len()];
        let qid = i as u64;
        // A kept query pins its view first: if the serve lands on the same
        // epoch, that view is the generation it was served from.
        let check = i.is_multiple_of(CHECK_EVERY).then(|| handle.pin());
        let t = Instant::now();
        let served = if tracer.is_on() {
            let root = tracer.begin("client", "query", qid, SpanId::default());
            let view = tracer.span("ppr_serve.generation", "pin", qid, root, || handle.pin());
            let served = tracer.span("ppr_serve.generation", "answer", qid, root, || {
                view.answer(query_seed, qid, query)
            });
            tracer.end(root);
            let stats = view.cache_stats();
            run.cache.insert(view.epoch(), (stats.hits, stats.misses));
            served
        } else {
            handle.serve(qid, query)
        };
        run.ops.push(start.elapsed(), t.elapsed(), 1);
        run.fetches += served.fetches;
        if let Some(view) = check {
            if view.epoch() == served.epoch {
                run.kept += 1;
                let kept = [Kept {
                    query_id: qid,
                    query: query.clone(),
                    served,
                }];
                run.bad += check_answers(&view, query_seed, &kept);
            }
        }
        i += 1;
    }
    run.queries = i as u64;
    run.elapsed = start.elapsed().as_secs_f64();
    (run, tracer)
}

/// The traced pass's write-side replay: the batches the writer committed,
/// applied again to a bare engine built the same way.  Gives the apply time
/// per batch (and the commit overhead on top of it) and the exact work counts
/// of the first `COUNTED_BATCHES` batches.
fn replay_writes(
    ctx: &Ctx,
    load: &Load,
    committed: usize,
    commit_calls: &Samples,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let mut engine =
        IncrementalPageRank::from_graph(load.inputs.prefix_graph(load.base), config(ctx.seed));
    engine.set_threads(1);
    let m0 = engine.graph().edge_count();
    let mut apply = Samples::default();
    let mut work = Work::default();
    for (i, batch) in load
        .batches()
        .take(committed.max(COUNTED_BATCHES))
        .enumerate()
    {
        let t = Instant::now();
        let stats = tracer.span(
            "ppr_core.incremental",
            "apply_arrivals",
            i as u64,
            SpanId::default(),
            || engine.apply_arrivals(batch),
        );
        if i < committed {
            apply.push(t.elapsed());
        }
        work.add(&stats, batch.len());
        if i + 1 == COUNTED_BATCHES {
            work.report_counts(report);
        }
    }
    incremental_replay(&apply, &work, &work, m0, report);
    commit_overhead(commit_calls, &apply.0, report);
}
