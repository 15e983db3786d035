//! `serve`: read-only traffic on one published generation.
//!
//! An in-memory PageRank engine serves a single generation with no writes.
//! Two closed-loop clients run for the whole measurement: one sends single
//! Zipf-seeded personalized queries (`ServeHandle::serve`), the other sends
//! 16-query cohort batches whose seeds all follow one account
//! (`ServeHandle::serve_batch`).  The personalized walk, the generation's
//! fetch cache and batch execution do all the work; every write layer is idle.

use crate::common::{
    check_answers, finish_trace, freeze, passes, repeat_setup, replay_personalized, restart, Kept,
};
use crate::inputs::{config, personalized, rss_peak_mib, Inputs, NODES, SETUP_REPS};
use crate::report::Report;
use crate::rng::SplitMix;
use crate::stats::Timeline;
use crate::trace::{SpanId, Trace, Tracer};
use crate::Ctx;
use ppr_core::IncrementalPageRank;
use ppr_graph::GraphView;
use ppr_serve::{Query, QueryBatch, ServeHandle, Served};
use std::time::{Duration, Instant};

const COHORT: usize = 16;
/// Pre-generated inputs, cycled by the closed-loop clients.
const SINGLES: usize = 1 << 16;
const COHORTS: usize = 1 << 12;
/// Queries served during set-up to fill the generation's fetch cache.
const WARMUP: usize = 2_000;
/// Every `CHECK_EVERY`-th single query (and batch) is kept for the output check.
const CHECK_EVERY: usize = 64;
/// Size of the traced run's replayed query sample.
const REPLAY: usize = 2_000;

struct Load {
    inputs: Inputs,
    singles: Vec<Query>,
    cohorts: Vec<Vec<Query>>,
    warmup: Vec<Query>,
    query_seed: u64,
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut inputs = Inputs::new(ctx.seed);
    let singles = inputs.zipf_queries(SINGLES);
    let warmup = inputs.zipf_queries(WARMUP);
    let cohorts = cohorts(&mut inputs);
    let load = Load {
        inputs,
        singles,
        cohorts,
        warmup,
        query_seed: ctx.seed.rotate_left(17) ^ 0x5151,
    };
    report.note(format!(
        "{NODES} nodes, {} edges, 2 closed-loop clients (singles, {COHORT}-query cohort batches)",
        load.inputs.arrivals.len()
    ));
    passes(ctx, report, |traced, r| pass(ctx, &load, traced, r));
}

/// Cohort batches: pick an account Zipf-skewed by follower count, then 16 of
/// its followers as seeds, so the batch's walks share a neighbourhood.  (The
/// cohort size and its draw are assumptions: the issue asks for batches whose
/// seeds share a neighbourhood, and no batch log is available.)
fn cohorts(inputs: &mut Inputs) -> Vec<Vec<Query>> {
    let graph = inputs.prefix_graph(inputs.arrivals.len());
    let mut rng = SplitMix::new(inputs.rng.next_u64());
    (0..COHORTS)
        .map(|_| {
            let hub = inputs.seeds.draw(&mut rng);
            let followers = graph.in_neighbors(hub);
            (0..COHORT)
                .map(|_| {
                    let seed = if followers.is_empty() {
                        hub
                    } else {
                        followers[rng.below(followers.len())]
                    };
                    personalized(seed)
                })
                .collect()
        })
        .collect()
}

/// What one client thread measured.
#[derive(Default)]
struct ClientRun {
    ops: Timeline,
    queries: u64,
    fetches: u64,
    elapsed: f64,
    kept: Vec<Kept>,
}

fn pass(ctx: &Ctx, load: &Load, traced: bool, report: &mut Report) {
    let t0 = Instant::now();
    let mut setup_tracer = Tracer::new(traced, t0, 0);
    let (serving, setup_s) = repeat_setup(
        SETUP_REPS,
        |_| load.inputs.prefix_graph(load.inputs.arrivals.len()),
        |graph| {
            let mut engine = IncrementalPageRank::from_graph(graph, config(ctx.seed));
            engine.set_threads(1);
            let serving = freeze(&mut setup_tracer, engine, load.query_seed);
            let handle = serving.handle();
            for (i, q) in load.warmup.iter().enumerate() {
                handle.serve(u64::MAX - i as u64, q);
            }
            serving
        },
    );
    let handle = serving.handle();
    let view = handle.pin();
    if traced {
        let sample: Vec<(u64, Query)> = load.singles[..REPLAY]
            .iter()
            .enumerate()
            .map(|(i, q)| (2 * i as u64, q.clone()))
            .collect();
        replay_personalized(&view, load.query_seed, &sample, &mut setup_tracer, report);
    }
    let before = view.cache_stats();

    let seconds = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let (singles, batches, tracers) = std::thread::scope(|s| {
        let a =
            s.spawn(|| singles_client(&handle, load, start, seconds, Tracer::new(traced, t0, 1)));
        let b = s.spawn(|| batch_client(&handle, load, start, seconds, Tracer::new(traced, t0, 2)));
        let (a, ta) = a.join().expect("single-query client panicked");
        let (b, tb) = b.join().expect("batch client panicked");
        (a, b, [ta, tb])
    });
    let after = view.cache_stats();

    // Output check: one generation, so every kept answer is re-answered on it.
    let mut kept = singles.kept.len() as u64;
    let mut bad = check_answers(&view, load.query_seed, &singles.kept);
    kept += batches.kept.len() as u64;
    bad += check_answers(&view, load.query_seed, &batches.kept);
    report.attempt(singles.queries + batches.queries + kept, bad);
    drop(view);
    if traced {
        batch_vs_singles(&handle, load, report);
    }

    let restart_s = restart(
        serving.into_engine(),
        load.query_seed,
        &load.singles[0],
        &mut setup_tracer,
    );

    let (p50, p99) = singles.ops.p50_p99(singles.elapsed);
    let (b50, b99) = batches.ops.p50_p99(batches.elapsed);
    let qps = singles.ops.wall_rate(singles.elapsed) + batches.ops.wall_rate(batches.elapsed);
    report.set("setup_s", setup_s);
    report.set("restart_s", restart_s);
    report.set("ops_per_s", qps);
    report.set("primary_p50_us", p50 * 1e6);
    report.set("primary_p99_us", p99 * 1e6);
    report.set("secondary_p50_us", b50 * 1e6);
    report.set("secondary_p99_us", b99 * 1e6);
    report.set("rss_peak_mb", rss_peak_mib());
    report.note(format!(
        "qps = {qps:.0} ({} singles, {} batched queries); query p50/p99 over {} samples, batch p50/p99 over {} samples",
        singles.queries,
        batches.queries,
        singles.ops.len(),
        batches.ops.len()
    ));

    if traced {
        let served = singles.queries + batches.queries;
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        report.set(
            "cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        report.set(
            "cache.misses_per_query",
            misses as f64 / served.max(1) as f64,
        );
        report.set(
            "core.fetches_per_query",
            (singles.fetches + batches.fetches) as f64 / served.max(1) as f64,
        );
        let mut trace = Trace::default();
        trace.add(setup_tracer);
        for t in tracers {
            trace.add(t);
        }
        finish_trace(ctx, &trace, report);
    }
}

fn singles_client(
    handle: &ServeHandle,
    load: &Load,
    start: Instant,
    seconds: Duration,
    mut tracer: Tracer,
) -> (ClientRun, Tracer) {
    let mut run = ClientRun::default();
    let mut i = 0usize;
    while start.elapsed() < seconds {
        let query = &load.singles[i % load.singles.len()];
        let qid = 2 * i as u64;
        let t = Instant::now();
        let served: Served = if tracer.is_on() {
            let root = tracer.begin("client", "query", qid, SpanId::default());
            let view = tracer.span("ppr_serve.generation", "pin", qid, root, || handle.pin());
            let served = tracer.span("ppr_serve.generation", "answer", qid, root, || {
                view.answer(handle.query_seed(), qid, query)
            });
            tracer.end(root);
            served
        } else {
            handle.serve(qid, query)
        };
        run.ops.push(start.elapsed(), t.elapsed(), 1);
        run.fetches += served.fetches;
        if i.is_multiple_of(CHECK_EVERY) {
            run.kept.push(Kept {
                query_id: qid,
                query: query.clone(),
                served,
            });
        }
        i += 1;
    }
    run.queries = i as u64;
    run.elapsed = start.elapsed().as_secs_f64();
    (run, tracer)
}

fn batch_client(
    handle: &ServeHandle,
    load: &Load,
    start: Instant,
    seconds: Duration,
    mut tracer: Tracer,
) -> (ClientRun, Tracer) {
    let mut run = ClientRun::default();
    let mut i = 0usize;
    let mut jobs = Vec::with_capacity(COHORT);
    while start.elapsed() < seconds {
        let cohort = &load.cohorts[i % load.cohorts.len()];
        jobs.clear();
        for (j, q) in cohort.iter().enumerate() {
            jobs.push((((i * COHORT + j) as u64) << 1 | 1, q.clone()));
        }
        let batch = QueryBatch::of(&jobs);
        let rid = jobs[0].0;
        let t = Instant::now();
        let root = tracer.begin("client", "batch", rid, SpanId::default());
        let answers = tracer.span("ppr_serve.batch", "serve_batch", rid, root, || {
            handle.serve_batch(&batch)
        });
        tracer.end(root);
        run.ops.push(start.elapsed(), t.elapsed(), COHORT);
        run.fetches += answers.iter().map(|a| a.fetches).sum::<u64>();
        if i.is_multiple_of(CHECK_EVERY) {
            for ((qid, query), served) in jobs.iter().zip(answers) {
                run.kept.push(Kept {
                    query_id: *qid,
                    query: query.clone(),
                    served,
                });
            }
        }
        i += 1;
    }
    run.queries = (i * COHORT) as u64;
    run.elapsed = start.elapsed().as_secs_f64();
    (run, tracer)
}

/// Fetches per query that reach the generation's shared cache, for the first
/// cohorts served one query at a time and then as batches on the same
/// generation: the batch-local layer absorbs the repeats inside a cohort.
fn batch_vs_singles(handle: &ServeHandle, load: &Load, report: &mut Report) {
    let sample = &load.cohorts[..64];
    let queries = (sample.len() * COHORT) as f64;
    let lookups = || {
        let s = handle.pin().cache_stats();
        (s.hits + s.misses) as f64
    };
    let before = lookups();
    for (i, cohort) in sample.iter().enumerate() {
        for (j, q) in cohort.iter().enumerate() {
            handle.serve(((i * COHORT + j) as u64) << 1 | 1, q);
        }
    }
    let singles = lookups() - before;
    let before = lookups();
    for (i, cohort) in sample.iter().enumerate() {
        let jobs: Vec<(u64, Query)> = cohort
            .iter()
            .enumerate()
            .map(|(j, q)| (((i * COHORT + j) as u64) << 1 | 1, q.clone()))
            .collect();
        handle.serve_batch(&QueryBatch::of(&jobs));
    }
    let batched = lookups() - before;
    report.set("batch.singles_misses_per_query", singles / queries);
    report.set("batch.misses_per_query", batched / queries);
}
