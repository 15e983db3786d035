//! `salsa`: SALSA maintenance under heavy unfollow churn.
//!
//! An in-memory SALSA engine starts from the first 75% of the arrival order.
//! One closed-loop writer alternates an arrival batch with a batch unfollowing
//! random edges that already arrived; SALSA deletions run per edge through
//! `remove_edge`, so the deletion path carries real load.  A few personalized
//! SALSA authority queries follow each commit.

use crate::common::{
    check_answers, commit_copies, commit_overhead, finish_trace, freeze, passes, repeat_setup,
    restart, Kept, Work,
};
use crate::inputs::{config, rss_peak_mib, Inputs, NODES, SETUP_REPS};
use crate::report::Report;
use crate::rng::SplitMix;
use crate::stats::{Samples, Timeline};
use crate::trace::{SpanId, Trace, Tracer};
use crate::Ctx;
use ppr_core::IncrementalSalsa;
use ppr_graph::Edge;
use ppr_serve::{Query, QueryEngine};
use std::time::{Duration, Instant};

const BASE_SHARE: f64 = 0.75;
/// The round's shape is an assumption, not a measurement: the unfollow share
/// (half as many edges leave as arrive) is set high on purpose so that the
/// per-edge deletion path carries real load, and the queries per commit only
/// keep the read path warm.
const ARRIVAL_BATCH: usize = 4;
const DELETE_BATCH: usize = 2;
/// Authority queries after each commit.
const QUERIES_PER_COMMIT: usize = 2;
const SALSA_K: usize = 10;
const SALSA_WALK: usize = 1_000;
const CHECK_EVERY: usize = 16;
const COUNTED_ROUNDS: usize = 50;

struct Round {
    arrive: Vec<Edge>,
    delete: Vec<Edge>,
    queries: Vec<Query>,
}

struct Load {
    inputs: Inputs,
    base: usize,
    rounds: Vec<Round>,
    query_seed: u64,
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut inputs = Inputs::new(ctx.seed);
    let base = (inputs.arrivals.len() as f64 * BASE_SHARE) as usize;
    let mut rng = SplitMix::new(inputs.rng.next_u64());
    let mut live: Vec<Edge> = inputs.arrivals[..base].to_vec();
    let mut rounds = Vec::new();
    for batch in inputs.arrivals[base..].chunks(ARRIVAL_BATCH) {
        live.extend_from_slice(batch);
        let delete = (0..DELETE_BATCH)
            .map(|_| live.swap_remove(rng.below(live.len())))
            .collect();
        let queries = (0..2 * QUERIES_PER_COMMIT)
            .map(|_| Query::SalsaAuthorities {
                seed: inputs.seeds.draw(&mut rng),
                k: SALSA_K,
                walk_length: SALSA_WALK,
            })
            .collect();
        rounds.push(Round {
            arrive: batch.to_vec(),
            delete,
            queries,
        });
    }
    report.note(format!(
        "{NODES} nodes, {base} edges at set-up, 1 closed-loop writer: {ARRIVAL_BATCH} arrivals + \
         {DELETE_BATCH} unfollows per round, {QUERIES_PER_COMMIT} authority queries after each commit"
    ));
    let load = Load {
        inputs,
        base,
        rounds,
        query_seed: ctx.seed.rotate_left(31) ^ 0x5a15a,
    };
    passes(ctx, report, |traced, r| pass(ctx, &load, traced, r));
}

#[derive(Default)]
struct WriterRun {
    commits: Timeline,
    queries: Timeline,
    elapsed: f64,
    rounds: usize,
    edges: usize,
    kept: u64,
    bad: u64,
}

fn pass(ctx: &Ctx, load: &Load, traced: bool, report: &mut Report) {
    let t0 = Instant::now();
    let mut tracer = Tracer::new(traced, t0, 0);
    let (mut serving, setup_s) = repeat_setup(
        SETUP_REPS,
        |_| load.inputs.prefix_graph(load.base),
        |graph| {
            let mut engine = IncrementalSalsa::from_graph(graph, config(ctx.seed));
            engine.set_threads(1);
            freeze(&mut tracer, engine, load.query_seed)
        },
    );
    let run = write(
        &mut serving,
        load,
        Duration::from_secs_f64(ctx.seconds),
        &mut tracer,
    );
    report.attempt(
        (2 * run.rounds + run.queries.len()) as u64 + run.kept,
        run.bad,
    );
    let stats = serving.commit_stats();

    let restart_s = restart(
        serving.into_engine(),
        load.query_seed,
        &load.rounds[0].queries[0],
        &mut tracer,
    );

    let eps = run.commits.wall_rate(run.elapsed);
    let (c50, c99) = run.commits.p50_p99(run.elapsed);
    let (q50, q99) = run.queries.p50_p99(run.elapsed);
    report.set("setup_s", setup_s);
    report.set("restart_s", restart_s);
    report.set("ops_per_s", eps);
    report.set("primary_p50_us", c50 * 1e6);
    report.set("primary_p99_us", c99 * 1e6);
    report.set("secondary_p50_us", q50 * 1e6);
    report.set("secondary_p99_us", q99 * 1e6);
    report.set("rss_peak_mb", rss_peak_mib());
    report.note(format!(
        "ingest_eps = {eps:.0} ({} edges in {:.3} s of wall time, queries included); commit \
         p50/p99 over {} samples; query p50/p99 over {} samples",
        run.edges,
        run.elapsed,
        run.commits.len(),
        run.queries.len()
    ));

    if traced {
        commit_copies(&stats, report);
        replay_writes(ctx, load, &run, &mut tracer, report);
        let mut trace = Trace::default();
        trace.add(tracer);
        finish_trace(ctx, &trace, report);
    }
}

fn write(
    serving: &mut QueryEngine<IncrementalSalsa>,
    load: &Load,
    seconds: Duration,
    tracer: &mut Tracer,
) -> WriterRun {
    let mut run = WriterRun::default();
    let handle = serving.handle();
    let query_seed = handle.query_seed();
    let start = Instant::now();
    let mut qid = 0u64;
    for (i, round) in load.rounds.iter().enumerate() {
        if start.elapsed() >= seconds {
            break;
        }
        for (step, edges) in [&round.arrive, &round.delete].into_iter().enumerate() {
            let t = Instant::now();
            let root = tracer.begin("client", "commit", i as u64, SpanId::default());
            if step == 0 {
                tracer.span(
                    "ppr_serve.engine",
                    "commit_arrivals",
                    i as u64,
                    root,
                    || serving.commit_arrivals(edges),
                );
            } else {
                tracer.span(
                    "ppr_serve.engine",
                    "commit_deletions",
                    i as u64,
                    root,
                    || serving.commit_deletions(edges),
                );
            }
            tracer.end(root);
            run.commits.push(start.elapsed(), t.elapsed(), edges.len());
            run.edges += edges.len();
            for query in &round.queries[step * QUERIES_PER_COMMIT..][..QUERIES_PER_COMMIT] {
                let t = Instant::now();
                let served = handle.serve(qid, query);
                run.queries.push(start.elapsed(), t.elapsed(), 1);
                if qid.is_multiple_of(CHECK_EVERY as u64) {
                    run.kept += 1;
                    let kept = [Kept {
                        query_id: qid,
                        query: query.clone(),
                        served,
                    }];
                    run.bad += check_answers(&handle.pin(), query_seed, &kept);
                }
                qid += 1;
            }
        }
        run.rounds += 1;
    }
    run.elapsed = start.elapsed().as_secs_f64();
    run
}

/// The traced pass's write-side replay on a bare SALSA engine: arrival
/// batches through `apply_arrivals`, unfollows edge by edge through
/// `remove_edge` (summed per batch), with exact work counts of the first
/// `COUNTED_ROUNDS` rounds.
fn replay_writes(
    ctx: &Ctx,
    load: &Load,
    run: &WriterRun,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let mut engine =
        IncrementalSalsa::from_graph(load.inputs.prefix_graph(load.base), config(ctx.seed));
    engine.set_threads(1);
    let mut apply = Samples::default();
    let mut delete = Samples::default();
    let mut work = Work::default();
    let mut per_commit = Vec::new();
    for (i, round) in load
        .rounds
        .iter()
        .take(run.rounds.max(COUNTED_ROUNDS))
        .enumerate()
    {
        let t = Instant::now();
        let stats = tracer.span(
            "ppr_core.salsa",
            "apply_arrivals",
            i as u64,
            SpanId::default(),
            || engine.apply_arrivals(&round.arrive),
        );
        let a = t.elapsed();
        work.add(&stats, round.arrive.len());
        let t = Instant::now();
        let span = tracer.begin("ppr_core.salsa", "remove_edge", i as u64, SpanId::default());
        for &edge in &round.delete {
            if let Some(stats) = engine.remove_edge(edge) {
                work.add(&stats, 0);
            }
        }
        tracer.end(span);
        let d = t.elapsed();
        work.edges += round.delete.len();
        if i < run.rounds {
            apply.push(a);
            delete.push(d);
            per_commit.push(a.as_secs_f64());
            per_commit.push(d.as_secs_f64());
        }
        if i + 1 == COUNTED_ROUNDS {
            work.report_counts(report);
        }
    }
    report.set("salsa.apply_ms", apply.p50_p99().map_or(0.0, |p| p.0 * 1e3));
    report.set(
        "salsa.delete_ms",
        delete.p50_p99().map_or(0.0, |p| p.0 * 1e3),
    );
    report.set(
        "salsa.walk_steps_per_edge",
        work.steps as f64 / work.edges as f64,
    );
    commit_overhead(&run.commits.latencies(), &per_commit, report);
}
