//! Pieces shared by the workloads: repeated set-up, the replayed query sample
//! of the traced run, answer checks, and trace output.

use crate::inputs::{
    rss_peak_mib, ALPHA, EPSILON, K, NODES, R, RESTART_GAP, RESTART_REPS, WALK_LENGTH,
};
use crate::report::Report;
use crate::stats::{mean, median, min, Samples};
use crate::trace::{SpanId, Trace, Tracer};
use crate::Ctx;
use ppr_core::{PersonalizedWalkResult, PersonalizedWalker, TopKScratch, UpdateStats, WalkScratch};
use ppr_graph::GraphView;
use ppr_serve::{CommitStats, PinnedView, Query, QueryEngine, ServeEngine, Served};
use std::collections::HashSet;
use std::time::Instant;

/// Runs `reps` set-ups and keeps the last one; returns it with the fastest
/// set-up's time, the one least disturbed by other tenants of the machine.
/// `prepare` builds each set-up's inputs off the clock; only `build` is
/// timed.  Earlier set-ups are dropped before the next one starts, so they do
/// not raise the peak resident set.
pub fn repeat_setup<P, T>(
    reps: usize,
    mut prepare: impl FnMut(usize) -> P,
    mut build: impl FnMut(P) -> T,
) -> (T, f64) {
    let mut kept = None;
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        drop(kept.take());
        let input = prepare(rep);
        let t0 = Instant::now();
        kept = Some(build(input));
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), min(&times))
}

/// Restarts serving over `engine` `RESTART_REPS` times: each freezes it into
/// a fresh session (`QueryEngine::new`) and answers `query`.  Returns the
/// fastest time.  The restarts are spaced `RESTART_GAP` apart so that they
/// sample the machine over a few seconds, not in one disturbed stretch.
pub fn restart<E: ServeEngine>(
    engine: E,
    query_seed: u64,
    query: &Query,
    tracer: &mut Tracer,
) -> f64 {
    let mut engine = Some(engine);
    let mut times = Vec::with_capacity(RESTART_REPS);
    for _ in 0..RESTART_REPS {
        std::thread::sleep(RESTART_GAP);
        let e = engine.take().expect("engine handed back");
        let t = Instant::now();
        let serving = freeze(tracer, e, query_seed);
        std::hint::black_box(serving.handle().serve(u64::MAX, query));
        times.push(t.elapsed().as_secs_f64());
        engine = Some(serving.into_engine());
    }
    min(&times)
}

/// `QueryEngine::new`, in a `ppr_serve.engine` span.
pub fn freeze<E: ServeEngine>(tracer: &mut Tracer, engine: E, query_seed: u64) -> QueryEngine<E> {
    tracer.span(
        "ppr_serve.engine",
        "QueryEngine::new",
        0,
        SpanId::default(),
        || QueryEngine::new(engine, query_seed),
    )
}

/// Copy-on-write work per commit, from the serving session's counters.
pub fn commit_copies(stats: &CommitStats, report: &mut Report) {
    let commits = stats.commits.max(1) as f64;
    let leaves = stats.walk_chunks_copied + stats.count_chunks_copied + stats.graph_chunks_copied;
    report.set("serve.chunks_copied_per_commit", leaves as f64 / commits);
    report.set(
        "serve.spine_blocks_per_commit",
        stats.spine_blocks_copied as f64 / commits,
    );
}

/// Walk work of a replayed write stream, summed from exact `UpdateStats`.
#[derive(Default)]
pub struct Work {
    pub steps: u64,
    pub segments: u64,
    pub edges: usize,
}

impl Work {
    pub fn add(&mut self, stats: &UpdateStats, edges: usize) {
        self.steps += stats.walk_steps;
        self.segments += stats.segments_updated;
        self.edges += edges;
    }

    /// `count.walk_steps` and `count.segments`, set once the fixed prefix
    /// every run replays is done.
    pub fn report_counts(&self, report: &mut Report) {
        report.set("count.walk_steps", self.steps as f64);
        report.set("count.segments", self.segments as f64);
    }
}

/// The `ppr_core::incremental` replay metrics: apply p50/p99, work per edge
/// of `all`, and the walk steps of `arrivals` over the Theorem 4 bound for
/// those arrivals on top of `m0` edges.
pub fn incremental_replay(
    apply: &Samples,
    all: &Work,
    arrivals: &Work,
    m0: usize,
    report: &mut Report,
) {
    let theorem4 = ppr_core::bounds::total_update_work(NODES, R, m0 + arrivals.edges, EPSILON)
        - ppr_core::bounds::total_update_work(NODES, R, m0, EPSILON);
    report.set(
        "core.walk_steps_per_edge",
        all.steps as f64 / all.edges as f64,
    );
    report.set(
        "core.segments_per_edge",
        all.segments as f64 / all.edges as f64,
    );
    report.set("core.work_vs_theorem4", arrivals.steps as f64 / theorem4);
    let (a50, a99) = apply.p50_p99().unwrap_or((0.0, 0.0));
    report.set("core.apply_p50_ms", a50 * 1e3);
    report.set("core.apply_p99_ms", a99 * 1e3);
}

/// `serve.commit_ms`, the median commit call, and `serve.commit_overhead_ms`,
/// the median of each commit minus the bare apply of the same batch.
pub fn commit_overhead(commits: &Samples, applies: &[f64], report: &mut Report) {
    report.set(
        "serve.commit_ms",
        commits.p50_p99().map_or(0.0, |p| p.0 * 1e3),
    );
    let overhead: Vec<f64> = commits
        .0
        .iter()
        .zip(applies)
        .map(|(c, a)| (c - a) * 1e3)
        .collect();
    report.set(
        "serve.commit_overhead_ms",
        if overhead.is_empty() {
            0.0
        } else {
            median(&overhead)
        },
    );
}

/// A query kept for the output check, with the answer it was served.
pub struct Kept {
    pub query_id: u64,
    pub query: Query,
    pub served: Served,
}

/// Re-answers each kept query single-threaded on `view` (the generation it was
/// served from) and counts the answers that are not bit-identical.
pub fn check_answers(view: &PinnedView, query_seed: u64, kept: &[Kept]) -> u64 {
    kept.iter()
        .filter(|k| {
            assert_eq!(
                view.epoch(),
                k.served.epoch,
                "checked on the wrong generation"
            );
            view.answer(query_seed, k.query_id, &k.query) != k.served
        })
        .count() as u64
}

/// The traced run's replayed query sample: each query's stitched walk
/// (`walk_query_into` over the pinned view's walks and graph) and its top-k
/// (`top_k_with`), timed separately in `ppr_core.personalized` spans.  Sets the
/// personalized-layer metrics, including the exact fetch count.
pub fn replay_personalized(
    view: &PinnedView,
    query_seed: u64,
    queries: &[(u64, Query)],
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let walker = PersonalizedWalker::new(view.graph(), view.walks(), EPSILON, 0);
    let mut scratch = WalkScratch::new();
    let mut result = PersonalizedWalkResult::default();
    let mut topk = TopKScratch::default();
    let mut exclude = HashSet::new();
    let mut walk = Samples::default();
    let mut top = Samples::default();
    let mut fetches = Vec::with_capacity(queries.len());
    for (qid, query) in queries {
        let Query::PersonalizedTopK {
            seed, walk_length, ..
        } = *query
        else {
            unreachable!("the replay sample holds personalized queries only")
        };
        let root = tracer.begin("client", "replay_query", *qid, SpanId::default());
        let t0 = Instant::now();
        tracer.span(
            "ppr_core.personalized",
            "walk_query_into",
            *qid,
            root,
            || {
                walker.walk_query_into(
                    seed,
                    walk_length,
                    query_seed,
                    *qid,
                    &mut scratch,
                    &mut result,
                )
            },
        );
        let t1 = Instant::now();
        exclude.clear();
        exclude.insert(seed);
        exclude.extend(view.graph().out_neighbors(seed).iter().copied());
        let answer = tracer.span("ppr_core.personalized", "top_k_with", *qid, root, || {
            result.top_k_with(K, &exclude, &mut topk)
        });
        std::hint::black_box(answer);
        top.push(t1.elapsed());
        walk.push(t1 - t0);
        tracer.end(root);
        fetches.push(result.fetches as f64);
    }
    let fetches_mean = mean(&fetches);
    report.set("core.walk_us", walk.p50_p99().map_or(0.0, |p| p.0 * 1e6));
    report.set("core.topk_us", top.p50_p99().map_or(0.0, |p| p.0 * 1e6));
    report.set("count.fetches", fetches.iter().sum());
    report.set(
        "core.fetches_vs_cor9",
        fetches_mean / ppr_core::bounds::expected_fetches(WALK_LENGTH as f64, NODES, R, ALPHA),
    );
}

/// Sets the metrics read off the spans (self time of every traced layer, and
/// the pin, answer, freeze and open times where the workload has them) and
/// writes the spans out under the working directory's `traces/`.
pub fn finish_trace(ctx: &Ctx, trace: &Trace, report: &mut Report) {
    let spans = |layer, name| Samples(trace.durations(layer, name)).p50_p99();
    if let Some((p50, p99)) = spans("ppr_serve.generation", "pin") {
        report.set("serve.pin_p50_us", p50 * 1e6);
        report.set("serve.pin_p99_us", p99 * 1e6);
    }
    if let Some((p50, _)) = spans("ppr_serve.generation", "answer") {
        report.set("serve.answer_us", p50 * 1e6);
    }
    if let Some((p50, _)) = spans("ppr_serve.engine", "QueryEngine::new") {
        report.set("serve.freeze_s", p50);
    }
    if let Some((p50, _)) = spans("ppr_persist.disk", "open") {
        report.set("persist.open_s", p50);
    }
    for (layer, ms) in trace.self_ms() {
        report.set(&format!("self_ms.{layer}"), ms);
    }
    report.set("trace.spans", trace.span_count() as f64);
    let dir = ctx
        .work
        .parent()
        .expect("work dir has a parent")
        .join("traces");
    let path = dir.join(format!("{}-seed{}.tsv", ctx.workload, ctx.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| trace.write(&path)) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
}

/// Runs the untraced pass, which sets the end-to-end metrics; with `--trace 1`
/// a second, traced pass follows and its per-layer metrics become the report,
/// together with the tracing overhead between the two passes.
pub fn passes(ctx: &Ctx, report: &mut Report, mut pass: impl FnMut(bool, &mut Report)) {
    report.note(format!(
        "peak resident set before set-up (the benchmark's generated inputs): {:.1} MiB",
        rss_peak_mib()
    ));
    pass(false, report);
    if !ctx.traced {
        return;
    }
    let mut traced = Report::default();
    pass(true, &mut traced);
    let get = |r: &Report, name: &str| r.get(name).expect("end-to-end metric measured");
    let ops = 100.0 * (1.0 - get(&traced, "ops_per_s") / get(report, "ops_per_s"));
    let p50 = 100.0 * (get(&traced, "primary_p50_us") / get(report, "primary_p50_us") - 1.0);
    traced.set("trace.overhead_ops_pct", ops);
    traced.set("trace.overhead_p50_pct", p50);
    // These come from the untraced pass; they are reported, not bounded.
    for name in ["primary_p99_us", "secondary_p50_us", "secondary_p99_us"] {
        traced.set(name, get(report, name));
    }
    traced.attempt(report.attempted, report.failed);
    let mut notes = std::mem::take(&mut report.notes);
    notes.push("traced pass:".to_string());
    notes.append(&mut traced.notes);
    traced.notes = notes;
    *report = traced;
}
