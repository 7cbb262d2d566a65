//! `analyze-wide`: the offline path of `sentinet analyze` over a wide
//! network — `read_trace_sanitized`, then `Pipeline::push_values` per
//! reading, then `finalize` and the report. No sockets, no WAL: the
//! detector (`core`) does nearly all the work.

use crate::inputs::{generate, regenerates, route_digest};
use crate::stats::{fnv1a, median, ms, p99, peak_rss_mb, quantile};
use crate::trace::{span, span_layers, Shared, Tracer};
use crate::{Ctx, Json, Layers, Outcome, Workload};
use sentinet_core::{Pipeline, PipelineReport, RecoveryPlan};
use sentinet_sim::{read_trace_sanitized, IngestReport, Trace};
use std::fs::File;
use std::io::BufReader;
use std::time::Instant;

/// The diagnosis text `analyze` prints: report plus recovery plan.
fn render(report: &PipelineReport, plan: &RecoveryPlan) -> String {
    let mut out = format!("{report}\nrecovery plan:\n");
    for (id, action) in &plan.actions {
        out.push_str(&format!("  {id}: {action:?}\n"));
    }
    out
}

/// Detector runs per input read: the read dominates a pass, so each
/// read is followed by several identical runs of the detector.
const RUNS_PER_READ: usize = 3;

/// The input as `read_trace_sanitized` returned it, and how long that
/// took.
struct Input {
    trace: Trace,
    ingest: IngestReport,
    read_s: f64,
}

fn read_input(ctx: &Ctx, tracer: Option<&Shared>) -> Result<Input, String> {
    let t = Instant::now();
    let (trace, ingest) = span(tracer, "sim.read", || {
        let file = File::open(&ctx.input).map_err(|e| e.to_string())?;
        read_trace_sanitized(BufReader::new(file)).map_err(|e| e.to_string())
    })?;
    Ok(Input {
        trace,
        ingest,
        read_s: t.elapsed().as_secs_f64(),
    })
}

/// One detector run: `Pipeline::new`, the push loop, and the report.
/// Every run repeats identical work, so its timings line up item by
/// item with every other run's.
struct Run {
    new_s: f64,
    /// Duration of each window-closing `push_values` call (the final
    /// window closes in `finalize`).
    window_ms: Vec<f64>,
    /// The push loop cut at each window close: chunk `j` runs from the
    /// end of window `j - 1`'s push to the end of window `j`'s; the
    /// last chunk runs on to the built report. The chunks sum to the
    /// time from the first push to the report.
    chunk_s: Vec<f64>,
    report_s: f64,
    diagnosis: String,
    pushed: u64,
}

fn detect(trace: &Trace, tracer: Option<&Shared>) -> Run {
    let shape = crate::shape::Shape::federate_defaults();
    let t = Instant::now();
    let mut pipeline = Pipeline::new(shape.pipeline(), shape.period);
    let new_s = t.elapsed().as_secs_f64();

    let mut window_ms = Vec::new();
    let mut chunk_s = Vec::new();
    let mut pushed = 0u64;
    let mut boundary = Instant::now();
    for (i, (time, sensor, reading)) in trace.delivered().enumerate() {
        let idx = tracer.map(|t| {
            let mut t = t.borrow_mut();
            t.set_request(Some(i as u64));
            t.enter("core.push")
        });
        let begin = Instant::now();
        let outcomes = pipeline.push_values(time, sensor, reading.values());
        let end = Instant::now();
        if let (Some(t), Some(idx)) = (tracer, idx) {
            let mut t = t.borrow_mut();
            t.exit(idx);
            if !outcomes.is_empty() {
                t.rename(idx, "core.window");
            }
        }
        if !outcomes.is_empty() {
            window_ms.push(ms(end - begin));
            chunk_s.push((end - boundary).as_secs_f64());
            boundary = end;
        }
        for o in outcomes {
            pipeline.recycle_outcome(o);
        }
        pushed += 1;
    }
    if let Some(t) = tracer {
        t.borrow_mut().set_request(None);
    }
    let t = Instant::now();
    let finals = span(tracer, "core.window", || pipeline.finalize());
    if !finals.is_empty() {
        window_ms.push(ms(t.elapsed()));
    }
    let (report, plan) = span(tracer, "core.classify", || {
        (pipeline.report(), RecoveryPlan::from_pipeline(&pipeline))
    });
    let end = Instant::now();
    chunk_s.push((end - boundary).as_secs_f64());
    Run {
        new_s,
        window_ms,
        chunk_s,
        report_s: (end - t).as_secs_f64(),
        diagnosis: render(&report, &plan),
        pushed,
    }
}

/// Item-wise minimum of equally long per-run series.
fn fastest<'a>(series: impl Iterator<Item = &'a Vec<f64>>, problems: &mut Vec<String>) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::new();
    for s in series {
        if out.is_empty() {
            out.clone_from(s);
        } else if out.len() != s.len() {
            problems.push("runs over one input closed different numbers of windows".into());
        } else {
            for (o, &x) in out.iter_mut().zip(s) {
                *o = o.min(x);
            }
        }
    }
    out
}

/// The reference: `Pipeline::process_trace` over the in-memory trace
/// the CSV was written from.
fn reference(trace: &Trace) -> String {
    let shape = crate::shape::Shape::federate_defaults();
    let mut pipeline = Pipeline::new(shape.pipeline(), shape.period);
    pipeline.process_trace(trace);
    render(&pipeline.report(), &RecoveryPlan::from_pipeline(&pipeline))
}

pub fn analyze_wide(ctx: &Ctx) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let mut facts = Json::obj();
    let mut setups = Vec::new();
    let mut runs: Vec<Run> = Vec::new();
    let mut first_input = None;
    let started = Instant::now();
    // Whole passes (one read, then several detector runs) until the
    // budget is spent, two at least; a traced invocation needs one
    // untraced run beside its traced one.
    let (min_passes, runs_per_read, budget) = if ctx.traced {
        (1, 1, 0.0)
    } else {
        (2, RUNS_PER_READ, ctx.seconds)
    };
    while setups.len() < min_passes || started.elapsed().as_secs_f64() < budget {
        let input = read_input(ctx, None)?;
        for k in 0..runs_per_read {
            let run = detect(&input.trace, None);
            if k == 0 {
                setups.push(input.read_s + run.new_s);
            }
            runs.push(run);
        }
        if first_input.is_none() {
            first_input = Some((route_digest(&input.trace), input.ingest));
        }
    }
    let peak_rss = peak_rss_mb();
    let (digest, ingest) = first_input.ok_or("no pass ran")?;
    let first = &runs[0];
    if runs.iter().any(|r| r.diagnosis != first.diagnosis) {
        problems.push("diagnosis differs between runs over one input".into());
    }
    let regenerated = generate(Workload::AnalyzeWide, ctx.seed);
    if !regenerates(&regenerated, &ctx.input)? {
        problems.push("the seed did not regenerate the input byte for byte".into());
    }
    if first.diagnosis != reference(&regenerated) {
        problems.push(
            "streaming diagnosis differs from Pipeline::process_trace on the in-memory trace"
                .into(),
        );
    }
    facts.put("route_digest", Json::Str(format!("{digest:016x}")));
    facts.put(
        "diagnosis_digest",
        Json::Str(format!("{:016x}", fnv1a(first.diagnosis.as_bytes()))),
    );
    let rejected = ingest.rejected.len() as u64;
    if rejected > 0 {
        problems.push(format!("sanitizer rejected {rejected} record(s)"));
    }
    let attempted = first.pushed + rejected;
    // Interference on a shared host only ever adds time, so each item
    // of the repeated work counts at its fastest repetition; the
    // percentiles then run over the items. Set-up stays a median.
    let windows = fastest(runs.iter().map(|r| &r.window_ms), &mut problems);
    let chunks = fastest(runs.iter().map(|r| &r.chunk_s), &mut problems);
    let rate = first.pushed as f64 / chunks.iter().sum::<f64>();
    let setup_s = median(&setups);
    let report_s = runs
        .iter()
        .map(|r| r.report_s)
        .fold(f64::INFINITY, f64::min);
    let window_p99 = p99(&windows).unwrap_or(f64::NAN);
    let mut named = Json::obj();
    named.put("analyze_rps", Json::metric(rate, "1/s"));
    named.put("window_p50_ms", Json::metric(median(&windows), "ms"));
    named.put(
        "window_p95_ms",
        Json::metric(quantile(&windows, 0.95), "ms"),
    );
    named.put("window_p99_ms", Json::metric(window_p99, "ms"));
    named.put("report_s", Json::metric(report_s, "s"));
    named.put(
        "failed_frac",
        Json::metric(rejected as f64 / attempted.max(1) as f64, "fraction"),
    );
    named.put("windows_per_run", Json::Int(first.window_ms.len() as u64));
    named.put("passes", Json::Int(setups.len() as u64));
    named.put("detector_runs", Json::Int(runs.len() as u64));
    facts.put("named", named);

    let metrics = if ctx.traced {
        let untraced_total = setups[0] + first.chunk_s.iter().sum::<f64>();
        let tracer = Tracer::shared();
        let root = tracer.borrow_mut().enter("pass");
        let input = read_input(ctx, Some(&tracer))?;
        let traced = detect(&input.trace, Some(&tracer));
        tracer.borrow_mut().exit(root);
        if traced.diagnosis != first.diagnosis {
            problems.push("traced pass diagnosis differs from the untraced one".into());
        }
        let t = tracer.borrow();
        let mut layers = Layers::default();
        let totals = span_layers(&t, &mut layers, &mut facts);
        if let Some(windows) = totals.get("core.window") {
            layers.set("core.windows", windows.count as f64);
        }
        layers.set("sim.records", input.ingest.accepted as f64);
        layers.set("sim.rejected", input.ingest.rejected.len() as f64);
        facts.put("untraced_total_s", Json::Num(untraced_total));
        facts.put(
            "tracing_hosting_overhead_s",
            Json::Num(layers.get("traced_total_s") - untraced_total),
        );
        t.write_tsv(&ctx.work.join("spans.tsv"))
            .map_err(|e| format!("writing spans: {e}"))?;
        layers.into_metrics()
    } else {
        vec![
            ("setup_s", setup_s),
            ("throughput_rps", rate),
            ("latency_p50_ms", median(&windows)),
            ("latency_p95_ms", quantile(&windows, 0.95)),
            ("peak_rss_mb", peak_rss),
            (
                "admitted_frac",
                first.pushed as f64 / attempted.max(1) as f64,
            ),
        ]
    };
    Ok(Outcome {
        problems,
        attempted,
        failed: rejected,
        metrics,
        facts,
    })
}
