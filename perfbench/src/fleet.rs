//! The two federation workloads, `live-burst` (open loop) and
//! `backfill` (closed loop), driven through the same calls `sentinet
//! federate` makes: `read_trace_sanitized`, `Federation::new` over a
//! `ProcessBackend` of spawned `sentinet serve` children,
//! `Federation::route` per reading, `Federation::finish`.

use crate::hosted::{Finished, HostedBackend};
use crate::inputs::{generate, regenerates, route_digest};
use crate::shape::{Shape, PARTITIONS};
use crate::stats::{dir_bytes, fnv1a, median, ms, p99, peak_rss_mb, quantile};
use crate::trace::{span, span_layers, Shared, Tracer};
use crate::{Ctx, Json, Layers, Outcome, Workload};
use sentinet_controller::{
    DrillPlan, Federation, FleetReport, InProcessBackend, PartitionBackend, PartitionMap,
};
use sentinet_core::Pipeline;
use sentinet_sim::{read_trace_sanitized, IngestReport, SensorId, Timestamp, Trace};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

/// `live-burst`: wall time per 300 s sampling period. Every sensor's
/// reading for one period falls due at the same instant, as it does
/// from synchronised motes; 100 sensors give ≈250 readings/s.
const LIVE_PERIOD_WALL: Duration = Duration::from_millis(400);
/// `live-burst`: the children's WAL retention budget and segment size.
const LIVE_RETENTION: (u64, u64) = (65_536, 16_384);
/// `live-burst`: the accept-latency objective behind `slo_miss_frac`.
const SLO_MS: f64 = 50.0;
/// A `route` call longer than this is a stall.
const STALL_MS: f64 = 10.0;
/// `live-burst`: extra empty set-ups measured per run, so `setup_s`
/// is a median.
const SETUP_REPS: usize = 40;

/// One reading as the generator hands it to `route`.
#[derive(Clone)]
struct Reading {
    time: Timestamp,
    sensor: SensorId,
    values: Vec<f64>,
}

/// How readings fall due.
#[derive(Clone, Copy)]
enum Pace {
    /// Due at the stream timestamp, one sampling period per `wall`.
    Open { wall: Duration, period: u64 },
    /// Due when the previous `route` call returned.
    Closed,
}

/// What one pass of `route` calls measured.
struct Routing {
    accept_ms: Vec<f64>,
    call_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// First due time to the return of the last call.
    span_s: f64,
    errors: u64,
}

fn read_csv(path: &Path) -> Result<(Trace, IngestReport), String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_trace_sanitized(BufReader::new(file)).map_err(|e| e.to_string())
}

fn readings(trace: &Trace) -> Vec<Reading> {
    trace
        .delivered()
        .map(|(time, sensor, r)| Reading {
            time,
            sensor,
            values: r.values().to_vec(),
        })
        .collect()
}

fn partition_map(readings: &[Reading]) -> Result<PartitionMap, String> {
    let sensors = readings.iter().map(|r| r.sensor.0 + 1).max().unwrap_or(0);
    PartitionMap::split_even(sensors, PARTITIONS).map_err(|e| e.to_string())
}

/// A fresh, empty directory for one federation's WALs.
fn fresh(dir: &Path) -> Result<&Path, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Routes `readings` in order, each no earlier than it falls due.
fn route_all<B: PartitionBackend>(
    fed: &mut Federation<B>,
    readings: &[Reading],
    pace: Pace,
    tracer: Option<&Shared>,
) -> Routing {
    let mut out = Routing {
        accept_ms: Vec::with_capacity(readings.len()),
        call_ms: Vec::with_capacity(readings.len()),
        late_ms: Vec::with_capacity(readings.len()),
        span_s: 0.0,
        errors: 0,
    };
    let t_first = readings.first().map_or(0, |r| r.time);
    // An open loop starts a little ahead so the first burst is not
    // already late.
    let lead = match pace {
        Pace::Open { .. } => Duration::from_millis(5),
        Pace::Closed => Duration::ZERO,
    };
    let t0 = Instant::now() + lead;
    let mut last = t0;
    for (i, r) in readings.iter().enumerate() {
        if let Some(t) = tracer {
            t.borrow_mut().set_request(Some(i as u64));
        }
        let due = match pace {
            Pace::Open { wall, period } => {
                t0 + wall.mul_f64((r.time - t_first) as f64 / period as f64)
            }
            Pace::Closed => Instant::now(),
        };
        let now = Instant::now();
        if due > now {
            span(tracer, "load.idle", || std::thread::sleep(due - now));
        }
        let begin = Instant::now();
        let routed = span(tracer, "controller.route", || {
            fed.route(r.sensor, r.time, &r.values)
        });
        let end = Instant::now();
        if routed.is_err() {
            out.errors += 1;
        }
        out.accept_ms.push(ms(end - due));
        out.call_ms.push(ms(end - begin));
        out.late_ms.push(ms(begin.saturating_duration_since(due)));
        last = end;
    }
    if let Some(t) = tracer {
        t.borrow_mut().set_request(None);
    }
    out.span_s = last.saturating_duration_since(t0).as_secs_f64();
    out
}

/// The output checks every fleet run must pass: each partition acked
/// everything routed to it, the merged reports admitted every routed
/// reading, and nothing failed over. Returns readings admitted.
fn check_fleet(fleet: &FleetReport, routed: usize, problems: &mut Vec<String>) -> u64 {
    for p in &fleet.partitions {
        if p.acked != p.routed {
            problems.push(format!(
                "partition {} acked {} of {} routed reading(s)",
                p.partition, p.acked, p.routed
            ));
        }
    }
    let accepted: u64 = fleet
        .partitions
        .iter()
        .map(|p| p.report.ingest.accepted as u64)
        .sum();
    if accepted != routed as u64 {
        problems.push(format!(
            "merged reports admitted {accepted} of {routed} routed reading(s)"
        ));
    }
    for e in &fleet.events {
        problems.push(format!("unexpected federation event: {e}"));
    }
    let acked: u64 = fleet.partitions.iter().map(|p| p.acked).sum();
    accepted.min(acked).min(routed as u64)
}

/// Per-sensor diagnosis lines of a fleet, in sensor order.
fn fleet_diagnoses(fleet: &FleetReport) -> Vec<String> {
    fleet
        .partitions
        .iter()
        .flat_map(|p| &p.report.pipeline.sensors)
        .map(|s| format!("{}\t{}", s.sensor, s.diagnosis))
        .collect()
}

/// The fleet counters and partition facts every traced fleet run
/// reports.
fn fleet_layers(fleet: &FleetReport, layers: &mut Layers) {
    let c = &fleet.counters;
    let sum = |f: fn(&sentinet_controller::PartitionStatus) -> u64| -> f64 {
        fleet.partitions.iter().map(f).sum::<u64>() as f64
    };
    layers.set("controller.failovers", sum(|p| u64::from(p.failovers)));
    layers.set("controller.redelivered", sum(|p| p.redelivered));
    layers.set("controller.orphan_nacks", sum(|p| p.orphan_nacks));
    layers.set("controller.flaps", sum(|p| u64::from(p.flaps)));
    layers.set("gateway.client.frames", c.frames_sent as f64);
    if c.frames_sent > 0 {
        layers.set(
            "gateway.client.readings_per_frame",
            sum(|p| p.acked) / c.frames_sent as f64,
        );
    }
    layers.set("gateway.client.retransmits", c.retransmits as f64);
    layers.set("gateway.client.timeouts", c.timeouts as f64);
    layers.set("gateway.client.nacks", c.nacks as f64);
    layers.set("gateway.client.reconnects", c.reconnects as f64);
    layers.set("core.windows", sum(|p| p.report.pipeline.windows_processed));
}

/// The hosted owners' own counters: server stage times, admission,
/// WAL and storage.
fn hosted_layers(finished: &Finished, layers: &mut Layers) {
    let s = |ns: u64| ns as f64 * 1e-9;
    for (_, h) in finished.borrow().iter() {
        layers.add("gateway.server.decode_s", s(h.server.decode_ns));
        layers.add("gateway.server.ack_s", s(h.server.ack_ns));
        layers.add("gateway.collector.admission_s", s(h.stages.admission_ns));
        layers.add("gateway.wal.append_s", s(h.stages.wal_append_ns));
        layers.add("gateway.wal.fsync_s", s(h.stages.fsync_ns));
        let ingest = &h.report.ingest;
        layers.add("gateway.collector.accepted", ingest.accepted as f64);
        layers.add("gateway.collector.duplicates", ingest.duplicates as f64);
        layers.add("gateway.collector.late", ingest.late as f64);
        layers.add("gateway.collector.shed", ingest.shed as f64);
        let storage = &h.report.storage;
        layers.add(
            "gateway.wal.reclaimed_segments",
            storage.reclaimed_segments as f64,
        );
        layers.add("gateway.wal.budget_shed", storage.budget_shed as f64);
    }
}

/// Span self times plus the `route` call statistics of a traced
/// pass, and where the stalled calls spent their time.
fn route_layers(tracer: &Tracer, layers: &mut Layers, facts: &mut Json) {
    let totals = span_layers(tracer, layers, facts);
    let Some(route) = totals.get("controller.route") else {
        return;
    };
    let calls: Vec<f64> = route
        .durations_ns
        .iter()
        .map(|&ns| ns as f64 * 1e-6)
        .collect();
    layers.set("controller.route_calls", calls.len() as f64);
    layers.set("controller.route_p99_ms", p99(&calls).unwrap_or(f64::NAN));
    layers.set(
        "controller.stall_calls",
        calls.iter().filter(|&&c| c > STALL_MS).count() as f64,
    );
    let mut stalls = Json::obj();
    for (layer, n) in tracer.attribute_slow("controller.route", (STALL_MS * 1e6) as u64) {
        stalls.put(layer, Json::Int(n));
    }
    facts.put("route_stalls_dominated_by", stalls);
}

/// Checks and facts shared by both fleet workloads' untraced runs.
struct FleetRun {
    attempted: u64,
    admitted: u64,
    digests: Vec<u64>,
}

impl FleetRun {
    fn new() -> Self {
        Self {
            attempted: 0,
            admitted: 0,
            digests: Vec::new(),
        }
    }

    fn record(
        &mut self,
        fleet: &FleetReport,
        routing: &Routing,
        routed: usize,
        problems: &mut Vec<String>,
    ) {
        if routing.errors > 0 {
            problems.push(format!(
                "{} route call(s) returned an error",
                routing.errors
            ));
        }
        self.attempted += routed as u64;
        self.admitted += check_fleet(fleet, routed, problems);
        self.digests
            .push(fnv1a(fleet.render_diagnosis().as_bytes()));
    }

    /// Readings attempted and failed, plus the diagnosis digest.
    fn finish(self, problems: &mut Vec<String>, facts: &mut Json) -> (u64, u64, Option<u64>) {
        if self.digests.windows(2).any(|w| w[0] != w[1]) {
            problems.push("fleet diagnosis differs between runs of one seed".into());
        }
        let digest = self.digests.first().copied();
        if let Some(d) = digest {
            facts.put("diagnosis_digest", Json::Str(format!("{d:016x}")));
        }
        (self.attempted, self.attempted - self.admitted, digest)
    }
}

/// Runs one federation over `backend`, timing set-up
/// (`Federation::new`), routing and finish.
fn federate<B: PartitionBackend>(
    map: PartitionMap,
    shape: &Shape,
    backend: B,
    readings: &[Reading],
    pace: Pace,
    tracer: Option<&Shared>,
) -> Result<(f64, Routing, f64, FleetReport), String> {
    let t = Instant::now();
    let mut fed = span(tracer, "controller.spawn", || {
        Federation::new(map, shape.federation(), backend)
    })
    .map_err(|e| e.to_string())?;
    let setup = t.elapsed().as_secs_f64();
    let routing = route_all(&mut fed, readings, pace, tracer);
    let t = Instant::now();
    let fleet = span(tracer, "controller.finish", || fed.finish()).map_err(|e| e.to_string())?;
    Ok((setup, routing, t.elapsed().as_secs_f64(), fleet))
}

/// A traced pass over hosted owners: the per-layer numbers.
fn traced_pass(
    ctx: &Ctx,
    shape: &Shape,
    readings_of: impl FnOnce(&Shared) -> Result<(Vec<Reading>, IngestReport), String>,
    pace: Pace,
    untraced_digest: Option<u64>,
    facts: &mut Json,
    problems: &mut Vec<String>,
) -> Result<Layers, String> {
    let tracer = Tracer::shared();
    let root = tracer.borrow_mut().enter("pass");
    let (readings, ingest) = readings_of(&tracer)?;
    let dir = ctx.work.join("traced");
    let (backend, finished) =
        HostedBackend::new(shape.clone(), fresh(&dir)?.to_path_buf(), tracer.clone());
    let map = partition_map(&readings)?;
    let (_, routing, _, fleet) = federate(map, shape, backend, &readings, pace, Some(&tracer))?;
    tracer.borrow_mut().exit(root);
    let attempted = readings.len() as u64;
    if routing.errors > 0 {
        problems.push(format!(
            "traced pass: {} route call(s) failed",
            routing.errors
        ));
    }
    check_fleet(&fleet, readings.len(), problems);
    if Some(fnv1a(fleet.render_diagnosis().as_bytes())) != untraced_digest {
        problems.push("traced pass diagnosis differs from the untraced run".into());
    }
    let t = tracer.borrow();
    let mut layers = Layers::default();
    route_layers(&t, &mut layers, facts);
    fleet_layers(&fleet, &mut layers);
    hosted_layers(&finished, &mut layers);
    layers.set("sim.records", ingest.accepted as f64);
    layers.set("sim.rejected", ingest.rejected.len() as f64);
    layers.set(
        "load.late_p99_ms",
        p99(&routing.late_ms).unwrap_or(f64::NAN),
    );
    if attempted > 0 {
        layers.set(
            "gateway.wal.bytes_per_reading",
            dir_bytes(&dir) as f64 / attempted as f64,
        );
    }
    t.write_tsv(&ctx.work.join("spans.tsv"))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(layers)
}

/// The seed must regenerate the input byte for byte; the route
/// sequence's digest is recorded so runs can be compared.
fn check_input(
    ctx: &Ctx,
    workload: Workload,
    trace: &Trace,
    problems: &mut Vec<String>,
    facts: &mut Json,
) -> Result<(), String> {
    if !regenerates(&generate(workload, ctx.seed), &ctx.input)? {
        problems.push("the seed did not regenerate the input byte for byte".into());
    }
    facts.put(
        "route_digest",
        Json::Str(format!("{:016x}", route_digest(trace))),
    );
    Ok(())
}

/// `live-burst`: 100 sensors, open loop, bursts every 0.4 s, WAL
/// retention on.
pub fn live_burst(ctx: &Ctx) -> Result<Outcome, String> {
    let shape = Shape {
        retention: Some(LIVE_RETENTION),
        ..Shape::federate_defaults()
    };
    let (trace, _) = read_csv(&ctx.input)?;
    let all = readings(&trace);
    let mut problems = Vec::new();
    let mut facts = Json::obj();
    check_input(ctx, Workload::LiveBurst, &trace, &mut problems, &mut facts)?;
    drop(trace);
    let pace = Pace::Open {
        wall: LIVE_PERIOD_WALL,
        period: shape.period,
    };
    // The measured stretch: as many sampling periods as fit in the
    // run's share of the budget (the rest covers set-up, finish and
    // checks). A traced invocation splits it over two passes.
    let share = if ctx.traced { 0.4 } else { 0.75 };
    let periods = ((ctx.seconds * share) / LIVE_PERIOD_WALL.as_secs_f64())
        .floor()
        .max(1.0) as u64;
    let t_first = all.first().map_or(0, |r| r.time);
    let cut = all
        .iter()
        .position(|r| (r.time - t_first) / shape.period >= periods)
        .unwrap_or(all.len());
    let readings = &all[..cut];
    let map = partition_map(readings)?;
    let bin = ctx.sentinet()?;

    let mut setups = Vec::new();
    if !ctx.traced {
        for i in 0..SETUP_REPS {
            let dir = ctx.work.join(format!("setup{i}"));
            let backend = shape.process_backend(&bin, fresh(&dir)?);
            let (setup, _, _, fleet) = federate(map.clone(), &shape, backend, &[], pace, None)?;
            setups.push(setup);
            check_fleet(&fleet, 0, &mut problems);
        }
    }
    let dir = ctx.work.join("fleet");
    let backend = shape.process_backend(&bin, fresh(&dir)?);
    let (setup, routing, report_s, fleet) =
        federate(map.clone(), &shape, backend, readings, pace, None)?;
    setups.push(setup);
    let peak_rss = peak_rss_mb();
    let mut run = FleetRun::new();
    run.record(&fleet, &routing, readings.len(), &mut problems);

    // Reference: the same route calls through in-process collectors
    // must give the byte-identical fleet diagnosis.
    let ref_dir = ctx.work.join("reference");
    let reference = InProcessBackend::new(
        shape.serve_config(fresh(&ref_dir)?, 1),
        &ref_dir,
        PARTITIONS,
        shape.standbys,
        DrillPlan::new(),
    )
    .with_pipelined(true);
    let (_, ref_routing, _, ref_fleet) =
        federate(map, &shape, reference, readings, Pace::Closed, None)?;
    let mut ref_problems = Vec::new();
    check_fleet(&ref_fleet, readings.len(), &mut ref_problems);
    problems.extend(
        ref_problems
            .into_iter()
            .map(|p| format!("in-process reference: {p}")),
    );
    if ref_routing.errors > 0 || ref_fleet.render_diagnosis() != fleet.render_diagnosis() {
        problems.push("fleet diagnosis differs from the in-process reference".into());
    }
    let (attempted, failed, digest) = run.finish(&mut problems, &mut facts);

    let admitted = attempted - failed;
    let misses = routing.accept_ms.iter().filter(|&&a| a > SLO_MS).count() as u64 + failed;
    let untraced_total = setup + routing.span_s + report_s;
    let mut named = Json::obj();
    let accept_p95 = quantile(&routing.accept_ms, 0.95);
    named.put(
        "accept_p50_ms",
        Json::metric(median(&routing.accept_ms), "ms"),
    );
    named.put("accept_p95_ms", Json::metric(accept_p95, "ms"));
    let accept_p99 = p99(&routing.accept_ms).unwrap_or(f64::NAN);
    named.put("accept_p99_ms", Json::metric(accept_p99, "ms"));
    named.put(
        "slo_miss_frac",
        Json::metric(misses as f64 / attempted.max(1) as f64, "fraction"),
    );
    named.put(
        "failed_frac",
        Json::metric(failed as f64 / attempted.max(1) as f64, "fraction"),
    );
    named.put("finish_s", Json::metric(report_s, "s"));
    named.put("offered_readings", Json::Int(attempted));
    named.put("periods", Json::Int(periods));
    facts.put("named", named);

    let metrics = if ctx.traced {
        let layers = traced_pass(
            ctx,
            &shape,
            |_| Ok((readings.to_vec(), IngestReport::default())),
            pace,
            digest,
            &mut facts,
            &mut problems,
        )?;
        facts.put("untraced_total_s", Json::Num(untraced_total));
        facts.put(
            "tracing_hosting_overhead_s",
            Json::Num(layers.get("traced_total_s") - untraced_total),
        );
        layers.into_metrics()
    } else {
        vec![
            ("setup_s", median(&setups)),
            ("throughput_rps", admitted as f64 / routing.span_s),
            ("latency_p50_ms", median(&routing.accept_ms)),
            ("latency_p95_ms", accept_p95),
            ("peak_rss_mb", peak_rss),
            ("admitted_frac", admitted as f64 / attempted.max(1) as f64),
        ]
    };
    Ok(Outcome {
        problems,
        attempted,
        failed,
        metrics,
        facts,
    })
}

/// `backfill`: a 9-sensor attack trace read from CSV and routed as
/// fast as the stack accepts it, then finished (drain, Fin, WAL-replay
/// merge).
pub fn backfill(ctx: &Ctx) -> Result<Outcome, String> {
    let shape = Shape::federate_defaults();
    let bin = ctx.sentinet()?;
    let mut problems = Vec::new();
    let mut facts = Json::obj();
    let mut run = FleetRun::new();
    let (mut setups, mut rates, mut reports, mut calls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut last_fleet = None;
    let mut untraced_total = 0.0;
    // Whole iterations until the budget is spent, two at least so
    // every figure is a median and the diagnosis is compared; a traced
    // invocation needs one untraced iteration beside its traced one.
    let (min_iterations, budget) = if ctx.traced {
        (1, 0.0)
    } else {
        (2, ctx.seconds)
    };
    while setups.len() < min_iterations || started.elapsed().as_secs_f64() < budget {
        let dir = ctx.work.join("fleet");
        fresh(&dir)?;
        let t = Instant::now();
        let (trace, ingest) = read_csv(&ctx.input)?;
        let read_s = t.elapsed().as_secs_f64();
        let readings = readings(&trace);
        if !ingest.rejected.is_empty() {
            problems.push(format!(
                "sanitizer rejected {} record(s)",
                ingest.rejected.len()
            ));
        }
        let map = partition_map(&readings)?;
        let backend = shape.process_backend(&bin, &dir);
        let (setup, routing, report_s, fleet) =
            federate(map, &shape, backend, &readings, Pace::Closed, None)?;
        setups.push(read_s + setup);
        rates.push(readings.len() as f64 / routing.span_s);
        reports.push(report_s);
        untraced_total = read_s + setup + routing.span_s + report_s;
        run.record(&fleet, &routing, readings.len(), &mut problems);
        calls.extend(routing.call_ms);
        last_fleet = Some((fleet, trace));
    }
    let peak_rss = peak_rss_mb();
    let (fleet, trace) = last_fleet.ok_or("no backfill iteration ran")?;
    check_input(ctx, Workload::Backfill, &trace, &mut problems, &mut facts)?;
    // A fact, not a gate: does the 2-partition fleet diagnose every
    // sensor the way the serial pipeline does on the same trace?
    let mut serial = Pipeline::new(shape.pipeline(), shape.period);
    serial.process_trace(&trace);
    let serial_lines: Vec<String> = serial
        .report()
        .sensors
        .iter()
        .map(|s| format!("{}\t{}", s.sensor, s.diagnosis))
        .collect();
    facts.put(
        "diagnosis_matches_serial",
        Json::Bool(fleet_diagnoses(&fleet) == serial_lines),
    );
    let (attempted, failed, digest) = run.finish(&mut problems, &mut facts);
    let admitted = attempted - failed;
    let p99_call = p99(&calls).unwrap_or(f64::NAN);
    let mut named = Json::obj();
    named.put("ingest_rps", Json::metric(median(&rates), "1/s"));
    named.put("accept_p99_ms", Json::metric(p99_call, "ms"));
    named.put("report_s", Json::metric(median(&reports), "s"));
    named.put(
        "failed_frac",
        Json::metric(failed as f64 / attempted.max(1) as f64, "fraction"),
    );
    named.put("iterations", Json::Int(setups.len() as u64));
    facts.put("named", named);

    let metrics = if ctx.traced {
        let layers = traced_pass(
            ctx,
            &shape,
            |tracer| {
                let (trace, ingest) = span(Some(tracer), "sim.read", || read_csv(&ctx.input))?;
                Ok((readings(&trace), ingest))
            },
            Pace::Closed,
            digest,
            &mut facts,
            &mut problems,
        )?;
        facts.put("untraced_total_s", Json::Num(untraced_total));
        facts.put(
            "tracing_hosting_overhead_s",
            Json::Num(layers.get("traced_total_s") - untraced_total),
        );
        layers.into_metrics()
    } else {
        vec![
            ("setup_s", median(&setups)),
            ("throughput_rps", median(&rates)),
            ("latency_p50_ms", median(&calls)),
            ("latency_p95_ms", quantile(&calls, 0.95)),
            ("peak_rss_mb", peak_rss),
            ("admitted_frac", admitted as f64 / attempted.max(1) as f64),
        ]
    };
    Ok(Outcome {
        problems,
        attempted,
        failed,
        metrics,
        facts,
    })
}
