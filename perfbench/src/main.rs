//! `perfbench` — the repository benchmark's workload runner.
//!
//! `perfbench gen --workload W --seed N --out FILE` writes the seeded
//! input CSV and checks that generation is a pure function of the
//! seed. `perfbench run --workload W --seed N --seconds S --trace 0|1
//! --input FILE --work DIR [--sentinet BIN]` runs one workload and
//! prints one JSON object: with `--trace 0` the end-to-end metrics of
//! an untraced run, with `--trace 1` the per-layer metrics of a traced
//! run. `perfbench/run.py` builds the program and drives both.

mod analyze;
mod fleet;
mod hosted;
mod inputs;
mod json;
mod shape;
mod stats;
mod trace;

use json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics and units, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("admitted_frac", "fraction"),
];

/// Per-layer metrics and units, as `BENCHMARK.json` lists them. A
/// metric a workload's path never reaches reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("load.late_p99_ms", "ms"),
    ("load.idle_s", "s"),
    ("sim.read_s", "s"),
    ("sim.records", "count"),
    ("sim.rejected", "count"),
    ("controller.spawn_s", "s"),
    ("controller.route_s", "s"),
    ("controller.route_calls", "count"),
    ("controller.route_p99_ms", "ms"),
    ("controller.stall_calls", "count"),
    ("controller.finish_s", "s"),
    ("controller.merge_s", "s"),
    ("controller.failovers", "count"),
    ("controller.redelivered", "count"),
    ("controller.orphan_nacks", "count"),
    ("controller.flaps", "count"),
    ("gateway.client.frames", "count"),
    ("gateway.client.readings_per_frame", "readings/frame"),
    ("gateway.client.retransmits", "count"),
    ("gateway.client.timeouts", "count"),
    ("gateway.client.nacks", "count"),
    ("gateway.client.reconnects", "count"),
    ("gateway.client.send_s", "s"),
    ("gateway.client.flush_s", "s"),
    ("gateway.server.decode_s", "s"),
    ("gateway.server.ack_s", "s"),
    ("gateway.collector.admission_s", "s"),
    ("gateway.collector.accepted", "count"),
    ("gateway.collector.duplicates", "count"),
    ("gateway.collector.late", "count"),
    ("gateway.collector.shed", "count"),
    ("gateway.wal.append_s", "s"),
    ("gateway.wal.fsync_s", "s"),
    ("gateway.wal.bytes_per_reading", "B/reading"),
    ("gateway.wal.reclaimed_segments", "count"),
    ("gateway.wal.budget_shed", "count"),
    ("core.windows", "count"),
    ("core.window_s", "s"),
    ("core.push_s", "s"),
    ("core.classify_s", "s"),
    ("other_s", "s"),
    ("traced_total_s", "s"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LiveBurst,
    Backfill,
    AnalyzeWide,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "live-burst" => Ok(Workload::LiveBurst),
            "backfill" => Ok(Workload::Backfill),
            "analyze-wide" => Ok(Workload::AnalyzeWide),
            other => Err(format!(
                "unknown workload {other:?} (live-burst|backfill|analyze-wide)"
            )),
        }
    }
}

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub input: PathBuf,
    pub work: PathBuf,
    sentinet: Option<PathBuf>,
}

impl Ctx {
    /// The `sentinet` binary the fleet workloads spawn as `serve`
    /// children.
    pub fn sentinet(&self) -> Result<PathBuf, String> {
        self.sentinet
            .clone()
            .ok_or_else(|| "this workload needs --sentinet BIN".into())
    }
}

/// Per-layer values, every listed metric starting at 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Self(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }
}

impl Layers {
    fn slot(&mut self, name: &str) -> &mut f64 {
        self.0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a listed per-layer metric"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.slot(name) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn into_metrics(self) -> Vec<(&'static str, f64)> {
        self.0.into_iter().collect()
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// Failed output checks (empty when the run is correct).
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub facts: Json,
}

struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Self(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("bad --{key} value"))
    }
}

/// `gen`: writes the input, and checks that the next seed gives a
/// different one (`run` checks that the same seed regenerates it byte
/// for byte).
fn gen(args: &Args) -> Result<Json, String> {
    let workload = Workload::parse(args.get("workload")?)?;
    let seed: u64 = args.num("seed")?;
    let out = PathBuf::from(args.get("out")?);
    let csv = inputs::csv_bytes(workload, seed);
    std::fs::write(&out, &csv).map_err(|e| format!("write {}: {e}", out.display()))?;
    let digest = stats::fnv1a(&csv);
    drop(csv);
    let other = stats::fnv1a(&inputs::csv_bytes(workload, seed.wrapping_add(1)));
    Ok(Json::obj()
        .with(
            "input_bytes",
            Json::Int(std::fs::metadata(&out).map_or(0, |m| m.len())),
        )
        .with("csv_digest", Json::Str(format!("{digest:016x}")))
        .with("other_seed_differs", Json::Bool(digest != other)))
}

fn run(args: &Args) -> Result<Json, String> {
    let workload = Workload::parse(args.get("workload")?)?;
    let ctx = Ctx {
        seed: args.num("seed")?,
        seconds: args.num("seconds")?,
        traced: match args.get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?} (0|1)")),
        },
        input: PathBuf::from(args.get("input")?),
        work: PathBuf::from(args.get("work")?),
        sentinet: args.get("sentinet").ok().map(PathBuf::from),
    };
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("create work dir: {e}"))?;
    let outcome = match workload {
        Workload::LiveBurst => fleet::live_burst(&ctx)?,
        Workload::Backfill => fleet::backfill(&ctx)?,
        Workload::AnalyzeWide => analyze::analyze_wide(&ctx)?,
    };
    let listed = if ctx.traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Json::obj();
    for &(name, unit) in listed {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("workload did not measure {name}"))?;
        metrics.put(name, Json::metric(value, unit));
    }
    let mut problems: Vec<String> = Vec::new();
    for p in outcome.problems {
        if !problems.contains(&p) {
            eprintln!("check failed: {p}");
            problems.push(p);
        }
    }
    let correct = problems.is_empty();
    let problems = Json::Arr(problems.into_iter().map(Json::Str).collect());
    Ok(Json::obj()
        .with("correct", Json::Bool(correct))
        .with("attempted", Json::Int(outcome.attempted))
        .with("failed", Json::Int(outcome.failed))
        .with("metrics", metrics)
        .with("facts", outcome.facts)
        .with("problems", problems))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) if cmd == "gen" => Args::parse(rest).and_then(|a| gen(&a)),
        Some((cmd, rest)) if cmd == "run" => Args::parse(rest).and_then(|a| run(&a)),
        _ => Err("usage: perfbench gen|run --workload W --seed N ...".into()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
