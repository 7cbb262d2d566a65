//! Hand-rolled argument parsing (no external CLI crate on the approved
//! dependency list; the grammar is small enough that a table-driven
//! parser stays clearer than a framework).

use sentinet_gateway::FsyncPolicy;
use sentinet_inject::{AttackModel, FaultModel};
use sentinet_sim::SensorId;
use std::fmt;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic trace CSV.
    Simulate(SimulateArgs),
    /// Run the detection pipeline over a trace CSV.
    Analyze(AnalyzeArgs),
    /// Run the durable live-ingest daemon over a socket.
    Serve(ServeArgs),
    /// Replay a write-ahead log offline into a report.
    ReplayWal(ReplayWalArgs),
    /// Drive a trace through a federated collector fleet.
    Federate(FederateArgs),
    /// Print usage.
    Help,
}

/// Arguments of `sentinet simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateArgs {
    /// Output CSV path.
    pub output: String,
    /// Simulated days.
    pub days: u64,
    /// RNG seed.
    pub seed: u64,
    /// Number of sensors.
    pub sensors: u16,
    /// Optional fault injection: `(sensor, model)`.
    pub fault: Option<(SensorId, FaultModel)>,
    /// Optional attack injection: `(compromised count, model)`.
    pub attack: Option<(u16, AttackModel)>,
}

/// Arguments of `sentinet analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// Input CSV path.
    pub input: String,
    /// Sensor sampling period in seconds.
    pub period: u64,
    /// Observation window size in samples.
    pub window: u32,
    /// Observable-mean trim fraction.
    pub trim: f64,
    /// Emit the report as one summary line per sensor only.
    pub quiet: bool,
}

/// Arguments of `sentinet serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Write-ahead log directory (created if missing).
    pub wal_dir: String,
    /// Endpoint to bind: `HOST:PORT` or `unix:/path`.
    pub bind: String,
    /// Sensor sampling period in seconds.
    pub period: u64,
    /// Observation window size in samples.
    pub window: u32,
    /// Observable-mean trim fraction.
    pub trim: f64,
    /// WAL fsync policy.
    pub fsync: FsyncPolicy,
    /// Reorder watermark delay in stream seconds.
    pub watermark: u64,
    /// Silence deadline in stream seconds (`None` disables liveness).
    pub silence_deadline: Option<u64>,
    /// Checkpoint every N WAL records (0 disables).
    pub checkpoint_every: u64,
    /// WAL disk budget in bytes: checkpointed segments are reclaimed
    /// to stay under it, and ingest sheds (NACKs) when nothing is
    /// reclaimable (`None` retains everything).
    pub wal_retain_bytes: Option<u64>,
    /// WAL segment roll size in bytes (`None` keeps the default).
    /// Retention reclaims whole sealed segments, so the budget's
    /// granularity is one segment.
    pub wal_segment_bytes: Option<u64>,
    /// Chaos hook: abort the process after appending N WAL records.
    pub crash_after: Option<u64>,
    /// Batches a client may keep in flight.
    pub credit_window: u32,
    /// Owner epoch this collector serves under (0 = unfenced). A
    /// fence token is persisted beside the WAL; a collector started
    /// with a stale epoch fail-stops, and clients announcing a newer
    /// epoch fence the running collector into typed NACKs.
    pub epoch: u64,
    /// Emit the report as one summary line per sensor only.
    pub quiet: bool,
}

/// Arguments of `sentinet replay-wal`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayWalArgs {
    /// Write-ahead log directory to replay.
    pub wal_dir: String,
    /// Sensor sampling period in seconds.
    pub period: u64,
    /// Observation window size in samples.
    pub window: u32,
    /// Observable-mean trim fraction.
    pub trim: f64,
    /// Reorder watermark delay in stream seconds.
    pub watermark: u64,
    /// Emit the report as one summary line per sensor only.
    pub quiet: bool,
}

/// Arguments of `sentinet federate`.
#[derive(Debug, Clone, PartialEq)]
pub struct FederateArgs {
    /// Input CSV path.
    pub input: String,
    /// Root directory for the per-partition WAL directories.
    pub wal_root: String,
    /// Collector partitions the sensor range is split over.
    pub partitions: usize,
    /// Standby collectors available for failover adoption.
    pub standbys: usize,
    /// Sensor sampling period in seconds.
    pub period: u64,
    /// Observation window size in samples.
    pub window: u32,
    /// Observable-mean trim fraction.
    pub trim: f64,
    /// WAL fsync policy handed to every collector (validated text,
    /// forwarded verbatim to the spawned `serve` children).
    pub fsync: String,
    /// Reorder watermark delay in stream seconds.
    pub watermark: u64,
    /// Checkpoint every N WAL records (0 disables).
    pub checkpoint_every: u64,
    /// Controller silence deadline in stream seconds: a suspect
    /// partition whose acks trail the stream clock by more than this
    /// is declared dead and failed over.
    pub silence_deadline: u64,
    /// Drills: SIGKILL each listed partition's collector after it has
    /// been handed N readings (comma-separated `P:N` specs).
    pub kill: Vec<(usize, u64)>,
    /// Live migration: split partition P at sensor S once P has routed
    /// N readings (`P:S[@N]`, N defaults to 0 — split on the first
    /// reading).
    pub split: Option<(usize, u16, usize)>,
    /// Live migration: move partition P's whole range into its
    /// adjacent partition once P has routed N readings (`P@N`).
    pub rebalance: Option<(usize, usize)>,
    /// Run the seeded nemesis campaign (in-process fault composition)
    /// instead of the file-driven federation when set.
    pub nemesis_seed: Option<u64>,
    /// Run the live-migration schedule inside every nemesis episode.
    pub nemesis_migration: bool,
    /// Episodes per nemesis campaign.
    pub episodes: u32,
    /// Standby adoption attempts before a partition orphans.
    pub handoff_attempts: u32,
    /// Uplink ack deadline in milliseconds.
    pub ack_timeout_ms: u64,
    /// Uplink attempts per frame before the link is declared down.
    pub max_attempts: u32,
    /// First uplink backoff delay in milliseconds.
    pub backoff_base_ms: u64,
    /// Uplink backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Uplink backoff jitter ceiling as a percentage (0 = fully
    /// deterministic, the drill setting).
    pub jitter_pct: u32,
    /// Readings per uplink batch.
    pub batch_size: usize,
    /// Emit the report as one summary line per sensor only.
    pub quiet: bool,
}

/// Parses a `--kill` drill spec `PARTITION:AFTER`.
pub fn parse_kill(spec: &str) -> Result<(usize, u64), ParseError> {
    let (p, after) = spec
        .split_once(':')
        .ok_or_else(|| ParseError(format!("kill spec {spec:?} needs PARTITION:AFTER")))?;
    let p: usize = p
        .parse()
        .map_err(|e| ParseError(format!("bad kill partition {p:?}: {e}")))?;
    let after: u64 = after
        .parse()
        .map_err(|e| ParseError(format!("bad kill coordinate {after:?}: {e}")))?;
    Ok((p, after))
}

/// Parses a comma-separated `--kill` list `P:N[,P:N...]`, rejecting
/// duplicate partitions (two SIGKILL coordinates for one collector
/// would race each other and make the drill ambiguous).
pub fn parse_kills(spec: &str) -> Result<Vec<(usize, u64)>, ParseError> {
    let kills: Vec<(usize, u64)> = spec.split(',').map(parse_kill).collect::<Result<_, _>>()?;
    let mut seen = std::collections::BTreeSet::new();
    for (p, _) in &kills {
        if !seen.insert(*p) {
            return Err(ParseError(format!(
                "kill list {spec:?} names partition {p} twice"
            )));
        }
    }
    Ok(kills)
}

/// Parses a `--split` migration spec `PARTITION:SENSOR[@AFTER]`:
/// split partition P at sensor S once P has routed AFTER readings
/// (AFTER defaults to 0 — split on the first reading).
pub fn parse_split(spec: &str) -> Result<(usize, u16, usize), ParseError> {
    let (head, after) = match spec.split_once('@') {
        Some((head, after)) => (
            head,
            after
                .parse()
                .map_err(|e| ParseError(format!("bad split trigger {after:?}: {e}")))?,
        ),
        None => (spec, 0),
    };
    let (p, sensor) = head.split_once(':').ok_or_else(|| {
        ParseError(format!(
            "split spec {spec:?} needs PARTITION:SENSOR[@AFTER]"
        ))
    })?;
    let p: usize = p
        .parse()
        .map_err(|e| ParseError(format!("bad split partition {p:?}: {e}")))?;
    let sensor: u16 = sensor
        .parse()
        .map_err(|e| ParseError(format!("bad split sensor {sensor:?}: {e}")))?;
    Ok((p, sensor, after))
}

/// Parses a `--rebalance` migration spec `PARTITION@AFTER`: move
/// partition P's whole range into its adjacent partition once P has
/// routed AFTER readings.
pub fn parse_rebalance(spec: &str) -> Result<(usize, usize), ParseError> {
    let (p, after) = spec
        .split_once('@')
        .ok_or_else(|| ParseError(format!("rebalance spec {spec:?} needs PARTITION@AFTER")))?;
    let p: usize = p
        .parse()
        .map_err(|e| ParseError(format!("bad rebalance partition {p:?}: {e}")))?;
    let after: usize = after
        .parse()
        .map_err(|e| ParseError(format!("bad rebalance trigger {after:?}: {e}")))?;
    Ok((p, after))
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
sentinet — detect and distinguish errors vs attacks in sensor traces

USAGE:
  sentinet simulate <out.csv> [--days N] [--seed S] [--sensors K]
                    [--fault SENSOR:MODEL] [--attack COUNT:MODEL]
  sentinet analyze <trace.csv> [--period SECS] [--window SAMPLES]
                    [--trim FRACTION] [--quiet]
  sentinet serve --wal-dir DIR [--bind HOST:PORT|unix:/path]
                    [--period SECS] [--window SAMPLES] [--trim FRACTION]
                    [--fsync never|batch:N|always] [--watermark SECS]
                    [--silence-deadline SECS] [--checkpoint-every N]
                    [--wal-retain-bytes N] [--wal-segment-bytes N]
                    [--crash-after N] [--credit-window N]
                    [--epoch N] [--quiet]
  sentinet replay-wal --wal-dir DIR [--period SECS] [--window SAMPLES]
                    [--trim FRACTION] [--watermark SECS] [--quiet]
  sentinet federate <trace.csv> --wal-root DIR [--partitions N]
                    [--standbys N] [--period SECS]
                    [--window SAMPLES] [--trim FRACTION]
                    [--fsync never|batch:N|always] [--watermark SECS]
                    [--checkpoint-every N] [--silence-deadline SECS]
                    [--kill P:N[,P:N...]] [--handoff-attempts N]
                    [--split P:S[@N]] [--rebalance P@N]
                    [--ack-timeout-ms N] [--max-attempts N]
                    [--backoff-base-ms N] [--backoff-cap-ms N]
                    [--jitter-pct N] [--batch-size N] [--quiet]
                    [--nemesis-seed S [--episodes N]
                     [--nemesis-migration]]
  sentinet help

LIVE INGEST (serve / replay-wal):
  serve binds a socket, prints `listening on ADDR` on stdout, and runs
  the durable collector until a client sends Fin: every accepted batch
  is WAL-appended (and, per --fsync, flushed) before it is acked, so
  `kill -9` at any point (try --crash-after N) resumes to a
  bit-identical report on restart. Clients speak one pipelined protocol: the handshake grants
  --credit-window batches in flight (default 32) and the --watermark
  delay, and a client never lets an open batch span more than that
  delay, so batching cannot make readings arrive late.
  replay-wal rebuilds the report offline from a WAL directory.
  --silence-deadline 0 disables liveness tracking.
  --wal-retain-bytes N bounds the WAL on disk: segments wholly covered
  by a durable checkpoint are deleted after the checkpoint commits, and
  when nothing is reclaimable new records are shed with counted NACKs
  instead of breaching the budget.

FEDERATION (federate):
  federate splits the trace's sensors evenly over N collector
  partitions, spawns one `sentinet serve` child per partition, and
  routes every reading through the real pipelined uplink in batches
  of up to --batch-size readings (default 8). A partition that stops
  acking turns suspect; once its last ack trails the stream clock by
  more than --silence-deadline it is declared dead and a standby
  adopts its WAL (checkpoint snapshot restore + tail replay), with the
  controller redelivering the routed backlog. With no standby left the
  partition orphans: readings NACK, counted, never dropped. The fleet
  diagnosis goes to stdout (byte-comparable across drilled and
  uninterrupted runs); federation events and merged counters go to
  stderr; exit status 3 flags a diagnosis or a degraded fleet.
  --kill P:N[,P:N...] SIGKILLs each listed partition's collector
  mid-stream — the failover drill; partitions may not repeat.
  --split P:S[@N] migrates live: once partition P has routed N
  readings (default 0) it splits at sensor S — the upper sub-range
  drains, cuts a snapshot at a WAL cursor and a fresh partition adopts
  it durably before the map commits, without stopping ingest.
  --rebalance P@N moves partition P's whole range into its adjacent
  partition the same way once P has routed N readings; P may name the
  partition a --split creates (id = --partitions). Ingest never stops;
  a crash mid-handoff rolls the migration back or forward, never both.
  --nemesis-seed S skips the trace entirely and runs the seeded
  in-process nemesis campaign instead: --episodes N randomized
  episodes (default 50) composing network, process and disk faults
  against the full federation stack, checking that no acked reading
  is lost, the fleet diagnosis stays byte-identical to an
  uninterrupted baseline, and fencing keeps a single writer per
  partition. Exit status 3 reports an invariant violation.
  --nemesis-migration additionally runs a live split and a
  rebalance-back inside every episode, so the fault plan lands on the
  handoff ladder itself, and probes fenced former owners of migrated
  ranges to prove the cut cannot resurrect.
  serve --epoch N starts the collector fenced at owner epoch N: the
  fence token persists beside the WAL, a stale restart fail-stops,
  and a client announcing a newer epoch turns the running collector
  into a zombie that NACKs every append with a typed rejection.

FAULT MODELS (simulate --fault):
  6:stuck=15,1        sensor 6 stuck at (15, 1)
  7:calib=1.15,1.15   sensor 7 gains ×(1.15, 1.15)
  3:add=-9,-4.5       sensor 3 offset (−9, −4.5)
  5:noise=10,10       sensor 5 extra noise σ (10, 10)
  2:outage=0.5        sensor 2 drops 50% of its packets

ATTACK MODELS (simulate --attack):
  3:delete=12,94      3 sensors pin the observed state at (12, 94)
  3:create=25,69      3 sensors forge state (25, 69)
  3:change=-15,0      3 sensors shift the observed state by (−15, 0)
";

fn parse_pair(s: &str, what: &str) -> Result<Vec<f64>, ParseError> {
    let vals: Result<Vec<f64>, _> = s.split(',').map(str::parse).collect();
    vals.map_err(|e| ParseError(format!("bad {what} values {s:?}: {e}")))
}

/// Parses `SENSOR:MODEL=ARGS` into a fault injection spec.
pub fn parse_fault(spec: &str) -> Result<(SensorId, FaultModel), ParseError> {
    let (sensor, rest) = spec
        .split_once(':')
        .ok_or_else(|| ParseError(format!("fault spec {spec:?} needs SENSOR:MODEL")))?;
    let sensor: u16 = sensor
        .parse()
        .map_err(|e| ParseError(format!("bad sensor id {sensor:?}: {e}")))?;
    let (model, args) = rest.split_once('=').unwrap_or((rest, ""));
    let model = match model {
        "stuck" => FaultModel::StuckAt {
            value: parse_pair(args, "stuck")?,
        },
        "calib" => FaultModel::Calibration {
            gain: parse_pair(args, "calibration")?,
        },
        "add" => FaultModel::Additive {
            offset: parse_pair(args, "additive")?,
        },
        "noise" => FaultModel::RandomNoise {
            std: parse_pair(args, "noise")?,
        },
        "outage" => FaultModel::Outage {
            drop_prob: args
                .parse()
                .map_err(|e| ParseError(format!("bad outage probability {args:?}: {e}")))?,
        },
        other => {
            return Err(ParseError(format!(
                "unknown fault model {other:?} (stuck|calib|add|noise|outage)"
            )))
        }
    };
    Ok((SensorId(sensor), model))
}

/// Parses `COUNT:MODEL=ARGS` into an attack injection spec.
pub fn parse_attack(spec: &str) -> Result<(u16, AttackModel), ParseError> {
    let (count, rest) = spec
        .split_once(':')
        .ok_or_else(|| ParseError(format!("attack spec {spec:?} needs COUNT:MODEL")))?;
    let count: u16 = count
        .parse()
        .map_err(|e| ParseError(format!("bad sensor count {count:?}: {e}")))?;
    if count == 0 {
        return Err(ParseError("attack needs at least one sensor".into()));
    }
    let (model, args) = rest.split_once('=').unwrap_or((rest, ""));
    let model = match model {
        "delete" => AttackModel::DynamicDeletion {
            freeze_at: parse_pair(args, "deletion")?,
        },
        "create" => AttackModel::DynamicCreation {
            target: parse_pair(args, "creation")?,
        },
        "change" => AttackModel::DynamicChange {
            offset: parse_pair(args, "change")?,
        },
        other => {
            return Err(ParseError(format!(
                "unknown attack model {other:?} (delete|create|change)"
            )))
        }
    };
    Ok((count, model))
}

fn take_value<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    it: &mut I,
) -> Result<&'a str, ParseError> {
    it.next()
        .ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

/// Parses a full argument list (excluding the program name).
pub fn parse<'a, I: IntoIterator<Item = &'a str>>(args: I) -> Result<Command, ParseError> {
    let mut it = args.into_iter();
    match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("simulate") => {
            let output = take_value("simulate", &mut it)
                .map_err(|_| ParseError("simulate needs an output path".into()))?
                .to_string();
            let mut parsed = SimulateArgs {
                output,
                days: 7,
                seed: 1,
                sensors: 10,
                fault: None,
                attack: None,
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--days" => {
                        parsed.days = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --days: {e}")))?
                    }
                    "--seed" => {
                        parsed.seed = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --seed: {e}")))?
                    }
                    "--sensors" => {
                        parsed.sensors = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --sensors: {e}")))?
                    }
                    "--fault" => parsed.fault = Some(parse_fault(take_value(flag, &mut it)?)?),
                    "--attack" => parsed.attack = Some(parse_attack(take_value(flag, &mut it)?)?),
                    other => return Err(ParseError(format!("unknown flag {other:?}"))),
                }
            }
            if parsed.days == 0 || parsed.sensors == 0 {
                return Err(ParseError("--days and --sensors must be positive".into()));
            }
            Ok(Command::Simulate(parsed))
        }
        Some("analyze") => {
            let input = take_value("analyze", &mut it)
                .map_err(|_| ParseError("analyze needs an input path".into()))?
                .to_string();
            let mut parsed = AnalyzeArgs {
                input,
                period: 300,
                window: 12,
                trim: 0.15,
                quiet: false,
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--period" => {
                        parsed.period = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --period: {e}")))?
                    }
                    "--window" => {
                        parsed.window = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --window: {e}")))?
                    }
                    "--trim" => {
                        parsed.trim = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --trim: {e}")))?
                    }
                    "--quiet" => parsed.quiet = true,
                    other => return Err(ParseError(format!("unknown flag {other:?}"))),
                }
            }
            if parsed.period == 0 || parsed.window == 0 || !(0.0..0.5).contains(&parsed.trim) {
                return Err(ParseError(
                    "--period/--window must be positive, --trim in [0, 0.5)".into(),
                ));
            }
            Ok(Command::Analyze(parsed))
        }
        Some("serve") => {
            let mut wal_dir = None;
            let mut parsed = ServeArgs {
                wal_dir: String::new(),
                bind: "127.0.0.1:0".into(),
                period: 300,
                window: 12,
                trim: 0.15,
                fsync: FsyncPolicy::Batch(64),
                watermark: 1800,
                silence_deadline: Some(3600),
                checkpoint_every: 256,
                wal_retain_bytes: None,
                wal_segment_bytes: None,
                crash_after: None,
                credit_window: 32,
                epoch: 0,
                quiet: false,
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--wal-dir" => wal_dir = Some(take_value(flag, &mut it)?.to_string()),
                    "--bind" => parsed.bind = take_value(flag, &mut it)?.to_string(),
                    "--period" => {
                        parsed.period = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --period: {e}")))?
                    }
                    "--window" => {
                        parsed.window = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --window: {e}")))?
                    }
                    "--trim" => {
                        parsed.trim = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --trim: {e}")))?
                    }
                    "--fsync" => {
                        parsed.fsync = FsyncPolicy::parse(take_value(flag, &mut it)?)
                            .map_err(|e| ParseError(format!("bad --fsync: {e}")))?
                    }
                    "--watermark" => {
                        parsed.watermark = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --watermark: {e}")))?
                    }
                    "--silence-deadline" => {
                        let secs: u64 = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --silence-deadline: {e}")))?;
                        parsed.silence_deadline = (secs > 0).then_some(secs);
                    }
                    "--checkpoint-every" => {
                        parsed.checkpoint_every = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --checkpoint-every: {e}")))?
                    }
                    "--wal-retain-bytes" => {
                        let bytes: u64 = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --wal-retain-bytes: {e}")))?;
                        if bytes == 0 {
                            return Err(ParseError("--wal-retain-bytes must be positive".into()));
                        }
                        parsed.wal_retain_bytes = Some(bytes);
                    }
                    "--wal-segment-bytes" => {
                        let bytes: u64 = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --wal-segment-bytes: {e}")))?;
                        if bytes == 0 {
                            return Err(ParseError("--wal-segment-bytes must be positive".into()));
                        }
                        parsed.wal_segment_bytes = Some(bytes);
                    }
                    "--crash-after" => {
                        parsed.crash_after = Some(
                            take_value(flag, &mut it)?
                                .parse()
                                .map_err(|e| ParseError(format!("bad --crash-after: {e}")))?,
                        )
                    }
                    "--credit-window" => {
                        let credits: u32 = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --credit-window: {e}")))?;
                        if credits == 0 {
                            return Err(ParseError("--credit-window must be positive".into()));
                        }
                        parsed.credit_window = credits;
                    }
                    "--epoch" => {
                        parsed.epoch = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --epoch: {e}")))?
                    }
                    "--quiet" => parsed.quiet = true,
                    other => return Err(ParseError(format!("unknown flag {other:?}"))),
                }
            }
            parsed.wal_dir = wal_dir.ok_or_else(|| ParseError("serve needs --wal-dir".into()))?;
            if parsed.period == 0 || parsed.window == 0 || !(0.0..0.5).contains(&parsed.trim) {
                return Err(ParseError(
                    "--period/--window must be positive, --trim in [0, 0.5)".into(),
                ));
            }
            Ok(Command::Serve(parsed))
        }
        Some("replay-wal") => {
            let mut wal_dir = None;
            let mut parsed = ReplayWalArgs {
                wal_dir: String::new(),
                period: 300,
                window: 12,
                trim: 0.15,
                watermark: 1800,
                quiet: false,
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--wal-dir" => wal_dir = Some(take_value(flag, &mut it)?.to_string()),
                    "--period" => {
                        parsed.period = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --period: {e}")))?
                    }
                    "--window" => {
                        parsed.window = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --window: {e}")))?
                    }
                    "--trim" => {
                        parsed.trim = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --trim: {e}")))?
                    }
                    "--watermark" => {
                        parsed.watermark = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --watermark: {e}")))?
                    }
                    "--quiet" => parsed.quiet = true,
                    other => return Err(ParseError(format!("unknown flag {other:?}"))),
                }
            }
            parsed.wal_dir =
                wal_dir.ok_or_else(|| ParseError("replay-wal needs --wal-dir".into()))?;
            if parsed.period == 0 || parsed.window == 0 || !(0.0..0.5).contains(&parsed.trim) {
                return Err(ParseError(
                    "--period/--window must be positive, --trim in [0, 0.5)".into(),
                ));
            }
            Ok(Command::ReplayWal(parsed))
        }
        Some("federate") => {
            let input = take_value("federate", &mut it)
                .map_err(|_| ParseError("federate needs an input path".into()))?
                .to_string();
            let mut wal_root = None;
            let mut parsed = FederateArgs {
                input,
                wal_root: String::new(),
                partitions: 2,
                standbys: 1,
                period: 300,
                window: 12,
                trim: 0.15,
                fsync: "batch:64".into(),
                watermark: 1800,
                checkpoint_every: 256,
                silence_deadline: 3600,
                kill: Vec::new(),
                split: None,
                rebalance: None,
                nemesis_seed: None,
                episodes: 50,
                nemesis_migration: false,
                handoff_attempts: 4,
                ack_timeout_ms: 500,
                max_attempts: 8,
                backoff_base_ms: 25,
                backoff_cap_ms: 2000,
                jitter_pct: 50,
                batch_size: 8,
                quiet: false,
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--wal-root" => wal_root = Some(take_value(flag, &mut it)?.to_string()),
                    "--partitions" => {
                        parsed.partitions = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --partitions: {e}")))?
                    }
                    "--standbys" => {
                        parsed.standbys = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --standbys: {e}")))?
                    }
                    "--period" => {
                        parsed.period = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --period: {e}")))?
                    }
                    "--window" => {
                        parsed.window = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --window: {e}")))?
                    }
                    "--trim" => {
                        parsed.trim = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --trim: {e}")))?
                    }
                    "--fsync" => {
                        let text = take_value(flag, &mut it)?;
                        FsyncPolicy::parse(text)
                            .map_err(|e| ParseError(format!("bad --fsync: {e}")))?;
                        parsed.fsync = text.to_string();
                    }
                    "--watermark" => {
                        parsed.watermark = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --watermark: {e}")))?
                    }
                    "--checkpoint-every" => {
                        parsed.checkpoint_every = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --checkpoint-every: {e}")))?
                    }
                    "--silence-deadline" => {
                        parsed.silence_deadline = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --silence-deadline: {e}")))?
                    }
                    "--kill" => parsed.kill = parse_kills(take_value(flag, &mut it)?)?,
                    "--split" => parsed.split = Some(parse_split(take_value(flag, &mut it)?)?),
                    "--rebalance" => {
                        parsed.rebalance = Some(parse_rebalance(take_value(flag, &mut it)?)?)
                    }
                    "--nemesis-migration" => parsed.nemesis_migration = true,
                    "--nemesis-seed" => {
                        parsed.nemesis_seed = Some(
                            take_value(flag, &mut it)?
                                .parse()
                                .map_err(|e| ParseError(format!("bad --nemesis-seed: {e}")))?,
                        )
                    }
                    "--episodes" => {
                        parsed.episodes = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --episodes: {e}")))?
                    }
                    "--handoff-attempts" => {
                        parsed.handoff_attempts = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --handoff-attempts: {e}")))?
                    }
                    "--ack-timeout-ms" => {
                        parsed.ack_timeout_ms = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --ack-timeout-ms: {e}")))?
                    }
                    "--max-attempts" => {
                        parsed.max_attempts = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --max-attempts: {e}")))?
                    }
                    "--backoff-base-ms" => {
                        parsed.backoff_base_ms = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --backoff-base-ms: {e}")))?
                    }
                    "--backoff-cap-ms" => {
                        parsed.backoff_cap_ms = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --backoff-cap-ms: {e}")))?
                    }
                    "--jitter-pct" => {
                        parsed.jitter_pct = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --jitter-pct: {e}")))?
                    }
                    "--batch-size" => {
                        let n: usize = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|e| ParseError(format!("bad --batch-size: {e}")))?;
                        if n == 0 {
                            return Err(ParseError("--batch-size must be positive".into()));
                        }
                        parsed.batch_size = n;
                    }
                    "--quiet" => parsed.quiet = true,
                    other => return Err(ParseError(format!("unknown flag {other:?}"))),
                }
            }
            parsed.wal_root =
                wal_root.ok_or_else(|| ParseError("federate needs --wal-root".into()))?;
            if parsed.period == 0 || parsed.window == 0 || !(0.0..0.5).contains(&parsed.trim) {
                return Err(ParseError(
                    "--period/--window must be positive, --trim in [0, 0.5)".into(),
                ));
            }
            if parsed.partitions == 0 {
                return Err(ParseError("--partitions must be at least 1".into()));
            }
            if parsed.silence_deadline == 0 {
                return Err(ParseError(
                    "--silence-deadline must be positive (the controller cannot \
                     declare death without a deadline)"
                        .into(),
                ));
            }
            if parsed.handoff_attempts == 0 || parsed.max_attempts == 0 {
                return Err(ParseError(
                    "--handoff-attempts and --max-attempts must be at least 1".into(),
                ));
            }
            for &(p, _) in &parsed.kill {
                if p >= parsed.partitions {
                    return Err(ParseError(format!(
                        "--kill partition {p} out of range (0..{})",
                        parsed.partitions
                    )));
                }
            }
            if parsed.episodes == 0 {
                return Err(ParseError("--episodes must be at least 1".into()));
            }
            if parsed.nemesis_migration && parsed.nemesis_seed.is_none() {
                return Err(ParseError(
                    "--nemesis-migration needs --nemesis-seed".into(),
                ));
            }
            if let Some((p, _, _)) = parsed.split {
                if p >= parsed.partitions {
                    return Err(ParseError(format!(
                        "--split partition {p} out of range (0..{})",
                        parsed.partitions
                    )));
                }
            }
            if let Some((p, _)) = parsed.rebalance {
                // A rebalance may name the partition a split creates,
                // whose id is the pre-split partition count.
                let limit = parsed.partitions + usize::from(parsed.split.is_some());
                if p >= limit {
                    return Err(ParseError(format!(
                        "--rebalance partition {p} out of range (0..{limit})"
                    )));
                }
            }
            Ok(Command::Federate(parsed))
        }
        Some(other) => Err(ParseError(format!(
            "unknown command {other:?} (simulate|analyze|serve|replay-wal|federate|help)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_variants() {
        assert_eq!(parse([]).unwrap(), Command::Help);
        assert_eq!(parse(["help"]).unwrap(), Command::Help);
        assert_eq!(parse(["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn simulate_defaults() {
        match parse(["simulate", "out.csv"]).unwrap() {
            Command::Simulate(a) => {
                assert_eq!(a.output, "out.csv");
                assert_eq!(a.days, 7);
                assert_eq!(a.sensors, 10);
                assert!(a.fault.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn simulate_full_flags() {
        match parse([
            "simulate",
            "t.csv",
            "--days",
            "3",
            "--seed",
            "9",
            "--sensors",
            "6",
            "--fault",
            "6:stuck=15,1",
            "--attack",
            "2:delete=12,94",
        ])
        .unwrap()
        {
            Command::Simulate(a) => {
                assert_eq!(a.days, 3);
                assert_eq!(a.seed, 9);
                assert_eq!(a.sensors, 6);
                let (s, f) = a.fault.unwrap();
                assert_eq!(s, SensorId(6));
                assert_eq!(
                    f,
                    FaultModel::StuckAt {
                        value: vec![15.0, 1.0]
                    }
                );
                let (n, m) = a.attack.unwrap();
                assert_eq!(n, 2);
                assert_eq!(
                    m,
                    AttackModel::DynamicDeletion {
                        freeze_at: vec![12.0, 94.0]
                    }
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn analyze_flags() {
        match parse([
            "analyze", "t.csv", "--period", "60", "--window", "15", "--trim", "0.1", "--quiet",
        ])
        .unwrap()
        {
            Command::Analyze(a) => {
                assert_eq!(a.period, 60);
                assert_eq!(a.window, 15);
                assert!((a.trim - 0.1).abs() < 1e-12);
                assert!(a.quiet);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_defaults_and_flags() {
        match parse(["serve", "--wal-dir", "/tmp/wal"]).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.wal_dir, "/tmp/wal");
                assert_eq!(a.bind, "127.0.0.1:0");
                assert_eq!(a.fsync, FsyncPolicy::Batch(64));
                assert_eq!(a.watermark, 1800);
                assert_eq!(a.silence_deadline, Some(3600));
                assert_eq!(a.wal_retain_bytes, None);
                assert_eq!(a.wal_segment_bytes, None);
                assert_eq!(a.crash_after, None);
                assert_eq!(a.credit_window, 32);
            }
            other => panic!("{other:?}"),
        }
        match parse([
            "serve",
            "--wal-dir",
            "w",
            "--bind",
            "unix:/tmp/s.sock",
            "--fsync",
            "never",
            "--watermark",
            "600",
            "--silence-deadline",
            "0",
            "--wal-retain-bytes",
            "65536",
            "--wal-segment-bytes",
            "4096",
            "--crash-after",
            "40",
            "--credit-window",
            "8",
            "--quiet",
        ])
        .unwrap()
        {
            Command::Serve(a) => {
                assert_eq!(a.bind, "unix:/tmp/s.sock");
                assert_eq!(a.fsync, FsyncPolicy::Never);
                assert_eq!(a.watermark, 600);
                assert_eq!(a.silence_deadline, None);
                assert_eq!(a.wal_retain_bytes, Some(65536));
                assert_eq!(a.wal_segment_bytes, Some(4096));
                assert_eq!(a.crash_after, Some(40));
                assert_eq!(a.credit_window, 8);
                assert_eq!(a.epoch, 0);
                assert!(a.quiet);
            }
            other => panic!("{other:?}"),
        }
        match parse(["serve", "--wal-dir", "w", "--epoch", "3"]).unwrap() {
            Command::Serve(a) => assert_eq!(a.epoch, 3),
            other => panic!("{other:?}"),
        }
        assert!(parse(["serve", "--wal-dir", "w", "--epoch", "x"])
            .unwrap_err()
            .to_string()
            .contains("epoch"));
        assert!(parse(["serve", "--wal-dir", "w", "--credit-window", "0"])
            .unwrap_err()
            .to_string()
            .contains("credit-window"));
        assert!(parse(["serve"])
            .unwrap_err()
            .to_string()
            .contains("wal-dir"));
        assert!(parse(["serve", "--wal-dir", "w", "--fsync", "sometimes"])
            .unwrap_err()
            .to_string()
            .contains("fsync"));
        assert!(
            parse(["serve", "--wal-dir", "w", "--wal-retain-bytes", "0"])
                .unwrap_err()
                .to_string()
                .contains("wal-retain-bytes")
        );
    }

    #[test]
    fn replay_wal_flags() {
        match parse(["replay-wal", "--wal-dir", "w"]).unwrap() {
            Command::ReplayWal(a) => {
                assert_eq!(a.wal_dir, "w");
                assert_eq!(a.watermark, 1800);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(["replay-wal"])
            .unwrap_err()
            .to_string()
            .contains("wal-dir"));
    }

    #[test]
    fn federate_defaults_and_flags() {
        match parse(["federate", "t.csv", "--wal-root", "/tmp/fleet"]).unwrap() {
            Command::Federate(a) => {
                assert_eq!(a.input, "t.csv");
                assert_eq!(a.wal_root, "/tmp/fleet");
                assert_eq!(a.partitions, 2);
                assert_eq!(a.standbys, 1);
                assert_eq!(a.fsync, "batch:64");
                assert_eq!(a.silence_deadline, 3600);
                assert_eq!(a.kill, vec![]);
                assert_eq!(a.nemesis_seed, None);
                assert_eq!(a.episodes, 50);
                assert_eq!(a.handoff_attempts, 4);
                assert_eq!(a.jitter_pct, 50);
            }
            other => panic!("{other:?}"),
        }
        match parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--partitions",
            "3",
            "--standbys",
            "0",
            "--fsync",
            "never",
            "--silence-deadline",
            "900",
            "--kill",
            "1:40",
            "--handoff-attempts",
            "2",
            "--ack-timeout-ms",
            "200",
            "--max-attempts",
            "3",
            "--backoff-base-ms",
            "5",
            "--backoff-cap-ms",
            "50",
            "--jitter-pct",
            "0",
            "--batch-size",
            "16",
            "--quiet",
        ])
        .unwrap()
        {
            Command::Federate(a) => {
                assert_eq!(a.partitions, 3);
                assert_eq!(a.standbys, 0);
                assert_eq!(a.fsync, "never");
                assert_eq!(a.silence_deadline, 900);
                assert_eq!(a.kill, vec![(1, 40)]);
                assert_eq!(a.handoff_attempts, 2);
                assert_eq!(a.ack_timeout_ms, 200);
                assert_eq!(a.max_attempts, 3);
                assert_eq!(a.backoff_base_ms, 5);
                assert_eq!(a.backoff_cap_ms, 50);
                assert_eq!(a.jitter_pct, 0);
                assert_eq!(a.batch_size, 16);
                assert!(a.quiet);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn federate_kill_accepts_a_comma_separated_list() {
        match parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--partitions",
            "3",
            "--kill",
            "0:20,2:40",
        ])
        .unwrap()
        {
            Command::Federate(a) => assert_eq!(a.kill, vec![(0, 20), (2, 40)]),
            other => panic!("{other:?}"),
        }
        assert!(parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--kill",
            "0:20,0:40"
        ])
        .unwrap_err()
        .to_string()
        .contains("twice"));
        assert!(parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--partitions",
            "3",
            "--kill",
            "0:20,7:40"
        ])
        .unwrap_err()
        .to_string()
        .contains("out of range"));
    }

    #[test]
    fn federate_migration_flags() {
        match parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--partitions",
            "2",
            "--split",
            "0:3@120",
            "--rebalance",
            "2@40",
        ])
        .unwrap()
        {
            Command::Federate(a) => {
                assert_eq!(a.split, Some((0, 3, 120)));
                assert_eq!(a.rebalance, Some((2, 40)));
            }
            other => panic!("{other:?}"),
        }
        // The trigger defaults to 0 when omitted.
        match parse(["federate", "t.csv", "--wal-root", "w", "--split", "1:5"]).unwrap() {
            Command::Federate(a) => assert_eq!(a.split, Some((1, 5, 0))),
            other => panic!("{other:?}"),
        }
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--split", "0"])
                .unwrap_err()
                .to_string()
                .contains("PARTITION:SENSOR")
        );
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--split", "9:1"])
                .unwrap_err()
                .to_string()
                .contains("out of range")
        );
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--rebalance", "1:9"])
                .unwrap_err()
                .to_string()
                .contains("PARTITION@AFTER")
        );
        // Without a split, only the configured partitions exist.
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--rebalance", "2@9"])
                .unwrap_err()
                .to_string()
                .contains("out of range")
        );
    }

    #[test]
    fn federate_nemesis_flags() {
        match parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--nemesis-seed",
            "42",
            "--episodes",
            "200",
            "--nemesis-migration",
        ])
        .unwrap()
        {
            Command::Federate(a) => {
                assert_eq!(a.nemesis_seed, Some(42));
                assert_eq!(a.episodes, 200);
                assert!(a.nemesis_migration);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--episodes", "0"])
                .unwrap_err()
                .to_string()
                .contains("episodes")
        );
        assert!(parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--nemesis-migration"
        ])
        .unwrap_err()
        .to_string()
        .contains("--nemesis-seed"));
    }

    #[test]
    fn federate_validation_is_descriptive() {
        assert!(parse(["federate"])
            .unwrap_err()
            .to_string()
            .contains("input path"));
        assert!(parse(["federate", "t.csv"])
            .unwrap_err()
            .to_string()
            .contains("wal-root"));
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--partitions", "0"])
                .unwrap_err()
                .to_string()
                .contains("partitions")
        );
        // One wire protocol: the old version switch is unknown.
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--protocol", "v2"])
                .unwrap_err()
                .to_string()
                .contains("unknown flag \"--protocol\"")
        );
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--kill", "7:10"])
                .unwrap_err()
                .to_string()
                .contains("out of range")
        );
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--kill", "bogus"])
                .unwrap_err()
                .to_string()
                .contains("PARTITION:AFTER")
        );
        assert!(parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--silence-deadline",
            "0"
        ])
        .unwrap_err()
        .to_string()
        .contains("silence-deadline"));
        assert!(parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--fsync",
            "sometimes"
        ])
        .unwrap_err()
        .to_string()
        .contains("fsync"));
    }

    #[test]
    fn fault_specs_parse() {
        assert!(parse_fault("7:calib=1.15,1.15").is_ok());
        assert!(parse_fault("3:add=-9,-4.5").is_ok());
        assert!(parse_fault("5:noise=10,10").is_ok());
        assert!(parse_fault("2:outage=0.5").is_ok());
        assert!(parse_fault("bogus").is_err());
        assert!(parse_fault("1:bogus=1").is_err());
        assert!(parse_fault("1:stuck=abc").is_err());
    }

    #[test]
    fn attack_specs_parse() {
        assert!(parse_attack("3:create=25,69").is_ok());
        assert!(parse_attack("3:change=-15,0").is_ok());
        assert!(parse_attack("0:delete=1,1").is_err());
        assert!(parse_attack("3:bogus=1,1").is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        let e = parse(["analyze"]).unwrap_err();
        assert!(e.to_string().contains("input path"));
        let e = parse(["simulate", "x", "--days", "0"]).unwrap_err();
        assert!(e.to_string().contains("positive"));
        let e = parse(["frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
        let e = parse(["analyze", "x", "--trim", "0.9"]).unwrap_err();
        assert!(e.to_string().contains("trim"));
        for argv in [
            &["analyze", "x", "--shards", "2"][..],
            &["analyze", "x", "--chaos-seed", "7"],
            &["analyze", "x", "--max-shard-restarts", "3"],
            &["replay-wal", "--wal-dir", "w", "--shards", "2"],
        ] {
            let e = parse(argv.iter().copied()).unwrap_err();
            assert!(e.to_string().contains("unknown flag"), "{argv:?}: {e}");
        }
    }
}
