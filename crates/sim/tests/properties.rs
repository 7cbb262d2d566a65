//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_inject::corrupt_records;
use sentinet_sim::{
    read_trace, read_trace_sanitized, simulate, write_trace, AttributeRange, CsvError,
    DiurnalParams, EnvironmentModel, Gaussian, Payload, RawRecord, SimConfig, DAY_S,
};
use std::fmt::Debug;

/// The collect-then-parse reader the one-pass reader replaced, kept as
/// the equivalence oracle: every line becomes a row first, and the
/// rows are validated afterwards.
mod oracle {
    use sentinet_sim::{
        CsvError, IngestReport, Payload, RawRecord, Reading, Sanitizer, SensorId, Trace,
        TraceRecord,
    };
    use std::io::BufRead;

    enum ParsedRow {
        Delivered(RawRecord),
        Stub(TraceRecord),
    }

    fn parse_row(lineno: usize, line: &str) -> Result<ParsedRow, CsvError> {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 3 {
            return Err(CsvError::Parse {
                line: lineno,
                reason: "fewer than 3 fields".into(),
            });
        }
        let time: u64 = fields[0].parse().map_err(|e| CsvError::Parse {
            line: lineno,
            reason: format!("bad time {:?}: {e}", fields[0]),
        })?;
        let sensor: u16 = fields[1].parse().map_err(|e| CsvError::Parse {
            line: lineno,
            reason: format!("bad sensor {:?}: {e}", fields[1]),
        })?;
        let stub = |payload| {
            Ok(ParsedRow::Stub(TraceRecord {
                time,
                sensor: SensorId(sensor),
                payload,
            }))
        };
        match fields[2] {
            "ok" => {
                let mut values = Vec::with_capacity(fields.len() - 3);
                for f in &fields[3..] {
                    values.push(f.parse::<f64>().map_err(|e| CsvError::Parse {
                        line: lineno,
                        reason: format!("bad value {f:?}: {e}"),
                    })?);
                }
                Ok(ParsedRow::Delivered(RawRecord {
                    time,
                    sensor: SensorId(sensor),
                    values,
                }))
            }
            "lost" => stub(Payload::Lost),
            "malformed" => stub(Payload::Malformed),
            other => Err(CsvError::Parse {
                line: lineno,
                reason: format!("unknown status {other:?}"),
            }),
        }
    }

    fn parse_rows<R: BufRead>(r: R) -> Result<Vec<(usize, ParsedRow)>, CsvError> {
        let mut rows = Vec::new();
        for (idx, line) in r.lines().enumerate() {
            let line = line?;
            let lineno = idx + 1;
            if idx == 0 {
                if !line.starts_with("time,sensor,status") {
                    return Err(CsvError::Parse {
                        line: lineno,
                        reason: format!("unexpected header {line:?}"),
                    });
                }
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            rows.push((lineno, parse_row(lineno, &line)?));
        }
        Ok(rows)
    }

    pub fn read_trace<R: BufRead>(r: R) -> Result<Trace, CsvError> {
        let mut records = Vec::new();
        for (lineno, row) in parse_rows(r)? {
            match row {
                ParsedRow::Delivered(raw) => {
                    if raw.values.is_empty() {
                        return Err(CsvError::Parse {
                            line: lineno,
                            reason: "delivered record with no values".into(),
                        });
                    }
                    if let Some(v) = raw.values.iter().find(|v| !v.is_finite()) {
                        return Err(CsvError::Parse {
                            line: lineno,
                            reason: format!("non-finite value {v}"),
                        });
                    }
                    records.push(TraceRecord {
                        time: raw.time,
                        sensor: raw.sensor,
                        payload: Payload::Delivered(Reading::new(raw.values)),
                    });
                }
                ParsedRow::Stub(record) => records.push(record),
            }
        }
        Ok(Trace::from_records(records))
    }

    pub fn read_trace_sanitized<R: BufRead>(r: R) -> Result<(Trace, IngestReport), CsvError> {
        let mut sanitizer = Sanitizer::new();
        let mut report = IngestReport::default();
        let mut records = Vec::new();
        for (_, row) in parse_rows(r)? {
            match row {
                ParsedRow::Delivered(raw) => match sanitizer.accept(raw) {
                    Ok(record) => {
                        records.push(record);
                        report.accepted += 1;
                    }
                    Err(e) => report.rejected.push(e),
                },
                ParsedRow::Stub(record) => records.push(record),
            }
        }
        Ok((Trace::from_records(records), report))
    }
}

/// Equal `Ok` values, or errors with equal `Display` text. Values
/// compare by their `Debug` text, which is exact for finite floats and
/// equates the NaNs an `IngestReport` may hold.
fn same_outcome<T: Debug>(
    got: Result<T, CsvError>,
    want: Result<T, CsvError>,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(got), Ok(want)) => prop_assert_eq!(format!("{got:?}"), format!("{want:?}")),
        (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
        (got, want) => prop_assert!(false, "reader {got:?}, oracle {want:?}"),
    }
    Ok(())
}

/// Both readers agree with the oracle on `csv`.
fn readers_agree(csv: &[u8]) -> Result<(), TestCaseError> {
    same_outcome(read_trace(csv), oracle::read_trace(csv))?;
    same_outcome(read_trace_sanitized(csv), oracle::read_trace_sanitized(csv))
}

/// The data lines of a simulated trace, in trace order, with every
/// delivered reading run through `corrupt_records` (NaN/∞ values,
/// duplicates, stale retransmissions).
fn corrupted_lines(cfg: &SimConfig, seed: u64, rate: f64) -> Vec<Vec<u8>> {
    let trace = simulate(cfg, &mut StdRng::seed_from_u64(seed));
    let mut lines = Vec::new();
    for (i, r) in trace.records().iter().enumerate() {
        let status = match &r.payload {
            Payload::Delivered(reading) => {
                let raw = RawRecord {
                    time: r.time,
                    sensor: r.sensor,
                    values: reading.values().to_vec(),
                };
                for bad in corrupt_records(&[raw], seed ^ i as u64, rate) {
                    let mut line = format!("{},{},ok", bad.time, bad.sensor.0);
                    for v in &bad.values {
                        line.push_str(&format!(",{v}"));
                    }
                    lines.push(line.into_bytes());
                }
                continue;
            }
            Payload::Lost => "lost",
            Payload::Malformed => "malformed",
        };
        lines.push(format!("{},{},{status},,", r.time, r.sensor.0).into_bytes());
    }
    lines
}

/// A line spliced into an otherwise well-formed file: blank or
/// whitespace-only (skipped), garbage, or not UTF-8.
fn extra_line() -> impl Strategy<Value = Vec<u8>> {
    (0u8..8, ".{0,40}").prop_map(|(kind, garbage)| match kind {
        0..=2 => Vec::new(),
        3..=5 => b" \t ".to_vec(),
        6 => garbage.into_bytes(),
        _ => b"300,0,ok,\xff".to_vec(),
    })
}

fn any_config() -> impl Strategy<Value = SimConfig> {
    (
        1u16..8,
        1u64..4,     // hours of duration
        0.0f64..0.5, // loss
        0.0f64..0.3, // malformed
        0.0f64..3.0, // noise
    )
        .prop_map(|(sensors, hours, loss, malformed, noise)| SimConfig {
            num_sensors: sensors,
            sample_period: 300,
            duration: hours * 3600,
            noise_std: vec![noise, noise],
            ranges: vec![
                AttributeRange::new(-40.0, 60.0),
                AttributeRange::new(0.0, 100.0),
            ],
            loss_prob: loss,
            burst: None,
            malformed_prob: malformed,
            environment: EnvironmentModel::gdi(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trace_is_sorted_and_complete(cfg in any_config(), seed in 0u64..1000) {
        let trace = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        // One record per (instant, sensor), sorted.
        let expected = cfg.num_samples() * cfg.num_sensors as u64;
        prop_assert_eq!(trace.len() as u64, expected);
        for pair in trace.records().windows(2) {
            prop_assert!((pair[0].time, pair[0].sensor) < (pair[1].time, pair[1].sensor));
        }
    }

    #[test]
    fn csv_roundtrip_is_lossless(cfg in any_config(), seed in 0u64..1000) {
        let trace = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        let mut buf = Vec::new();
        write_trace(&trace, 2, &mut buf).unwrap();
        let parsed = read_trace(&buf[..]).unwrap();
        prop_assert_eq!(trace, parsed);
    }

    #[test]
    fn csv_parser_never_panics_on_garbage(lines in prop::collection::vec(".{0,40}", 0..20)) {
        let mut text = String::from("time,sensor,status,v0\n");
        for l in &lines {
            text.push_str(l);
            text.push('\n');
        }
        // Must return Ok or Err, never panic.
        let _ = read_trace(text.as_bytes());
    }

    #[test]
    fn one_pass_reader_matches_collect_then_parse(
        cfg in any_config(),
        seed in 0u64..1000,
        rate in prop::sample::select(vec![0.0, 0.0, 0.02, 0.1, 0.4]),
        extras in prop::collection::vec((0usize..10_000, extra_line()), 0..6),
        crlf in any::<u64>(),
        trailing_newline in any::<bool>(),
    ) {
        let mut lines = vec![b"time,sensor,status,v0,v1".to_vec()];
        lines.extend(corrupted_lines(&cfg, seed, rate));
        for (at, line) in extras {
            let at = 1 + at % lines.len();
            lines.insert(at, line);
        }
        let mut csv = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            csv.extend_from_slice(line);
            if crlf >> (i % 64) & 1 == 1 {
                csv.push(b'\r');
            }
            csv.push(b'\n');
        }
        if !trailing_newline {
            csv.pop();
        }
        readers_agree(&csv)?;
    }

    #[test]
    fn diurnal_values_bounded(
        t in 0u64..(40 * DAY_S),
        t_min in -10.0f64..15.0,
        spread in 1.0f64..30.0,
        seasonal in 0.0f64..3.0,
    ) {
        let p = DiurnalParams {
            t_min,
            t_max: t_min + spread,
            seasonal_amplitude: seasonal,
            ..Default::default()
        };
        let env = EnvironmentModel::Diurnal(p);
        let v = env.value(t);
        prop_assert!(v[0] >= t_min - seasonal - 1e-9);
        prop_assert!(v[0] <= t_min + spread + seasonal + 1e-9);
        prop_assert!((0.0..=100.0).contains(&v[1]));
    }

    #[test]
    fn gaussian_sampling_matches_parameters(
        mean in -50.0f64..50.0,
        std in 0.0f64..5.0,
        seed in 0u64..200,
    ) {
        let g = Gaussian::new(mean, std);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 3_000;
        let xs: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        prop_assert!((m - mean).abs() < 0.2 + std * 0.12, "mean {m} vs {mean}");
        if std > 0.5 {
            let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
            prop_assert!(
                (var.sqrt() - std).abs() < 0.35 * std,
                "std {} vs {std}",
                var.sqrt()
            );
        }
    }

    #[test]
    fn loss_rate_tracks_configured_probability(
        loss in 0.0f64..0.5,
        seed in 0u64..100,
    ) {
        let cfg = SimConfig {
            num_sensors: 5,
            sample_period: 300,
            duration: 24 * 3600,
            noise_std: vec![0.5, 0.5],
            ranges: vec![
                AttributeRange::new(-40.0, 60.0),
                AttributeRange::new(0.0, 100.0),
            ],
            loss_prob: loss,
            burst: None,
            malformed_prob: 0.0,
            environment: EnvironmentModel::gdi(),
        };
        let trace = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        let rate = trace.loss_rate();
        // 1440 Bernoulli trials: allow 5σ slack.
        let sigma = (loss * (1.0 - loss) / 1440.0).sqrt();
        prop_assert!((rate - loss).abs() < 5.0 * sigma + 1e-9, "rate {rate} vs {loss}");
    }

    #[test]
    fn piecewise_respects_segments(
        values in prop::collection::vec(-10.0f64..10.0, 1..6),
        probe in 0u64..10_000,
    ) {
        let segs: Vec<(u64, Vec<f64>)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64 * 1_000, vec![v]))
            .collect();
        let env = EnvironmentModel::Piecewise(segs.clone());
        let got = env.value(probe)[0];
        let expect = segs
            .iter()
            .rev()
            .find(|(start, _)| *start <= probe)
            .map(|(_, v)| v[0])
            .unwrap_or(segs[0].1[0]);
        prop_assert_eq!(got, expect);
    }
}

#[test]
fn one_pass_reader_matches_oracle_on_fixed_cases() {
    let cases: [&[u8]; 8] = [
        // A semantic error before a syntax error: the syntax error wins.
        b"time,sensor,status,v0\n300,0,ok,NaN\n600,0,weird,1\n",
        b"time,sensor,status,v0\n300,0,ok\n600,0,ok,x\n",
        b"time,sensor,status,v0\n300,0,ok,NaN\n600,0,ok,1\n",
        b"time,sensor,status,v0\r\n300,0,ok,1\r\n\r\n600,0,ok,2\r",
        b"time,sensor,status,v0\n300,0,ok,inf\n600,0,ok,1\n\xff\n",
        b"\ntime,sensor,status\n",
        b"time,sensor,status,v0",
        b"",
    ];
    for csv in cases {
        if let Err(e) = readers_agree(csv) {
            panic!("{:?}: {e:?}", String::from_utf8_lossy(csv));
        }
    }
}
