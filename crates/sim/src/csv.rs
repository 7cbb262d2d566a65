//! Hand-rolled CSV serialization of traces.
//!
//! Format, one record per line, header included:
//!
//! ```text
//! time,sensor,status,v0,v1,...
//! 300,0,ok,17.2,83.9
//! 300,1,lost,,
//! 600,1,malformed,,
//! ```
//!
//! A deliberately tiny dialect (no quoting — all fields are numeric or
//! fixed keywords) so no external CSV crate is needed.

use crate::sanitize::{IngestReport, RawRecord, Sanitizer};
use crate::types::{Payload, Reading, SensorId, Timestamp, Trace, TraceRecord};
use std::error::Error as StdError;
use std::fmt;
use std::io::{BufRead, Write};

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and a reason.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error reading trace csv: {e}"),
            CsvError::Parse { line, reason } => {
                write!(f, "trace csv parse error at line {line}: {reason}")
            }
        }
    }
}

impl StdError for CsvError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            CsvError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Writes `trace` to `w` in the trace-CSV dialect.
///
/// `dims` is the attribute dimensionality used for the header and for
/// padding lost/malformed rows.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_trace<W: Write>(trace: &Trace, dims: usize, mut w: W) -> Result<(), CsvError> {
    write!(w, "time,sensor,status")?;
    for i in 0..dims {
        write!(w, ",v{i}")?;
    }
    writeln!(w)?;
    for r in trace.records() {
        write!(w, "{},{},", r.time, r.sensor.0)?;
        match &r.payload {
            Payload::Delivered(reading) => {
                write!(w, "ok")?;
                for v in reading.values() {
                    write!(w, ",{v}")?;
                }
            }
            Payload::Lost => {
                write!(w, "lost")?;
                for _ in 0..dims {
                    write!(w, ",")?;
                }
            }
            Payload::Malformed => {
                write!(w, "malformed")?;
                for _ in 0..dims {
                    write!(w, ",")?;
                }
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

/// One data row, syntactically valid. A delivered row's values are
/// raw (not yet finite-checked) and borrowed from the reader's scratch;
/// the consumer copies them out once, at exact length.
enum Row<'a> {
    Delivered {
        time: Timestamp,
        sensor: SensorId,
        values: &'a [f64],
    },
    Stub(TraceRecord),
}

fn parse_error(line: usize, reason: String) -> CsvError {
    CsvError::Parse { line, reason }
}

/// Parses the syntactic layer of one data row into `values`; value
/// semantics (finiteness, ordering) are left to the caller.
fn parse_row<'a>(lineno: usize, line: &str, values: &'a mut Vec<f64>) -> Result<Row<'a>, CsvError> {
    let mut fields = line.split(',');
    let (Some(time), Some(sensor), Some(status)) = (fields.next(), fields.next(), fields.next())
    else {
        return Err(parse_error(lineno, "fewer than 3 fields".into()));
    };
    let time: Timestamp = time
        .parse()
        .map_err(|e| parse_error(lineno, format!("bad time {time:?}: {e}")))?;
    let sensor = SensorId(
        sensor
            .parse()
            .map_err(|e| parse_error(lineno, format!("bad sensor {sensor:?}: {e}")))?,
    );
    let payload = match status {
        "ok" => {
            values.clear();
            for f in fields {
                values.push(
                    f.parse()
                        .map_err(|e| parse_error(lineno, format!("bad value {f:?}: {e}")))?,
                );
            }
            return Ok(Row::Delivered {
                time,
                sensor,
                values,
            });
        }
        "lost" => Payload::Lost,
        "malformed" => Payload::Malformed,
        other => return Err(parse_error(lineno, format!("unknown status {other:?}"))),
    };
    Ok(Row::Stub(TraceRecord {
        time,
        sensor,
        payload,
    }))
}

/// The one reader loop behind [`read_trace`] and
/// [`read_trace_sanitized`]: checks the header, skips blank lines and
/// hands every data row to `on_row` with its 1-based line number, in a
/// single pass over one reused line buffer. Line endings are stripped
/// as [`BufRead::lines`] strips them, and a line that is not UTF-8 is a
/// [`CsvError::Io`] of kind `InvalidData`. The first syntax or I/O
/// error ends the read.
fn read_rows<R: BufRead>(mut r: R, mut on_row: impl FnMut(usize, Row<'_>)) -> Result<(), CsvError> {
    let mut buf = Vec::new();
    let mut values = Vec::new();
    let mut lineno = 0;
    loop {
        buf.clear();
        if r.read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        lineno += 1;
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        let line = std::str::from_utf8(&buf).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        if lineno == 1 {
            if !line.starts_with("time,sensor,status") {
                return Err(parse_error(lineno, format!("unexpected header {line:?}")));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        on_row(lineno, parse_row(lineno, line, &mut values)?);
    }
}

/// Reads a trace from `r` (the dialect produced by [`write_trace`]).
///
/// This is the *strict* reader: any semantic defect — empty or
/// non-finite values included, which `"NaN".parse::<f64>()` happily
/// produces — is a typed [`CsvError::Parse`], never a panic. Use
/// [`read_trace_sanitized`] to degrade gracefully instead of failing
/// the whole file.
///
/// A syntax error anywhere in the file is reported in preference to a
/// semantic error on an earlier line.
///
/// # Errors
///
/// - [`CsvError::Io`] on read failure.
/// - [`CsvError::Parse`] on any malformed line, including an unknown
///   status keyword, non-numeric values, and non-finite values.
pub fn read_trace<R: BufRead>(r: R) -> Result<Trace, CsvError> {
    let mut records = Vec::new();
    // Held until the whole file has parsed, so that a later syntax
    // error still wins.
    let mut semantic = None;
    read_rows(r, |lineno, row| {
        if semantic.is_some() {
            return;
        }
        match row {
            Row::Stub(record) => records.push(record),
            Row::Delivered {
                time,
                sensor,
                values,
            } => {
                if values.is_empty() {
                    semantic = Some(parse_error(
                        lineno,
                        "delivered record with no values".into(),
                    ));
                } else if let Some(v) = values.iter().find(|v| !v.is_finite()) {
                    semantic = Some(parse_error(lineno, format!("non-finite value {v}")));
                } else {
                    records.push(TraceRecord {
                        time,
                        sensor,
                        payload: Payload::Delivered(Reading::new(values.to_vec())),
                    });
                }
            }
        }
    })?;
    match semantic {
        Some(e) => Err(e),
        None => Ok(Trace::from_records(records)),
    }
}

/// Reads a trace from `r`, routing delivered rows through the ingest
/// [`Sanitizer`]: NaN/Inf payloads, duplicate and out-of-order
/// timestamps, and empty/ragged readings are *dropped and accounted
/// for* in the returned [`IngestReport`] instead of failing the file.
/// Syntax errors (bad header, unknown status, non-numeric fields) still
/// fail hard — a file that corrupt is not a sensor fault.
///
/// # Errors
///
/// - [`CsvError::Io`] on read failure.
/// - [`CsvError::Parse`] on syntactically malformed lines.
pub fn read_trace_sanitized<R: BufRead>(r: R) -> Result<(Trace, IngestReport), CsvError> {
    let mut sanitizer = Sanitizer::new();
    let mut report = IngestReport::default();
    let mut records = Vec::new();
    read_rows(r, |_, row| match row {
        Row::Delivered {
            time,
            sensor,
            values,
        } => match sanitizer.accept(RawRecord {
            time,
            sensor,
            values: values.to_vec(),
        }) {
            Ok(record) => {
                records.push(record);
                report.accepted += 1;
            }
            Err(e) => report.rejected.push(e),
        },
        Row::Stub(record) => records.push(record),
    })?;
    Ok((Trace::from_records(records), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::EnvironmentModel;
    use crate::network::{simulate, AttributeRange, SimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_trace() -> Trace {
        let cfg = SimConfig {
            num_sensors: 3,
            sample_period: 300,
            duration: 1_500,
            noise_std: vec![0.5, 1.0],
            ranges: vec![
                AttributeRange::new(-40.0, 60.0),
                AttributeRange::new(0.0, 100.0),
            ],
            loss_prob: 0.2,
            burst: None,
            malformed_prob: 0.1,
            environment: EnvironmentModel::gdi(),
        };
        simulate(&cfg, &mut StdRng::seed_from_u64(77))
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, 2, &mut buf).unwrap();
        let parsed = read_trace(&buf[..]).unwrap();
        assert_eq!(trace, parsed);
    }

    #[test]
    fn header_is_first_line() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), 2, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("time,sensor,status,v0,v1\n"));
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_trace("nope\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_bad_status() {
        let data = "time,sensor,status,v0\n300,0,weird,1.0\n";
        let err = read_trace(data.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown status"));
    }

    #[test]
    fn rejects_non_numeric_value() {
        let data = "time,sensor,status,v0\n300,0,ok,abc\n";
        let err = read_trace(data.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_delivered_without_values() {
        let data = "time,sensor,status\n300,0,ok\n";
        assert!(read_trace(data.as_bytes()).is_err());
    }

    #[test]
    fn skips_blank_lines() {
        let data = "time,sensor,status,v0\n\n300,0,ok,1.5\n\n";
        let t = read_trace(data.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lost_and_malformed_roundtrip() {
        let data = "time,sensor,status,v0\n300,0,lost,\n600,1,malformed,\n";
        let t = read_trace(data.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.delivered().count(), 0);
    }

    #[test]
    fn strict_reader_rejects_non_finite_values() {
        for bad in ["NaN", "inf", "-inf"] {
            let data = format!("time,sensor,status,v0\n300,0,ok,{bad}\n");
            let err = read_trace(data.as_bytes()).unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{bad}: {err}");
        }
    }

    #[test]
    fn sanitized_reader_drops_and_accounts_for_bad_rows() {
        let data = "time,sensor,status,v0\n\
                    300,0,ok,17.0\n\
                    300,0,ok,17.5\n\
                    600,0,ok,NaN\n\
                    600,1,lost,\n\
                    900,0,ok,18.0\n";
        let (trace, report) = read_trace_sanitized(data.as_bytes()).unwrap();
        assert_eq!(report.accepted, 2);
        assert_eq!(report.rejected.len(), 2); // duplicate + NaN
        assert_eq!(trace.delivered().count(), 2);
        assert_eq!(trace.len(), 3); // the lost stub passes through
    }

    #[test]
    fn crlf_file_parses_equal_to_its_lf_twin() {
        let mut lf = Vec::new();
        write_trace(&sample_trace(), 2, &mut lf).unwrap();
        let crlf = String::from_utf8(lf.clone()).unwrap().replace('\n', "\r\n");
        assert_eq!(
            read_trace(crlf.as_bytes()).unwrap(),
            read_trace(&lf[..]).unwrap()
        );
        assert_eq!(
            read_trace_sanitized(crlf.as_bytes()).unwrap(),
            read_trace_sanitized(&lf[..]).unwrap()
        );
    }

    #[test]
    fn non_utf8_is_an_invalid_data_io_error() {
        let data = b"time,sensor,status,v0\n300,0,ok,1.0\n600,0,ok,\xff\n";
        for err in [
            read_trace(&data[..]).unwrap_err(),
            read_trace_sanitized(&data[..]).unwrap_err(),
        ] {
            match err {
                CsvError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
                other => panic!("expected an i/o error, got {other}"),
            }
        }
    }

    #[test]
    fn header_only_file_is_an_empty_trace() {
        let data = "time,sensor,status,v0,v1\n";
        assert!(read_trace(data.as_bytes()).unwrap().is_empty());
        let (trace, report) = read_trace_sanitized(data.as_bytes()).unwrap();
        assert!(trace.is_empty());
        assert_eq!(report, IngestReport::default());
    }

    #[test]
    fn final_line_without_newline_is_read() {
        let data = "time,sensor,status,v0\n300,0,ok,1.5\n600,0,ok,2.5";
        let t = read_trace(data.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[1].time, 600);
    }

    #[test]
    fn strict_reader_reports_a_later_syntax_error_first() {
        let data = "time,sensor,status,v0\n300,0,ok,NaN\n600,0,weird,1\n";
        let err = read_trace(data.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 3, .. }), "{err}");
        assert!(
            err.to_string().contains("unknown status \"weird\""),
            "{err}"
        );
        // Without the syntax error, the semantic one is reported.
        let data = "time,sensor,status,v0\n300,0,ok,NaN\n600,0,ok,1\n";
        let err = read_trace(data.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn sanitized_reader_still_fails_on_syntax_errors() {
        let data = "time,sensor,status,v0\n300,0,weird,1.0\n";
        assert!(read_trace_sanitized(data.as_bytes()).is_err());
    }
}
