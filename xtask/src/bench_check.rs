//! Schema validation for `BENCH_engine.json`.
//!
//! The bench binary (`crates/bench/src/bin/sentinet-bench.rs`) emits a
//! JSON report that downstream tooling (and the README tables) relies
//! on. `cargo run -p xtask -- bench-check` fails CI when that file is
//! malformed: missing keys, non-finite numbers, unknown modes, or
//! sensor counts that are not monotone non-decreasing across rows.
//! `ingest` rows (gateway loopback throughput) must also name their
//! `fsync` policy, `retention` setting (`off` or the WAL byte
//! budget), and the uplink's `batch` shape (`<batch>x<window>`, two
//! positive integers), and are exempt from the
//! sensors-monotone rule — they are appended after the sensor sweep
//! rather than sorted into it. When any ingest rows are present the
//! document must also carry an `ingest_stages` object breaking one
//! pipelined run down into finite, non-negative per-stage seconds
//! (including the `other_s` uninstrumented remainder) that sum to
//! within 10% of the run's `total_s` — a breakdown that does not
//! account for the run it claims to describe is rejected.
//!
//! The vendored `serde` is a derive stub without a JSON backend, so
//! this module carries its own minimal recursive-descent JSON parser —
//! objects, arrays, strings (with escapes), numbers, booleans, null.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as f64.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order not preserved).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A JSON syntax error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

/// Parses a complete JSON document.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(
            self.bytes.get(self.pos),
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
        ) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("bad string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Keys the per-stage ingest breakdown must carry, in wall seconds.
/// `other_s` is the uninstrumented remainder the bench emits so the
/// stages account for the whole run; together they must sum to within
/// 10% of `total_s`.
const STAGE_KEYS: &[&str] = &[
    "decode_s",
    "admission_s",
    "wal_append_s",
    "fsync_s",
    "ack_s",
    "other_s",
];

/// Relative tolerance between the stage sum and `total_s`.
const STAGE_SUM_TOLERANCE: f64 = 0.10;

/// Keys every result row must carry.
const ROW_KEYS: &[&str] = &[
    "sensors",
    "days",
    "mode",
    "readings",
    "windows",
    "seconds",
    "readings_per_sec",
    "windows_per_sec",
    "speedup_vs_serial",
];

/// Whether `shape` is an uplink batch shape `<batch>x<window>`: two
/// positive integers.
fn is_batch_shape(shape: &str) -> bool {
    let positive = |n: &str| n.parse::<u64>().is_ok_and(|n| n > 0);
    shape
        .split_once('x')
        .is_some_and(|(batch, window)| positive(batch) && positive(window))
}

/// Validates the bench report, returning every schema violation.
pub fn validate(input: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let doc = match parse(input) {
        Ok(doc) => doc,
        Err(e) => return vec![e.to_string()],
    };
    let Json::Obj(top) = &doc else {
        return vec![format!(
            "top level must be an object, got {}",
            doc.type_name()
        )];
    };

    match top.get("host_cpus") {
        Some(Json::Num(n)) if *n >= 1.0 && n.fract() == 0.0 => {}
        Some(v) => problems.push(format!(
            "`host_cpus` must be a positive integer, got {}",
            v.type_name()
        )),
        None => problems.push("missing required key `host_cpus`".into()),
    }
    match top.get("reps") {
        Some(Json::Num(n)) if *n >= 1.0 && n.fract() == 0.0 => {}
        Some(v) => problems.push(format!(
            "`reps` must be a positive integer, got {}",
            v.type_name()
        )),
        None => problems.push("missing required key `reps`".into()),
    }

    let rows = match top.get("results") {
        Some(Json::Arr(rows)) if !rows.is_empty() => rows.as_slice(),
        Some(Json::Arr(_)) => {
            problems.push("`results` must not be empty".into());
            &[]
        }
        Some(v) => {
            problems.push(format!("`results` must be an array, got {}", v.type_name()));
            &[]
        }
        None => {
            problems.push("missing required key `results`".into());
            &[]
        }
    };

    let mut prev_sensors: Option<f64> = None;
    let mut saw_ingest = false;
    for (i, row) in rows.iter().enumerate() {
        let Json::Obj(row) = row else {
            problems.push(format!("results[{i}] must be an object"));
            continue;
        };
        for key in ROW_KEYS {
            match row.get(*key) {
                None => problems.push(format!("results[{i}] missing key `{key}`")),
                Some(Json::Num(n)) if !n.is_finite() => {
                    problems.push(format!("results[{i}].{key} is not finite"));
                }
                Some(_) => {}
            }
        }
        let mode = match row.get("mode") {
            Some(Json::Str(mode)) if mode == "serial" || mode == "ingest" => Some(mode.as_str()),
            Some(Json::Str(mode)) => {
                problems.push(format!(
                    "results[{i}].mode must be `serial` or `ingest`, got `{mode}`"
                ));
                None
            }
            Some(v) => {
                problems.push(format!(
                    "results[{i}].mode must be a string, got {}",
                    v.type_name()
                ));
                None
            }
            None => None, // already reported by the key loop
        };
        if mode == Some("ingest") {
            saw_ingest = true;
            match row.get("fsync") {
                Some(Json::Str(policy)) if !policy.is_empty() => {}
                Some(v) => problems.push(format!(
                    "results[{i}].fsync must be a non-empty string, got {}",
                    v.type_name()
                )),
                None => problems.push(format!(
                    "results[{i}] missing key `fsync` (required for ingest rows)"
                )),
            }
            match row.get("retention") {
                Some(Json::Str(setting)) if !setting.is_empty() => {}
                Some(v) => problems.push(format!(
                    "results[{i}].retention must be a non-empty string, got {}",
                    v.type_name()
                )),
                None => problems.push(format!(
                    "results[{i}] missing key `retention` (required for ingest rows)"
                )),
            }
            match row.get("batch") {
                Some(Json::Str(shape)) if is_batch_shape(shape) => {}
                Some(Json::Str(shape)) => problems.push(format!(
                    "results[{i}].batch must be <batch>x<window>, got {shape:?}"
                )),
                Some(v) => problems.push(format!(
                    "results[{i}].batch must be a string, got {}",
                    v.type_name()
                )),
                None => problems.push(format!(
                    "results[{i}] missing key `batch` (required for ingest rows)"
                )),
            }
        } else if let Some(Json::Num(sensors)) = row.get("sensors") {
            // Ingest rows ride after the sensor sweep; only the sweep
            // itself must keep sensors monotone.
            if let Some(prev) = prev_sensors {
                if *sensors < prev {
                    problems.push(format!(
                        "results[{i}].sensors = {sensors} breaks monotone ordering (previous {prev})"
                    ));
                }
            }
            prev_sensors = Some(*sensors);
        }
    }

    if saw_ingest {
        match top.get("ingest_stages") {
            Some(Json::Obj(stages)) => {
                let mut sum = Some(0.0f64);
                for key in STAGE_KEYS {
                    match stages.get(*key) {
                        Some(Json::Num(n)) if n.is_finite() && *n >= 0.0 => {
                            sum = sum.map(|s| s + n);
                        }
                        Some(v) => {
                            problems.push(format!(
                                "`ingest_stages.{key}` must be a finite non-negative number, got {}",
                                v.type_name()
                            ));
                            sum = None;
                        }
                        None => {
                            problems.push(format!("`ingest_stages` missing key `{key}`"));
                            sum = None;
                        }
                    }
                }
                let total = match stages.get("total_s") {
                    Some(Json::Num(n)) if n.is_finite() && *n > 0.0 => Some(*n),
                    Some(v) => {
                        problems.push(format!(
                            "`ingest_stages.total_s` must be a finite positive number, got {}",
                            v.type_name()
                        ));
                        None
                    }
                    None => {
                        problems.push("`ingest_stages` missing key `total_s`".into());
                        None
                    }
                };
                // Only meaningful when every stage and the total parsed:
                // the breakdown must account for the run it claims to
                // describe, within tolerance for clock skew/rounding.
                if let (Some(sum), Some(total)) = (sum, total) {
                    if (sum - total).abs() > STAGE_SUM_TOLERANCE * total {
                        problems.push(format!(
                            "`ingest_stages` stage times sum to {sum:.6}s but `total_s` is \
                             {total:.6}s (more than 10% apart)"
                        ));
                    }
                }
            }
            Some(v) => problems.push(format!(
                "`ingest_stages` must be an object, got {}",
                v.type_name()
            )),
            None => problems.push(
                "missing required key `ingest_stages` (required when ingest rows are present)"
                    .into(),
            ),
        }
    }

    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(sensors: u32, mode: &str) -> String {
        format!(
            "{{\"sensors\": {sensors}, \"days\": 1, \"mode\": \"{mode}\", \
             \"readings\": 10, \"windows\": 2, \"seconds\": 0.5, \"readings_per_sec\": 20.0, \
             \"windows_per_sec\": 4.0, \"speedup_vs_serial\": 1.0}}"
        )
    }

    fn doc(rows: &[String]) -> String {
        format!(
            "{{\"host_cpus\": 1, \"reps\": 3, \"note\": \"x\", \"results\": [{}]}}",
            rows.join(", ")
        )
    }

    #[test]
    fn valid_document_passes() {
        let d = doc(&[row(10, "serial"), row(100, "serial")]);
        assert!(validate(&d).is_empty());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse("{\"a\": [1, -2.5e3, \"x\\n\\u0041\"], \"b\": {\"c\": null}}").unwrap();
        let Json::Obj(o) = v else {
            panic!("not an object")
        };
        let Json::Arr(a) = &o["a"] else {
            panic!("not an array")
        };
        assert_eq!(a[1], Json::Num(-2500.0));
        assert_eq!(a[2], Json::Str("x\nA".into()));
    }

    #[test]
    fn missing_host_cpus_fails() {
        let d = doc(&[row(10, "serial")]).replace("\"host_cpus\": 1, ", "");
        let problems = validate(&d);
        assert!(
            problems.iter().any(|p| p.contains("host_cpus")),
            "{problems:?}"
        );
    }

    #[test]
    fn missing_row_key_fails() {
        let d = doc(&[row(10, "serial").replace("\"days\": 1, ", "")]);
        let problems = validate(&d);
        assert!(
            problems.iter().any(|p| p.contains("`days`")),
            "{problems:?}"
        );
    }

    #[test]
    fn non_monotone_sensors_fail() {
        let d = doc(&[row(100, "serial"), row(10, "serial")]);
        let problems = validate(&d);
        assert!(
            problems.iter().any(|p| p.contains("monotone")),
            "{problems:?}"
        );
    }

    #[test]
    fn unknown_mode_fails() {
        let d = doc(&[row(10, "warp")]);
        let problems = validate(&d);
        assert!(problems.iter().any(|p| p.contains("mode")), "{problems:?}");
    }

    /// An ingest row with the full `fsync`/`retention`/`batch` triple.
    fn ingest_row(sensors: u32) -> String {
        row(sensors, "ingest").replace(
            "\"mode\": \"ingest\"",
            "\"mode\": \"ingest\", \"fsync\": \"batch:64\", \"retention\": \"off\", \
             \"batch\": \"256x32\"",
        )
    }

    /// A document whose trailing ingest rows carry the stage object.
    /// The stages sum to 0.2 exactly, matching `total_s`.
    fn doc_with_stages(rows: &[String]) -> String {
        doc(rows).replace(
            "\"results\": [",
            "\"ingest_stages\": {\"decode_s\": 0.01, \"admission_s\": 0.02, \
             \"wal_append_s\": 0.003, \"fsync_s\": 0.1, \"ack_s\": 0.004, \
             \"other_s\": 0.063, \"total_s\": 0.2}, \"results\": [",
        )
    }

    #[test]
    fn ingest_row_requires_fsync_retention_batch_and_skips_monotone() {
        // A trailing ingest row with fewer sensors than the sweep is
        // fine — as long as it names its fsync policy, retention, and
        // batch shape, and the document carries the stage breakdown.
        let d = doc_with_stages(&[row(100, "serial"), ingest_row(10)]);
        assert!(validate(&d).is_empty(), "{:?}", validate(&d));

        let d = doc_with_stages(&[row(100, "serial"), row(10, "ingest")]);
        let problems = validate(&d);
        assert!(
            problems.iter().any(|p| p.contains("`fsync`")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("`retention`")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("`batch`")),
            "{problems:?}"
        );
        assert!(
            !problems.iter().any(|p| p.contains("monotone")),
            "{problems:?}"
        );

        // The batch shape is the uplink's `<batch>x<window>`.
        for bad in ["off", "256", "0x32", "256xall"] {
            let d = doc_with_stages(&[row(100, "serial"), ingest_row(10)])
                .replace("\"256x32\"", &format!("\"{bad}\""));
            let problems = validate(&d);
            assert!(
                problems.iter().any(|p| p.contains("<batch>x<window>")),
                "{bad}: {problems:?}"
            );
        }
    }

    #[test]
    fn ingest_rows_require_stage_breakdown() {
        // Same rows, no `ingest_stages` object: one schema violation.
        let d = doc(&[row(100, "serial"), ingest_row(10)]);
        let problems = validate(&d);
        assert!(
            problems.iter().any(|p| p.contains("ingest_stages")),
            "{problems:?}"
        );
        // Serial-only documents don't need it.
        let d = doc(&[row(100, "serial")]);
        assert!(validate(&d).is_empty(), "{:?}", validate(&d));
    }

    #[test]
    fn stage_breakdown_rejects_missing_and_negative_stages() {
        let d = doc_with_stages(&[row(100, "serial"), ingest_row(10)])
            .replace("\"fsync_s\": 0.1", "\"fsync_s\": -0.1");
        let problems = validate(&d);
        assert!(
            problems.iter().any(|p| p.contains("ingest_stages.fsync_s")),
            "{problems:?}"
        );

        let d = doc_with_stages(&[row(100, "serial"), ingest_row(10)])
            .replace("\"ack_s\": 0.004, ", "");
        let problems = validate(&d);
        assert!(
            problems.iter().any(|p| p.contains("missing key `ack_s`")),
            "{problems:?}"
        );
    }

    #[test]
    fn stage_sum_must_match_total_within_tolerance() {
        // The fixture stages sum to exactly total_s = 0.2: valid.
        let d = doc_with_stages(&[row(100, "serial"), ingest_row(10)]);
        assert!(validate(&d).is_empty(), "{:?}", validate(&d));

        // Inflate the total so the stages only cover 2/3 of it.
        let d = doc_with_stages(&[row(100, "serial"), ingest_row(10)])
            .replace("\"total_s\": 0.2", "\"total_s\": 0.3");
        let problems = validate(&d);
        assert!(
            problems.iter().any(|p| p.contains("more than 10% apart")),
            "{problems:?}"
        );

        // A missing total is its own violation.
        let d = doc_with_stages(&[row(100, "serial"), ingest_row(10)])
            .replace(", \"total_s\": 0.2", "");
        let problems = validate(&d);
        assert!(
            problems.iter().any(|p| p.contains("missing key `total_s`")),
            "{problems:?}"
        );

        // Within-tolerance skew (≤ 10%) passes: clocks and rounding
        // are allowed to disagree a little.
        let d = doc_with_stages(&[row(100, "serial"), ingest_row(10)])
            .replace("\"total_s\": 0.2", "\"total_s\": 0.21");
        assert!(validate(&d).is_empty(), "{:?}", validate(&d));
    }

    #[test]
    fn syntax_error_is_one_problem() {
        assert_eq!(validate("{\"a\": }").len(), 1);
    }
}
