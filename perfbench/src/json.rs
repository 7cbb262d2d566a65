//! A minimal JSON value writer: the benchmark prints one result object
//! per run and needs nothing more than numbers, strings, booleans and
//! nested objects.

use std::fmt;

/// One JSON value.
pub enum Json {
    /// A float, printed with every digit Rust's shortest round-trip
    /// form gives it (non-finite values print as `null`).
    Num(f64),
    /// A whole number.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// A measured value with its unit: `{"value": v, "unit": u}`.
    pub fn metric(value: f64, unit: &str) -> Self {
        Json::obj()
            .with("value", Json::Num(value))
            .with("unit", Json::Str(unit.into()))
    }

    /// Appends `key: value` to an object and returns it.
    pub fn with(mut self, key: &str, value: Json) -> Self {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value));
        }
        self
    }

    /// Appends `key: value` to an object in place.
    pub fn put(&mut self, key: &str, value: Json) {
        if let Json::Obj(fields) = self {
            fields.push((key.to_string(), value));
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}
