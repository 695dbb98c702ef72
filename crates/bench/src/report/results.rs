//! Machine-readable benchmark results (`BENCH_results.json`).
//!
//! Every harness that measures something appends its entries here, so the
//! perf trajectory of the *simulator itself* (host wall-clock) can be
//! tracked across PRs next to the simulated cycle counts (which the cost
//! model fixes). The file is JSON:
//!
//! ```json
//! {
//!   "schema": "cubicle-bench/v1",
//!   "entries": [
//!     {"name": "checked_4k_read", "wall_ns": 77, "samples": 8663,
//!      "sim_cycles": 73}
//!   ]
//! }
//! ```
//!
//! Different harnesses merge into one file: [`BenchResults::save`] loads
//! whatever is already there and replaces entries by name.

use std::path::{Path, PathBuf};

/// One measured benchmark.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchEntry {
    /// Stable benchmark identifier.
    pub name: String,
    /// Best (minimum) host wall-clock time per iteration, in nanoseconds.
    pub wall_ns: u64,
    /// Number of timing samples behind the minimum.
    pub samples: u64,
    /// Simulated cycles per iteration (cost-model time; must not change
    /// when the host-side simulator is optimised).
    pub sim_cycles: u64,
}

/// A set of results, merged into `BENCH_results.json` on save.
#[derive(Default, Debug)]
pub struct BenchResults {
    entries: Vec<BenchEntry>,
}

impl BenchResults {
    /// Creates an empty result set.
    pub fn new() -> BenchResults {
        BenchResults::default()
    }

    /// The default output path: `$CUBICLE_BENCH_OUT` if set, otherwise
    /// `BENCH_results.json` at the workspace root.
    pub fn default_path() -> PathBuf {
        match std::env::var_os("CUBICLE_BENCH_OUT") {
            Some(p) => PathBuf::from(p),
            None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_results.json"),
        }
    }

    /// Records one benchmark.
    pub fn push(&mut self, name: &str, wall_ns: u64, samples: u64, sim_cycles: u64) {
        self.entries.push(BenchEntry {
            name: name.to_string(),
            wall_ns,
            samples,
            sim_cycles,
        });
    }

    /// The recorded entries.
    pub fn entries(&self) -> &[BenchEntry] {
        &self.entries
    }

    /// Serialises to the JSON document format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"cubicle-bench/v1\",\n  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ns\": {}, \"samples\": {}, \"sim_cycles\": {}}}",
                escape(&e.name),
                e.wall_ns,
                e.samples,
                e.sim_cycles,
            ));
            if i + 1 < self.entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a document produced by [`BenchResults::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn from_json(text: &str) -> Result<BenchResults, String> {
        let root = json::parse(text)?;
        let entries = root
            .get("entries")
            .and_then(json::Value::as_array)
            .ok_or("missing \"entries\" array")?;
        let mut out = BenchResults::new();
        for e in entries {
            let num = |k: &str| e.get(k).and_then(json::Value::as_u64);
            out.entries.push(BenchEntry {
                name: e
                    .get("name")
                    .and_then(json::Value::as_str)
                    .ok_or("entry without \"name\"")?
                    .to_string(),
                wall_ns: num("wall_ns").ok_or("entry without \"wall_ns\"")?,
                samples: num("samples").unwrap_or(0),
                sim_cycles: num("sim_cycles").unwrap_or(0),
            });
        }
        Ok(out)
    }

    /// Merges these entries into the results file at `path` (replacing
    /// same-name entries, keeping the rest) and writes it back. A missing
    /// or unparsable file is treated as empty.
    ///
    /// # Errors
    ///
    /// I/O errors writing the file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut merged = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| BenchResults::from_json(&text).ok())
            .unwrap_or_default();
        merged
            .entries
            .retain(|e| !self.entries.iter().any(|n| n.name == e.name));
        merged.entries.extend(self.entries.iter().cloned());
        std::fs::write(path, merged.to_json())
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A minimal JSON parser (objects, arrays, strings, numbers, booleans,
/// null) — just enough to read our own results file and validate it in
/// tests/CI without external dependencies.
pub mod json {
    use std::collections::HashMap;

    /// A parsed JSON value.
    #[derive(Clone, PartialEq, Debug)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number (kept as f64).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object.
        Obj(HashMap<String, Value>),
    }

    impl Value {
        /// Looks up a key of an object.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(m) => m.get(key),
                _ => None,
            }
        }

        /// The elements of an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// The contents of a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// A non-negative integral number as u64.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
                _ => None,
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') => lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => lit(b, pos, "null", Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        *pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    *pos += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = b.get(*pos..*pos + len).ok_or("truncated utf-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "bad utf-8")?);
                    *pos += len;
                }
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // '['
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // '{'
        let mut out = HashMap::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b'"') {
                return Err(format!("expected object key at byte {pos}"));
            }
            let key = string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}"));
            }
            *pos += 1;
            out.insert(key, value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchResults {
        let mut r = BenchResults::new();
        r.push("a", 100, 10, 1_000);
        r.push("b", 50, 4, 0);
        r
    }

    #[test]
    fn json_round_trip() {
        let r = sample();
        let back = BenchResults::from_json(&r.to_json()).unwrap();
        assert_eq!(back.entries(), r.entries());
    }

    #[test]
    fn save_merges_by_name() {
        let dir = std::env::temp_dir().join(format!("bench_results_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.json");
        sample().save(&path).unwrap();
        let mut update = BenchResults::new();
        update.push("b", 25, 8, 7);
        update.push("c", 1, 1, 1);
        update.save(&path).unwrap();
        let merged = BenchResults::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let names: Vec<_> = merged.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(merged.entries()[1].wall_ns, 25, "entry b was replaced");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parser_handles_general_json() {
        let v = json::parse(r#"{"x": [1, -2.5, "s\n", true, null], "y": {}}"#).unwrap();
        let arr = v.get("x").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], json::Value::Num(-2.5));
        assert_eq!(arr[2].as_str(), Some("s\n"));
        assert_eq!(arr[3], json::Value::Bool(true));
        assert_eq!(arr[4], json::Value::Null);
        assert!(v.get("y").is_some());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("{} extra").is_err());
        assert!(json::parse("\"unterminated").is_err());
    }
}
