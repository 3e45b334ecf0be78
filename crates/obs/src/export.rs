//! Zero-dependency serialisation: a minimal JSON writer, a Prometheus
//! text-format writer, and validity checkers.
//!
//! The writers exist so `EngineStats` can be exported without pulling a
//! serialisation crate into the workspace; the checkers
//! ([`json_is_valid`], [`prometheus_is_valid`]) are independent
//! hand-rolled parsers, so the engine's export tests (and its
//! concurrent-load consistency test) assert that whatever the writers
//! produced parses against a grammar rather than against themselves.

use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

/// An append-only JSON writer. Keys and values are emitted through typed
/// methods so comma placement is handled internally; non-finite floats
/// are written as `null` (JSON has no Inf/NaN).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` while it has no elements yet.
    stack: Vec<bool>,
}

impl JsonWriter {
    #[must_use]
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn pre_value(&mut self) {
        if let Some(first) = self.stack.last_mut() {
            if *first {
                *first = false;
            } else {
                self.out.push(',');
            }
        }
    }

    fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn raw_f64(&mut self, v: f64) {
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Opens the root object (or an object element inside an array).
    pub fn begin_object(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.stack.push(true);
    }

    pub fn end_object(&mut self) {
        self.stack.pop();
        self.out.push('}');
    }

    /// Opens `"key": {` inside the current object.
    pub fn begin_object_field(&mut self, key: &str) {
        self.pre_value();
        self.push_escaped(key);
        self.out.push(':');
        self.out.push('{');
        self.stack.push(true);
    }

    /// Opens `"key": [` inside the current object.
    pub fn begin_array_field(&mut self, key: &str) {
        self.pre_value();
        self.push_escaped(key);
        self.out.push(':');
        self.out.push('[');
        self.stack.push(true);
    }

    pub fn end_array(&mut self) {
        self.stack.pop();
        self.out.push(']');
    }

    pub fn field_u64(&mut self, key: &str, v: u64) {
        self.pre_value();
        self.push_escaped(key);
        self.out.push(':');
        let _ = write!(self.out, "{v}");
    }

    pub fn field_f64(&mut self, key: &str, v: f64) {
        self.pre_value();
        self.push_escaped(key);
        self.out.push(':');
        self.raw_f64(v);
    }

    pub fn field_str(&mut self, key: &str, v: &str) {
        self.pre_value();
        self.push_escaped(key);
        self.out.push(':');
        self.push_escaped(v);
    }

    pub fn field_bool(&mut self, key: &str, v: bool) {
        self.pre_value();
        self.push_escaped(key);
        self.out.push(':');
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Appends a bare number element inside the current array.
    pub fn elem_u64(&mut self, v: u64) {
        self.pre_value();
        let _ = write!(self.out, "{v}");
    }

    /// Appends a bare float element inside the current array.
    pub fn elem_f64(&mut self, v: f64) {
        self.pre_value();
        self.raw_f64(v);
    }

    /// The serialised document.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

// ---------------------------------------------------------------------------
// Prometheus text-format writer
// ---------------------------------------------------------------------------

/// An append-only writer for the Prometheus text exposition format.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    #[must_use]
    pub fn new() -> Self {
        PromWriter::default()
    }

    /// Emits a `# HELP` line.
    pub fn help(&mut self, name: &str, text: &str) {
        let _ = writeln!(self.out, "# HELP {name} {text}");
    }

    /// Emits a `# TYPE` line (`kind` is `counter`/`gauge`/`histogram`/…).
    pub fn typ(&mut self, name: &str, kind: &str) {
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emits one sample line, with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                for c in v.chars() {
                    match c {
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        '\n' => self.out.push_str("\\n"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        if value.is_nan() {
            self.out.push_str("NaN");
        } else if value.is_infinite() {
            self.out.push_str(if value > 0.0 { "+Inf" } else { "-Inf" });
        } else {
            let _ = write!(self.out, "{value}");
        }
        self.out.push('\n');
    }

    /// The serialised exposition text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

// ---------------------------------------------------------------------------
// JSON validity checker (recursive-descent, depth-bounded)
// ---------------------------------------------------------------------------

/// Whether `s` is one complete, syntactically valid JSON value.
#[must_use]
pub fn json_is_valid(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    if !json_value(b, &mut i, 0) {
        return false;
    }
    skip_ws(b, &mut i);
    i == b.len()
}

const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn eat(b: &[u8], i: &mut usize, lit: &str) -> bool {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        true
    } else {
        false
    }
}

fn json_value(b: &[u8], i: &mut usize, depth: usize) -> bool {
    if depth > MAX_DEPTH || *i >= b.len() {
        return false;
    }
    match b[*i] {
        b'{' => json_object(b, i, depth),
        b'[' => json_array(b, i, depth),
        b'"' => json_string(b, i),
        b't' => eat(b, i, "true"),
        b'f' => eat(b, i, "false"),
        b'n' => eat(b, i, "null"),
        _ => json_number(b, i),
    }
}

fn json_object(b: &[u8], i: &mut usize, depth: usize) -> bool {
    *i += 1; // '{'
    skip_ws(b, i);
    if *i < b.len() && b[*i] == b'}' {
        *i += 1;
        return true;
    }
    loop {
        skip_ws(b, i);
        if *i >= b.len() || b[*i] != b'"' || !json_string(b, i) {
            return false;
        }
        skip_ws(b, i);
        if *i >= b.len() || b[*i] != b':' {
            return false;
        }
        *i += 1;
        skip_ws(b, i);
        if !json_value(b, i, depth + 1) {
            return false;
        }
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn json_array(b: &[u8], i: &mut usize, depth: usize) -> bool {
    *i += 1; // '['
    skip_ws(b, i);
    if *i < b.len() && b[*i] == b']' {
        *i += 1;
        return true;
    }
    loop {
        skip_ws(b, i);
        if !json_value(b, i, depth + 1) {
            return false;
        }
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn json_string(b: &[u8], i: &mut usize) -> bool {
    *i += 1; // opening '"'
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return true;
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        *i += 1;
                        for _ in 0..4 {
                            if !b.get(*i).is_some_and(u8::is_ascii_hexdigit) {
                                return false;
                            }
                            *i += 1;
                        }
                    }
                    _ => return false,
                }
            }
            0x00..=0x1f => return false, // raw control char
            _ => *i += 1,
        }
    }
    false
}

fn json_number(b: &[u8], i: &mut usize) -> bool {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let int_start = *i;
    while b.get(*i).is_some_and(u8::is_ascii_digit) {
        *i += 1;
    }
    let int_len = *i - int_start;
    if int_len == 0 {
        return false;
    }
    // no leading zeros ("01" is invalid JSON)
    if int_len > 1 && b[int_start] == b'0' {
        return false;
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        let frac_start = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        if *i == frac_start {
            return false;
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        let exp_start = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        if *i == exp_start {
            return false;
        }
    }
    *i > start
}

// ---------------------------------------------------------------------------
// Prometheus text-format validity checker
// ---------------------------------------------------------------------------

/// Whether `s` parses as Prometheus text exposition format: every
/// non-empty line is a `# HELP`/`# TYPE`/comment line or a sample of the
/// form `name{labels} value`, with well-formed metric names, quoted
/// label values, and a float-parsable value.
#[must_use]
pub fn prometheus_is_valid(s: &str) -> bool {
    s.lines().all(prom_line_is_valid)
}

fn is_metric_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_metric_name_char(c: char) -> bool {
    is_metric_name_start(c) || c.is_ascii_digit()
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if is_metric_name_start(c) => chars.all(is_metric_name_char),
        _ => false,
    }
}

fn valid_sample_value(v: &str) -> bool {
    matches!(v, "+Inf" | "-Inf" | "Inf" | "NaN") || v.parse::<f64>().is_ok()
}

fn prom_line_is_valid(line: &str) -> bool {
    if line.trim().is_empty() {
        return true;
    }
    if let Some(rest) = line.strip_prefix('#') {
        let rest = rest.trim_start();
        if let Some(help) = rest.strip_prefix("HELP ") {
            // "# HELP <name> <any docstring>"
            return help.split_once(' ').map_or_else(
                || valid_metric_name(help.trim()),
                |(name, _)| valid_metric_name(name),
            );
        }
        if let Some(typ) = rest.strip_prefix("TYPE ") {
            let mut parts = typ.split_whitespace();
            let name_ok = parts.next().is_some_and(valid_metric_name);
            let kind_ok = matches!(
                parts.next(),
                Some("counter" | "gauge" | "histogram" | "summary" | "untyped")
            );
            return name_ok && kind_ok && parts.next().is_none();
        }
        return true; // bare comment
    }
    // sample: name[{labels}] value [timestamp]
    let name_end = line
        .char_indices()
        .find(|&(_, c)| !is_metric_name_char(c))
        .map_or(line.len(), |(i, _)| i);
    let (name, rest) = line.split_at(name_end);
    if !valid_metric_name(name) {
        return false;
    }
    let rest = match rest.strip_prefix('{') {
        Some(after_brace) => match prom_labels(after_brace) {
            Some(tail) => tail,
            None => return false,
        },
        None => rest,
    };
    let mut parts = rest.split_whitespace();
    let value_ok = parts.next().is_some_and(valid_sample_value);
    let ts_ok = parts.next().is_none_or(|ts| ts.parse::<i64>().is_ok());
    value_ok && ts_ok && parts.next().is_none()
}

/// Validates `name="value",…}` after the opening brace; returns the tail
/// after the closing brace, or `None` if malformed.
fn prom_labels(s: &str) -> Option<&str> {
    let mut rest = s;
    loop {
        rest = rest.trim_start_matches(' ');
        if let Some(tail) = rest.strip_prefix('}') {
            return Some(tail);
        }
        let eq = rest.find('=')?;
        if !valid_metric_name(rest[..eq].trim()) {
            return None;
        }
        rest = rest[eq + 1..].strip_prefix('"')?;
        // scan the quoted value, honouring backslash escapes
        let mut bytes = rest.char_indices();
        let close = loop {
            let (i, c) = bytes.next()?;
            match c {
                '\\' => {
                    bytes.next()?;
                }
                '"' => break i,
                _ => {}
            }
        };
        rest = &rest[close + 1..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_writer_produces_valid_nested_document() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "engine \"a\"\n");
        w.field_u64("count", 42);
        w.field_f64("ratio", 0.5);
        w.field_f64("bad", f64::NAN); // must come out as null
        w.field_bool("ok", true);
        w.begin_object_field("nested");
        w.field_f64("p50", 1.25e-3);
        w.end_object();
        w.begin_array_field("buckets");
        w.elem_u64(1);
        w.elem_u64(2);
        w.elem_f64(3.5);
        w.end_array();
        w.begin_array_field("objs");
        w.begin_object();
        w.field_u64("id", 7);
        w.end_object();
        w.begin_object();
        w.field_u64("id", 8);
        w.end_object();
        w.end_array();
        w.end_object();
        let doc = w.finish();
        assert!(json_is_valid(&doc), "invalid JSON: {doc}");
        assert!(doc.contains("\"bad\":null"));
        assert!(doc.contains("\\\"a\\\"\\n"));
    }

    #[test]
    fn json_checker_rejects_malformed() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,2,]",
            "{'a':1}",
            "{\"a\" 1}",
            "nul",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "{\"a\":1} extra",
            "[1 2]",
        ] {
            assert!(!json_is_valid(bad), "accepted: {bad:?}");
        }
    }

    #[test]
    fn json_checker_accepts_wellformed() {
        for good in [
            "0",
            "-1.5e-3",
            "null",
            "true",
            "[]",
            "{}",
            "{\"a\":[1,{\"b\":\"\\u00e9\"}]}",
            "  {\"x\": -0.25}  ",
        ] {
            assert!(json_is_valid(good), "rejected: {good:?}");
        }
    }

    #[test]
    fn prom_writer_produces_valid_exposition() {
        let mut w = PromWriter::new();
        w.help("mbt_cache_hits_total", "Plan cache hits.");
        w.typ("mbt_cache_hits_total", "counter");
        w.sample("mbt_cache_hits_total", &[], 17.0);
        w.typ("mbt_eval_latency_seconds", "histogram");
        w.sample("mbt_eval_latency_seconds_bucket", &[("le", "0.001")], 12.0);
        w.sample("mbt_eval_latency_seconds_bucket", &[("le", "+Inf")], 15.0);
        w.sample("mbt_eval_latency_seconds_sum", &[], 0.125);
        w.sample("mbt_eval_latency_seconds_count", &[], 15.0);
        w.sample(
            "mbt_plan_requests_total",
            &[("dataset", "d\"q\""), ("kind", "potential")],
            3.0,
        );
        let text = w.finish();
        assert!(prometheus_is_valid(&text), "invalid exposition:\n{text}");
    }

    #[test]
    fn prom_checker_rejects_malformed() {
        for bad in [
            "1metric 2",
            "name",             // sample line with no value
            "name{le=0.1} 2",   // unquoted label value
            "name{le=\"x} 2",   // unterminated label value
            "name abc",         // non-float value
            "# TYPE name enum", // bad metric type
            "name 1 2 3",       // trailing junk
        ] {
            assert!(!prometheus_is_valid(bad), "accepted: {bad:?}");
        }
    }

    #[test]
    fn prom_checker_accepts_edge_cases() {
        for good in [
            "",
            "# just a comment",
            "up 1",
            "up 1 1700000000",
            "metric{a=\"b\",c=\"d\\\"e\"} +Inf",
            "metric{} 0.5",
        ] {
            assert!(prometheus_is_valid(good), "rejected: {good:?}");
        }
    }
}
