//! The workspace's one JSON writer and reader.
//!
//! The build has no crates.io access, so instead of serde every report
//! producer (`Registry::to_json`, `TrafficReport`, `RobustnessReport`,
//! the bench bins) serializes through this small writer, and every
//! `--check` reads documents back through [`parse`]. Output is
//! deterministic: field order is insertion order and floats use Rust's
//! shortest-roundtrip formatting, so the same report always produces
//! the byte-identical document (the property the determinism gates
//! pin). It lives here because `egoist-obs` is the one crate all
//! producers already depend on.

/// Whitespace convention of a document. Both are pinned by committed
/// bytes: `BENCH_perf.json` / `BENCH_traffic.json` and the obs export
/// are [`Layout::Compact`]; `BENCH_robustness.json` and the fleet
/// fingerprints hash [`Layout::Spaced`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// No whitespace anywhere.
    Compact,
    /// `", "` between entries and `": "` after keys; a
    /// [`JsonObject::document`] puts each top-level field on its own
    /// line, and an array of such multi-line items one item per line.
    Spaced,
}

impl Layout {
    fn join(self, open: char, entries: &[String], close: char) -> String {
        let sep = match self {
            Layout::Compact => ",",
            Layout::Spaced => ", ",
        };
        format!("{open}{}{close}", entries.join(sep))
    }
}

/// One entry per line, indented two spaces (continuation lines of a
/// multi-line entry move with it).
fn lines(open: char, entries: &[String], close: char) -> String {
    if entries.is_empty() {
        return format!("{open}{close}");
    }
    let body: Vec<String> = entries
        .iter()
        .map(|e| format!("  {}", e.replace('\n', "\n  ")))
        .collect();
    format!("{open}\n{}\n{close}", body.join(",\n"))
}

/// Escape and quote a JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a float as a JSON number; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON array from already-serialized items.
pub fn array<I: IntoIterator<Item = String>>(layout: Layout, items: I) -> String {
    let items: Vec<String> = items.into_iter().collect();
    if items.iter().any(|i| i.contains('\n')) {
        lines('[', &items, ']')
    } else {
        layout.join('[', &items, ']')
    }
}

/// Insertion-ordered JSON object builder.
pub struct JsonObject {
    layout: Layout,
    parts: Vec<String>,
}

impl JsonObject {
    pub fn new(layout: Layout) -> Self {
        JsonObject {
            layout,
            parts: Vec::new(),
        }
    }

    /// Add a field whose value is already serialized JSON.
    pub fn raw(mut self, key: &str, value: impl AsRef<str>) -> Self {
        let sep = match self.layout {
            Layout::Compact => ":",
            Layout::Spaced => ": ",
        };
        self.parts
            .push(format!("{}{sep}{}", string(key), value.as_ref()));
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, string(value))
    }

    /// Non-finite values are written as `null`.
    pub fn f64(self, key: &str, value: f64) -> Self {
        self.raw(key, num(value))
    }

    pub fn u64(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// The object on one line — the form nested values take.
    pub fn finish(self) -> String {
        self.layout.join('{', &self.parts, '}')
    }

    /// The object as a whole newline-terminated document.
    pub fn document(self) -> String {
        match self.layout {
            Layout::Compact => self.finish() + "\n",
            Layout::Spaced => lines('{', &self.parts, '}') + "\n",
        }
    }
}

/// A parsed JSON value. Objects keep document order and duplicate keys;
/// an integer literal that fits stays a `u64`, so counters above 2^53
/// read back exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    F64(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The first field named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Any number, integers included.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }
}

/// Parse one JSON document (surrounding whitespace allowed).
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser { src, at: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.at != src.len() {
        return p.err("trailing input");
    }
    Ok(v)
}

/// Nesting deeper than this is refused: checked files come from outside.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.at))
    }

    fn skip_ws(&mut self) {
        let rest = &self.src[self.at..];
        self.at += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.src[self.at..].starts_with(lit);
        if hit {
            self.at += lit.len();
        }
        hit
    }

    /// Comma-separated entries up to `close` (the opener is consumed).
    fn entries<T>(
        &mut self,
        close: &str,
        mut entry: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(entry(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(",") {
                return self.err(&format!("expected ',' or '{close}'"));
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        if self.eat("{") {
            let fields = self.entries("}", |p| {
                p.skip_ws();
                let key = p.string()?;
                p.skip_ws();
                if !p.eat(":") {
                    return p.err("expected ':'");
                }
                Ok((key, p.value(depth + 1)?))
            })?;
            Ok(Value::Obj(fields))
        } else if self.eat("[") {
            Ok(Value::Arr(self.entries("]", |p| p.value(depth + 1))?))
        } else if self.src[self.at..].starts_with('"') {
            Ok(Value::Str(self.string()?))
        } else if self.eat("true") {
            Ok(Value::Bool(true))
        } else if self.eat("false") {
            Ok(Value::Bool(false))
        } else if self.eat("null") {
            Ok(Value::Null)
        } else {
            self.number()
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let rest = &self.src[self.at..];
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(rest.len());
        let token = &rest[..len];
        let value = if !token.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
            None
        } else if let Ok(v) = token.parse::<u64>() {
            Some(Value::U64(v))
        } else {
            token.parse::<f64>().ok().map(Value::F64)
        };
        let Some(value) = value else {
            return self.err("expected a value");
        };
        self.at += len;
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.err("expected string");
        }
        let mut out = String::new();
        loop {
            let mut chars = self.src[self.at..].chars();
            let Some(c) = chars.next() else {
                return self.err("unterminated string");
            };
            self.at += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let Some(e) = chars.next() else {
                        return self.err("unterminated escape");
                    };
                    self.at += e.len_utf8();
                    out.push(match e {
                        '"' | '\\' | '/' => e,
                        'n' => '\n',
                        'r' => '\r',
                        't' => '\t',
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        'u' => {
                            let hex = self.src.get(self.at..self.at + 4);
                            let Some(c) = hex
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                            else {
                                return self.err("bad \\u escape");
                            };
                            self.at += 4;
                            c
                        }
                        _ => return self.err("bad escape"),
                    });
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Layout::{Compact, Spaced};
    use super::*;
    use proptest::prelude::*;

    /// Characters the escaper has a case for, plus plain and non-ASCII.
    const PALETTE: [char; 12] = [
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1f}',
        'a',
        ' ',
        'é',
        '\u{1F980}',
    ];

    /// Decode a value tree from raw random words (the vendored proptest
    /// has no recursive strategies).
    fn value_from(words: &mut impl Iterator<Item = u64>, depth: usize) -> Value {
        let mut next = || words.next().unwrap_or(0);
        let text = |w: u64| -> String {
            let picks = (0..w % 6).map(|i| PALETTE[(w >> (8 * i + 8)) as usize % PALETTE.len()]);
            picks.collect()
        };
        let kind = next() % if depth < 3 { 8 } else { 6 };
        match kind {
            0 => Value::Null,
            1 => Value::Bool(next() & 1 == 1),
            // Raw words: almost all above 2^53.
            2 => Value::U64(next()),
            3 => Value::U64(next() % 1000),
            // Any bit pattern: NaN, infinities, subnormals, negatives.
            4 => Value::F64(f64::from_bits(next())),
            5 => Value::Str(text(next())),
            6 => {
                let len = next() % 4;
                Value::Arr((0..len).map(|_| value_from(words, depth + 1)).collect())
            }
            _ => {
                let len = next() % 4;
                let fields = (0..len).map(|_| {
                    let key = text(words.next().unwrap_or(0));
                    (key, value_from(words, depth + 1))
                });
                Value::Obj(fields.collect())
            }
        }
    }

    /// Serialize through the public builder; objects near the root take
    /// the multi-line document form so nesting is exercised too.
    fn write(v: &Value, layout: Layout, depth: usize) -> String {
        match v {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::U64(x) => x.to_string(),
            Value::F64(x) => num(*x),
            Value::Str(s) => string(s),
            Value::Arr(items) => array(layout, items.iter().map(|i| write(i, layout, depth + 1))),
            Value::Obj(fields) => {
                let obj = fields.iter().fold(JsonObject::new(layout), |o, (k, f)| {
                    o.raw(k, write(f, layout, depth + 1))
                });
                if depth < 2 {
                    obj.document().trim_end().to_string()
                } else {
                    obj.finish()
                }
            }
        }
    }

    /// What a written value reads back as: non-finite floats are `null`.
    fn as_read(v: &Value) -> Value {
        match v {
            Value::F64(x) if !x.is_finite() => Value::Null,
            Value::Arr(items) => Value::Arr(items.iter().map(as_read).collect()),
            Value::Obj(fields) => Value::Obj(
                fields
                    .iter()
                    .map(|(k, f)| (k.clone(), as_read(f)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_inverts_write_in_both_layouts(words in collection::vec(any::<u64>(), 1..120)) {
            let v = value_from(&mut words.into_iter(), 0);
            for layout in [Compact, Spaced] {
                let text = write(&v, layout, 0);
                prop_assert_eq!(parse(&text), Ok(as_read(&v)), "{:?}: {}", layout, text);
            }
        }
    }

    #[test]
    fn object_preserves_insertion_order() {
        let fill = |o: JsonObject| {
            o.str("name", "uniform")
                .u64("epochs", 8)
                .f64("ratio", 0.5)
                .bool("closed_loop", true)
        };
        assert_eq!(
            fill(JsonObject::new(Compact)).finish(),
            r#"{"name":"uniform","epochs":8,"ratio":0.5,"closed_loop":true}"#
        );
        assert_eq!(
            fill(JsonObject::new(Spaced)).finish(),
            r#"{"name": "uniform", "epochs": 8, "ratio": 0.5, "closed_loop": true}"#
        );
    }

    #[test]
    fn strings_escape_control_and_quotes() {
        assert_eq!(string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(2.5), "2.5");
        assert_eq!(num(1.0), "1.0");
    }

    #[test]
    fn arrays_join_items() {
        assert_eq!(array(Compact, [num(1.0), num(2.5)]), "[1.0,2.5]");
        assert_eq!(array(Spaced, [num(1.0), num(2.5)]), "[1.0, 2.5]");
        assert_eq!(array(Compact, Vec::<String>::new()), "[]");
    }

    #[test]
    fn documents_nest_one_field_per_line() {
        let inner = |name: &str| {
            JsonObject::new(Spaced)
                .str("scenario", name)
                .raw("fault", JsonObject::new(Spaced).u64("cut", 1).finish())
                .document()
        };
        let items = [inner("a"), inner("b")].map(|d| d.trim_end().to_string());
        let doc = JsonObject::new(Spaced)
            .str("schema", "s/v1")
            .raw("scenarios", array(Spaced, items))
            .document();
        let expected = r#"{
  "schema": "s/v1",
  "scenarios": [
    {
      "scenario": "a",
      "fault": {"cut": 1}
    },
    {
      "scenario": "b",
      "fault": {"cut": 1}
    }
  ]
}
"#;
        assert_eq!(doc, expected);
        assert_eq!(
            JsonObject::new(Compact).u64("x", 1).document(),
            "{\"x\":1}\n"
        );
    }

    #[test]
    fn reader_keeps_order_duplicates_and_big_integers() {
        let v = parse(r#" {"b": 18446744073709551615, "a": [1.5, null, true], "b": -2} "#).unwrap();
        assert_eq!(v.get("b"), Some(&Value::U64(u64::MAX)));
        assert_eq!(v.as_obj().unwrap().len(), 3);
        assert_eq!(v.as_obj().unwrap()[2].1.as_f64(), Some(-2.0));
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a, [Value::F64(1.5), Value::Null, Value::Bool(true)]);
        assert_eq!(
            parse(r#""q\"\\\/\u00e9\n""#).unwrap().as_str(),
            Some("q\"\\/é\n")
        );
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"abc",
            "tru",
            "1 2",
            "\"\\u12\"",
            "\"\\ué\"",
            "+1",
            "nan",
            "[1,]",
            "{,}",
            "\"\\x\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert!(parse(&"[".repeat(1000)).is_err());
    }
}
