//! The one JSON writer of the bench binaries, plus the results-file writer
//! and the exit gate they share.
//!
//! Every `results/BENCH_*.json` is built as one ordered [`Json`] value and
//! rendered by [`Json::render`]. Two rules live here and nowhere else:
//!
//! * A number that was never measured is `null`: a mean over runs that
//!   completed no query (NaN), or a ratio whose denominator never ran.
//!   It is never a fabricated `0.000`, and never the token `NaN`, which
//!   strict JSON parsers reject. Any non-finite float renders as `null`.
//! * Object members keep the order the bin inserted them in, so the file
//!   reads the way the bin builds it.

/// A JSON value whose objects keep their members in insertion order.
#[derive(Debug)]
pub enum Json {
    Bool(bool),
    UInt(u64),
    /// A float in Rust's shortest round-trip spelling (`10`, `0.25`): for
    /// echoed configuration values.
    Num(f64),
    /// A float with a fixed number of decimals: for measurements.
    Fixed(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// An object with `members` in the given order.
    pub fn obj<const N: usize>(members: [(&'static str, Json); N]) -> Json {
        Json::Obj(members.into())
    }

    /// The document text. Top-level members go one per line, as do the
    /// elements of an array directly under the top level (one cell per
    /// line); everything deeper is inline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Num(x) | Json::Fixed(x, _) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => out.push_str(&x.to_string()),
            Json::Fixed(x, decimals) => out.push_str(&format!("{x:.decimals$}")),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let items = items.iter().map(|v| (None, v));
                write_seq(out, ['[', ']'], items, depth, depth == 1);
            }
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(*k), v));
                write_seq(out, ['{', '}'], members, depth, depth == 0);
            }
        }
    }
}

/// Members (keyed) or elements (unkeyed) between `brackets`, either inline
/// or one per line indented under `depth`.
fn write_seq<'a>(
    out: &mut String,
    brackets: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    depth: usize,
    one_per_line: bool,
) {
    out.push(brackets[0]);
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            out.push(',');
        }
        if one_per_line {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        } else if !empty {
            out.push(' ');
        }
        empty = false;
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if one_per_line && !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(brackets[1]);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// Write each `(name, contents)` pair to `results/<name>`, creating the
/// directory first. A bench whose results cannot be saved exits 2.
pub fn write_results(files: &[(&str, &str)]) {
    for &(name, contents) in files {
        let path = format!("results/{name}");
        match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, contents)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// The exit gate every bench shares: print `FAIL: <message>` for each
/// check that did not pass and exit 1, or print `OK: <ok>`.
pub fn gate(checks: &[(bool, String)], ok: &str) {
    let mut failed = false;
    for (passed, message) in checks {
        if !passed {
            eprintln!("FAIL: {message}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("OK: {ok}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_numbers_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Fixed(x, 6).render(), "null\n");
            assert_eq!(Json::Num(x).render(), "null\n");
        }
        assert_eq!(Json::Fixed(2.5, 3).render(), "2.500\n");
        assert_eq!(Json::Num(10.0).render(), "10\n");
        assert_eq!(Json::Num(0.25).render(), "0.25\n");
    }

    #[test]
    fn members_keep_insertion_order() {
        let doc = Json::obj([
            ("zeta", 1usize.into()),
            (
                "alpha",
                Json::obj([("y", Json::Bool(true)), ("b", "q\"\\\n".into())]),
            ),
            ("mid", Json::Arr(vec![3usize.into(), 1usize.into()])),
            ("none", Json::Arr(Vec::new())),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"zeta\": 1,\n  \"alpha\": {\"y\": true, \"b\": \"q\\\"\\\\\\u000a\"},\n  \
             \"mid\": [\n    3,\n    1\n  ],\n  \"none\": []\n}\n"
        );
    }

    /// The empty-cell bug: a `query_load` cell in which no run completed a
    /// query has NaN latency means, which `{:.6}` wrote as the token `NaN`
    /// that strict JSON parsers reject.
    #[test]
    fn query_load_cell_with_nan_latency_renders_strict_json() {
        let cell = Json::obj([
            ("rate_qps", Json::Num(25.0)),
            ("queries_per_run", Json::Fixed(3.0, 1)),
            ("latency_p50_s", Json::Fixed(f64::NAN, 6)),
            ("latency_p95_s", Json::Fixed(f64::NAN, 6)),
            ("post_accuracy", Json::Fixed(0.0, 4)),
            ("status_counts", Json::obj([("completed", 0usize.into())])),
        ]);
        let doc = Json::obj([("cells", Json::Arr(vec![cell]))]).render();
        assert_eq!(
            doc,
            "{\n  \"cells\": [\n    {\"rate_qps\": 25, \"queries_per_run\": 3.0, \
             \"latency_p50_s\": null, \"latency_p95_s\": null, \"post_accuracy\": 0.0000, \
             \"status_counts\": {\"completed\": 0}}\n  ]\n}\n"
        );
    }
}
