//! One mechanism for the `BENCH_*.json` ledgers.
//!
//! A ledger is declared once as a [`Ledger`]: its bench tag, its
//! top-level fields, and its row groups of ordered columns, each written
//! as an integer, a fixed-decimal number or a string. Everything else
//! derives from that declaration:
//!
//! * [`Ledger::render`] emits a document under one layout rule: a value
//!   that neither is nor holds an array of objects renders inline, and
//!   anything else renders as an indented block;
//! * [`Ledger::check`] parses a file with [`crate::json`], re-renders it
//!   through the declaration and requires byte equality — one comparison
//!   that pins key set, key order, types and number formats — and then
//!   runs the ledger's semantic invariants;
//! * [`Ledger::write`] renders, checks its own output and writes it, and
//!   [`Ledger::cli`] is the shared `--check FILE` / `--smoke` front end.
//!
//! Numbers travel as `f64`, so integer columns are exact up to 2^53;
//! every number column is non-negative.

use std::fmt::Write as _;

use crate::fail;
use crate::json::{parse_json, Json};

/// How one column is written.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A non-negative integer.
    Int,
    /// A non-negative number with this many decimals.
    Fixed(usize),
    /// A string (no quotes or escapes).
    Str,
    /// An array of non-negative integers.
    Ints,
    /// An object of these columns, in order.
    Obj(&'static [Col]),
    /// An array of objects, each of these columns, in order.
    Rows(&'static [Col]),
}

/// One key of a ledger and how its value is written.
#[derive(Debug, Clone, Copy)]
pub struct Col(pub &'static str, pub Kind);

/// The leading field of every ledger: its bench tag.
const BENCH: Col = Col("bench", Kind::Str);

/// A ledger declaration.
pub struct Ledger {
    /// Value of the leading `"bench"` field.
    pub bench: &'static str,
    /// The fields after `"bench"`, in order.
    pub fields: &'static [Col],
    /// Semantic invariants, run on a document that already re-renders
    /// byte for byte.
    pub invariants: fn(&Json) -> Result<(), String>,
}

/// Builds an object of `cols` from `values` given in column order.
pub fn row(cols: &[Col], values: Vec<Json>) -> Json {
    assert_eq!(cols.len(), values.len(), "one value per declared column");
    Json::Obj(cols.iter().map(|c| c.0.to_string()).zip(values).collect())
}

/// `vals![a, b, …]` — a `Vec<Json>` of values given in column order.
#[macro_export]
macro_rules! vals {
    ($($v:expr),* $(,)?) => { vec![$($crate::json::Json::from($v)),*] };
}

impl Col {
    /// This column's number in object `v` (0 if absent).
    pub fn num(&self, v: &Json) -> f64 {
        v.get(self.0).and_then(Json::as_num).unwrap_or(0.0)
    }

    /// This column's string in object `v` (empty if absent).
    pub fn text<'a>(&self, v: &'a Json) -> &'a str {
        v.get(self.0).and_then(Json::as_str).unwrap_or("")
    }

    /// This column's rows in object `v` (none if absent).
    pub fn rows<'a>(&self, v: &'a Json) -> &'a [Json] {
        v.get(self.0).and_then(Json::as_arr).unwrap_or(&[])
    }
}

fn is_block(cols: &[Col]) -> bool {
    cols.iter().any(|c| match c.1 {
        Kind::Rows(_) => true,
        Kind::Obj(inner) => is_block(inner),
        _ => false,
    })
}

fn number(v: &Json, at: &str) -> Result<f64, String> {
    match v.as_num() {
        Some(x) if x >= 0.0 && x.is_finite() => Ok(x),
        _ => Err(format!("{at}: expected a non-negative number, found {v:?}")),
    }
}

fn int(v: &Json, at: &str) -> Result<String, String> {
    match number(v, at)? {
        x if x.fract() == 0.0 => Ok(format!("{}", x as u64)),
        x => Err(format!("{at}: expected an integer, found {x}")),
    }
}

fn array<'a>(v: &'a Json, at: &str) -> Result<&'a [Json], String> {
    v.as_arr().ok_or_else(|| format!("{at}: expected an array"))
}

fn render_value(
    out: &mut String,
    kind: Kind,
    v: &Json,
    at: &str,
    indent: usize,
) -> Result<(), String> {
    match kind {
        Kind::Int => out.push_str(&int(v, at)?),
        Kind::Fixed(d) => write!(out, "{:.*}", d, number(v, at)?).unwrap(),
        Kind::Str => match v.as_str() {
            Some(s) if !s.contains(['"', '\\']) => write!(out, "\"{s}\"").unwrap(),
            _ => return Err(format!("{at}: expected a plain string, found {v:?}")),
        },
        Kind::Ints => {
            let items: Result<Vec<String>, String> =
                array(v, at)?.iter().map(|x| int(x, at)).collect();
            write!(out, "[{}]", items?.join(", ")).unwrap();
        }
        Kind::Obj(cols) => render_obj(out, cols, v, at, indent)?,
        Kind::Rows(cols) => {
            out.push('[');
            for (i, item) in array(v, at)?.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&" ".repeat(indent + 2));
                render_obj(out, cols, item, &format!("{at}[{i}]"), indent + 2)?;
            }
            write!(out, "\n{}]", " ".repeat(indent)).unwrap();
        }
    }
    Ok(())
}

fn render_obj(
    out: &mut String,
    cols: &[Col],
    v: &Json,
    at: &str,
    indent: usize,
) -> Result<(), String> {
    let fields = v
        .as_obj()
        .ok_or_else(|| format!("{at}: expected an object"))?;
    let got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = cols.iter().map(|c| c.0).collect();
    if got != want {
        return Err(format!("{at}: keys {got:?}, declared {want:?}"));
    }
    let pad = " ".repeat(indent + 2);
    let (open, sep, close) = if is_block(cols) {
        (
            format!("{{\n{pad}"),
            format!(",\n{pad}"),
            format!("\n{}}}", " ".repeat(indent)),
        )
    } else {
        ("{".into(), ", ".into(), "}".into())
    };
    out.push_str(&open);
    for (i, (col, (key, value))) in cols.iter().zip(fields).enumerate() {
        out.push_str(if i == 0 { "" } else { &sep });
        write!(out, "\"{key}\": ").unwrap();
        render_value(out, col.1, value, &format!("{at}.{key}"), indent + 2)?;
    }
    out.push_str(&close);
    Ok(())
}

impl Ledger {
    /// Renders `doc` — `"bench"` first, then [`Ledger::fields`] — in
    /// the one layout, or says where it departs from the declaration.
    pub fn render(&self, doc: &Json) -> Result<String, String> {
        if BENCH.text(doc) != self.bench {
            return Err(format!("bench tag is not {:?}", self.bench));
        }
        let mut out = String::new();
        render_obj(&mut out, &self.top(), doc, self.bench, 0)?;
        out.push('\n');
        Ok(out)
    }

    /// The document `"bench"` + `values` (one per field, in order).
    pub fn doc(&self, mut values: Vec<Json>) -> Json {
        values.insert(0, Json::from(self.bench));
        row(&self.top(), values)
    }

    fn top(&self) -> Vec<Col> {
        std::iter::once(BENCH)
            .chain(self.fields.iter().copied())
            .collect()
    }

    /// Parses `text`, requires it to re-render byte for byte through the
    /// declaration, then runs the invariants.
    pub fn check(&self, text: &str) -> Result<(), String> {
        let doc = parse_json(text)?;
        let canon = self.render(&doc)?;
        if canon != text {
            let n = text
                .lines()
                .zip(canon.lines())
                .take_while(|(a, b)| a == b)
                .count();
            let want = canon.lines().nth(n).unwrap_or("<end of file>");
            return Err(format!("line {}: declaration renders {want:?}", n + 1));
        }
        (self.invariants)(&doc)
    }

    /// Renders `doc`, checks the result as a file would be checked, and
    /// writes it to `path` (creating its directory).
    pub fn write(&self, path: &str, doc: &Json) -> Result<(), String> {
        let text = self.render(doc)?;
        self.check(&text)?;
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    }

    /// The command line shared by the ledger bins. `--check FILE`
    /// checks that ledger and exits; otherwise returns whether the
    /// first argument is `--smoke`, and the arguments after it.
    pub fn cli(&self, args: &[String]) -> (bool, Vec<String>) {
        if args.first().map(String::as_str) == Some("--check") {
            let Some(path) = args.get(1) else {
                fail("--check needs a file path");
            };
            let checked = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))
                .and_then(|text| self.check(&text));
            if let Err(e) = checked {
                fail(&format!("{path}: {e}"));
            }
            println!(
                "{}: {path}: OK (re-renders byte for byte, invariants hold)",
                self.bench
            );
            std::process::exit(0);
        }
        let smoke = args.first().map(String::as_str) == Some("--smoke");
        (smoke, args[usize::from(smoke)..].to_vec())
    }
}
