//! The one JSON encoder behind every committed `BENCH_*.json`.
//!
//! Hand-rolled so the documents are byte-deterministic: fields keep the
//! order the campaign lists them in, numbers are integers printed by
//! `to_string`, and there is one compact layout (no spaces) plus one
//! row-per-line array for the sweep's rows. `conform` lays its pretty
//! document out by hand over [`str`].

use netsim::TransportError;
use std::fmt::Display;

/// A JSON string literal: `"`, `\`, newline and control bytes escaped,
/// everything else (including non-ASCII) passed through.
pub fn str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A transport error by its `Debug` name, or `null`.
pub fn opt_err(e: Option<TransportError>) -> String {
    e.map_or("null".into(), |e| str(&format!("{e:?}")))
}

/// `[a,b,c]` over already-encoded items (numbers encode as themselves).
pub fn list<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// [`list`] of string literals.
pub fn strs<S: AsRef<str>>(items: &[S]) -> String {
    list(items.iter().map(|s| str(s.as_ref())))
}

/// An array with one already-encoded row per line — the layout of every
/// sweep's row list, so a changed cell is a one-line diff.
pub fn rows(rows: &[String]) -> String {
    format!("[\n  {}\n]", rows.join(",\n  "))
}

/// `{"k":v,...}` over already-encoded values, in the order given.
pub fn obj(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields.iter().map(|(k, v)| format!("{}:{v}", str(k))).collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_output_is_pinned() {
        assert_eq!(str("a\"b\\c\nd\x01é"), "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(opt_err(None), "null");
        assert_eq!(opt_err(Some(TransportError::Reset)), "\"Reset\"");
        assert_eq!(list([1, 2]), "[1,2]");
        assert_eq!(strs(&["a"]), "[\"a\"]");
        assert_eq!(rows(&["1".into(), "2".into()]), "[\n  1,\n  2\n]");
        assert_eq!(obj(&[("k", "1".into()), ("s", str("v"))]), "{\"k\":1,\"s\":\"v\"}");
    }
}
