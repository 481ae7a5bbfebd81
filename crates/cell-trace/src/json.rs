//! The one JSON writer every report, trace export, metrics snapshot and
//! bench artifact goes through.
//!
//! [`JsonWriter`] inserts the commas, escapes keys and strings, and
//! renders numbers: integers as-is, an `f64` in Rust's shortest
//! `Display` form or with fixed decimals, and a non-finite `f64` as
//! `null`, since JSON has no NaN or infinity. An emitter chooses only
//! its field names, their order and each float's decimals.

use std::fmt::{Display, Write as _};

/// A string-backed JSON writer; every call returns the writer. A value
/// written after [`key`](Self::key) is that member's value; anywhere
/// else it is the next element of the open array.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// The next key or value follows a sibling, so it owes a comma.
    comma: bool,
}

impl JsonWriter {
    /// The document written so far.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// An object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key).out.push(':');
        self.comma = false;
        self
    }

    /// An escaped string: quote, backslash and newline get a backslash,
    /// every other control character becomes `\u00XX`.
    pub fn str(&mut self, s: &str) -> &mut Self {
        let out = self.next();
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.display(v)
    }

    /// Rust's shortest round-trip form (`2.5`, `3`); `null` if `v` is not
    /// finite.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.display(v)
        } else {
            self.null()
        }
    }

    /// `v` with `decimals` digits after the point; `null` if `v` is not
    /// finite.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        if v.is_finite() {
            self.display(format_args!("{v:.decimals$}"))
        } else {
            self.null()
        }
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.display(v)
    }

    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// A pre-rendered JSON value (another emitter's document), verbatim.
    pub fn raw(&mut self, fragment: &str) -> &mut Self {
        self.next().push_str(fragment);
        self
    }

    fn display(&mut self, v: impl Display) -> &mut Self {
        let _ = write!(self.next(), "{v}");
        self
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.next().push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// The buffer, after the comma the next key or value owes.
    fn next(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commas_follow_nesting() {
        let mut w = JsonWriter::default();
        w.begin_object()
            .key("a")
            .begin_array()
            .end_array()
            .key("b")
            .begin_object()
            .end_object()
            .key("c")
            .begin_array()
            .begin_object()
            .key("x")
            .u64(1)
            .end_object()
            .begin_object()
            .end_object()
            .u64(2)
            .end_array()
            .key("d")
            .bool(false)
            .end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":[],"b":{},"c":[{"x":1},{},2],"d":false}"#
        );
    }

    #[test]
    fn keys_and_strings_are_escaped() {
        let mut w = JsonWriter::default();
        w.begin_object()
            .key("k\"\\\n\u{1}")
            .str("v\"\\\n\u{1f}é")
            .end_object();
        assert_eq!(w.finish(), r#"{"k\"\\\n\u0001":"v\"\\\n\u001fé"}"#);
    }

    #[test]
    fn floats_render_shortest_fixed_or_null() {
        let mut w = JsonWriter::default();
        w.begin_array()
            .f64(2.5)
            .f64(3.0)
            .f64(-0.1)
            .fixed(1.0 / 3.0, 4)
            .fixed(2.0, 1)
            .f64(f64::NAN)
            .f64(f64::INFINITY)
            .fixed(f64::NEG_INFINITY, 3)
            .end_array();
        assert_eq!(w.finish(), "[2.5,3,-0.1,0.3333,2.0,null,null,null]");
    }

    #[test]
    fn raw_fragments_and_null_are_values() {
        let mut w = JsonWriter::default();
        w.begin_object()
            .key("inner")
            .raw("{\"x\":1}")
            .key("none")
            .null()
            .end_object();
        assert_eq!(w.finish(), r#"{"inner":{"x":1},"none":null}"#);
    }
}
