//! A minimal JSON object writer for the subcommands' result lines.

use std::fmt::Write as _;

/// A JSON object under construction, keys in insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

/// Writes `s` as a JSON string literal.
fn quote(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes a number; non-finite values become `null`.
fn number(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

impl Obj {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        self.body.push(if self.body.is_empty() { '{' } else { ',' });
        quote(key, &mut self.body);
        self.body.push(':');
        &mut self.body
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        number(v, self.key(key));
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        quote(v, self.key(key));
        self
    }

    pub fn nums(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, &v) in vs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            number(v, out);
        }
        out.push(']');
        self
    }

    pub fn strs(&mut self, key: &str, vs: &[String]) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            quote(v, out);
        }
        out.push(']');
        self
    }

    /// A nested object of named numbers, in the given order.
    pub fn map(&mut self, key: &str, entries: &[(String, f64)]) -> &mut Self {
        let out = self.key(key);
        out.push('{');
        for (i, (name, v)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            quote(name, out);
            out.push(':');
            number(*v, out);
        }
        out.push('}');
        self
    }

    /// The finished object text.
    pub fn finish(&self) -> String {
        if self.body.is_empty() {
            "{}".to_string()
        } else {
            format!("{}}}", self.body)
        }
    }
}
