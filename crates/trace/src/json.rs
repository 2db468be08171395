//! JSON string escaping for the workspace's hand-rolled emitters.
//!
//! The workspace has no JSON library, so every serializer in this repo
//! writes JSON by hand — and a hand-rolled emitter that interpolates
//! a label containing `"` or `\` corrupts the whole document. Every
//! emitter (chrome traces, metrics snapshots, schedule dumps, bench
//! reports) routes its strings through [`escape_json`]; [`unescape_json`]
//! is the exact inverse, which [`Cursor`] decodes strings with. The
//! documents are records to compare, not state to load: the one document
//! read back is a compiled plan's (`CompiledPlan::from_json` in
//! `tsm-core`).

/// Escapes `s` for placement between double quotes in a JSON document.
///
/// Handles the two structurally dangerous characters (`"`, `\`), the
/// named control escapes, and falls back to `\u00XX` for the remaining
/// C0 control characters. Everything else (including non-ASCII) passes
/// through unchanged — JSON strings are Unicode.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Inverts [`escape_json`]: decodes the escape sequences of a JSON string
/// body (the text *between* the quotes). Errors on malformed escapes so a
/// corrupted document is reported rather than silently misread.
pub fn unescape_json(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('b') => out.push('\u{0008}'),
            Some('f') => out.push('\u{000C}'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return Err(format!("truncated \\u escape: \\u{hex}"));
                }
                let code =
                    u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\u escape: {hex}"))?;
                // Surrogates can't appear in this workspace's output
                // (escape_json only \u-encodes C0 controls), so a lone
                // surrogate is a corruption, not a case to paper over.
                let c = char::from_u32(code).ok_or(format!("invalid code point U+{code:04X}"))?;
                out.push(c);
            }
            Some(other) => return Err(format!("unknown escape: \\{other}")),
            None => return Err("dangling backslash".to_string()),
        }
    }
    Ok(out)
}

/// Incremental JSON emitter shared by the workspace's hand-rolled
/// serializers (bench records, compiled-plan snapshots).
///
/// Tracks the object/array nesting stack so commas, indentation, and
/// string escaping are structural guarantees rather than per-emitter
/// format-string discipline. Pretty output uses two-space indentation
/// (`"key": value`), matching the tracked JSON artifacts; compact output
/// has no whitespace at all.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    /// One frame per open container: number of entries written so far.
    stack: Vec<usize>,
    /// True right after a key: the next value attaches to it, no comma.
    pending_key: bool,
}

impl JsonWriter {
    /// A writer producing two-space-indented output.
    pub fn pretty() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            pretty: true,
            stack: Vec::new(),
            pending_key: false,
        }
    }

    /// A writer producing whitespace-free output.
    pub fn compact() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            pretty: false,
            stack: Vec::new(),
            pending_key: false,
        }
    }

    /// Comma/indent bookkeeping before a key or a bare value.
    fn sep(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(count) = self.stack.last_mut() {
            if *count > 0 {
                self.out.push(',');
            }
            *count += 1;
            if self.pretty {
                self.out.push('\n');
                for _ in 0..self.stack.len() {
                    self.out.push_str("  ");
                }
            }
        }
    }

    /// Writes `"key":` inside the current object; the next call writes its
    /// value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        self.out.push_str(&escape_json(key));
        self.out.push_str(if self.pretty { "\": " } else { "\":" });
        self.pending_key = true;
        self
    }

    /// Opens an object (as a value or array element).
    pub fn begin_object(&mut self) -> &mut Self {
        self.sep();
        self.out.push('{');
        self.stack.push(0);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        let count = self.stack.pop().expect("end_object without begin_object");
        if count > 0 && self.pretty {
            self.out.push('\n');
            for _ in 0..self.stack.len() {
                self.out.push_str("  ");
            }
        }
        self.out.push('}');
        self
    }

    /// Opens an array (as a value or array element).
    pub fn begin_array(&mut self) -> &mut Self {
        self.sep();
        self.out.push('[');
        self.stack.push(0);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        let count = self.stack.pop().expect("end_array without begin_array");
        if count > 0 && self.pretty {
            self.out.push('\n');
            for _ in 0..self.stack.len() {
                self.out.push_str("  ");
            }
        }
        self.out.push(']');
        self
    }

    /// Writes an escaped string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        self.out.push_str(&escape_json(s));
        self.out.push('"');
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        self.out.push_str(&v.to_string());
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes a pre-formatted value verbatim (callers own float
    /// precision; the writer owns separators only).
    pub fn raw(&mut self, v: &str) -> &mut Self {
        self.sep();
        self.out.push_str(v);
        self
    }

    /// Shorthand for `key(k)` + `u64(v)`.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).u64(v)
    }

    /// Shorthand for `key(k)` + `string(v)`.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).string(v)
    }

    /// Shorthand for `key(k)` + `raw(v)`.
    pub fn field_raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).raw(v)
    }

    /// Finishes the document. Panics on unbalanced containers — that is a
    /// serializer bug, not an input condition.
    pub fn finish(self) -> String {
        assert!(
            self.stack.is_empty() && !self.pending_key,
            "unbalanced JSON writer: {} open containers",
            self.stack.len()
        );
        self.out
    }
}

/// Recursive-descent cursor over the workspace's fixed JSON schemas:
/// the compiled-plan parser reads its documents with it, and the
/// residency export's readers pick its plans out with it.
///
/// Field order is not significant in the `object` combinator; strings
/// decode through [`unescape_json`], the exact inverse of the emitters'
/// escaping. Errors carry byte offsets so corrupted documents are
/// reported, never silently misread.
pub struct Cursor<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `s`.
    pub fn new(s: &'a str) -> Cursor<'a> {
        Cursor { s, i: 0 }
    }

    /// Skips JSON whitespace.
    fn skip_ws(&mut self) {
        while self.s[self.i..].starts_with([' ', '\n', '\r', '\t']) {
            self.i += 1;
        }
    }

    /// Consumes `c` (after whitespace) or errors.
    fn eat(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        if self.s[self.i..].starts_with(c) {
            self.i += c.len_utf8();
            Ok(())
        } else {
            Err(format!("expected {c:?} at byte {}", self.i))
        }
    }

    /// The next non-whitespace character, if any.
    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.s[self.i..].chars().next()
    }

    /// Parses a quoted, escaped string.
    pub fn string(&mut self) -> Result<String, String> {
        self.eat('"')?;
        let start = self.i;
        let bytes = self.s.as_bytes();
        let mut escaped = false;
        while self.i < bytes.len() {
            match bytes[self.i] {
                b'\\' if !escaped => escaped = true,
                b'"' if !escaped => {
                    let raw = &self.s[start..self.i];
                    self.i += 1;
                    return unescape_json(raw);
                }
                _ => escaped = false,
            }
            self.i += 1;
        }
        Err("unterminated string".to_string())
    }

    /// Parses a non-negative integer.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.i;
        let bytes = self.s.as_bytes();
        while self.i < bytes.len() && bytes[self.i].is_ascii_digit() {
            self.i += 1;
        }
        self.s[start..self.i]
            .parse()
            .map_err(|e| format!("bad integer at byte {start}: {e}"))
    }

    /// Parses a non-negative integer into the narrower type of `field`: a
    /// value that does not fit is an error naming the field, never
    /// truncated.
    pub fn narrow<T: TryFrom<u64>>(&mut self, field: &str) -> Result<T, String> {
        let v = self.u64()?;
        T::try_from(v).map_err(|_| format!("{field} {v} out of range"))
    }

    /// Parses `{"k": v, ...}`, handing each key to `field`.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Cursor<'a>, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat('{')?;
        if self.peek() == Some('}') {
            return self.eat('}');
        }
        loop {
            let key = self.string()?;
            self.eat(':')?;
            field(self, &key)?;
            match self.peek() {
                Some(',') => self.eat(',')?,
                _ => return self.eat('}'),
            }
        }
    }

    /// Parses `[item, ...]`.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Cursor<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat('[')?;
        if self.peek() == Some(']') {
            return self.eat(']');
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(',') => self.eat(',')?,
                _ => return self.eat(']'),
            }
        }
    }

    /// Skips one complete JSON value — scalar, object, or array — and
    /// returns its exact source slice, for nested documents that a
    /// different parser owns (e.g. an embedded compiled-plan dump).
    pub fn raw_value(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.i;
        let bytes = self.s.as_bytes();
        let mut i = self.i;
        let mut depth = 0usize;
        let mut in_str = false;
        let mut escape = false;
        while i < bytes.len() {
            let c = bytes[i];
            if in_str {
                if escape {
                    escape = false;
                } else if c == b'\\' {
                    escape = true;
                } else if c == b'"' {
                    in_str = false;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
                continue;
            }
            match c {
                b'"' => {
                    in_str = true;
                    i += 1;
                }
                b'{' | b'[' => {
                    depth += 1;
                    i += 1;
                }
                b'}' | b']' if depth == 0 => break,
                b'}' | b']' => {
                    depth -= 1;
                    i += 1;
                    if depth == 0 {
                        break;
                    }
                }
                b',' if depth == 0 => break,
                _ => i += 1,
            }
        }
        if i == start || depth != 0 || in_str {
            return Err(format!("malformed value at byte {start}"));
        }
        self.i = i;
        Ok(&self.s[start..i])
    }

    /// Errors unless only whitespace remains.
    pub fn expect_end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.i != self.s.len() {
            return Err(format!("trailing garbage at byte {}", self.i));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dangerous_characters_are_escaped() {
        assert_eq!(escape_json(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_json(r"a\b"), r"a\\b");
        assert_eq!(escape_json("a\nb\tc"), r"a\nb\tc");
        assert_eq!(escape_json("\u{0001}"), "\\u0001");
    }

    #[test]
    fn plain_text_passes_through() {
        assert_eq!(escape_json("link.fec.corrected#5"), "link.fec.corrected#5");
        assert_eq!(escape_json("héllo ↔ wörld"), "héllo ↔ wörld");
    }

    #[test]
    fn round_trips_exactly() {
        for s in [
            "",
            "plain",
            r#"qu"ote"#,
            r"back\slash",
            "new\nline tab\t cr\r",
            "ctrl \u{0002}\u{001f} bytes",
            "unicode … ok",
            r#"\" already-escaped-looking input \\ "#,
        ] {
            let escaped = escape_json(s);
            assert_eq!(unescape_json(&escaped).unwrap(), s, "input {s:?}");
        }
    }

    #[test]
    fn unescape_rejects_malformed_input() {
        assert!(unescape_json("\\").is_err());
        assert!(unescape_json("\\q").is_err());
        assert!(unescape_json("\\u12").is_err());
        assert!(unescape_json("\\uzzzz").is_err());
        assert!(unescape_json("\\ud800").is_err(), "lone surrogate");
    }

    #[test]
    fn writer_emits_pretty_nested_document() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_str("name", "be\"nch");
        w.field_u64("count", 3);
        w.key("items").begin_array();
        w.begin_object();
        w.field_u64("x", 1).field_raw("r", "0.500");
        w.end_object();
        w.u64(7);
        w.end_array();
        w.key("empty").begin_array();
        w.end_array();
        w.end_object();
        let s = w.finish();
        assert_eq!(
            s,
            "{\n  \"name\": \"be\\\"nch\",\n  \"count\": 3,\n  \"items\": [\n    {\n      \
             \"x\": 1,\n      \"r\": 0.500\n    },\n    7\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn writer_compact_has_no_whitespace() {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.field_u64("a", 1);
        w.key("b").begin_array();
        w.bool(true).bool(false);
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), "{\"a\":1,\"b\":[true,false]}");
    }

    #[test]
    fn cursor_parses_what_writer_emits() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_str("label", "h\u{0001}i\\there");
        w.field_u64("n", 42);
        w.key("ns").begin_array();
        w.u64(7);
        w.end_array();
        w.end_object();
        let doc = w.finish();

        let mut label = String::new();
        let mut n = 0u64;
        let mut ns = Vec::new();
        let mut c = Cursor::new(&doc);
        c.object(|c, key| {
            match key {
                "label" => label = c.string()?,
                "n" => n = c.u64()?,
                "ns" => c.array(|c| {
                    ns.push(c.u64()?);
                    Ok(())
                })?,
                other => return Err(format!("unknown key {other:?}")),
            }
            Ok(())
        })
        .unwrap();
        c.expect_end().unwrap();
        assert_eq!(label, "h\u{0001}i\\there");
        assert_eq!(n, 42);
        assert_eq!(ns, [7]);
    }

    #[test]
    fn cursor_rejects_malformed_documents() {
        assert!(Cursor::new("{\"a\": 1")
            .object(|c, _| c.u64().map(|_| ()))
            .is_err());
        let mut c = Cursor::new("{} x");
        c.object(|_, _| Ok(())).unwrap();
        assert!(c.expect_end().is_err());
    }
}
