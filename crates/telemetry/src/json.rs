//! Minimal JSON syntax validator and string escaper.
//!
//! The telemetry artifacts (`metrics.json`, `trace.json`,
//! `critical_path.json`) are hand-serialized; this recursive-descent
//! checker lets tests and smoke steps verify the emitted bytes are valid
//! JSON without pulling in an external parser. It validates *syntax* per
//! RFC 8259 (it does not build a value tree). [`escape`] is the one
//! string-literal escaper the hand-serialized artifacts share.

/// Maximum nesting depth accepted before bailing out; the artifacts here
/// nest a handful of levels, so this bounds a malicious/degenerate input.
const MAX_DEPTH: usize = 128;

/// A syntax error with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Human-readable description.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Validates that `input` is a single well-formed JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first syntax violation.
pub fn validate(input: &str) -> Result<(), JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters after document"));
    }
    Ok(())
}

/// Appends `raw` to `out` escaped for the inside of a JSON string literal:
/// `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` take their
/// short forms, and every other control character below U+0020 becomes
/// `\u00xx` (lowercase hex). Everything else is copied as is.
pub fn escape(raw: &str, out: &mut String) {
    if !raw.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(raw);
        return;
    }
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let code = u32::from(c);
                out.push_str(if code < 0x10 { "\\u000" } else { "\\u001" });
                out.push(char::from_digit(code % 16, 16).unwrap_or('0'));
            }
            c => out.push(c),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &'static [u8]) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.consume(b'{', "expected '{'")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.consume(b':', "expected ':' after object key")?;
            self.skip_ws();
            self.value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.consume(b'[', "expected '['")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<(), JsonError> {
        self.consume(b'"', "expected '\"'")?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                                    return Err(self.err("invalid \\u escape"));
                                }
                                self.pos += 1;
                            }
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), JsonError> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("expected digit after '.'"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("expected digit in exponent"));
            }
            self.digits();
        }
        Ok(())
    }

    fn digits(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            r#""hi \n é""#,
            r#"{"a": [1, 2, {"b": null}], "c": "x"}"#,
            " { \"k\" : [ ] } ",
        ] {
            assert!(validate(doc).is_ok(), "should accept: {doc}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "01",
            "1.",
            "\"unterminated",
            "\"bad \\x escape\"",
            "nul",
            "{} extra",
            "[1 2]",
        ] {
            assert!(validate(doc).is_err(), "should reject: {doc}");
        }
    }

    #[test]
    fn depth_guard_trips() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(validate(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(validate(&ok).is_ok());
    }

    #[test]
    fn error_reports_offset() {
        let err = validate("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn depth_guard_boundary_is_exact() {
        // MAX_DEPTH nested containers pass; one more trips the guard.
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(validate(&at_limit).is_ok(), "exactly MAX_DEPTH is legal");
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(validate(&over).is_err(), "MAX_DEPTH + 1 must trip");
        // Mixed object/array nesting counts the same.
        let mixed = "{\"k\":".repeat(MAX_DEPTH / 2) + "0" + &"}".repeat(MAX_DEPTH / 2);
        assert!(validate(&mixed).is_ok());
    }

    #[test]
    fn string_escape_edge_cases() {
        // Escaped surrogate pairs and lone escaped surrogates are both
        // syntactically legal JSON escapes (the validator checks syntax,
        // not unicode pairing).
        for doc in [
            r#""\ud83d\ude00""#, // escaped surrogate pair
            r#""\ud800""#,       // lone high surrogate, still 4 hex digits
            r#""\u0000""#,       // escaped NUL
            r#""\\\" \/ \b \f \n \r \t""#,
        ] {
            assert!(validate(doc).is_ok(), "should accept: {doc}");
        }
        for doc in [
            r#""\u12""#,   // truncated hex
            r#""\u12g4""#, // non-hex digit
            "\"a\u{0}b\"", // raw control byte must be escaped
            r#""\q""#,     // unknown escape
        ] {
            assert!(validate(doc).is_err(), "should reject: {doc}");
        }
    }

    #[test]
    fn number_extremes() {
        for doc in [
            "0",
            "-0",
            "1e999", // syntactically fine; magnitude is not checked
            "-1E-999",
            "0.00000000000000000000001",
            "123456789012345678901234567890", // digits beyond u64/i64
            "2e+10",
        ] {
            assert!(validate(doc).is_ok(), "should accept: {doc}");
        }
        for doc in [
            "-", "+1", "1e", "1e+", ".5", "0x10", "1_000", "NaN", "Infinity",
        ] {
            assert!(validate(doc).is_err(), "should reject: {doc}");
        }
    }
}
