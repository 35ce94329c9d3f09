//! The workspace's flat JSON codec.
//!
//! Every JSON record scanft writes outside the metrics export is a flat
//! single-line object built with `format!` and [`escape_json_string`]:
//! campaign journals, the server's job WAL, and its response bodies. The
//! workspace policy is no serde, so the reader side is keyed field
//! extraction over such lines. The optimizer's certificate checker keeps a
//! parser of its own on purpose: its independence is the point.

/// Escapes a string for inclusion inside a JSON string literal.
#[must_use]
pub fn escape_json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Extracts an unsigned integer field `"key":123`.
#[must_use]
pub fn field_u64(text: &str, key: &str) -> Option<u64> {
    let rest = after_key(text, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

/// Extracts a float field `"key":12.5` (also accepts plain integers).
#[must_use]
pub fn field_f64(text: &str, key: &str) -> Option<f64> {
    let rest = after_key(text, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-' && c != 'e' && c != 'E')
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

/// Extracts a string field `"key":"value"`, decoding every escape
/// [`escape_json_string`] can emit — including `\uXXXX`, which it uses for
/// control characters without a short escape. A malformed escape (short
/// hex digits, a lone surrogate) or a missing closing quote yields `None`:
/// the record reads as damaged, never as a different string.
#[must_use]
pub fn field_str(text: &str, key: &str) -> Option<String> {
    let rest = after_key(text, key)?.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'b' => out.push('\u{0008}'),
                'f' => out.push('\u{000c}'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
}

/// The text right after `"key":`. Inside an escaped string value every
/// `"` is preceded by a backslash, so the pattern can only match a key.
fn after_key<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = text.find(&pattern)? + pattern.len();
    Some(&text[start..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_typed_fields() {
        let text = r#"{"id":"job-3","n":42,"pct":99.5,"msg":"a \"b\"\nc"}"#;
        assert_eq!(field_str(text, "id").unwrap(), "job-3");
        assert_eq!(field_u64(text, "n"), Some(42));
        assert!((field_f64(text, "pct").unwrap() - 99.5).abs() < 1e-12);
        assert_eq!(field_str(text, "msg").unwrap(), "a \"b\"\nc");
        assert_eq!(field_u64(text, "missing"), None);
        assert_eq!(field_str(text, "n"), None, "numbers are not strings");
    }

    #[test]
    fn every_control_character_round_trips_through_the_escaper() {
        // escape_json_string emits \u00XX for control chars it has no
        // short escape for; field_str must decode all of them or a WAL'd
        // submission containing one poisons recovery.
        let raw: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let line = format!("{{\"msg\":\"{}\"}}", escape_json_string(&raw));
        assert_eq!(field_str(&line, "msg").unwrap(), raw);
    }

    #[test]
    fn every_char_round_trips_through_the_escaper() {
        // Every Unicode scalar value, in runs of 256, inside a record with
        // fields on both sides: escaping then reading gives the run back.
        let all: Vec<char> = (0..=u32::from(char::MAX))
            .filter_map(char::from_u32)
            .collect();
        for run in all.chunks(256) {
            let raw: String = run.iter().collect();
            let line = format!(
                "{{\"a\":1,\"msg\":\"{}\",\"z\":\"end\"}}",
                escape_json_string(&raw)
            );
            assert_eq!(field_str(&line, "msg").as_deref(), Some(raw.as_str()));
            assert_eq!(field_str(&line, "z").as_deref(), Some("end"));
            assert_eq!(field_u64(&line, "a"), Some(1));
        }
    }

    #[test]
    fn unicode_escapes_decode_and_malformed_ones_fail_cleanly() {
        assert_eq!(
            field_str("{\"m\":\"a\\u000bz\"}", "m").unwrap(),
            "a\u{000b}z"
        );
        assert_eq!(field_str("{\"m\":\"\\u0041\"}", "m").unwrap(), "A");
        assert_eq!(
            field_str("{\"m\":\"x\\b\\f\"}", "m").unwrap(),
            "x\u{8}\u{c}"
        );
        // Truncated hex digits, a lone surrogate or a missing closing
        // quote: the field (and thus the line) is treated as damaged, not
        // mis-decoded.
        assert_eq!(field_str("{\"m\":\"\\u00\"}", "m"), None);
        assert_eq!(field_str("{\"m\":\"\\ud800x\"}", "m"), None);
        assert_eq!(field_str("{\"m\":\"open", "m"), None);
    }
}
