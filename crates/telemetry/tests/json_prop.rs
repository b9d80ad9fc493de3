//! Property tests for the workspace's one JSON codec: the parser never
//! panics, whatever the input, and the escaper round-trips every string.

use sas_ptest::{check, gen, Gen, Rng};
use sas_telemetry::json::{escape, parse, Json, MAX_DEPTH};
use std::collections::BTreeMap;

/// Renders `v` as JSON text (the inverse of `parse` for these values).
fn render(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(&b.to_string()),
        Json::Num(n) => out.push_str(&n.to_string()),
        Json::Str(s) => out.push_str(&format!("\"{}\"", escape(s))),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":", escape(k)));
                render(item, out);
            }
            out.push('}');
        }
    }
}

/// A random document of at most `depth` nesting levels.
fn value(rng: &mut Rng, depth: u32) -> Json {
    let text = gen::text(0..12);
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 => Json::Num(gen::i64s(-1 << 40..1 << 40).sample(rng) as f64 / 8.0),
        3 => Json::Str(text.sample(rng)),
        4 => Json::Arr((0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (text.sample(rng), value(rng, depth - 1)))
                .collect::<BTreeMap<_, _>>(),
        ),
    }
}

fn document(rng: &mut Rng) -> (Json, String) {
    let v = value(rng, 4);
    let mut text = String::new();
    render(&v, &mut text);
    (v, text)
}

#[test]
fn escaped_strings_round_trip() {
    let text = gen::text(0..64);
    check("json_escape_round_trip", 512, |rng| {
        let s = text.sample(rng);
        let doc = format!("\"{}\"", escape(&s));
        assert!(!doc.bytes().any(|b| b < 0x20), "raw control byte in {doc:?}");
        assert_eq!(parse(&doc), Ok(Json::Str(s)), "{doc:?}");
    });
}

#[test]
fn documents_round_trip_and_every_truncation_is_an_error_or_a_value() {
    check("json_document_truncations", 128, |rng| {
        let (v, text) = document(rng);
        assert_eq!(parse(&text).as_ref(), Ok(&v), "{text}");
        for cut in (0..text.len()).filter(|&c| text.is_char_boundary(c)) {
            // A prefix of a document may itself be a document (`12` of
            // `123`); all that matters is that no prefix panics.
            let _ = parse(&text[..cut]);
        }
    });
}

#[test]
fn random_bytes_never_panic() {
    let soup = gen::select(vec![
        "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "-", "0", "1e", ".", "true", "nul", " ",
        "\u{7f}", "é",
    ]);
    let bytes: Gen<Vec<u8>> = gen::vec_of(&gen::u8_any(), 0..64);
    check("json_random_input", 1024, |rng| {
        let raw = String::from_utf8_lossy(&bytes.sample(rng)).into_owned();
        let _ = parse(&raw);
        let tokens: String = (0..rng.below(48)).map(|_| soup.sample(rng)).collect();
        let _ = parse(&tokens);
    });
}

/// `0` wrapped in one array (`true`) or object (`false`) per level.
fn nest(levels: &[bool]) -> String {
    let mut doc = String::from("0");
    for &array in levels.iter().rev() {
        doc = if array { format!("[{doc}]") } else { format!("{{\"k\":{doc}}}") };
    }
    doc
}

#[test]
fn nesting_past_the_limit_is_an_error_not_a_crash() {
    check("json_deep_nesting", 64, |rng| {
        let depth = MAX_DEPTH + 1 + rng.below(4 * MAX_DEPTH as u64) as usize;
        let levels: Vec<bool> = (0..depth).map(|_| rng.chance(0.5)).collect();
        let e = parse(&nest(&levels)).unwrap_err();
        assert!(e.contains("nesting deeper than"), "{e}");
        // Cut to the limit, the same shape parses.
        assert!(parse(&nest(&levels[..MAX_DEPTH])).is_ok());
    });
}
