//! Never-panic properties of the persistence parsers: every input —
//! arbitrary bytes, or strings dense in brackets, braces and quotes,
//! some nested far past [`MAX_DEPTH`] — gets `Ok` or a typed error.

use std::path::{Path, PathBuf};

use gtl_store::json::MAX_DEPTH;
use gtl_store::{parse, parse_export, JsonlLog, LiftStore};
use proptest::prelude::*;

const HEADER: &str = "{\"gtl_store\":1,\"kind\":\"lift_outcomes\"}\n";

fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..300)
}

/// Text built from JSON's structural characters, optionally behind a
/// run of openers long enough to cross the nesting bound.
fn bracket_heavy() -> impl Strategy<Value = String> {
    let pieces = vec![
        "[",
        "]",
        "{",
        "}",
        "\"",
        ":",
        ",",
        "1",
        "-",
        "e",
        "a",
        "\\",
        "\\u",
        "null",
        " ",
        "\n",
        "{\"key\":",
        "[{",
        "}]",
    ];
    (
        prop::collection::vec(prop::sample::select(pieces), 0..200),
        prop::sample::select(vec!["", "[", "{\"a\":"]),
        0usize..(4 * MAX_DEPTH),
    )
        .prop_map(|(pieces, opener, depth)| format!("{}{}", opener.repeat(depth), pieces.concat()))
}

/// Either generator, as raw bytes.
fn hostile_bytes() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        arbitrary_bytes(),
        bracket_heavy().prop_map(String::into_bytes)
    ]
}

fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gtl-store-neverpanic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

proptest! {
    #[test]
    fn json_parse_never_panics(bytes in hostile_bytes()) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = parse(&text) {
            prop_assert!(e.pos <= text.len(), "{e}");
        }
    }

    #[test]
    fn log_read_bytes_never_panics(bytes in hostile_bytes(), with_header in 0u8..2) {
        let mut input = if with_header == 1 { HEADER.as_bytes().to_vec() } else { Vec::new() };
        input.extend(bytes);
        let _ = JsonlLog::read_bytes(Path::new("prop.log"), &input).map_err(|e| e.to_string());
    }

    #[test]
    fn lift_store_open_never_panics(bytes in hostile_bytes(), with_header in 0u8..2) {
        let path = scratch_file("lifts.jsonl");
        let mut input = if with_header == 1 { HEADER.as_bytes().to_vec() } else { Vec::new() };
        input.extend(bytes);
        std::fs::write(&path, &input).expect("write store file");
        if let Err(e) = LiftStore::open(&path) {
            let _ = e.to_string();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_export_never_panics(bytes in hostile_bytes(), wrap in 0u8..2) {
        let body = String::from_utf8_lossy(&bytes);
        let text = if wrap == 1 {
            format!("{{\"kind\":\"lift_outcomes\",\"records\":[{body}]}}")
        } else {
            body.into_owned()
        };
        let _ = parse_export(&text);
    }
}
