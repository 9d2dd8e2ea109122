//! Never-panic properties of the wire decoder: every line — arbitrary
//! bytes, or JSON-shaped requests and events with random keys and
//! wrong-typed values (negative, fractional or over-`u64` budgets,
//! nesting up to four times [`MAX_DEPTH`], a `type` that is not a
//! string) — gets `Ok` or a typed [`WireError`], and every accepted
//! request survives a `to_line` → `parse_line` round trip unchanged.

use gtl_serve::json::MAX_DEPTH;
use gtl_serve::{ErrorCode, Event, Request, WireError};
use proptest::prelude::*;

fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..300)
}

/// The random draws one JSON-shaped line is built from.
fn draws() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..u64::MAX, 0..160)
}

const REQUEST_TYPES: &[&str] = &[
    "lift",
    "cancel",
    "stats",
    "metrics",
    "trace",
    "share_lift",
    "shutdown",
    "Lift",
    "",
];
const REQUEST_KEYS: &[&str] = &[
    "type",
    "id",
    "benchmark",
    "source",
    "label",
    "params",
    "ground_truth",
    "oracle",
    "config",
    "trace_id",
    "record",
];
const CONFIG_KEYS: &[&str] = &[
    "mode",
    "grammar",
    "oracle_rounds",
    "max_attempts",
    "max_nodes",
    "time_limit_ms",
    "timeout_ms",
    "search_jobs",
];
const PARAM_KEYS: &[&str] = &["name", "kind", "dims", "nonzero", "symbol"];
const RECORD_KEYS: &[&str] = &[
    "key", "label", "solution", "reason", "detail", "attempts", "nodes", "seconds",
];
const EVENT_NAMES: &[&str] = &[
    "queued",
    "search_progress",
    "candidate_found",
    "verified",
    "done",
    "failed",
    "stats",
    "metrics",
    "trace",
    "shared",
    "error",
    "Done",
];
const EVENT_KEYS: &[&str] = &[
    "event",
    "id",
    "position",
    "nodes",
    "attempts",
    "elapsed_ms",
    "candidate",
    "solution",
    "cached",
    "reason",
    "detail",
    "stats",
    "text",
    "trace_id",
    "spans",
    "stored",
    "code",
    "message",
];
const STRINGS: &[&str] = &[
    "",
    "r1",
    "blas_gemv",
    "td",
    "bu",
    "refined",
    "full_grammar",
    "synthetic",
    "synthetic:7",
    "size",
    "scalar_in",
    "array_in",
    "array_out",
    "n",
    "bad_json",
    "a\\\"b",
    "\\u00fc\\n",
    "\\ud800",
    "void f(int n, int *out) { out[0] = n; }",
    "a(i) = b(i)",
];
/// Negative, fractional, exponent and over-`u64` spellings for budget
/// fields.
const WILD_NUMBERS: &[&str] = &[
    "-1",
    "-0",
    "0.5",
    "1e3",
    "-2.5e-3",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "1e400",
];
/// Budgets every `u64` field accepts.
const GOOD_NUMBERS: &[&str] = &["0", "1", "7", "30000", "18446744073709551615"];

/// Builds one JSON-shaped line from random draws; once the draws run out
/// every choice takes its first option.
struct Line<'a> {
    draws: std::slice::Iter<'a, u64>,
}

impl Line<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.draws.next().map_or(0, |d| (d % n as u64) as usize)
    }

    fn pick<'s>(&mut self, pool: &[&'s str]) -> &'s str {
        pool[self.below(pool.len())]
    }

    fn string(&mut self) -> String {
        format!("\"{}\"", self.pick(STRINGS))
    }

    /// Any value, of any type, up to `depth` levels of arrays and
    /// objects — sometimes behind a run of up to 4 × `MAX_DEPTH`
    /// openers, closed or not.
    fn any(&mut self, depth: usize) -> String {
        match self.below(9) {
            0 => self.string(),
            1 => self.pick(WILD_NUMBERS).to_string(),
            2 => self.pick(GOOD_NUMBERS).to_string(),
            3 => self.pick(&["true", "false", "null"]).to_string(),
            4 if depth > 0 => {
                let items: Vec<String> = (0..self.below(4)).map(|_| self.any(depth - 1)).collect();
                format!("[{}]", items.join(","))
            }
            5 if depth > 0 => {
                let keys = [REQUEST_KEYS, CONFIG_KEYS, EVENT_KEYS].concat();
                self.object(&keys, depth - 1, |line, _, depth| line.any(depth))
            }
            6 => {
                let n = self.below(4 * MAX_DEPTH + 1);
                let (open, close) = if self.below(2) == 0 {
                    ("[", "]")
                } else {
                    ("{\"id\":", "}")
                };
                let closed = if self.below(2) == 0 {
                    n
                } else {
                    self.below(n + 1)
                };
                format!("{}{}{}", open.repeat(n), self.any(0), close.repeat(closed))
            }
            _ => self.pick(GOOD_NUMBERS).to_string(),
        }
    }

    /// An object of distinct keys drawn from `keys` (sometimes all of
    /// them), each value built by `value(self, key, depth)`.
    fn object(
        &mut self,
        keys: &[&str],
        depth: usize,
        value: impl Fn(&mut Self, &str, usize) -> String,
    ) -> String {
        let mut chosen: Vec<&str> = Vec::new();
        if self.below(3) == 0 {
            chosen.extend(keys);
        }
        for _ in 0..self.below(keys.len() + 1) {
            let key = self.pick(keys);
            if !chosen.contains(&key) {
                chosen.push(key);
            }
        }
        let members: Vec<String> = chosen
            .into_iter()
            .map(|key| format!("\"{key}\":{}", value(self, key, depth)))
            .collect();
        format!("{{{}}}", members.join(","))
    }

    /// A value for `key` that is usually of the type the decoder wants.
    fn typed(&mut self, key: &str, depth: usize) -> String {
        if self.below(4) == 0 {
            return self.any(depth);
        }
        match key {
            "type" => format!("\"{}\"", self.pick(REQUEST_TYPES)),
            "event" => format!("\"{}\"", self.pick(EVENT_NAMES)),
            "config" => self.object(CONFIG_KEYS, depth, |line, key, depth| match key {
                "mode" | "grammar" => line.string(),
                _ if line.below(3) == 0 => line.any(depth),
                _ => line.pick(GOOD_NUMBERS).to_string(),
            }),
            "params" => {
                let params: Vec<String> = (0..self.below(4))
                    .map(|_| {
                        self.object(PARAM_KEYS, depth, |line, key, depth| line.typed(key, depth))
                    })
                    .collect();
                format!("[{}]", params.join(","))
            }
            "dims" | "spans" => {
                let items: Vec<String> = (0..self.below(4)).map(|_| self.string()).collect();
                format!("[{}]", items.join(","))
            }
            "record" => self.object(RECORD_KEYS, depth, |line, key, depth| {
                line.typed(key, depth)
            }),
            "key" => format!(
                "\"{}\"",
                self.pick(&["00000000000000ff", "+ff", "-1", "zz"])
            ),
            "nonzero" | "cached" | "stored" => self.pick(&["true", "false"]).to_string(),
            "attempts" | "nodes" | "position" | "elapsed_ms" | "seconds" => {
                self.pick(GOOD_NUMBERS).to_string()
            }
            _ => self.string(),
        }
    }
}

/// A JSON-shaped request line built from `draws`.
fn request_line(draws: &[u64]) -> String {
    let mut line = Line {
        draws: draws.iter(),
    };
    line.object(REQUEST_KEYS, 3, |line, key, depth| line.typed(key, depth))
}

/// A JSON-shaped event line built from `draws`.
fn event_line(draws: &[u64]) -> String {
    let mut line = Line {
        draws: draws.iter(),
    };
    line.object(EVENT_KEYS, 3, |line, key, depth| line.typed(key, depth))
}

/// The decoder's only error classes.
fn typed_error(e: &WireError) -> bool {
    matches!(e.code, ErrorCode::BadJson | ErrorCode::BadRequest)
}

/// Decodes `text` as a request; an accepted one must round-trip.
fn check_request(text: &str) -> Result<Request, WireError> {
    let parsed = Request::parse_line(text);
    match &parsed {
        Ok(request) => {
            let again = Request::parse_line(&request.to_line());
            assert_eq!(again.as_ref(), Ok(request), "round trip of `{text}`");
        }
        Err(e) => assert!(typed_error(e), "`{text}`: {e:?}"),
    }
    parsed
}

/// Decodes `text` as an event; an accepted one must round-trip.
fn check_event(text: &str) -> Result<Event, WireError> {
    let parsed = Event::parse_line(text);
    match &parsed {
        Ok(event) => {
            let again = Event::parse_line(&event.to_line());
            assert_eq!(again.as_ref(), Ok(event), "round trip of `{text}`");
        }
        Err(e) => assert!(typed_error(e), "`{text}`: {e:?}"),
    }
    parsed
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in arbitrary_bytes()) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = check_request(&text);
        let _ = check_event(&text);
    }

    #[test]
    fn json_shaped_requests_never_panic(draws in draws()) {
        let _ = check_request(&request_line(&draws));
    }

    #[test]
    fn json_shaped_events_never_panic(draws in draws()) {
        let _ = check_event(&event_line(&draws));
    }
}

/// The variant name of a decoded value, from its `Debug` form.
fn variant(value: &impl std::fmt::Debug) -> String {
    let text = format!("{value:?}");
    text[..text.find([' ', '(', '{']).unwrap_or(text.len())].to_string()
}

/// The generators reach every request kind and most event kinds the
/// decoder accepts, so the round-trip properties above are not vacuous.
#[test]
fn json_shaped_lines_are_often_accepted() {
    let (mut requests, mut events) = (Vec::new(), Vec::new());
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    for _ in 0..20_000 {
        let draws: Vec<u64> = (0..160)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        if let Ok(request) = check_request(&request_line(&draws)) {
            requests.push(variant(&request));
        }
        if let Ok(event) = check_event(&event_line(&draws)) {
            events.push(variant(&event));
        }
    }
    for kind in [
        "Lift",
        "Cancel",
        "Stats",
        "Metrics",
        "Trace",
        "ShareLift",
        "Shutdown",
    ] {
        assert!(
            requests.iter().any(|k| k == kind),
            "no accepted `{kind}` request"
        );
    }
    for kind in ["Queued", "Done", "Failed", "Metrics", "Shared", "Error"] {
        assert!(
            events.iter().any(|k| k == kind),
            "no accepted `{kind}` event"
        );
    }
}
