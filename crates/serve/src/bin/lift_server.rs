//! The lift server binary: serves the JSON-lines lift protocol over
//! stdin/stdout or TCP.
//!
//! ```text
//! lift_server [--stdio | --listen ADDR] [--workers N] [--queue N]
//!             [--progress-ms N] [--timeout-ms N]
//!             [--oracle SPEC] [--oracles KIND,KIND]
//!             [--store PATH] [--rotate-store-bytes N]
//!             [--max-inflight-per-client N]
//!             [--peers ADDR,ADDR] [--accept-shares]
//!             [--slow-lift-ms N] [--journal-capacity N]
//! ```
//!
//! `--stdio` (the default) serves one client on stdin/stdout; EOF means
//! "no more requests" — outstanding lifts finish and their events are
//! flushed before the process exits, so `printf requests | lift_server`
//! is a complete batch run. `--listen ADDR` (e.g. `127.0.0.1:7171`)
//! accepts any number of TCP clients, one JSON line per message; a
//! client that disconnects mid-lift has its in-flight lifts cancelled.
//! A `shutdown` request from any client stops the server immediately:
//! running lifts are cancelled through their cancel flags and queued
//! jobs drain with `shutting_down` failures.
//!
//! `--store PATH` makes completed lifts durable: every deterministic
//! terminal outcome is appended to a crash-tolerant `gtl_store` log,
//! and a restarted server prefills its result cache from it — repeat
//! lifts answer as cache hits with zero search attempts.
//! `--rotate-store-bytes N` seals the live store log into immutable
//! segments once it exceeds N bytes, keeping append latency flat and
//! letting compaction work on sealed segments only; once rotation
//! leaves [`SEGMENT_MERGE_THRESHOLD`] sealed segments on disk, the
//! append that crossed the line signals a background merge thread —
//! the write path never waits for the snapshot merge.
//! `--max-inflight-per-client N` caps how many lifts one client may
//! have queued or running at once (excess submissions are rejected
//! with `rate_limited`).
//!
//! As a replica in a `lift_router` set: `--peers` lists the sibling
//! replicas to push every locally solved lift to (best-effort
//! `share_lift` requests, so any replica answers any repeat as a warm
//! cache hit), and `--accept-shares` opts in to receiving such pushes.
//!
//! `--slow-lift-ms N` logs any lift slower than N milliseconds to
//! stderr with its trace ID and per-phase breakdown — the first place
//! to look when the `metrics` histograms show a fat tail.
//! `--journal-capacity N` bounds the in-memory span journal behind the
//! `trace` request (total spans across all trace IDs, oldest evicted
//! first; default 4096).

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use gtl::{OracleSpec, StaggConfig};
use gtl_serve::{serve_listener, serve_stdio, LiftServer, LineAction, ServerConfig};

struct Args {
    listen: Option<String>,
    workers: usize,
    queue: usize,
    progress_ms: u64,
    timeout_ms: Option<u64>,
    oracle: Option<String>,
    oracles: Option<String>,
    store: Option<String>,
    rotate_store_bytes: Option<u64>,
    max_inflight_per_client: usize,
    peers: Vec<String>,
    accept_shares: bool,
    slow_lift_ms: Option<u64>,
    journal_capacity: Option<usize>,
}

/// Sealed segments a rotated store may accumulate before the next
/// append signals the background merge (or the startup stale-check
/// merges inline).
const SEGMENT_MERGE_THRESHOLD: u64 = 8;

const USAGE: &str = "usage: lift_server [--stdio | --listen ADDR] [--workers N] [--queue N] \
[--progress-ms N] [--timeout-ms N] [--oracle SPEC] [--oracles KIND,KIND] \
[--store PATH] [--rotate-store-bytes N] [--max-inflight-per-client N] \
[--peers ADDR,ADDR] [--accept-shares] [--slow-lift-ms N] [--journal-capacity N]";

fn usage_error(message: &str) -> ! {
    eprintln!("lift_server: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: None,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        queue: 64,
        progress_ms: 100,
        timeout_ms: None,
        oracle: None,
        oracles: None,
        store: None,
        rotate_store_bytes: None,
        max_inflight_per_client: 0,
        peers: Vec::new(),
        accept_shares: false,
        slow_lift_ms: None,
        journal_capacity: None,
    };
    let mut stdio = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        let int_value = |name: &str, raw: String| -> u64 {
            raw.parse().unwrap_or_else(|_| {
                usage_error(&format!("{name} expects an integer, got `{raw}`"))
            })
        };
        match flag.as_str() {
            "--stdio" => stdio = true,
            "--listen" => args.listen = Some(value("--listen")),
            "--workers" => args.workers = int_value("--workers", value("--workers")) as usize,
            "--queue" => args.queue = int_value("--queue", value("--queue")) as usize,
            "--progress-ms" => {
                args.progress_ms = int_value("--progress-ms", value("--progress-ms"))
            }
            "--timeout-ms" => {
                args.timeout_ms = Some(int_value("--timeout-ms", value("--timeout-ms")))
            }
            "--oracle" => args.oracle = Some(value("--oracle")),
            "--oracles" => args.oracles = Some(value("--oracles")),
            "--store" => args.store = Some(value("--store")),
            "--rotate-store-bytes" => {
                args.rotate_store_bytes = Some(int_value(
                    "--rotate-store-bytes",
                    value("--rotate-store-bytes"),
                ))
            }
            "--max-inflight-per-client" => {
                args.max_inflight_per_client = int_value(
                    "--max-inflight-per-client",
                    value("--max-inflight-per-client"),
                ) as usize
            }
            "--peers" => {
                args.peers = value("--peers")
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--accept-shares" => args.accept_shares = true,
            "--slow-lift-ms" => {
                args.slow_lift_ms = Some(int_value("--slow-lift-ms", value("--slow-lift-ms")))
            }
            "--journal-capacity" => {
                args.journal_capacity =
                    Some(int_value("--journal-capacity", value("--journal-capacity")) as usize)
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag `{other}`")),
        }
    }
    if stdio && args.listen.is_some() {
        usage_error("--stdio and --listen are mutually exclusive");
    }
    if args.rotate_store_bytes.is_some() && args.store.is_none() {
        usage_error("--rotate-store-bytes requires --store");
    }
    args
}

fn main() {
    let args = parse_args();
    // The server's own base oracle spec (`--oracle`) and the provider
    // kinds requests may select per lift (`--oracles`, the allowlist).
    let mut base = StaggConfig::top_down();
    if let Some(raw) = &args.oracle {
        let spec = OracleSpec::from_cli_name(raw)
            .unwrap_or_else(|| usage_error(&format!("unparseable --oracle spec `{raw}`")));
        // Fail fast on an unusable fixture instead of per request.
        if let Err(e) = spec.provider() {
            usage_error(&format!("--oracle: {e}"));
        }
        base = base.with_oracle(spec);
    }
    let oracle_allowlist: Vec<String> = match &args.oracles {
        None => vec!["synthetic".to_string()],
        Some(list) => list.split(',').map(str::to_string).collect(),
    };
    for kind in &oracle_allowlist {
        if !matches!(kind.as_str(), "synthetic" | "scripted" | "replay" | "record") {
            usage_error(&format!("unknown oracle kind `{kind}` in --oracles"));
        }
    }
    // The persistent store: recover, compact when mostly superseded,
    // report what warm-start will serve.
    let store = args.store.as_ref().map(|path| {
        let store = match args.rotate_store_bytes {
            Some(bytes) => {
                gtl_store::LiftStore::open_with_compaction(path, bytes, SEGMENT_MERGE_THRESHOLD)
            }
            None => gtl_store::LiftStore::open(path),
        }
        .unwrap_or_else(|e| usage_error(&format!("--store: {e}")));
        if store.recovery().truncated_tail {
            eprintln!(
                "lift_server: store {path}: dropped a torn tail record ({} bytes)",
                store.recovery().dropped_bytes
            );
        }
        match store.compact_if_stale() {
            Ok(Some(stats)) => eprintln!(
                "lift_server: store {path}: compacted {} -> {} records",
                stats.records_before, stats.records_after
            ),
            Ok(None) => {}
            Err(e) => eprintln!("lift_server: store {path}: compaction failed: {e}"),
        }
        eprintln!(
            "lift_server: store {path}: {} outcome(s) loaded",
            store.len()
        );
        Arc::new(store)
    });
    let server = LiftServer::start(ServerConfig {
        workers: args.workers.max(1),
        queue_capacity: args.queue.max(1),
        base,
        progress_interval: Duration::from_millis(args.progress_ms.max(10)),
        default_timeout: args.timeout_ms.map(Duration::from_millis),
        oracle_allowlist,
        store,
        max_inflight_per_client: args.max_inflight_per_client,
        peers: args.peers.clone(),
        accept_shared_lifts: args.accept_shares,
        slow_lift_threshold: args.slow_lift_ms.map(Duration::from_millis),
        journal_capacity: args
            .journal_capacity
            .unwrap_or(ServerConfig::default().journal_capacity),
        ..ServerConfig::default()
    });

    match &args.listen {
        None => {
            // EOF on stdin means "no more requests": finish outstanding
            // lifts before exiting, so `printf reqs | lift_server` is a
            // complete batch run. An explicit `shutdown` request skips
            // the drain and cancels everything immediately.
            if serve_stdio(&server.handle()) != LineAction::Shutdown {
                server.drain();
            }
        }
        Some(addr) => {
            let listener = TcpListener::bind(addr)
                .unwrap_or_else(|e| usage_error(&format!("cannot listen on {addr}: {e}")));
            eprintln!("lift_server: listening on {addr}");
            serve_listener(listener, "lift_server", || server.handle());
        }
    }

    eprintln!("lift_server: shutting down");
    server.shutdown();
}
