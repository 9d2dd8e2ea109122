//! The lift router binary: one front door for a `lift_server` replica
//! set, speaking the unchanged JSON-lines protocol.
//!
//! ```text
//! lift_router --replicas ADDR,ADDR [--stdio | --listen ADDR]
//!             [--vnodes N] [--connect-timeout-ms N]
//! ```
//!
//! Each lift is consistent-hash routed to a replica by its normalized
//! request hash, so repeats of the same kernel land on the replica that
//! cached the answer; the replica's event stream is forwarded verbatim.
//! A replica that refuses the connection or dies mid-stream triggers
//! failover to the next candidate on the hash ring, and only when every
//! candidate has failed does the client see a `replica_unavailable`
//! error. `stats` fans out to all replicas and sums the snapshots;
//! `shutdown` is broadcast to every replica before the router itself
//! stops.

use std::net::TcpListener;
use std::time::Duration;

use gtl::StaggConfig;
use gtl_serve::{
    serve_listener, serve_stdio, LiftRouter, LineAction, RouterConfig,
};

struct Args {
    listen: Option<String>,
    replicas: Vec<String>,
    vnodes: usize,
    connect_timeout_ms: u64,
}

const USAGE: &str = "usage: lift_router --replicas ADDR,ADDR [--stdio | --listen ADDR] \
[--vnodes N] [--connect-timeout-ms N]";

fn usage_error(message: &str) -> ! {
    eprintln!("lift_router: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: None,
        replicas: Vec::new(),
        vnodes: 64,
        connect_timeout_ms: 5000,
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
            "--replicas" => {
                args.replicas = value("--replicas")
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--vnodes" => args.vnodes = int_value("--vnodes", value("--vnodes")) as usize,
            "--connect-timeout-ms" => {
                args.connect_timeout_ms = int_value(
                    "--connect-timeout-ms",
                    value("--connect-timeout-ms"),
                )
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
    if args.replicas.is_empty() {
        usage_error("--replicas requires at least one address");
    }
    args
}

fn main() {
    let args = parse_args();
    let router = LiftRouter::new(RouterConfig {
        replicas: args.replicas.clone(),
        vnodes: args.vnodes.max(1),
        connect_timeout: Duration::from_millis(args.connect_timeout_ms.max(1)),
        base: StaggConfig::top_down(),
    });
    eprintln!(
        "lift_router: routing across {} replica(s): {}",
        args.replicas.len(),
        args.replicas.join(", ")
    );

    match &args.listen {
        None => {
            // EOF means "no more requests": outstanding forwarded
            // streams finish before exit, the same batch idiom as
            // `lift_server --stdio`.
            if serve_stdio(&router.handle()) != LineAction::Shutdown {
                router.drain();
            }
        }
        Some(addr) => {
            let listener = TcpListener::bind(addr)
                .unwrap_or_else(|e| usage_error(&format!("cannot listen on {addr}: {e}")));
            eprintln!("lift_router: listening on {addr}");
            serve_listener(listener, "lift_router", || router.handle());
        }
    }

    eprintln!("lift_router: shutting down");
}
