//! The scripted lift client: submits requests to a running
//! `lift_server` over TCP and prints the event stream.
//!
//! ```text
//! lift_client --connect ADDR --benchmark NAME [--id ID] [config flags]
//! lift_client --connect ADDR --source FILE --params JSON [--ground-truth PROG] [--label L]
//! lift_client --connect ADDR --cancel ID
//! lift_client --connect ADDR --stats
//! lift_client --connect ADDR --metrics
//! lift_client --connect ADDR --trace TRACE_ID
//! lift_client --connect ADDR --shutdown
//! ```
//!
//! Config flags: `--oracle SPEC` (`synthetic[:SEED]`, `replay:PATH`,
//! `record:PATH[:INNER]` — subject to the server's allowlist),
//! `--oracle-rounds N`, `--mode td|bu`, `--grammar NAME`,
//! `--max-attempts N`, `--max-nodes N`,
//! `--time-limit-ms N`, `--timeout-ms N`, `--trace-id ID` (attach an
//! explicit trace ID to the lift; the default lets the server mint
//! one). `--metrics` prints the Prometheus text exposition; `--trace`
//! prints the recorded spans of one trace ID, one JSON line each.
//! `--ground-truth` is the
//! synthetic oracle's hint and optional (replay-backed lifts don't
//! need it). `--params` takes the JSON array of the protocol's
//! `params` member, e.g.
//! `'[{"name":"n","kind":"size"},{"name":"x","kind":"array_in","dims":["n"]},
//!    {"name":"out","kind":"array_out","dims":[]}]'`.
//!
//! Events are printed one JSON line each (exactly as received); the
//! exit code is 0 when the lift ends in `done`, 1 on `failed`/`error`.

use gtl::{GrammarMode, SearchMode};
use gtl_serve::json::{parse, Json};
use gtl_serve::{ConfigOverrides, Event, KernelSpec, LiftClient, LiftRequest, Request};

const USAGE: &str = "usage: lift_client --connect ADDR \
(--benchmark NAME | --source FILE --params JSON [--ground-truth PROG] [--label L] \
| --cancel ID | --stats | --metrics | --trace TRACE_ID | --shutdown) [--id ID] \
[--trace-id ID] [--oracle SPEC] [--oracle-rounds N] \
[--mode td|bu] [--grammar NAME] [--max-attempts N] [--max-nodes N] \
[--time-limit-ms N] [--timeout-ms N]";

fn usage_error(message: &str) -> ! {
    eprintln!("lift_client: {message}\n{USAGE}");
    std::process::exit(2);
}

#[derive(Default)]
struct Args {
    connect: Option<String>,
    benchmark: Option<String>,
    source: Option<String>,
    params: Option<String>,
    ground_truth: Option<String>,
    label: Option<String>,
    id: Option<String>,
    trace_id: Option<String>,
    cancel: Option<String>,
    trace: Option<String>,
    oracle: Option<String>,
    stats: bool,
    metrics: bool,
    shutdown: bool,
    overrides: ConfigOverrides,
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        let uint = |name: &str, raw: String| -> u64 {
            raw.parse().unwrap_or_else(|_| {
                usage_error(&format!("{name} expects an integer, got `{raw}`"))
            })
        };
        match flag.as_str() {
            "--connect" => args.connect = Some(value("--connect")),
            "--benchmark" => args.benchmark = Some(value("--benchmark")),
            "--source" => args.source = Some(value("--source")),
            "--params" => args.params = Some(value("--params")),
            "--ground-truth" => args.ground_truth = Some(value("--ground-truth")),
            "--label" => args.label = Some(value("--label")),
            "--id" => args.id = Some(value("--id")),
            "--trace-id" => args.trace_id = Some(value("--trace-id")),
            "--cancel" => args.cancel = Some(value("--cancel")),
            "--trace" => args.trace = Some(value("--trace")),
            "--oracle" => args.oracle = Some(value("--oracle")),
            "--stats" => args.stats = true,
            "--metrics" => args.metrics = true,
            "--shutdown" => args.shutdown = true,
            "--mode" => {
                let raw = value("--mode");
                args.overrides.mode = Some(
                    SearchMode::from_cli_name(&raw)
                        .unwrap_or_else(|| usage_error(&format!("unknown mode `{raw}`"))),
                );
            }
            "--grammar" => {
                let raw = value("--grammar");
                args.overrides.grammar = Some(
                    GrammarMode::from_cli_name(&raw)
                        .unwrap_or_else(|| usage_error(&format!("unknown grammar `{raw}`"))),
                );
            }
            "--oracle-rounds" => {
                args.overrides.oracle_rounds =
                    Some(uint("--oracle-rounds", value("--oracle-rounds")) as usize)
            }
            "--max-attempts" => {
                args.overrides.max_attempts = Some(uint("--max-attempts", value("--max-attempts")))
            }
            "--max-nodes" => {
                args.overrides.max_nodes = Some(uint("--max-nodes", value("--max-nodes")))
            }
            "--time-limit-ms" => {
                args.overrides.time_limit_ms =
                    Some(uint("--time-limit-ms", value("--time-limit-ms")))
            }
            "--timeout-ms" => {
                args.overrides.timeout_ms = Some(uint("--timeout-ms", value("--timeout-ms")))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag `{other}`")),
        }
    }
    args
}

/// Builds the raw-source lift request by assembling the wire JSON and
/// routing it through the protocol's own parser — the CLI accepts
/// exactly what the server accepts, with the server's diagnostics.
fn source_request(
    id: &str,
    path: &str,
    source: String,
    params_raw: &str,
    ground_truth: Option<String>,
    label: Option<String>,
) -> LiftRequest {
    let params = parse(params_raw).unwrap_or_else(|e| usage_error(&format!("--params: {e}")));
    if params.as_arr().is_none() {
        usage_error("--params must be a JSON array");
    }
    let mut fields = vec![
        ("type", Json::str("lift")),
        ("id", Json::str(id)),
        ("label", Json::str(label.unwrap_or_else(|| path.to_string()))),
        ("source", Json::Str(source)),
        ("params", params),
    ];
    if let Some(ground_truth) = ground_truth {
        fields.push(("ground_truth", Json::Str(ground_truth)));
    }
    let line = Json::obj(fields).to_line();
    match Request::parse_line(&line) {
        Ok(Request::Lift(request)) => request,
        Ok(_) => unreachable!("a lift line parses as a lift"),
        Err(e) => usage_error(&format!("--params: {e}")),
    }
}

fn main() {
    let args = parse_args();
    let addr = args
        .connect
        .clone()
        .unwrap_or_else(|| usage_error("--connect ADDR is required"));
    let mut client = LiftClient::connect(&addr)
        .unwrap_or_else(|e| usage_error(&format!("cannot connect to {addr}: {e}")));

    if let Some(id) = &args.cancel {
        client
            .cancel(id.clone())
            .unwrap_or_else(|e| usage_error(&format!("cancel failed: {e}")));
        // The cancelled lift's failure event streams to *its* submitting
        // connection, not this one; the only answer this connection can
        // receive is an `error` (unknown id). Silence means accepted.
        client
            .set_read_timeout(Some(std::time::Duration::from_millis(1000)))
            .ok();
        match client.next_event() {
            Ok(Some(event @ Event::Error { .. })) => {
                println!("{}", event.to_line());
                std::process::exit(1);
            }
            _ => return, // timeout or clean close: cancel accepted
        }
    }
    if args.stats {
        let stats = client
            .stats()
            .unwrap_or_else(|e| usage_error(&format!("stats failed: {e}")));
        println!("{}", Event::Stats { stats }.to_line());
        return;
    }
    if args.metrics {
        let text = client
            .metrics()
            .unwrap_or_else(|e| usage_error(&format!("metrics failed: {e}")));
        print!("{text}");
        return;
    }
    if let Some(trace_id) = &args.trace {
        let spans = client
            .trace(trace_id.clone())
            .unwrap_or_else(|e| usage_error(&format!("trace failed: {e}")));
        for span in &spans {
            println!("{}", span.to_json().to_line());
        }
        return;
    }
    if args.shutdown {
        client
            .send(&Request::Shutdown)
            .unwrap_or_else(|e| usage_error(&format!("shutdown failed: {e}")));
        return;
    }

    let kernel = match (&args.benchmark, &args.source) {
        (Some(name), None) => KernelSpec::Benchmark { name: name.clone() },
        (None, Some(path)) => {
            let source = std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage_error(&format!("cannot read {path}: {e}")));
            let params_raw = args
                .params
                .as_deref()
                .unwrap_or_else(|| usage_error("--source requires --params"));
            // Optional since the oracle redesign: replay-backed lifts
            // need no ground-truth hint.
            let ground_truth = args.ground_truth.clone();
            let id = args.id.clone().unwrap_or_else(|| "lift-1".to_string());
            let request = source_request(
                &id,
                path,
                source,
                params_raw,
                ground_truth,
                args.label.clone(),
            );
            request.kernel
        }
        _ => usage_error("exactly one of --benchmark or --source is required"),
    };
    let id = args.id.clone().unwrap_or_else(|| "lift-1".to_string());
    let request = LiftRequest {
        id,
        kernel,
        oracle: args.oracle.clone(),
        overrides: args.overrides.clone(),
        trace_id: args.trace_id.clone(),
    };
    let events = client
        .lift(request)
        .unwrap_or_else(|e| usage_error(&format!("lift failed: {e}")));
    let mut ok = false;
    for event in &events {
        println!("{}", event.to_line());
        if matches!(event, Event::Done { .. }) {
            ok = true;
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
