//! The line transports shared by `lift_server` and `lift_router`: one
//! JSON line in, a stream of event lines out, over stdin/stdout or TCP.
//!
//! Both binaries speak the same wire protocol and differ only in what a
//! line *does* — the server admits it to the job queue, the router
//! forwards it to a replica. [`LineHandler`] captures that difference;
//! [`serve_stdio`] and [`serve_listener`] own the loops, so the
//! transports are written (and tested) once.

use std::io::{BufRead, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::protocol::Event;
use crate::server::{EventSink, LineAction, ServerHandle};

/// One connection's request processor: the server and the router each
/// implement it, and the transports below drive it. A fresh handler is
/// created per connection (its request-id namespace), so implementations
/// may keep per-connection state behind `&self`.
pub trait LineHandler {
    /// Executes one wire line; events (including errors) go to `sink`.
    fn handle_line(&self, line: &str, sink: &EventSink) -> LineAction;

    /// The connection went away without a `shutdown` request: stop any
    /// work the peer can no longer observe.
    fn on_disconnect(&self) {}
}

impl LineHandler for ServerHandle {
    fn handle_line(&self, line: &str, sink: &EventSink) -> LineAction {
        ServerHandle::handle_line(self, line, sink)
    }

    fn on_disconnect(&self) {
        // Abandoned lifts must not keep burning workers.
        let cancelled = self.cancel_all();
        if cancelled > 0 {
            eprintln!(
                "lift_server: client disconnected, cancelled {cancelled} in-flight lift(s)"
            );
        }
    }
}

/// Serves one client on stdin/stdout until EOF or a `shutdown` request.
/// EOF means "no more requests", not "stop": the caller decides whether
/// to drain outstanding work (the batch idiom) before exiting.
pub fn serve_stdio<H: LineHandler>(handler: &H) -> LineAction {
    let stdout = Arc::new(Mutex::new(std::io::stdout()));
    let sink: EventSink = Arc::new(move |event: &Event| {
        let mut out = stdout.lock().expect("stdout poisoned");
        let _ = writeln!(out, "{}", event.to_line());
        let _ = out.flush();
    });
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if handler.handle_line(&line, &sink) == LineAction::Shutdown {
            return LineAction::Shutdown;
        }
    }
    LineAction::Continue
}

/// Accepts TCP clients on an already-bound listener (callers bind —
/// tests use port 0) until one of them requests shutdown, creating one
/// handler per connection via `new_handler`. The acceptor blocks in
/// `accept`, so a new client is served at once; the connection that
/// receives `shutdown` wakes it with one loopback connect. Sibling
/// connections are unblocked by shutting their sockets down, so a
/// `shutdown` request stops the whole process promptly even while other
/// clients sit idle in blocking reads. `label` prefixes connection log
/// lines.
pub fn serve_listener<H, F>(listener: TcpListener, label: &str, new_handler: F)
where
    H: LineHandler + Send,
    F: Fn() -> H + Sync,
{
    let wake_addr = listener.local_addr().ok().map(|mut addr| {
        // A wildcard bind is reachable on loopback.
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        addr
    });
    let stop = AtomicBool::new(false);
    let connections: Mutex<Vec<TcpStream>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        loop {
            let accepted = listener.accept();
            if stop.load(Ordering::Acquire) {
                break;
            }
            match accepted {
                Ok((stream, peer)) => {
                    eprintln!("{label}: client {peer} connected");
                    // Event lines are small writes a client waits on: send
                    // each at once rather than coalescing behind an ACK.
                    let _ = stream.set_nodelay(true);
                    if let Ok(clone) = stream.try_clone() {
                        connections.lock().expect("connections poisoned").push(clone);
                    }
                    let handler = new_handler();
                    let stop = &stop;
                    scope.spawn(move || {
                        if serve_connection(&handler, stream) == LineAction::Shutdown {
                            stop.store(true, Ordering::Release);
                            if let Some(addr) = wake_addr {
                                let _ = TcpStream::connect(addr);
                            }
                        }
                    });
                }
                Err(e) => {
                    eprintln!("{label}: accept failed: {e}");
                    break;
                }
            }
        }
        // Unblock every connection thread parked in a read; their loops
        // then exit and the scope join completes.
        for conn in connections.lock().expect("connections poisoned").iter() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    });
}

/// Serves one TCP client until disconnect or a `shutdown` request.
fn serve_connection<H: LineHandler>(handler: &H, stream: TcpStream) -> LineAction {
    let Ok(writer) = stream.try_clone() else {
        return LineAction::Continue;
    };
    let writer = Arc::new(Mutex::new(writer));
    let sink: EventSink = Arc::new(move |event: &Event| {
        let mut line = event.to_line();
        line.push('\n');
        let mut out = writer.lock().expect("writer poisoned");
        // One write per event, so the line leaves as one segment. A
        // disconnected peer just drops its events.
        let _ = out.write_all(line.as_bytes());
    });
    let reader = std::io::BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if handler.handle_line(&line, &sink) == LineAction::Shutdown {
            return LineAction::Shutdown;
        }
    }
    handler.on_disconnect();
    LineAction::Continue
}
