//! The client-server lab over **real TCP sockets** — CS87's "C socket
//! client-server" short lab, on loopback.
//!
//! The line protocol of [`crate::kv`] (one request per line, one reply
//! per line), served by [`TcpKvServer`]: one blocking thread per
//! connection (the lab's first architecture) over a shared store behind
//! a mutex. Framing, parsing, replies and the store semantics are the
//! shared core in [`crate::kv`]; this module adds only the sockets. The
//! workspace's event-loop KV server is `pdc_db::serve`'s front end,
//! which runs the same core in front of replicated shard processes.
//!
//! Connections that die mid-request (a half-read line at EOF, a read or
//! write error, a line over [`MAX_LINE`](crate::kv::MAX_LINE)) never
//! crash the server and never execute the truncated request; each such
//! failure bumps the server's `kv.conn_errors` counter in its pdc-trace
//! session. Failures *caused by shutdown* are not client failures and
//! are never counted: shutdown half-closes the read side and lets
//! in-flight replies finish writing, so a server stopped under load
//! reports zero spurious errors.

use crate::kv::{execute, frame, Frame, Reply, Request, Store};
use pdc_core::metrics::Counter;
use pdc_core::trace::TraceSession;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

const LIVE_POISONED: &str = "a connection thread panicked holding the live-connection map";

/// A running TCP KV server.
pub struct TcpKvServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    /// A clone of every live connection's stream, so shutdown can
    /// force-close connections whose clients are still attached
    /// (otherwise joining their threads would block on a read forever).
    /// A connection's thread removes its clone when it ends, so the
    /// socket really closes.
    conns: Arc<Mutex<BTreeMap<u64, TcpStream>>>,
    /// Connection threads the accept thread holds a handle to, as of
    /// its last accept: it joins finished ones as it goes, so this stays
    /// near the number of live connections.
    #[cfg_attr(not(test), allow(dead_code))]
    retained: Arc<AtomicUsize>,
    trace: TraceSession,
}

impl TcpKvServer {
    /// Bind to an ephemeral loopback port and start serving, with a
    /// private trace session.
    pub fn start() -> std::io::Result<TcpKvServer> {
        TcpKvServer::start_traced(&TraceSession::new())
    }

    /// Like [`TcpKvServer::start`], publishing `kv.conn_errors` into a
    /// shared `session`.
    pub fn start_traced(session: &TraceSession) -> std::io::Result<TcpKvServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let store = Arc::new(Mutex::new(Store::new()));
        let conns: Arc<Mutex<BTreeMap<u64, TcpStream>>> = Arc::default();
        let conn_errors = session.counter("kv.conn_errors");
        let sd = Arc::clone(&shutdown);
        let conns2 = Arc::clone(&conns);
        let retained = Arc::new(AtomicUsize::new(0));
        let retained2 = Arc::clone(&retained);
        let accept_handle = std::thread::spawn(move || {
            let mut conn_handles = Vec::new();
            for (id, stream) in (0u64..).zip(listener.incoming()) {
                if sd.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                stream.set_nodelay(true).ok();
                if let Ok(clone) = stream.try_clone() {
                    conns2.lock().expect(LIVE_POISONED).insert(id, clone);
                }
                let store = Arc::clone(&store);
                let errors = conn_errors.clone();
                let sd = Arc::clone(&sd);
                let live = Arc::clone(&conns2);
                join_finished(&mut conn_handles);
                conn_handles.push(std::thread::spawn(move || {
                    serve_conn(stream, &store, &errors, &sd);
                    live.lock().expect(LIVE_POISONED).remove(&id);
                }));
                retained2.store(conn_handles.len(), Ordering::SeqCst);
            }
            for h in conn_handles {
                let _ = h.join();
            }
        });
        Ok(TcpKvServer {
            addr,
            shutdown,
            accept_handle: Some(accept_handle),
            conns,
            retained,
            trace: session.clone(),
        })
    }

    /// The server's address (connect clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The trace session this server publishes `kv.conn_errors` into.
    pub fn trace(&self) -> &TraceSession {
        &self.trace
    }

    /// Connections that failed mid-request so far (`kv.conn_errors`).
    pub fn conn_errors(&self) -> u64 {
        self.trace.snapshot().get("kv.conn_errors")
    }

    /// Stop accepting, drain live connections, and join every server
    /// thread.
    ///
    /// Connections are half-closed on the **read** side only: a thread
    /// blocked in `read` wakes with a clean EOF, while a thread mid-write
    /// finishes its in-flight reply undisturbed (closing both
    /// directions here used to race those writes into spurious
    /// `kv.conn_errors` bumps). Whatever the teardown interrupts is the
    /// server's doing, not a client failure, so `serve_conn` counts no
    /// errors once the shutdown flag is up.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for c in self.conns.lock().expect(LIVE_POISONED).values() {
            let _ = c.shutdown(std::net::Shutdown::Read);
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

/// Join the connection threads in `handles` that have ended, keeping
/// the rest.
fn join_finished(handles: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// One connection's thread: read, answer every complete line in one
/// write, repeat until QUIT, EOF or a failure.
fn serve_conn(
    mut stream: TcpStream,
    store: &Mutex<Store>,
    conn_errors: &Counter,
    shutdown: &AtomicBool,
) {
    // A failure observed after shutdown began is the server tearing the
    // connection down, not the client misbehaving: never count it.
    let count_error = || {
        if !shutdown.load(Ordering::SeqCst) {
            conn_errors.inc();
        }
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            // EOF between requests is a clean close. EOF mid-line means
            // the client vanished mid-request: never execute a
            // truncated request — a half-read "DEL xy…" is not the
            // request that was sent.
            Ok(0) => {
                if !buf.is_empty() {
                    count_error();
                }
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                count_error();
                return;
            }
        }
        let mut out = Vec::new();
        let mut used = 0;
        let (mut quit, mut too_long) = (false, false);
        while !quit && !too_long {
            let reply = match frame(&buf[used..]) {
                Frame::Partial => break,
                Frame::TooLong => {
                    too_long = true;
                    Reply::too_long()
                }
                Frame::Line(line) => {
                    used += line.len() + 1;
                    match Request::parse(line) {
                        Ok(req) => {
                            quit = req == Request::Quit;
                            execute(
                                &mut store
                                    .lock()
                                    .expect("a connection thread panicked holding the store"),
                                &req,
                            )
                        }
                        Err(reply) => reply,
                    }
                }
            };
            out.extend_from_slice(reply.render().as_bytes());
            out.push(b'\n');
        }
        buf.drain(..used);
        // An over-long line is a failure whether or not its reply gets
        // out: count it before replying, and only once.
        if too_long {
            count_error();
            let _ = stream.write_all(&out);
            return;
        }
        if stream.write_all(&out).is_err() {
            count_error();
            return;
        }
        if quit {
            return;
        }
    }
}

/// A blocking line-protocol client.
pub struct TcpKvClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl TcpKvClient {
    /// Connect to a server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpKvClient> {
        let stream = TcpStream::connect(addr)?;
        // One small request per reply: without nodelay, Nagle holding
        // the request back for the previous reply's delayed ACK puts
        // ~40ms of idle wire time on every call.
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(TcpKvClient {
            writer: stream,
            reader,
        })
    }

    /// Send one request line; return the reply line.
    pub fn call(&mut self, request: &str) -> std::io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        Ok(line.trim_end().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::MAX_LINE;

    #[test]
    fn get_put_del_over_real_sockets() {
        let server = TcpKvServer::start().unwrap();
        let mut c = TcpKvClient::connect(server.addr()).unwrap();
        assert_eq!(c.call("GET x").unwrap(), "NOTFOUND");
        assert_eq!(c.call("PUT x 41").unwrap(), "OK 1");
        assert_eq!(c.call("PUT x 42").unwrap(), "OK 2");
        assert_eq!(c.call("GET x").unwrap(), "VALUE 2 42");
        assert_eq!(c.call("DEL x").unwrap(), "OK 0");
        assert_eq!(c.call("GET x").unwrap(), "NOTFOUND");
        assert_eq!(c.call("QUIT").unwrap(), "BYE");
        server.shutdown();
    }

    #[test]
    fn finished_connection_threads_are_joined_as_the_server_goes() {
        let server = TcpKvServer::start().unwrap();
        let mut most = 0;
        for _ in 0..300 {
            let mut c = TcpKvClient::connect(server.addr()).unwrap();
            assert_eq!(c.call("QUIT").unwrap(), "BYE");
            most = most.max(server.retained.load(Ordering::SeqCst));
        }
        // Each cycle's thread ends right after BYE, so only the few
        // still closing at the next accept may be held; without the
        // reaping every one of the 300 would be.
        assert!(most <= 16, "accept thread held {most} connection threads");
        server.shutdown();
    }

    #[test]
    fn cas_over_sockets() {
        let server = TcpKvServer::start().unwrap();
        let mut c = TcpKvClient::connect(server.addr()).unwrap();
        assert_eq!(c.call("CAS k 0 first").unwrap(), "OK 1");
        assert_eq!(c.call("CAS k 1 second").unwrap(), "OK 2");
        assert_eq!(c.call("CAS k 1 stale").unwrap(), "CONFLICT 2");
        assert_eq!(c.call("GET k").unwrap(), "VALUE 2 second");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_shared_store() {
        let server = TcpKvServer::start().unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TcpKvClient::connect(addr).unwrap();
                    for j in 0..50 {
                        let r = c.call(&format!("PUT c{i} v{j}")).unwrap();
                        assert!(r.starts_with("OK "), "{r}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut c = TcpKvClient::connect(addr).unwrap();
        for i in 0..4 {
            assert_eq!(c.call(&format!("GET c{i}")).unwrap(), "VALUE 50 v49");
        }
        server.shutdown();
    }

    #[test]
    fn concurrent_cas_one_winner() {
        let server = TcpKvServer::start().unwrap();
        let addr = server.addr();
        let mut c = TcpKvClient::connect(addr).unwrap();
        c.call("PUT hot base").unwrap(); // version 1
        let wins: usize = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TcpKvClient::connect(addr).unwrap();
                    let r = c.call(&format!("CAS hot 1 w{i}")).unwrap();
                    usize::from(r.starts_with("OK"))
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        assert_eq!(wins, 1, "server linearizes CAS across sockets");
        server.shutdown();
    }

    #[test]
    fn mid_request_disconnect_is_survived_and_counted() {
        let server = TcpKvServer::start().unwrap();
        let addr = server.addr();

        // Seed a key through a well-behaved client.
        let mut c = TcpKvClient::connect(addr).unwrap();
        assert_eq!(c.call("PUT victim alive").unwrap(), "OK 1");

        // A client that dies mid-request: half a line, no newline. The
        // truncated "DEL victim" must NOT be executed.
        {
            let mut bad = TcpStream::connect(addr).unwrap();
            bad.write_all(b"DEL victim").unwrap();
            // Drop closes the socket: the server sees EOF mid-line.
        }

        // The error is counted (poll: the conn thread runs async).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while server.conn_errors() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "kv.conn_errors never incremented"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(server.conn_errors(), 1);

        // The server survived: existing and new clients still work, and
        // the half-read DEL was not applied.
        assert_eq!(c.call("GET victim").unwrap(), "VALUE 1 alive");
        let mut c2 = TcpKvClient::connect(addr).unwrap();
        assert_eq!(c2.call("GET victim").unwrap(), "VALUE 1 alive");
        server.shutdown();
    }

    #[test]
    fn clean_disconnect_without_quit_is_not_an_error() {
        let server = TcpKvServer::start().unwrap();
        let addr = server.addr();
        {
            let mut c = TcpKvClient::connect(addr).unwrap();
            assert_eq!(c.call("PUT k v").unwrap(), "OK 1");
            // Drop without QUIT: complete requests only, clean EOF.
        }
        // Give the connection thread a moment to observe EOF.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(server.conn_errors(), 0);
        server.shutdown();
    }

    #[test]
    fn protocol_errors_reported() {
        let server = TcpKvServer::start().unwrap();
        let mut c = TcpKvClient::connect(server.addr()).unwrap();
        assert!(c.call("FROB x").unwrap().starts_with("ERR"));
        assert!(c.call("GET").unwrap().starts_with("ERR"));
        assert!(c.call("CAS k notanumber v").unwrap().starts_with("ERR"));
        server.shutdown();
    }

    /// N clients loop GET → CAS on one key; returns the sorted list of
    /// versions the `OK <version>` replies handed out across all
    /// clients.
    fn hammer_one_key(addr: SocketAddr, clients: usize, rounds: usize) -> Vec<u64> {
        let mut seed = TcpKvClient::connect(addr).unwrap();
        assert_eq!(seed.call("PUT hot base").unwrap(), "OK 1");
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TcpKvClient::connect(addr).unwrap();
                    let mut wins = Vec::new();
                    for _ in 0..rounds {
                        let r = c.call("GET hot").unwrap();
                        let ver: u64 = r.split(' ').nth(1).unwrap().parse().unwrap();
                        let r = c.call(&format!("CAS hot {ver} w{i}")).unwrap();
                        if let Some(v) = r.strip_prefix("OK ") {
                            wins.push(v.parse::<u64>().unwrap());
                        } else {
                            assert!(r.starts_with("CONFLICT "), "{r}");
                        }
                    }
                    wins
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all
    }

    /// The contention invariant: the server must hand out each version
    /// to exactly one winner. Since only successful CAS bumps the
    /// version, the won versions must be exactly {2, 3, …, final} with
    /// no duplicates and no gaps.
    fn assert_cas_serialized(addr: SocketAddr) {
        let wins = hammer_one_key(addr, 6, 30);
        assert!(!wins.is_empty(), "at least one CAS must win");
        let mut c = TcpKvClient::connect(addr).unwrap();
        let reply = c.call("GET hot").unwrap();
        let final_ver: u64 = reply.split(' ').nth(1).unwrap().parse().unwrap();
        assert_eq!(final_ver, 1 + wins.len() as u64, "one bump per OK");
        assert_eq!(
            wins,
            (2..=final_ver).collect::<Vec<u64>>(),
            "every version won exactly once"
        );
    }

    #[test]
    fn cas_contention_one_ok_per_version_threaded_server() {
        let server = TcpKvServer::start().unwrap();
        assert_cas_serialized(server.addr());
        server.shutdown();
    }

    /// Drive a server with request/response loops while it shuts down;
    /// whatever the teardown interrupts must not surface as client
    /// failures in `kv.conn_errors`.
    fn shutdown_under_load(addr: SocketAddr, shutdown: impl FnOnce()) {
        let stop = Arc::new(AtomicBool::new(false));
        let clients: Vec<_> = (0..4)
            .map(|i| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let Ok(mut c) = TcpKvClient::connect(addr) else {
                        return;
                    };
                    let mut j = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        j += 1;
                        match c.call(&format!("PUT k{i} v{j}")) {
                            // Server left mid-call (empty read or error):
                            // expected during shutdown.
                            Ok(r) if r.starts_with("OK ") => {}
                            _ => return,
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(100));
        shutdown();
        stop.store(true, Ordering::SeqCst);
        for c in clients {
            c.join().unwrap();
        }
    }

    #[test]
    fn threaded_shutdown_mid_traffic_counts_no_spurious_errors() {
        // Pins the fix for the shutdown race: force-closing both stream
        // directions used to kill in-flight replies and bump
        // kv.conn_errors for connections that did nothing wrong.
        let session = TraceSession::new();
        let server = TcpKvServer::start_traced(&session).unwrap();
        shutdown_under_load(server.addr(), move || server.shutdown());
        assert_eq!(
            session.snapshot().get("kv.conn_errors"),
            0,
            "shutdown fabricated connection errors"
        );
    }

    /// Send `PUT a 1\nQUIT\nPUT b 2\n` in one write; return the reply
    /// lines the server produced, stopping at EOF or once a read
    /// timeout shows no further reply is coming.
    fn pipeline_past_quit(addr: SocketAddr) -> Vec<String> {
        let s = TcpStream::connect(addr).unwrap();
        (&s).write_all(b"PUT a 1\nQUIT\nPUT b 2\n").unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_millis(500)))
            .unwrap();
        let mut r = BufReader::new(s);
        let mut replies = Vec::new();
        let mut l = String::new();
        loop {
            l.clear();
            match r.read_line(&mut l) {
                Ok(0) | Err(_) => return replies,
                Ok(_) => replies.push(l.trim_end().to_string()),
            }
        }
    }

    /// The server must execute the prefix of a pipelined burst that
    /// contains QUIT, drop the suffix, and count nothing about it as a
    /// connection error.
    fn assert_quit_drops_pipelined_suffix(addr: SocketAddr, conn_errors: impl Fn() -> u64) {
        assert_eq!(pipeline_past_quit(addr), ["OK 1", "BYE"]);
        let mut c = TcpKvClient::connect(addr).unwrap();
        assert_eq!(c.call("GET a").unwrap(), "VALUE 1 1", "prefix executed");
        assert_eq!(c.call("GET b").unwrap(), "NOTFOUND", "suffix dropped");
        assert_eq!(conn_errors(), 0, "a clean QUIT is not a conn error");
    }

    #[test]
    fn threaded_quit_drops_pipelined_suffix() {
        let server = TcpKvServer::start().unwrap();
        assert_quit_drops_pipelined_suffix(server.addr(), || server.conn_errors());
        server.shutdown();
    }

    /// Stream [`MAX_LINE`] bytes with no newline; expect `ERR
    /// too-long`, a closed connection, one `kv.conn_errors` bump, and a
    /// server that still serves new clients.
    fn assert_overlong_line_rejected(addr: SocketAddr, conn_errors: impl Fn() -> u64) {
        let s = TcpStream::connect(addr).unwrap();
        // Exactly MAX_LINE newline-less bytes: enough to trip the cap,
        // small enough to never block the writer.
        (&s).write_all(&vec![b'A'; MAX_LINE]).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let mut r = BufReader::new(s);
        let mut reply = String::new();
        let _ = r.read_line(&mut reply);
        assert_eq!(reply.trim_end(), "ERR too-long");
        // The overflow was counted…
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while conn_errors() == 0 {
            assert!(std::time::Instant::now() < deadline, "overflow not counted");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(conn_errors(), 1);
        // …and the server survived.
        let mut c = TcpKvClient::connect(addr).unwrap();
        assert_eq!(c.call("PUT ok 1").unwrap(), "OK 1");
    }

    #[test]
    fn threaded_overlong_line_rejected_not_buffered() {
        let server = TcpKvServer::start().unwrap();
        assert_overlong_line_rejected(server.addr(), || server.conn_errors());
        server.shutdown();
    }

    #[test]
    fn put_values_keep_their_spaces() {
        let server = TcpKvServer::start().unwrap();
        let mut c = TcpKvClient::connect(server.addr()).unwrap();
        assert_eq!(c.call("PUT k a b").unwrap(), "OK 1");
        assert_eq!(c.call("GET k").unwrap(), "VALUE 1 a b");
        assert_eq!(c.call("PUT k2 a  b").unwrap(), "OK 1");
        assert_eq!(c.call("GET k2").unwrap(), "VALUE 1 a  b");
        server.shutdown();
    }

    #[test]
    fn threaded_overlong_line_split_across_writes_is_rejected() {
        let server = TcpKvServer::start().unwrap();
        let addr = server.addr();
        // A 6 009-byte PUT in two writes: neither half alone exceeds
        // MAX_LINE, the line does.
        let line = format!("PUT big {}\n", "x".repeat(6000));
        assert_eq!(line.len(), 6009);
        let s = TcpStream::connect(addr).unwrap();
        let (a, b) = line.as_bytes().split_at(line.len() / 2);
        (&s).write_all(a).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // The server may already have closed: a failed second write is
        // fine, the reply is what matters.
        let _ = (&s).write_all(b);
        s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let mut r = BufReader::new(s);
        let mut reply = String::new();
        let _ = r.read_line(&mut reply);
        assert_eq!(reply.trim_end(), "ERR too-long");
        let mut rest = String::new();
        // EOF, or a reset for the unread half; a timeout means open.
        let closed = match r.read_line(&mut rest) {
            Ok(n) => n == 0,
            Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
        };
        assert!(closed, "connection left open: {rest:?}");
        assert_eq!(server.conn_errors(), 1);
        let mut c = TcpKvClient::connect(addr).unwrap();
        assert_eq!(c.call("GET big").unwrap(), "NOTFOUND", "never executed");
        server.shutdown();
    }
}
