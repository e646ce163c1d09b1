//! A client-server key-value store: the request/reply pattern, and the
//! one protocol core every KV server in the workspace runs.
//!
//! CS87's "C socket client-server" short lab and CS45's distributed-
//! systems introduction both teach the same structure: a server loop
//! services typed requests from concurrent clients; clients block on
//! replies. Here channels stand in for sockets; the protocol (request
//! enum, reply enum, versioned writes) is the real content.
//!
//! The protocol core is shared, not copied:
//!
//! * [`Op`] and [`apply_op`] — GET/PUT/DEL semantics over a [`Store`];
//! * [`Request::parse`] and [`Reply::render`] — the text codec of the
//!   line protocol (one request line in, one reply line out);
//! * [`frame`] — the line framer: pure bytes in, no I/O, and
//!   [`MAX_LINE`] enforced per line whatever the read boundaries were.
//!
//! [`Server`] runs it over channels, [`crate::kv_tcp::TcpKvServer`] over
//! a thread per socket, and `pdc_db::serve` over one event loop in front
//! of replicated shard processes.

use crate::{Payload, WireMessage};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::BTreeMap;
use std::thread::JoinHandle;

/// A store: key → (value, version).
pub type Store = BTreeMap<String, (String, u64)>;

/// One key-value operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Bind `key` to `val`; the key's version bumps on every write and
    /// restarts at 1 after a delete.
    Put {
        /// Key to write.
        key: String,
        /// Value to store.
        val: String,
    },
    /// Read `key`.
    Get {
        /// Key to read.
        key: String,
    },
    /// Remove `key`.
    Del {
        /// Key to remove.
        key: String,
    },
}

impl Op {
    /// The key this operation touches (and routes on).
    pub fn key(&self) -> &str {
        match self {
            Op::Put { key, .. } | Op::Get { key } | Op::Del { key } => key,
        }
    }
}

/// What applying one [`Op`] did — enough to build the reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applied {
    /// A PUT wrote this version.
    Put(u64),
    /// A GET observed this binding (or its absence).
    Got(Option<(String, u64)>),
    /// A DEL removed an existing key (`true`) or missed (`false`).
    Del(bool),
}

/// Apply one op to a store — the single source of truth for GET/PUT/DEL
/// semantics. The version bumps on every write and restarts at 1 after
/// a delete.
pub fn apply_op(store: &mut Store, op: &Op) -> Applied {
    match op {
        Op::Put { key, val } => {
            let ver = store.get(key).map_or(0, |&(_, v)| v) + 1;
            store.insert(key.clone(), (val.clone(), ver));
            Applied::Put(ver)
        }
        Op::Get { key } => Applied::Got(store.get(key).cloned()),
        Op::Del { key } => Applied::Del(store.remove(key).is_some()),
    }
}

/// A client request: one line of the text protocol.
///
/// ```text
/// GET <key>             -> VALUE <version> <value> | NOTFOUND
/// PUT <key> <value>     -> OK <version>          (the value may hold spaces)
/// DEL <key>             -> OK 0 | NOTFOUND
/// CAS <key> <ver> <val> -> OK <version> | CONFLICT <actual>
/// QUIT                  -> BYE (the session ends)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A GET, PUT or DEL.
    Op(Op),
    /// Compare-and-swap: write only if the current version matches.
    /// Single-node only: the replicated tier answers it with an error.
    Cas {
        /// Key to write.
        key: String,
        /// Expected current version (0 = the key must be absent).
        expect_version: u64,
        /// Value to store on success.
        value: String,
    },
    /// End the session: closes a TCP connection, stops a [`Server`].
    Quit,
}

impl Request {
    /// Parse one request line (without its `\n`). Surrounding
    /// whitespace is ignored; a PUT or CAS value is the rest of the line
    /// after the key, spaces included. Any bytes parse: a malformed line
    /// yields the error reply the client gets.
    pub fn parse(line: &[u8]) -> Result<Request, Reply> {
        let text = String::from_utf8_lossy(line);
        let text = text.trim();
        let (cmd, args) = text.split_once(' ').unwrap_or((text, ""));
        // A lone key, or a key followed by the rest of the line.
        let key = || (!args.is_empty() && !args.contains(' ')).then(|| args.to_string());
        let key_rest = || args.split_once(' ').filter(|(k, _)| !k.is_empty());
        let (req, form) = match cmd {
            "GET" => (key().map(|key| Request::Op(Op::Get { key })), "GET <key>"),
            "DEL" => (key().map(|key| Request::Op(Op::Del { key })), "DEL <key>"),
            "PUT" => (
                key_rest().map(|(key, val)| {
                    Request::Op(Op::Put {
                        key: key.into(),
                        val: val.into(),
                    })
                }),
                "PUT <key> <value>",
            ),
            "CAS" => {
                let parts = key_rest().and_then(|(key, rest)| Some((key, rest.split_once(' ')?)));
                let req = match parts {
                    Some((key, (ver, value))) => {
                        let Ok(expect_version) = ver.parse() else {
                            return Err(Reply::Err("bad version".into()));
                        };
                        Some(Request::Cas {
                            key: key.into(),
                            expect_version,
                            value: value.into(),
                        })
                    }
                    None => None,
                };
                (req, "CAS <key> <version> <value>")
            }
            "QUIT" => (args.is_empty().then_some(Request::Quit), "QUIT"),
            _ => return Err(Reply::Err(format!("unknown command {cmd:?}"))),
        };
        req.ok_or_else(|| Reply::Err(format!("usage: {form}")))
    }
}

/// A server reply: one line of the text protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Value and its version (`VALUE <version> <value>`).
    Value {
        /// The stored value.
        value: String,
        /// Its version number.
        version: u64,
    },
    /// Key absent (`NOTFOUND`).
    NotFound,
    /// Write accepted; the new version, 0 for a DEL (`OK <version>`).
    Ok {
        /// Version after the write.
        version: u64,
    },
    /// CAS failed; the actual current version (`CONFLICT <actual>`).
    CasConflict {
        /// The version the server holds.
        actual_version: u64,
    },
    /// The session ends (`BYE`).
    Bye,
    /// The request was refused (`ERR <reason>`).
    Err(String),
}

impl Reply {
    /// The reply to a request line longer than [`MAX_LINE`]; the server
    /// counts the connection as failed and closes it.
    pub fn too_long() -> Reply {
        Reply::Err("too-long".into())
    }

    /// The protocol line for this reply, without its `\n`.
    pub fn render(&self) -> String {
        match self {
            Reply::Value { value, version } => format!("VALUE {version} {value}"),
            Reply::NotFound => "NOTFOUND".into(),
            Reply::Ok { version } => format!("OK {version}"),
            Reply::CasConflict { actual_version } => format!("CONFLICT {actual_version}"),
            Reply::Bye => "BYE".into(),
            Reply::Err(reason) => format!("ERR {reason}"),
        }
    }
}

impl From<Applied> for Reply {
    fn from(applied: Applied) -> Reply {
        match applied {
            Applied::Put(version) => Reply::Ok { version },
            Applied::Got(Some((value, version))) => Reply::Value { value, version },
            Applied::Got(None) | Applied::Del(false) => Reply::NotFound,
            Applied::Del(true) => Reply::Ok { version: 0 },
        }
    }
}

/// Execute one request against a single-node store: [`apply_op`] for
/// GET/PUT/DEL, plus CAS, which only a single node can linearize.
pub fn execute(store: &mut Store, req: &Request) -> Reply {
    match req {
        Request::Op(op) => apply_op(store, op).into(),
        Request::Cas {
            key,
            expect_version,
            value,
        } => match store.get_mut(key) {
            Some((v, ver)) if ver == expect_version => {
                *v = value.clone();
                *ver += 1;
                Reply::Ok { version: *ver }
            }
            Some((_, ver)) => Reply::CasConflict {
                actual_version: *ver,
            },
            None if *expect_version == 0 => {
                store.insert(key.clone(), (value.clone(), 1));
                Reply::Ok { version: 1 }
            }
            None => Reply::CasConflict { actual_version: 0 },
        },
        Request::Quit => Reply::Bye,
    }
}

/// Longest accepted request line, in bytes, including the newline. A
/// longer line gets [`Reply::too_long`], one `kv.conn_errors` bump, and
/// a closed connection, on every server, instead of growing a
/// server-side buffer without bound.
pub const MAX_LINE: usize = 4096;

/// The first request line of a byte stream (see [`frame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A complete line, without its `\n`; consume `len() + 1` bytes.
    Line(&'a [u8]),
    /// No newline yet, and still under [`MAX_LINE`]: read more.
    Partial,
    /// [`MAX_LINE`] bytes without a newline: reply
    /// [`Reply::too_long`] and close.
    TooLong,
}

/// Cut the first request line off `buf`, the unparsed bytes of a
/// connection (which always start at a line boundary). Only the first
/// [`MAX_LINE`] bytes are searched, so the cap holds per line no matter
/// how the bytes were split across reads.
pub fn frame(buf: &[u8]) -> Frame<'_> {
    let window = &buf[..buf.len().min(MAX_LINE)];
    match window.iter().position(|&b| b == b'\n') {
        Some(end) => Frame::Line(&buf[..end]),
        None if buf.len() >= MAX_LINE => Frame::TooLong,
        None => Frame::Partial,
    }
}

impl Payload for Op {
    fn size_bytes(&self) -> u64 {
        // 1 discriminant byte + the strings' bytes, matching encode().
        1 + match self {
            Op::Put { key, val } => (key.len() + val.len()) as u64,
            Op::Get { key } | Op::Del { key } => key.len() as u64,
        }
    }
}

impl WireMessage for Op {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Op::Put { key, val } => {
                out.push(0);
                key.encode(out);
                val.encode(out);
            }
            Op::Get { key } => {
                out.push(1);
                key.encode(out);
            }
            Op::Del { key } => {
                out.push(2);
                key.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&disc, rest) = buf.split_first()?;
        *buf = rest;
        Some(match disc {
            0 => Op::Put {
                key: String::decode(buf)?,
                val: String::decode(buf)?,
            },
            1 => Op::Get {
                key: String::decode(buf)?,
            },
            2 => Op::Del {
                key: String::decode(buf)?,
            },
            _ => return None,
        })
    }
}

struct Envelope {
    req: Request,
    reply_to: Sender<Reply>,
}

/// A handle for sending requests to a running server.
#[derive(Clone)]
pub struct Client {
    tx: Sender<Envelope>,
}

impl Client {
    /// Send a request and block for the reply.
    pub fn call(&self, req: Request) -> Reply {
        let (rtx, rrx) = unbounded();
        self.tx
            .send(Envelope { req, reply_to: rtx })
            .expect("server has exited");
        rrx.recv().expect("server dropped the reply channel")
    }

    /// Convenience: get a key's value.
    pub fn get(&self, key: &str) -> Option<String> {
        match self.call(Request::Op(Op::Get { key: key.into() })) {
            Reply::Value { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Convenience: put a key, returning the new version.
    pub fn put(&self, key: &str, value: &str) -> u64 {
        match self.call(Request::Op(Op::Put {
            key: key.into(),
            val: value.into(),
        })) {
            Reply::Ok { version } => version,
            other => panic!("unexpected put reply {other:?}"),
        }
    }
}

/// A running server: the thread plus the request statistics on join.
pub struct Server {
    handle: JoinHandle<ServerStats>,
    tx: Sender<Envelope>,
}

/// Counters the server reports at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests serviced (excluding Quit).
    pub requests: u64,
    /// Get requests that found the key.
    pub hits: u64,
    /// CAS attempts rejected.
    pub cas_conflicts: u64,
}

impl Server {
    /// Start a server thread; returns the server handle and a client.
    pub fn start() -> (Server, Client) {
        let (tx, rx): (Sender<Envelope>, Receiver<Envelope>) = unbounded();
        let handle = std::thread::spawn(move || {
            let mut store = Store::new();
            let mut stats = ServerStats::default();
            while let Ok(Envelope { req, reply_to }) = rx.recv() {
                let reply = execute(&mut store, &req);
                let quit = req == Request::Quit;
                if !quit {
                    stats.requests += 1;
                    stats.hits += u64::from(matches!(reply, Reply::Value { .. }));
                    stats.cas_conflicts += u64::from(matches!(reply, Reply::CasConflict { .. }));
                }
                let _ = reply_to.send(reply);
                if quit {
                    break;
                }
            }
            stats
        });
        (
            Server {
                handle,
                tx: tx.clone(),
            },
            Client { tx },
        )
    }

    /// Shut down and collect statistics.
    pub fn shutdown(self) -> ServerStats {
        let (rtx, rrx) = unbounded();
        let _ = self.tx.send(Envelope {
            req: Request::Quit,
            reply_to: rtx,
        });
        let _ = rrx.recv();
        self.handle.join().expect("server panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_delete_roundtrip() {
        let (server, client) = Server::start();
        assert_eq!(client.get("x"), None);
        assert_eq!(client.put("x", "1"), 1);
        assert_eq!(client.get("x"), Some("1".into()));
        assert_eq!(client.put("x", "2"), 2, "version increments");
        assert_eq!(
            client.call(Request::Op(Op::Del { key: "x".into() })),
            Reply::Ok { version: 0 }
        );
        assert_eq!(client.get("x"), None);
        let stats = server.shutdown();
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn cas_succeeds_only_on_matching_version() {
        let (server, client) = Server::start();
        client.put("k", "a"); // version 1
        let r = client.call(Request::Cas {
            key: "k".into(),
            expect_version: 1,
            value: "b".into(),
        });
        assert_eq!(r, Reply::Ok { version: 2 });
        let r = client.call(Request::Cas {
            key: "k".into(),
            expect_version: 1,
            value: "c".into(),
        });
        assert_eq!(r, Reply::CasConflict { actual_version: 2 });
        assert_eq!(client.get("k"), Some("b".into()));
        let stats = server.shutdown();
        assert_eq!(stats.cas_conflicts, 1);
    }

    #[test]
    fn cas_version_zero_creates() {
        let (server, client) = Server::start();
        let r = client.call(Request::Cas {
            key: "new".into(),
            expect_version: 0,
            value: "v".into(),
        });
        assert_eq!(r, Reply::Ok { version: 1 });
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_all_serviced() {
        let (server, client) = Server::start();
        let handles: Vec<_> = (0..8)
            .map(|c| {
                let client = client.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        client.put(&format!("k{c}"), &i.to_string());
                    }
                    client.get(&format!("k{c}")).unwrap()
                })
            })
            .collect();
        for (c, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), "99", "client {c}");
        }
        let stats = server.shutdown();
        assert_eq!(stats.requests, 8 * 101);
    }

    #[test]
    fn concurrent_cas_exactly_one_winner_per_round() {
        let (server, client) = Server::start();
        client.put("counter", "0"); // version 1
                                    // 4 clients race to CAS version 1 -> exactly one wins.
        let wins: usize = (0..4)
            .map(|i| {
                let client = client.clone();
                std::thread::spawn(move || {
                    matches!(
                        client.call(Request::Cas {
                            key: "counter".into(),
                            expect_version: 1,
                            value: format!("w{i}"),
                        }),
                        Reply::Ok { .. }
                    )
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| usize::from(h.join().unwrap()))
            .sum();
        assert_eq!(wins, 1, "CAS linearizes concurrent writers");
        let stats = server.shutdown();
        assert_eq!(stats.cas_conflicts, 3);
    }
}
