//! The sharded store facing **live traffic**: a front-end tier that
//! accepts real client connections, routes every op through the
//! consistent-hash ring to replicated shard processes, and survives a
//! shard dying mid-run — promotion, rebalance, zero lost acknowledged
//! writes.
//!
//! This is [`crate::sharded`] graduated from scripted replay to a
//! serving system, and the replication / load-balancing / fault-
//! tolerance topics of the curriculum made executable in one artifact:
//!
//! * **Front end** (rank 0, this process): the workspace's event-loop
//!   KV server. It speaks the [`pdc_mpi::kv`] line protocol to clients
//!   with the shared framer and codec (GET/PUT/DEL/QUIT; CAS gets an
//!   error line), over buffered nonblocking [`Conn`]s with ordered
//!   reply slots, plus a [`pdc_mpi::WireHub`] control plane to the
//!   shards. Client sockets are registered on the hub's poller
//!   ([`WireHub::register_client`]), so the whole tier blocks in one
//!   `poll(2)` ([`WireHub::pump`]) instead of sleeping between sweeps.
//!   On the default mesh topology, shard↔shard chain traffic (`Fwd`,
//!   `Sync`) travels direct child connections and never crosses the hub
//!   — [`ServeOutcome::hub_forwarded`] stays 0.
//! * **Replication**: chain replication over [`HashRing::nodes_for`]
//!   with 2 replicas. The front end sends an op to its primary; the
//!   primary applies it, ships the *result* (absolute value + version,
//!   so replicas stay bit-identical) to the backup; the **tail** acks.
//!   An op is acknowledged to the client only once the whole chain
//!   holds it — which is exactly why a single failure loses nothing.
//! * **Failure detection**: two detectors feed one verdict. The hub's
//!   event loop turns a dead socket into a
//!   [`TransportError::PeerClosed`] event (the bugfixed transport
//!   surface), and an [`ft::HeartbeatMonitor`](pdc_mpi::ft) fed by
//!   Ping/Pong traffic catches silent hangs the socket layer misses.
//!   Whichever fires first claims the death ([`WireHub::report_dead`]);
//!   the loser is suppressed inside the hub, so overlapping signals for
//!   one crash can never promote two backups.
//! * **Promotion & rebalance**: on a death the ring shrinks, surviving
//!   shards re-derive ownership and `Sync` copies to the backups the
//!   new ring assigns, the front end re-sends every unacknowledged op
//!   (in id order) to the new primaries, and per-op **memoization** on
//!   the shards makes those retries idempotent — a retried op that was
//!   already applied re-ships its memoized result instead of bumping
//!   the version twice.
//!
//! The serve gate (`experiments --serve`) drives this with a closed-loop
//! load generator, kills a shard mid-run, and checks: final state equals
//! a direct single-node apply of the acked ops, `serve.promotions >= 1`,
//! latency percentiles, and a clean `analyze_merged` verdict over the
//! merged per-process traces (with the dead rank's causally-incomplete
//! message pairs shrunk away, MPI-communicator style).

use crate::dht::HashRing;
use crate::sharded::{apply_op, shard_ring, Applied, KvState, ShardOp};
use pdc_core::merge::{self, MergedTrace};
use pdc_core::metrics::Counter;
use pdc_core::trace::{EventKind, ThreadTrace, TraceSession};
use pdc_mpi::ft::HeartbeatMonitor;
use pdc_mpi::kv::{self, Frame, Request, Store};
use pdc_mpi::{
    take_child_env, Conn, HubEvent, Payload, Transport, TransportError, WireHub, WireMessage,
    WireOptions, WireTransport,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The single tag all serve-protocol messages travel under.
pub const TAG_SERVE: u32 = 0x60;

/// "No backup" marker in [`ServeMsg::Op`] (rank 0 is the front end, so
/// 0 can never name a shard).
const NO_BACKUP: u32 = 0;

/// An op's effect, computed once at the primary and shipped down the
/// chain so every replica stores bit-identical `(value, version)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyCmd {
    /// Bind `key` to exactly this value and version.
    Set {
        /// The key.
        key: String,
        /// The value the primary computed.
        val: String,
        /// The version the primary computed.
        ver: u64,
    },
    /// Remove `key`.
    Del {
        /// The key.
        key: String,
    },
}

/// The client-visible outcome of an op, as it travels the chain; the
/// front end renders it as a [`kv::Reply`] line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// PUT wrote this version (`OK <ver>`).
    PutOk(u64),
    /// DEL removed an existing key (`OK 0`).
    DelOk,
    /// DEL missed (`NOTFOUND`).
    DelMiss,
    /// GET observed this binding or its absence
    /// (`VALUE <ver> <val>` / `NOTFOUND`).
    Got(Option<(String, u64)>),
}

impl Reply {
    /// The protocol line for this reply (see [`kv::Reply::render`]).
    pub fn render(&self) -> String {
        kv::Reply::from(self.clone()).render()
    }
}

impl From<Applied> for Reply {
    fn from(applied: Applied) -> Reply {
        match applied {
            Applied::Put(ver) => Reply::PutOk(ver),
            Applied::Got(binding) => Reply::Got(binding),
            Applied::Del(true) => Reply::DelOk,
            Applied::Del(false) => Reply::DelMiss,
        }
    }
}

impl From<Reply> for kv::Reply {
    fn from(reply: Reply) -> kv::Reply {
        match reply {
            Reply::PutOk(ver) => Applied::Put(ver),
            Reply::DelOk => Applied::Del(true),
            Reply::DelMiss => Applied::Del(false),
            Reply::Got(binding) => Applied::Got(binding),
        }
        .into()
    }
}

/// The serve protocol. Front end ↔ shard and shard ↔ shard messages
/// share one enum (and one tag): a chain is only two hops, the message
/// kinds say who handles what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeMsg {
    /// Front end → primary: execute op `id`; if `backup != 0`, chain
    /// the result there (the backup acks); else ack directly.
    Op {
        /// Monotone op id, assigned by the front end; the idempotency
        /// key for retries after a failure.
        id: u64,
        /// The operation.
        op: ShardOp,
        /// World rank of the backup replica (0 = none).
        backup: u32,
    },
    /// Primary → backup: apply this absolute result and ack `id`.
    Fwd {
        /// The op id being chained.
        id: u64,
        /// The primary's computed effect.
        cmd: ApplyCmd,
        /// The reply to carry back to the front end.
        reply: Reply,
    },
    /// Chain tail → front end: op `id` is durable on the whole chain.
    Ack {
        /// The op id.
        id: u64,
        /// The client-visible outcome.
        reply: Reply,
    },
    /// Front end → shard: liveness probe.
    Ping,
    /// Shard → front end: liveness answer.
    Pong,
    /// Front end → all survivors: world rank `dead` is gone; shrink the
    /// ring and rebalance.
    Reconfig {
        /// The dead world rank.
        dead: u32,
    },
    /// Shard → shard: one key's binding, copied to a backup the
    /// post-failure ring newly assigns.
    Sync {
        /// The key.
        key: String,
        /// Its value.
        val: String,
        /// Its version.
        ver: u64,
    },
    /// Front end → shard: report the keys you are primary for.
    Stop,
    /// Shard → front end: one primary-owned key's final binding.
    Entry {
        /// The key.
        key: String,
        /// Its final value.
        val: String,
        /// Its final version.
        ver: u64,
    },
    /// Shard → front end: end of the state report.
    Done {
        /// Ops this shard applied as primary.
        ops: u64,
    },
    /// Front end → shard: all reports are in; write your trace snapshot
    /// and exit. (Separate from [`ServeMsg::Stop`] so in-flight
    /// shard→shard `Sync`s land — and are trace-recorded — before any
    /// receiver leaves the world.)
    Exit,
}

impl Payload for ApplyCmd {
    fn size_bytes(&self) -> u64 {
        1 + match self {
            ApplyCmd::Set { key, val, .. } => (key.len() + val.len()) as u64 + 8,
            ApplyCmd::Del { key } => key.len() as u64,
        }
    }
}

impl Payload for Reply {
    fn size_bytes(&self) -> u64 {
        1 + match self {
            Reply::PutOk(_) => 8,
            Reply::DelOk | Reply::DelMiss => 0,
            Reply::Got(Some((val, _))) => val.len() as u64 + 9,
            Reply::Got(None) => 1,
        }
    }
}

impl Payload for ServeMsg {
    fn size_bytes(&self) -> u64 {
        1 + match self {
            ServeMsg::Op { op, .. } => 12 + op.size_bytes(),
            ServeMsg::Fwd { cmd, reply, .. } => 8 + cmd.size_bytes() + reply.size_bytes(),
            ServeMsg::Ack { reply, .. } => 8 + reply.size_bytes(),
            ServeMsg::Ping | ServeMsg::Pong | ServeMsg::Stop | ServeMsg::Exit => 0,
            ServeMsg::Reconfig { .. } => 4,
            ServeMsg::Sync { key, val, .. } | ServeMsg::Entry { key, val, .. } => {
                (key.len() + val.len()) as u64 + 8
            }
            ServeMsg::Done { .. } => 8,
        }
    }
}

impl WireMessage for ApplyCmd {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ApplyCmd::Set { key, val, ver } => {
                out.push(0);
                key.encode(out);
                val.encode(out);
                ver.encode(out);
            }
            ApplyCmd::Del { key } => {
                out.push(1);
                key.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&disc, rest) = buf.split_first()?;
        *buf = rest;
        Some(match disc {
            0 => ApplyCmd::Set {
                key: String::decode(buf)?,
                val: String::decode(buf)?,
                ver: u64::decode(buf)?,
            },
            1 => ApplyCmd::Del {
                key: String::decode(buf)?,
            },
            _ => return None,
        })
    }
}

impl WireMessage for Reply {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Reply::PutOk(ver) => {
                out.push(0);
                ver.encode(out);
            }
            Reply::DelOk => out.push(1),
            Reply::DelMiss => out.push(2),
            Reply::Got(opt) => {
                out.push(3);
                opt.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&disc, rest) = buf.split_first()?;
        *buf = rest;
        Some(match disc {
            0 => Reply::PutOk(u64::decode(buf)?),
            1 => Reply::DelOk,
            2 => Reply::DelMiss,
            3 => Reply::Got(Option::<(String, u64)>::decode(buf)?),
            _ => return None,
        })
    }
}

impl WireMessage for ServeMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServeMsg::Op { id, op, backup } => {
                out.push(0);
                id.encode(out);
                op.encode(out);
                backup.encode(out);
            }
            ServeMsg::Fwd { id, cmd, reply } => {
                out.push(1);
                id.encode(out);
                cmd.encode(out);
                reply.encode(out);
            }
            ServeMsg::Ack { id, reply } => {
                out.push(2);
                id.encode(out);
                reply.encode(out);
            }
            ServeMsg::Ping => out.push(3),
            ServeMsg::Pong => out.push(4),
            ServeMsg::Reconfig { dead } => {
                out.push(5);
                dead.encode(out);
            }
            ServeMsg::Sync { key, val, ver } => {
                out.push(6);
                key.encode(out);
                val.encode(out);
                ver.encode(out);
            }
            ServeMsg::Stop => out.push(7),
            ServeMsg::Entry { key, val, ver } => {
                out.push(8);
                key.encode(out);
                val.encode(out);
                ver.encode(out);
            }
            ServeMsg::Done { ops } => {
                out.push(9);
                ops.encode(out);
            }
            ServeMsg::Exit => out.push(10),
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&disc, rest) = buf.split_first()?;
        *buf = rest;
        Some(match disc {
            0 => ServeMsg::Op {
                id: u64::decode(buf)?,
                op: ShardOp::decode(buf)?,
                backup: u32::decode(buf)?,
            },
            1 => ServeMsg::Fwd {
                id: u64::decode(buf)?,
                cmd: ApplyCmd::decode(buf)?,
                reply: Reply::decode(buf)?,
            },
            2 => ServeMsg::Ack {
                id: u64::decode(buf)?,
                reply: Reply::decode(buf)?,
            },
            3 => ServeMsg::Ping,
            4 => ServeMsg::Pong,
            5 => ServeMsg::Reconfig {
                dead: u32::decode(buf)?,
            },
            6 => ServeMsg::Sync {
                key: String::decode(buf)?,
                val: String::decode(buf)?,
                ver: u64::decode(buf)?,
            },
            7 => ServeMsg::Stop,
            8 => ServeMsg::Entry {
                key: String::decode(buf)?,
                val: String::decode(buf)?,
                ver: u64::decode(buf)?,
            },
            9 => ServeMsg::Done {
                ops: u64::decode(buf)?,
            },
            10 => ServeMsg::Exit,
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------
// Shard child process
// ---------------------------------------------------------------------

/// Apply a chained (absolute) command; replicas stay bit-identical to
/// the primary because nothing is recomputed.
fn apply_cmd(store: &mut Store, cmd: &ApplyCmd) {
    match cmd {
        ApplyCmd::Set { key, val, ver } => {
            store.insert(key.clone(), (val.clone(), *ver));
        }
        ApplyCmd::Del { key } => {
            store.remove(key);
        }
    }
}

/// The entry point a serve child process runs: one shard rank, serving
/// until told to exit. Call this from a binary's dispatch on
/// [`pdc_mpi::WireWorld::child_world_id`]. Never returns.
///
/// # Panics
/// Panics if the child env markers are missing (i.e. called in a
/// process that is not a spawned wire child).
pub fn run_shard_child() -> ! {
    let env = take_child_env().expect("serve shard: not a wire child process");
    let rank = env.rank;
    let shards = env.procs - 1;
    let my_node = (rank - 1) as u64;
    let transport: WireTransport<ServeMsg> =
        WireTransport::connect_env(&env).expect("serve shard: connect to front end");

    // Per-process session; capacity raised well past the default — a
    // loaded shard records several events per op and dropped events
    // would poison the merged causal order.
    let session = env.trace_dir.as_ref().map(|_| {
        let s = TraceSession::with_capacity(1 << 17);
        (s.thread(rank as u32), s)
    });
    let tracer = session.as_ref().map(|(t, _)| t);
    let record_send = |dst: usize, msg: &ServeMsg| {
        if let Some(t) = tracer {
            t.record(EventKind::Send, dst as u64, msg.size_bytes());
        }
    };
    let record_recv = |src: usize, msg: &ServeMsg| {
        if let Some(t) = tracer {
            t.record(EventKind::Recv, src as u64, msg.size_bytes());
        }
    };
    let counters = session.as_ref().map(|(_, s)| {
        (
            s.counter("serve.primary_ops"),
            s.counter("serve.replica_ops"),
            s.counter("serve.rebalanced_keys"),
        )
    });
    let send = |dst: usize, msg: ServeMsg| {
        record_send(dst, &msg);
        // A failed send to a dead sibling (chain partner
        // mid-failover) is dropped: the front end's failure
        // detection owns the promotion and will retry the op on the
        // new chain. A dead *front end* means nothing to serve and
        // nobody to tell.
        if transport.try_send(rank, dst, TAG_SERVE, msg).is_err() && dst == 0 {
            std::process::exit(1);
        }
    };

    let mut ring = shard_ring(shards);
    let mut store = Store::new();
    // Memoized results of mutating ops, keyed by op id: the idempotency
    // table that makes post-failure retries safe. A retried op re-ships
    // its memoized (cmd, reply) instead of re-applying.
    let mut seen: HashMap<u64, (ApplyCmd, Reply)> = HashMap::new();
    let mut primary_ops = 0u64;

    loop {
        let envl = match transport.try_recv() {
            Ok(e) => e,
            // Front end died (or corrupted the stream): there is no
            // world left to serve. Exit loudly.
            Err(_) => std::process::exit(1),
        };
        record_recv(envl.src, &envl.msg);
        match envl.msg {
            ServeMsg::Ping => send(0, ServeMsg::Pong),
            ServeMsg::Op { id, op, backup } => match &op {
                // GETs are idempotent and never chained: answer from
                // the primary's store.
                ShardOp::Get { .. } => {
                    let reply = Reply::from(apply_op(&mut store, &op));
                    send(0, ServeMsg::Ack { id, reply });
                }
                _ => {
                    let (cmd, reply) = match seen.get(&id) {
                        // Retry of an op this replica already applied:
                        // idempotent re-chain, no second version bump.
                        Some((cmd, reply)) => (cmd.clone(), reply.clone()),
                        None => {
                            let reply = Reply::from(apply_op(&mut store, &op));
                            let cmd = match (&op, &reply) {
                                (ShardOp::Put { key, val }, Reply::PutOk(ver)) => ApplyCmd::Set {
                                    key: key.clone(),
                                    val: val.clone(),
                                    ver: *ver,
                                },
                                _ => ApplyCmd::Del {
                                    key: op.key().to_string(),
                                },
                            };
                            primary_ops += 1;
                            if let Some((p, _, _)) = &counters {
                                p.inc();
                            }
                            seen.insert(id, (cmd.clone(), reply.clone()));
                            (cmd, reply)
                        }
                    };
                    if backup != NO_BACKUP {
                        send(backup as usize, ServeMsg::Fwd { id, cmd, reply });
                    } else {
                        send(0, ServeMsg::Ack { id, reply });
                    }
                }
            },
            ServeMsg::Fwd { id, cmd, reply } => {
                // Acked ⇔ applied at the tail: apply before acking, and
                // only once per id (a retried chain re-acks without
                // re-applying).
                if let std::collections::hash_map::Entry::Vacant(slot) = seen.entry(id) {
                    apply_cmd(&mut store, &cmd);
                    slot.insert((cmd, reply.clone()));
                    if let Some((_, r, _)) = &counters {
                        r.inc();
                    }
                }
                send(0, ServeMsg::Ack { id, reply });
            }
            ServeMsg::Reconfig { dead } => {
                let old = ring.clone();
                ring.remove_node((dead - 1) as u64);
                // Re-derive ownership under the shrunk ring: for every
                // key this shard now fronts, copy the binding to any
                // backup the new ring assigns that the old ring didn't.
                let mut syncs: Vec<(usize, ServeMsg)> = Vec::new();
                for (key, (val, ver)) in &store {
                    let group = ring.nodes_for(key, 2);
                    if group.first() != Some(&my_node) {
                        continue;
                    }
                    let old_group = old.nodes_for(key, 2);
                    for nb in &group[1..] {
                        if !old_group.contains(nb) {
                            syncs.push((
                                (*nb + 1) as usize,
                                ServeMsg::Sync {
                                    key: key.clone(),
                                    val: val.clone(),
                                    ver: *ver,
                                },
                            ));
                        }
                    }
                }
                for (dst, msg) in syncs {
                    send(dst, msg);
                }
            }
            ServeMsg::Sync { key, val, ver } => {
                // FIFO from the sending primary orders this before any
                // later chained write to the same key, so an absolute
                // overwrite is safe.
                store.insert(key, (val, ver));
                if let Some((_, _, rb)) = &counters {
                    rb.inc();
                }
            }
            ServeMsg::Stop => {
                // Drain the write queues first: any Sync queued to a
                // sibling during Reconfig must be on the wire before
                // Done tells the front end this shard is settled —
                // otherwise Exit can reach the sibling ahead of the
                // Sync and the frame dies in our queue.
                transport.flush_pending();
                // Report only keys this shard is primary for under the
                // final ring: every survivor derived the same ring, so
                // the reports partition the key space.
                for (key, (val, ver)) in &store {
                    if ring.nodes_for(key, 2).first() == Some(&my_node) {
                        send(
                            0,
                            ServeMsg::Entry {
                                key: key.clone(),
                                val: val.clone(),
                                ver: *ver,
                            },
                        );
                    }
                }
                send(0, ServeMsg::Done { ops: primary_ops });
                // Keep serving Syncs until Exit — a peer's rebalance
                // may still be in flight.
            }
            ServeMsg::Exit => {
                // Collect in-flight sibling traffic before leaving the
                // world: on the mesh a peer's Sync rides a different
                // connection than the parent's Exit, so "Exit received"
                // does not order it. Apply (and trace-record) whatever
                // already landed so merged send/recv pairs stay
                // matched.
                for envl in transport.drain_pending() {
                    record_recv(envl.src, &envl.msg);
                    if let ServeMsg::Sync { key, val, ver } = envl.msg {
                        store.insert(key, (val, ver));
                        if let Some((_, _, rb)) = &counters {
                            rb.inc();
                        }
                    }
                }
                if let (Some((_, s)), Some(dir)) = (&session, &env.trace_dir) {
                    write_shard_snapshot(s, dir, rank);
                }
                std::process::exit(0);
            }
            other => panic!("serve shard {rank}: unexpected {other:?}"),
        }
    }
}

fn write_shard_snapshot(session: &TraceSession, dir: &PathBuf, rank: usize) {
    std::fs::create_dir_all(dir).expect("serve shard: create trace dir");
    let meta = [("process", rank.to_string())];
    std::fs::write(
        dir.join(format!("rank{rank}.trace.json")),
        session.to_json_with_meta(&meta),
    )
    .expect("serve shard: write trace snapshot");
}

// ---------------------------------------------------------------------
// Front end (rank 0, in-process)
// ---------------------------------------------------------------------

/// How to run the serving tier.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Shard process count (world ranks 1..=shards; ring nodes
    /// 0..shards). Needs >= 2 for replication to mean anything.
    pub shards: usize,
    /// How shard children re-enter [`run_shard_child`] (procs must
    /// equal `shards`); `trace_dir` here turns on per-process traces
    /// and the merged `pdc-trace/3` snapshot in the outcome.
    pub wire: WireOptions,
    /// Heartbeat ping cadence.
    pub hb_interval: Duration,
    /// Silent intervals before a shard is declared dead.
    pub hb_timeout: u64,
}

impl ServeOptions {
    /// Defaults: 25ms pings, death after 40 silent intervals (1s).
    pub fn new(shards: usize, wire: WireOptions) -> ServeOptions {
        assert_eq!(wire.procs, shards, "wire.procs spawns the shard ranks");
        ServeOptions {
            shards,
            wire,
            hb_interval: Duration::from_millis(25),
            hb_timeout: 40,
        }
    }
}

/// A shard the front end declared dead.
#[derive(Debug, Clone)]
pub struct DeadShard {
    /// Its world rank.
    pub rank: usize,
    /// The transport-level evidence, when the death surfaced through a
    /// broken connection; `None` for a pure heartbeat timeout.
    pub error: Option<TransportError>,
}

/// What a finished serve run hands back.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Union of the survivors' primary-owned keys, sorted.
    pub state: KvState,
    /// Every acknowledged op in id order — replaying the mutating ones
    /// through [`crate::sharded::apply_script`] must reproduce `state`
    /// exactly (the zero-lost-acked-writes invariant).
    pub acked: Vec<(u64, ShardOp)>,
    /// Backup promotions performed (`serve.promotions`).
    pub promotions: u64,
    /// Unacknowledged ops re-sent after a death (`serve.retries`).
    pub retries: u64,
    /// Shards declared dead, in detection order.
    pub dead: Vec<DeadShard>,
    /// Client connections that failed mid-request (`kv.conn_errors`).
    pub conn_errors: u64,
    /// Data frames the hub relayed between shards: the chain traffic's
    /// hop-count witness. Positive on the star topology, always 0 on
    /// the mesh (chain hops go peer-direct).
    pub hub_forwarded: u64,
    /// Merged per-process traces (front end = process 0), when the
    /// wire options were traced.
    pub trace: Option<MergedTrace>,
}

/// Control messages from the owner to the front-end thread.
enum ServeCtl {
    /// Kill a shard process (fault injection).
    Kill(usize),
    /// SIGSTOP a shard process (fault injection: silent hang — sockets
    /// stay open, only the heartbeat detector can see it).
    Pause(usize),
    /// Drain and stop.
    Shutdown,
}

/// A running serve world: shards spawned, front end accepting.
pub struct ServeHandle {
    addr: SocketAddr,
    ctl: Sender<ServeCtl>,
    join: Option<JoinHandle<ServeOutcome>>,
}

impl ServeHandle {
    /// Where clients connect (the [`kv`] line protocol: GET/PUT/DEL/QUIT).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Kill shard `rank`'s process mid-run (SIGKILL). The front end
    /// observes the death like any real crash.
    pub fn kill_shard(&self, rank: usize) {
        self.ctl.send(ServeCtl::Kill(rank)).expect("serve ctl gone");
    }

    /// Freeze shard `rank` mid-run (SIGSTOP): its sockets stay open, so
    /// only the heartbeat detector can declare it dead — the fault
    /// shape that exercises the detector-vs-socket dedup. Follow up
    /// with [`ServeHandle::kill_shard`] before [`ServeHandle::finish`];
    /// a stopped process never exits and would hang the teardown.
    pub fn pause_shard(&self, rank: usize) {
        self.ctl
            .send(ServeCtl::Pause(rank))
            .expect("serve ctl gone");
    }

    /// Drain in-flight ops, collect the shards' state, tear the world
    /// down, and return the outcome.
    ///
    /// # Panics
    /// Panics if the front-end thread panicked (protocol violation,
    /// total shard loss, or a stalled drain).
    pub fn finish(mut self) -> ServeOutcome {
        self.ctl.send(ServeCtl::Shutdown).expect("serve ctl gone");
        self.join
            .take()
            .expect("finish called once")
            .join()
            .expect("serve front end panicked")
    }
}

/// Cap on queued, not-yet-written reply bytes per client. A client that
/// pipelines requests but never reads replies hits this instead of
/// growing the front end's memory without bound; such a connection is
/// dropped and counted in `kv.conn_errors`.
const MAX_WBUF: usize = 256 * 1024;

/// One client connection: the buffered nonblocking [`Conn`] plus the
/// replies owed in request order — replies arrive asynchronously from
/// the shard tier and must still go out in request order.
struct Client {
    conn: Conn,
    /// `Pending` slots fill in when the chain acks; only a `Ready`
    /// prefix may be written.
    replies: VecDeque<Slot>,
    /// Stop reading (QUIT, EOF, an over-long line); close once every
    /// owed reply is written.
    closing: bool,
    /// Counted in `kv.conn_errors` already: a connection fails once.
    failed: bool,
    /// The socket is unusable: drop it without writing more.
    dead: bool,
}

enum Slot {
    Pending(u64),
    Ready(kv::Reply),
}

impl Client {
    /// Count this connection as failed mid-request — once, and never
    /// for failures the shutdown itself causes.
    fn fail(&mut self, conn_errors: &Counter, shutting_down: bool) {
        if !self.failed && !shutting_down {
            conn_errors.inc();
        }
        self.failed = true;
    }

    /// Fill the reply slot of op `id`.
    fn fill(&mut self, id: u64, reply: kv::Reply) {
        let slot = self
            .replies
            .iter_mut()
            .find(|s| matches!(s, Slot::Pending(x) if *x == id));
        if let Some(slot) = slot {
            *slot = Slot::Ready(reply);
        }
    }
}

/// An op sent to the shard tier and not yet acked.
struct PendingOp {
    conn: u64,
    op: ShardOp,
    primary: usize,
    backup: u32,
}

/// Start the serving tier: spawn `opts.shards` shard processes, bind a
/// client listener on an ephemeral loopback port, and run the front-end
/// event loop on its own thread. Counters (`serve.promotions`,
/// `serve.retries`, `serve.acked_ops`, `serve.heartbeat_timeouts`,
/// `kv.conn_errors`) and the front end's send/recv events (actor 0) are
/// published into `session`.
///
/// Call sites must dispatch re-executed children to
/// [`run_shard_child`] via [`pdc_mpi::WireWorld::child_world_id`]
/// before calling this.
///
/// # Panics
/// Panics if `opts.shards < 2` (no replication without a backup).
pub fn start(opts: ServeOptions, session: &TraceSession) -> std::io::Result<ServeHandle> {
    assert!(opts.shards >= 2, "replication needs at least two shards");
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let hub: WireHub<ServeMsg> = WireHub::spawn(&opts.wire)?;
    let (ctl_tx, ctl_rx) = channel();
    let session = session.clone();
    let join =
        std::thread::spawn(move || FrontEnd::new(&opts, listener, hub, ctl_rx, session).run());
    Ok(ServeHandle {
        addr,
        ctl: ctl_tx,
        join: Some(join),
    })
}

/// Poller token of the client listener (client sockets count up from 0).
const LISTENER_TOKEN: u64 = u64::MAX;

/// The front end (rank 0): the workspace's event-loop KV server. One
/// sweep takes control messages, accepts, parses and routes client
/// lines, takes shard acks and deaths, pings, and writes replies; with
/// nothing to do it blocks in one `poll(2)` over every shard and client
/// socket.
struct FrontEnd {
    hub: WireHub<ServeMsg>,
    listener: TcpListener,
    ctl: Receiver<ServeCtl>,
    session: TraceSession,
    /// Actor 0's events, when the world is traced.
    tracer: Option<ThreadTrace>,
    shards: usize,
    trace_dir: Option<PathBuf>,
    hb_interval: Duration,
    promotions: Counter,
    retries_ctr: Counter,
    acked_ctr: Counter,
    hb_timeouts: Counter,
    conn_errors: Counter,
    ring: HashRing,
    monitor: HeartbeatMonitor,
    clients: BTreeMap<u64, Client>,
    next_conn: u64,
    next_id: u64,
    pending: BTreeMap<u64, PendingOp>,
    acked: Vec<(u64, ShardOp)>,
    dead: Vec<DeadShard>,
    retries: u64,
    // Drain/stop state machine: Running → Draining (Shutdown received)
    // → Stopping (Stop sent, collecting reports) → done.
    shutting_down: bool,
    stop_sent: bool,
    state: Store,
    done_from: Vec<usize>,
    start: Instant,
    last_ping_tick: u64,
}

impl FrontEnd {
    fn new(
        opts: &ServeOptions,
        listener: TcpListener,
        hub: WireHub<ServeMsg>,
        ctl: Receiver<ServeCtl>,
        session: TraceSession,
    ) -> FrontEnd {
        let mut monitor = HeartbeatMonitor::new(opts.hb_timeout);
        for r in 1..=opts.shards {
            monitor.register(r, 0);
        }
        // One poller for the whole tier: shard connections are the hub's
        // own; the client listener and every accepted client socket are
        // registered alongside them, so the loop blocks in a single
        // poll(2) and wakes on the first byte from any direction.
        hub.register_client(listener.as_raw_fd(), LISTENER_TOKEN);
        FrontEnd {
            hub,
            listener,
            ctl,
            tracer: opts.wire.trace_dir.is_some().then(|| session.thread(0)),
            shards: opts.shards,
            trace_dir: opts.wire.trace_dir.clone(),
            hb_interval: opts.hb_interval,
            promotions: session.counter("serve.promotions"),
            retries_ctr: session.counter("serve.retries"),
            acked_ctr: session.counter("serve.acked_ops"),
            hb_timeouts: session.counter("serve.heartbeat_timeouts"),
            conn_errors: session.counter("kv.conn_errors"),
            session,
            ring: shard_ring(opts.shards),
            monitor,
            clients: BTreeMap::new(),
            next_conn: 0,
            next_id: 1,
            pending: BTreeMap::new(),
            acked: Vec::new(),
            dead: Vec::new(),
            retries: 0,
            shutting_down: false,
            stop_sent: false,
            state: Store::new(),
            done_from: Vec::new(),
            start: Instant::now(),
            last_ping_tick: 0,
        }
    }

    fn run(mut self) -> ServeOutcome {
        let deadline = self.start + Duration::from_secs(300);
        loop {
            assert!(
                Instant::now() < deadline,
                "serve front end stalled: {} pending, {} conns, stop_sent={}",
                self.pending.len(),
                self.clients.len(),
                self.stop_sent
            );
            let mut progress = self.control();
            progress |= self.accept();
            progress |= self.read_clients();
            progress |= self.shard_events();
            self.heartbeats();
            progress |= self.write_clients();
            if self.drained() {
                break;
            }
            if !progress {
                // Nothing to do right now: block on readiness across
                // every connection (shards + clients) instead of
                // spin-sleeping. The timeout bounds the wait so
                // heartbeat ticks still run with no traffic at all.
                self.hub.pump(Duration::from_millis(2));
            }
        }
        self.outcome()
    }

    /// Send to a shard, recording the send when traced.
    fn send(&self, dst: usize, msg: ServeMsg) {
        if let Some(t) = &self.tracer {
            t.record(EventKind::Send, dst as u64, msg.size_bytes());
        }
        // Err means the writer is already gone; the Down event owns the
        // accounting and the retry.
        let _ = self.hub.send(dst, TAG_SERVE, &msg);
    }

    /// Heartbeat intervals since start.
    fn tick(&self) -> u64 {
        self.start.elapsed().as_millis() as u64 / self.hb_interval.as_millis() as u64
    }

    fn control(&mut self) -> bool {
        let mut progress = false;
        while let Ok(c) = self.ctl.try_recv() {
            progress = true;
            match c {
                ServeCtl::Kill(rank) => {
                    let _ = self.hub.kill(rank);
                }
                ServeCtl::Pause(rank) => {
                    let _ = self.hub.pause(rank);
                }
                ServeCtl::Shutdown => self.shutting_down = true,
            }
        }
        progress
    }

    fn accept(&mut self) -> bool {
        let mut progress = false;
        while !self.shutting_down {
            match self.listener.accept() {
                Ok((s, _)) => {
                    let Ok(conn) = Conn::new(s) else {
                        self.conn_errors.inc();
                        continue;
                    };
                    self.hub.register_client(conn.fd(), self.next_conn);
                    let client = Client {
                        conn,
                        replies: VecDeque::new(),
                        closing: false,
                        failed: false,
                        dead: false,
                    };
                    self.clients.insert(self.next_conn, client);
                    self.next_conn += 1;
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.conn_errors.inc();
                    break;
                }
            }
        }
        progress
    }

    /// Read every client and parse each complete line. GET/PUT/DEL get
    /// an id and a pending reply slot and go to their primaries; every
    /// other request is answered in place.
    fn read_clients(&mut self) -> bool {
        let mut progress = false;
        let mut routed = Vec::new();
        for (&cid, client) in &mut self.clients {
            if client.closing || client.dead {
                continue;
            }
            let before = (client.conn.buffered().len(), client.conn.is_eof());
            if client.conn.read_ready().is_err() {
                client.fail(&self.conn_errors, self.shutting_down);
                client.dead = true;
                progress = true;
                continue;
            }
            progress |= before != (client.conn.buffered().len(), client.conn.is_eof());
            while !client.closing {
                let (used, parsed) = match kv::frame(client.conn.buffered()) {
                    Frame::Partial => break,
                    Frame::TooLong => {
                        client.fail(&self.conn_errors, self.shutting_down);
                        client.replies.push_back(Slot::Ready(kv::Reply::too_long()));
                        client.closing = true;
                        break;
                    }
                    Frame::Line(line) => (line.len() + 1, Request::parse(line)),
                };
                client.conn.consume(used);
                let slot = match parsed {
                    Ok(Request::Op(op)) => {
                        let id = self.next_id;
                        self.next_id += 1;
                        routed.push((id, cid, op));
                        Slot::Pending(id)
                    }
                    // CAS needs one linearization point; this tier is
                    // replicated.
                    Ok(Request::Cas { .. }) => {
                        Slot::Ready(kv::Reply::Err("CAS is single-node only".into()))
                    }
                    Ok(Request::Quit) => {
                        client.closing = true;
                        Slot::Ready(kv::Reply::Bye)
                    }
                    Err(reply) => Slot::Ready(reply),
                };
                client.replies.push_back(slot);
            }
            // EOF with a partial line left: the client vanished
            // mid-request. Count it; never execute the truncated line.
            if client.conn.is_eof() && !client.closing {
                if !client.conn.buffered().is_empty() {
                    client.fail(&self.conn_errors, self.shutting_down);
                }
                client.closing = true;
            }
            // Read no more: a socket left readable (EOF, bytes after
            // QUIT) must not wake every poll while replies are owed.
            if client.closing {
                self.hub.deregister_client(cid);
            }
        }
        for (id, conn, op) in routed {
            self.pending.insert(
                id,
                PendingOp {
                    conn,
                    op,
                    primary: 0,
                    backup: NO_BACKUP,
                },
            );
            self.dispatch(id);
        }
        progress
    }

    /// Send pending op `id` to the primary of its chain on the current
    /// ring, naming the backup that will ack it.
    fn dispatch(&mut self, id: u64) {
        let p = self.pending.get_mut(&id).expect("pending op");
        let group = self.ring.nodes_for(p.op.key(), 2);
        p.primary = *group.first().expect("ring has nodes") as usize + 1;
        p.backup = group.get(1).map_or(NO_BACKUP, |n| *n as u32 + 1);
        let (primary, backup, op) = (p.primary, p.backup, p.op.clone());
        self.send(primary, ServeMsg::Op { id, op, backup });
    }

    /// Shard events: acks fill reply slots; deaths trigger promotion,
    /// rebalance and retries.
    fn shard_events(&mut self) -> bool {
        let mut progress = false;
        for _ in 0..1024 {
            let Some(ev) = self.hub.try_event() else {
                break;
            };
            progress = true;
            match ev {
                HubEvent::Msg(envl) => {
                    self.monitor.heard(envl.src, self.tick());
                    if let Some(t) = &self.tracer {
                        t.record(EventKind::Recv, envl.src as u64, envl.msg.size_bytes());
                    }
                    self.take(envl.src, envl.msg);
                }
                HubEvent::Down { rank, error } => {
                    // A rank already declared dead (or cleanly exited
                    // after Exit) needs nothing more.
                    if !self.monitor.is_dead(rank) {
                        self.declare_dead(rank, Some(error));
                    }
                }
                HubEvent::Result { .. } => {}
            }
        }
        progress
    }

    /// Take one message from shard `src`.
    fn take(&mut self, src: usize, msg: ServeMsg) {
        match msg {
            ServeMsg::Ack { id, reply } => {
                // A duplicate ack (original chain + retry both
                // completing) finds no pending entry and is dropped:
                // acked exactly once.
                if let Some(p) = self.pending.remove(&id) {
                    self.acked.push((id, p.op));
                    self.acked_ctr.inc();
                    if let Some(client) = self.clients.get_mut(&p.conn) {
                        client.fill(id, reply.into());
                    }
                }
            }
            ServeMsg::Pong => {}
            ServeMsg::Entry { key, val, ver } => {
                let prev = self.state.insert(key, (val, ver));
                assert!(prev.is_none(), "two shards reported the same key");
            }
            ServeMsg::Done { .. } => self.done_from.push(src),
            other => panic!("serve front end: unexpected {other:?}"),
        }
    }

    /// Ping on a cadence, expire the silent.
    fn heartbeats(&mut self) {
        let tick = self.tick();
        if tick <= self.last_ping_tick || self.stop_sent {
            return;
        }
        self.last_ping_tick = tick;
        for r in self.monitor.alive() {
            self.send(r, ServeMsg::Ping);
        }
        for r in self.monitor.expired(tick) {
            self.hb_timeouts.inc();
            self.declare_dead(r, None);
        }
    }

    /// Mark a shard dead: count the promotion, shrink the ring, tell the
    /// survivors to rebalance, and re-send every unacknowledged op that
    /// involved the dead rank — in id order — to its new chain.
    fn declare_dead(&mut self, rank: usize, error: Option<TransportError>) {
        // Claim the death inside the hub first: if this verdict came
        // from the heartbeat detector, the socket-level EOF that follows
        // for the same crash is suppressed at the source and can never
        // reach the promotion logic as a second Down.
        self.hub.report_dead(rank);
        self.monitor.mark_dead(rank);
        self.dead.push(DeadShard { rank, error });
        let survivors = self.monitor.alive();
        assert!(
            !survivors.is_empty(),
            "every shard died; nothing left to serve"
        );
        // The dead rank fronted part of the ring; its backups take over.
        self.promotions.inc();
        self.ring.remove_node((rank - 1) as u64);
        for r in survivors {
            self.send(r, ServeMsg::Reconfig { dead: rank as u32 });
        }
        // Re-send unacked ops whose chain included the dead rank. Id
        // order preserves per-key apply order at the new primary;
        // shard-side memoization absorbs ops the survivors already
        // applied.
        let affected: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.primary == rank || p.backup == rank as u32)
            .map(|(&id, _)| id)
            .collect();
        for id in affected {
            self.retries += 1;
            self.retries_ctr.inc();
            self.dispatch(id);
        }
    }

    /// Queue each client's `Ready` reply prefix, in request order, and
    /// flush; drop closed and failed connections.
    fn write_clients(&mut self) -> bool {
        let mut progress = false;
        for client in self.clients.values_mut() {
            if client.dead {
                continue;
            }
            while let Some(Slot::Ready(_)) = client.replies.front() {
                let Some(Slot::Ready(reply)) = client.replies.pop_front() else {
                    unreachable!()
                };
                let mut line = reply.render();
                line.push('\n');
                client.conn.queue(line.as_bytes());
                progress = true;
            }
            // Any flush error, WriteZero included, is a dead connection;
            // so is a client that never reads its replies.
            if client.conn.queued_bytes() > MAX_WBUF || client.conn.flush().is_err() {
                client.fail(&self.conn_errors, self.shutting_down);
                client.dead = true;
            } else if client.closing && client.replies.is_empty() && !client.conn.wants_write() {
                client.dead = true;
                progress = true;
            }
        }
        let hub = &self.hub;
        self.clients.retain(|&cid, c| {
            if c.dead {
                hub.deregister_client(cid);
            }
            !c.dead
        });
        progress
    }

    /// Drain/stop sequencing. True once every survivor has reported its
    /// state and been told to exit.
    fn drained(&mut self) -> bool {
        if self.shutting_down
            && !self.stop_sent
            && self.pending.is_empty()
            && self.clients.is_empty()
        {
            for r in self.monitor.alive() {
                self.send(r, ServeMsg::Stop);
            }
            self.stop_sent = true;
        }
        if !self.stop_sent || self.done_from.len() != self.monitor.alive().len() {
            return false;
        }
        // Every survivor reported. Exit after all reports so any
        // cross-shard Syncs have landed (see ServeMsg::Exit).
        for r in self.monitor.alive() {
            self.send(r, ServeMsg::Exit);
        }
        true
    }

    /// Tear the world down and collect the outcome.
    fn outcome(self) -> ServeOutcome {
        let hub_forwarded = self.hub.forwarded();
        let statuses = self.hub.shutdown();
        for (rank, status) in statuses.iter().enumerate().skip(1) {
            if !self.dead.iter().any(|d| d.rank == rank) {
                let status = status.expect("survivor status");
                assert!(status.success(), "surviving shard {rank} exited {status}");
            }
        }
        let session = &self.session;
        let trace = self.trace_dir.as_ref().map(|dir| {
            let mut parts = Vec::new();
            // The front end's own slice is process 0.
            let fe_json = session.to_json_with_meta(&[("process", "0".to_string())]);
            parts.push(merge::parse_trace(&fe_json, 0).expect("parse front-end trace"));
            for rank in 1..=self.shards {
                let path = dir.join(format!("rank{rank}.trace.json"));
                // A killed shard never wrote its snapshot; skip it.
                let Ok(text) = std::fs::read_to_string(&path) else {
                    continue;
                };
                parts.push(
                    merge::parse_trace(&text, rank as u32)
                        .unwrap_or_else(|e| panic!("parse {}: {e}", path.display())),
                );
            }
            MergedTrace::merge(parts)
        });
        ServeOutcome {
            state: self.state.into_iter().collect(),
            acked: self.acked,
            promotions: session.snapshot().get("serve.promotions"),
            retries: self.retries,
            dead: self.dead,
            conn_errors: session.snapshot().get("kv.conn_errors"),
            hub_forwarded,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::apply_script;
    use pdc_mpi::kv::MAX_LINE;
    use pdc_mpi::kv_tcp::TcpKvClient;
    use pdc_mpi::WireWorld;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn serve_msgs_roundtrip_the_wire_codec() {
        let msgs = vec![
            ServeMsg::Op {
                id: 9,
                op: ShardOp::Put {
                    key: "k".into(),
                    val: "v".into(),
                },
                backup: 2,
            },
            ServeMsg::Fwd {
                id: 9,
                cmd: ApplyCmd::Set {
                    key: "k".into(),
                    val: "v".into(),
                    ver: 3,
                },
                reply: Reply::PutOk(3),
            },
            ServeMsg::Ack {
                id: 9,
                reply: Reply::Got(Some(("v".into(), 3))),
            },
            ServeMsg::Ping,
            ServeMsg::Pong,
            ServeMsg::Reconfig { dead: 1 },
            ServeMsg::Sync {
                key: "k".into(),
                val: "v".into(),
                ver: 3,
            },
            ServeMsg::Stop,
            ServeMsg::Entry {
                key: "k".into(),
                val: "v".into(),
                ver: 3,
            },
            ServeMsg::Done { ops: 17 },
            ServeMsg::Exit,
            ServeMsg::Fwd {
                id: 1,
                cmd: ApplyCmd::Del { key: "x".into() },
                reply: Reply::DelMiss,
            },
            ServeMsg::Ack {
                id: 1,
                reply: Reply::Got(None),
            },
        ];
        let bytes = msgs.to_bytes();
        assert_eq!(Vec::<ServeMsg>::from_bytes(&bytes), Some(msgs));
    }

    #[test]
    fn replies_render_the_kv_tcp_protocol() {
        assert_eq!(Reply::PutOk(4).render(), "OK 4");
        assert_eq!(Reply::DelOk.render(), "OK 0");
        assert_eq!(Reply::DelMiss.render(), "NOTFOUND");
        assert_eq!(Reply::Got(Some(("v".into(), 2))).render(), "VALUE 2 v");
        assert_eq!(Reply::Got(None).render(), "NOTFOUND");
    }

    /// End-to-end in miniature: serve live clients over 3 shard
    /// processes, kill one mid-traffic, and verify no acked write is
    /// lost and the death was observed as a TransportError.
    #[test]
    fn serving_survives_a_shard_kill_without_losing_acked_writes() {
        let path = "serve::tests::serving_survives_a_shard_kill_without_losing_acked_writes";
        if WireWorld::child_world_id().as_deref() == Some(path) {
            run_shard_child();
        }
        let dir = std::env::temp_dir().join(format!("pdc-serve-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let session = TraceSession::with_capacity(1 << 17);
        let opts = ServeOptions::new(3, WireOptions::for_test(3, path).traced(&dir));
        let handle = start(opts, &session).expect("start serve");

        let mut c = TcpKvClient::connect(handle.addr()).expect("connect");
        // Phase 1: writes across enough keys to touch every shard.
        for i in 0..60 {
            let r = c.call(&format!("PUT k{i} a{i}")).expect("put");
            assert_eq!(r, "OK 1");
        }
        // Kill rank 1 mid-run, then keep operating on every key.
        handle.kill_shard(1);
        for i in 0..60 {
            let r = c.call(&format!("PUT k{i} b{i}")).expect("put after kill");
            assert_eq!(r, "OK 2", "version preserved across failover (k{i})");
        }
        for i in 0..10 {
            let r = c.call(&format!("GET k{i}")).expect("get");
            assert_eq!(r, format!("VALUE 2 b{i}"));
        }
        assert_eq!(c.call("DEL k0").expect("del"), "OK 0");
        assert_eq!(c.call("GET k0").expect("get"), "NOTFOUND");
        assert_eq!(c.call("QUIT").expect("quit"), "BYE");
        let outcome = handle.finish();

        // The acked ops replayed on one node reproduce the final state.
        let ops: Vec<ShardOp> = outcome.acked.iter().map(|(_, op)| op.clone()).collect();
        assert_eq!(outcome.state, apply_script(&ops), "zero lost acked writes");
        assert_eq!(outcome.acked.len(), 60 + 60 + 10 + 1 + 1);
        assert_eq!(outcome.promotions, 1);
        assert_eq!(outcome.conn_errors, 0);
        assert_eq!(
            outcome.hub_forwarded, 0,
            "mesh chain traffic (Fwd/Sync) must never relay through the hub"
        );
        assert_eq!(outcome.dead.len(), 1);
        assert_eq!(outcome.dead[0].rank, 1);
        assert_eq!(
            outcome.dead[0].error,
            Some(TransportError::PeerClosed),
            "the death surfaced through the transport error path"
        );
        let trace = outcome.trace.expect("traced run");
        // Front end + 2 survivors (the killed shard never snapshots).
        assert_eq!(trace.processes.len(), 3);
        assert!(
            trace.counter("serve.rebalanced_keys") > 0,
            "ring rebalanced"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The detector-vs-socket race: freeze a shard so only the
    /// heartbeat can see the death, let it promote, then SIGKILL the
    /// frozen process so the socket-level death fires for the same
    /// crash. Exactly one promotion may happen.
    #[test]
    fn overlapping_death_signals_promote_exactly_once() {
        let path = "serve::tests::overlapping_death_signals_promote_exactly_once";
        if WireWorld::child_world_id().as_deref() == Some(path) {
            run_shard_child();
        }
        let session = TraceSession::new();
        let opts = ServeOptions::new(3, WireOptions::for_test(3, path));
        let hb = opts.hb_interval;
        let timeout = opts.hb_timeout;
        let handle = start(opts, &session).expect("start serve");

        let mut c = TcpKvClient::connect(handle.addr()).expect("connect");
        for i in 0..30 {
            let r = c.call(&format!("PUT k{i} a{i}")).expect("put");
            assert_eq!(r, "OK 1");
        }
        // Freeze rank 1: sockets stay open, so the heartbeat detector
        // is the only path to a verdict. Wait past the expiry window.
        handle.pause_shard(1);
        std::thread::sleep(hb * (timeout as u32 + 10));
        // Now the socket-level signal for the same crash.
        handle.kill_shard(1);
        // Traffic still flows on the shrunk ring.
        for i in 0..30 {
            let r = c.call(&format!("PUT k{i} b{i}")).expect("put after death");
            assert_eq!(r, "OK 2", "version preserved across failover (k{i})");
        }
        assert_eq!(c.call("QUIT").expect("quit"), "BYE");
        let outcome = handle.finish();

        let ops: Vec<ShardOp> = outcome.acked.iter().map(|(_, op)| op.clone()).collect();
        assert_eq!(outcome.state, apply_script(&ops), "zero lost acked writes");
        assert_eq!(
            outcome.promotions, 1,
            "two death signals for one crash promoted twice"
        );
        assert_eq!(outcome.dead.len(), 1, "one death, one verdict");
        assert_eq!(outcome.dead[0].rank, 1);
        assert_eq!(
            outcome.dead[0].error, None,
            "the heartbeat verdict won the race (no transport error involved)"
        );
    }

    /// A 2-shard world for the test at `path`, publishing into a fresh
    /// session. Shard children re-run the test and never return.
    fn world(path: &str) -> (ServeHandle, TraceSession) {
        if WireWorld::child_world_id().as_deref() == Some(path) {
            run_shard_child();
        }
        let session = TraceSession::new();
        let opts = ServeOptions::new(2, WireOptions::for_test(2, path));
        (start(opts, &session).expect("start serve"), session)
    }

    /// Wait until `kv.conn_errors` is nonzero, then return it.
    fn counted_errors(session: &TraceSession) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(5);
        while session.snapshot().get("kv.conn_errors") == 0 {
            assert!(
                Instant::now() < deadline,
                "kv.conn_errors never incremented"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        session.snapshot().get("kv.conn_errors")
    }

    /// Read reply lines until the front end closes the connection.
    fn read_replies(s: TcpStream) -> Vec<String> {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut r = BufReader::new(s);
        let mut replies = Vec::new();
        let mut l = String::new();
        loop {
            l.clear();
            match r.read_line(&mut l) {
                Ok(0) => return replies,
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return replies,
                Err(e) => panic!("connection left open after {replies:?}: {e}"),
                Ok(_) => replies.push(l.trim_end().to_string()),
            }
        }
    }

    #[test]
    fn put_values_keep_their_spaces() {
        let (handle, _) = world("serve::tests::put_values_keep_their_spaces");
        let mut c = TcpKvClient::connect(handle.addr()).unwrap();
        assert_eq!(c.call("PUT k a b").unwrap(), "OK 1");
        assert_eq!(c.call("GET k").unwrap(), "VALUE 1 a b");
        assert_eq!(c.call("PUT k2 a  b").unwrap(), "OK 1");
        assert_eq!(c.call("GET k2").unwrap(), "VALUE 1 a  b");
        drop(c);
        handle.finish();
    }

    #[test]
    fn overlong_line_split_across_writes_is_rejected() {
        let (handle, session) =
            world("serve::tests::overlong_line_split_across_writes_is_rejected");
        // A 6 009-byte PUT in two writes: neither half alone exceeds
        // MAX_LINE, the line does.
        let line = format!("PUT big {}\n", "x".repeat(6000));
        assert_eq!(line.len(), 6009);
        let s = TcpStream::connect(handle.addr()).unwrap();
        let (a, b) = line.as_bytes().split_at(line.len() / 2);
        (&s).write_all(a).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // The front end may already have closed: a failed second write
        // is fine, the reply is what matters.
        let _ = (&s).write_all(b);
        assert_eq!(read_replies(s), ["ERR too-long"], "one reply, then closed");
        assert_eq!(counted_errors(&session), 1);
        let mut c = TcpKvClient::connect(handle.addr()).unwrap();
        assert_eq!(c.call("GET big").unwrap(), "NOTFOUND", "never executed");
        drop(c);
        assert_eq!(handle.finish().conn_errors, 1);
    }

    #[test]
    fn pipelined_requests_in_one_write_reply_in_order() {
        // Three requests in a single syscall: the front end must split
        // lines itself, and replies from different shards must still go
        // out in request order.
        let (handle, _) = world("serve::tests::pipelined_requests_in_one_write_reply_in_order");
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"PUT a 1\nPUT b 2\nGET a\n").unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut l = String::new();
            r.read_line(&mut l).unwrap();
            lines.push(l.trim_end().to_string());
        }
        assert_eq!(lines, ["OK 1", "OK 1", "VALUE 1 1"]);
        drop((s, r));
        handle.finish();
    }

    #[test]
    fn quit_drops_pipelined_suffix() {
        let (handle, session) = world("serve::tests::quit_drops_pipelined_suffix");
        let s = TcpStream::connect(handle.addr()).unwrap();
        (&s).write_all(b"PUT a 1\nQUIT\nPUT b 2\n").unwrap();
        assert_eq!(read_replies(s), ["OK 1", "BYE"]);
        let mut c = TcpKvClient::connect(handle.addr()).unwrap();
        assert_eq!(c.call("GET a").unwrap(), "VALUE 1 1", "prefix executed");
        assert_eq!(c.call("GET b").unwrap(), "NOTFOUND", "suffix dropped");
        assert_eq!(
            session.snapshot().get("kv.conn_errors"),
            0,
            "a clean QUIT is not a conn error"
        );
        drop(c);
        handle.finish();
    }

    #[test]
    fn overlong_line_rejected_not_buffered() {
        let (handle, session) = world("serve::tests::overlong_line_rejected_not_buffered");
        let s = TcpStream::connect(handle.addr()).unwrap();
        (&s).write_all(&vec![b'A'; MAX_LINE]).unwrap();
        assert_eq!(read_replies(s), ["ERR too-long"]);
        assert_eq!(counted_errors(&session), 1);
        let mut c = TcpKvClient::connect(handle.addr()).unwrap();
        assert_eq!(c.call("PUT ok 1").unwrap(), "OK 1");
        drop(c);
        handle.finish();
    }

    #[test]
    fn mid_request_disconnect_is_survived_and_counted() {
        let (handle, session) =
            world("serve::tests::mid_request_disconnect_is_survived_and_counted");
        let mut c = TcpKvClient::connect(handle.addr()).unwrap();
        assert_eq!(c.call("PUT victim alive").unwrap(), "OK 1");
        {
            let mut bad = TcpStream::connect(handle.addr()).unwrap();
            bad.write_all(b"DEL victim").unwrap();
            // Drop: EOF with half a request buffered.
        }
        assert_eq!(counted_errors(&session), 1);
        assert_eq!(c.call("GET victim").unwrap(), "VALUE 1 alive");
        drop(c);
        assert_eq!(handle.finish().conn_errors, 1);
    }

    #[test]
    fn finish_mid_traffic_counts_no_spurious_errors() {
        // finish() drains: it keeps serving until every client has left.
        // Nothing about that, nor the clients leaving, is a conn error.
        let (handle, _) = world("serve::tests::finish_mid_traffic_counts_no_spurious_errors");
        let addr = handle.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let clients: Vec<_> = (0..4)
            .map(|i| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut c = TcpKvClient::connect(addr).unwrap();
                    let mut j = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        j += 1;
                        let r = c.call(&format!("PUT k{i} v{j}")).unwrap();
                        assert_eq!(r, format!("OK {j}"));
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        let finish = std::thread::spawn(move || handle.finish());
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::SeqCst);
        for c in clients {
            c.join().unwrap();
        }
        let outcome = finish.join().unwrap();
        assert_eq!(
            outcome.conn_errors, 0,
            "shutdown fabricated connection errors"
        );
        let ops: Vec<ShardOp> = outcome.acked.iter().map(|(_, op)| op.clone()).collect();
        assert_eq!(outcome.state, apply_script(&ops), "zero lost acked writes");
    }
}
