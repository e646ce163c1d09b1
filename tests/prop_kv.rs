//! Property tests of the KV protocol core (`pdc::mpi::kv`): every server
//! that speaks the line protocol answers a random script byte-for-byte
//! like the pure codec + apply model, however the script's bytes are
//! split across writes; and the framer and parser are total over
//! arbitrary bytes.

use pdc::core::rng::Rng;
use pdc::core::trace::TraceSession;
use pdc::db::serve::{self, ServeOptions};
use pdc::db::sharded::{apply_script, ShardOp};
use pdc::mpi::kv::{execute, frame, Frame, Reply, Request, Store, MAX_LINE};
use pdc::mpi::kv_tcp::TcpKvServer;
use pdc::mpi::{WireOptions, WireWorld};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Scripts per run of the cross-server test.
const CASES: u64 = 48;

/// One random request line (with its `\n`) over the case's keys:
/// mostly GET/PUT/DEL, with values holding single and double spaces or
/// a non-UTF-8 byte, plus empty, malformed and (rarely) QUIT lines.
fn random_line(rng: &mut Rng, case: u64) -> Vec<u8> {
    let key = format!("c{case}k{}", rng.gen_range(4));
    let val: Vec<u8> = match rng.gen_range(5) {
        0 => b"a b".to_vec(),
        1 => b"a  b".to_vec(),
        2 => b"x\xffy".to_vec(),
        _ => format!("v{}", rng.gen_range(100)).into_bytes(),
    };
    let mut line: Vec<u8> = match rng.gen_range(16) {
        0..=3 => format!("GET {key}").into_bytes(),
        4..=8 => [format!("PUT {key} ").as_bytes(), &val].concat(),
        9..=10 => format!("DEL {key}").into_bytes(),
        11 => Vec::new(),
        12 => b"FROB x".to_vec(),
        13 => ["GET", "PUT k", "DEL", "QUIT now"][rng.gen_range(4) as usize].into(),
        14 => format!("  GET {key} extra\r").into_bytes(),
        _ if rng.chance(0.3) => b"QUIT".to_vec(),
        _ => format!("put {key} lower").into_bytes(),
    };
    line.push(b'\n');
    line
}

/// A script of up to 30 lines that always ends in QUIT, so every server
/// closes the connection when it is done.
fn random_script(rng: &mut Rng, case: u64) -> Vec<u8> {
    let mut script: Vec<u8> = (0..rng.gen_range(30))
        .flat_map(|_| random_line(rng, case))
        .collect();
    script.extend_from_slice(b"QUIT\n");
    script
}

/// The reply stream the protocol core itself produces for `script` on
/// a fresh store: frame, parse, execute, render, up to QUIT.
fn model(script: &[u8]) -> Vec<u8> {
    let mut store = Store::new();
    let mut out = Vec::new();
    let mut rest = script;
    while let Frame::Line(line) = frame(rest) {
        rest = &rest[line.len() + 1..];
        let req = Request::parse(line);
        let reply = req
            .as_ref()
            .map_or_else(Reply::clone, |r| execute(&mut store, r));
        out.extend_from_slice(reply.render().as_bytes());
        out.push(b'\n');
        if req == Ok(Request::Quit) {
            break;
        }
    }
    out
}

/// Send `script` to `addr` as separate writes cut at `cuts`, and read
/// every reply byte until the server closes the connection.
fn run_script(addr: SocketAddr, script: &[u8], cuts: &[usize]) -> Vec<u8> {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).ok();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut from = 0;
    for &to in cuts.iter().chain([&script.len()]) {
        // After QUIT the server may close before the rest is written.
        if (&s).write_all(&script[from..to]).is_err() {
            break;
        }
        from = to;
        std::thread::sleep(Duration::from_micros(300));
    }
    let mut out = Vec::new();
    let _ = (&s).read_to_end(&mut out);
    out
}

#[test]
fn cross_server_reply_streams_agree() {
    let path = "cross_server_reply_streams_agree";
    if WireWorld::child_world_id().as_deref() == Some(path) {
        serve::run_shard_child();
    }
    let tcp = TcpKvServer::start().expect("start TcpKvServer");
    let session = TraceSession::new();
    let opts = ServeOptions::new(2, WireOptions::for_test(2, path));
    let tier = serve::start(opts, &session).expect("start serve");
    let mut rng = Rng::new(0x6b76_7072);
    for case in 0..CASES {
        let script = random_script(&mut rng, case);
        let mut cuts: Vec<usize> = (0..rng.gen_range(8))
            .map(|_| rng.usize_in(0, script.len() + 1))
            .collect();
        cuts.sort_unstable();
        let want = model(&script);
        for (name, addr) in [("TcpKvServer", tcp.addr()), ("serve", tier.addr())] {
            let got = run_script(addr, &script, &cuts);
            assert_eq!(
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&want),
                "case {case}: {name} on {:?} cut at {cuts:?}",
                String::from_utf8_lossy(&script)
            );
            assert_eq!(got, want, "case {case}: {name} bytes differ");
        }
    }
    assert_eq!(tcp.conn_errors(), 0);
    tcp.shutdown();
    let outcome = tier.finish();
    assert_eq!(outcome.conn_errors, 0);
    let ops: Vec<ShardOp> = outcome.acked.iter().map(|(_, op)| op.clone()).collect();
    assert_eq!(outcome.state, apply_script(&ops), "zero lost acked writes");
}

/// What framing a stream yields, line by line.
#[derive(Debug, PartialEq)]
enum Framed {
    Line(Vec<u8>),
    TooLong,
}

/// Frame `bytes` as a connection would, receiving them in chunks that
/// end at `cuts`: after each chunk, take every complete line.
fn frame_stream(bytes: &[u8], cuts: &[usize]) -> Vec<Framed> {
    let mut framed = Vec::new();
    let mut buf = Vec::new();
    let mut from = 0;
    for &to in cuts.iter().chain([&bytes.len()]) {
        buf.extend_from_slice(&bytes[from..to]);
        from = to;
        loop {
            match frame(&buf) {
                Frame::Partial => break,
                Frame::TooLong => {
                    framed.push(Framed::TooLong);
                    return framed;
                }
                Frame::Line(line) => {
                    framed.push(Framed::Line(line.to_vec()));
                    buf.drain(..line.len() + 1);
                }
            }
        }
    }
    framed
}

/// Protocol-ish bytes: `\r`, spaces and command letters often, any
/// byte (non-UTF-8 included) otherwise.
const ALPHABET: &[u8] = b"\r  GETPUTDELQI0";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn framer_and_parser_are_total(
        picks in prop::collection::vec((0usize..24, any::<u8>()), 0..6000),
        gap in 1usize..6000,
        breaks in prop::collection::vec(0usize..6000, 0..4),
        cut_seed in any::<u64>(),
    ) {
        // Newlines only every `gap` bytes and at `breaks`: lines from
        // empty to far past MAX_LINE, or none at all.
        let mut bytes: Vec<u8> = picks
            .iter()
            .map(|&(class, raw)| ALPHABET.get(class).copied().unwrap_or(raw))
            .filter(|&b| b != b'\n')
            .collect();
        for (i, b) in bytes.iter_mut().enumerate() {
            if i % gap == gap - 1 || breaks.contains(&i) {
                *b = b'\n';
            }
        }
        let whole = frame_stream(&bytes, &[]);
        // The read boundaries never change what is framed.
        let mut rng = Rng::new(cut_seed);
        let mut cuts: Vec<usize> = (0..8).map(|_| rng.usize_in(0, bytes.len() + 1)).collect();
        cuts.sort_unstable();
        prop_assert_eq!(&frame_stream(&bytes, &cuts), &whole);
        let mut store = Store::new();
        let mut at = 0;
        for framed in &whole {
            let Framed::Line(line) = framed else {
                // Too long: MAX_LINE bytes from the line start, no newline.
                let rest = &bytes[at..];
                prop_assert!(rest.len() >= MAX_LINE && !rest[..MAX_LINE].contains(&b'\n'));
                break;
            };
            at += line.len() + 1;
            prop_assert!(line.len() < MAX_LINE && !line.contains(&b'\n'));
            let reply = match Request::parse(line) {
                Ok(req) => execute(&mut store, &req),
                Err(reply) => {
                    prop_assert!(matches!(reply, Reply::Err(_)), "{reply:?}");
                    reply
                }
            };
            prop_assert!(!reply.render().contains('\n'), "{reply:?}");
        }
    }
}
