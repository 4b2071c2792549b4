//! Byte-replayable trace artifacts.
//!
//! An artifact pins *one endpoint* of a run: every application operation
//! and every received frame, each with its simulated timestamp, plus the
//! transmissions the endpoint produced. [`replay`] rebuilds a fresh stack
//! of the same kind, feeds it the recorded inputs at the recorded times
//! (firing its own deadlines in between, exactly like the simulator's
//! `StackNode` pump), and compares its transmissions byte-for-byte and
//! time-for-time against the recording — proving the endpoint is a pure
//! function of its sans-IO inputs and making any divergence portable as a
//! single text file.

use crate::driver::{
    AppOp, BugStack, ConformStack, EndpointOut, Mutation, RunOut, A_ADDR, B_ADDR,
    CLIENT_PORT, SERVER_PORT,
};
use crate::scenario::Side;
use crate::wire::Kind;
use netsim::{Dur, Stack, TapDir, Time};
use slwire::{Endpoint, FourTuple};
use sublayer_core::SlTcpStack;
use tcp_mono::TcpStack;

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn unhex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd hex length".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| e.to_string()))
        .collect()
}

/// Render one endpoint of a run as a self-contained replayable artifact.
pub fn render(scenario: &str, run: &RunOut, side: Side, mutation: Mutation) -> String {
    let ep: &EndpointOut = match side {
        Side::Client => &run.client,
        Side::Server => &run.server,
    };
    let mut out = String::new();
    out.push_str("slconform-trace v1\n");
    out.push_str(&format!("scenario {scenario}\n"));
    out.push_str(&format!("seed {}\n", run.seed));
    out.push_str(&format!("kind {}\n", run.kind.label()));
    out.push_str(&format!("side {}\n", side.label()));
    let mut_str = match mutation {
        Mutation::None => "none".to_string(),
        Mutation::AckFuture { delta } => format!("ack_future:{delta}"),
        Mutation::DropPureAcks => "drop_pure_acks".to_string(),
    };
    out.push_str(&format!("mutation {mut_str}\n"));
    for (at, op) in &ep.app {
        let line = match op {
            AppOp::Listen => "listen".to_string(),
            AppOp::Connect => "connect".to_string(),
            AppOp::Send(b) => format!("send {}", hex(b)),
            AppOp::Recv => "recv".to_string(),
            AppOp::Close => "close".to_string(),
            AppOp::Abort => "abort".to_string(),
            AppOp::Inject(b) => format!("inject {}", hex(b)),
        };
        out.push_str(&format!("app {at} {line}\n"));
    }
    for ev in &ep.raw {
        let tag = match ev.dir {
            TapDir::Rx => "rx",
            TapDir::Tx => "tx",
        };
        out.push_str(&format!("{tag} {} {}\n", ev.at.nanos(), hex(&ev.bytes)));
    }
    out
}

/// One parsed input or expectation from an artifact.
enum Item {
    App(AppOp),
    Rx(Vec<u8>),
}

struct Parsed {
    kind: Kind,
    side: Side,
    mutation: Mutation,
    /// Inputs in delivery order: `(at_ns, item)`.
    inputs: Vec<(u64, Item)>,
    /// Expected transmissions: `(at_ns, frame)`.
    expect_tx: Vec<(u64, Vec<u8>)>,
}

fn parse(text: &str) -> Result<Parsed, String> {
    let mut lines = text.lines();
    if lines.next() != Some("slconform-trace v1") {
        return Err("bad header".into());
    }
    let mut kind = None;
    let mut side = None;
    let mut mutation = Mutation::None;
    let mut inputs: Vec<(u64, Item)> = Vec::new();
    let mut expect_tx = Vec::new();
    for line in lines {
        let mut parts = line.splitn(3, ' ');
        let tag = parts.next().unwrap_or("");
        match tag {
            "scenario" | "seed" => {}
            "kind" => {
                kind = match parts.next() {
                    Some("sub") => Some(Kind::Sub),
                    Some("mono") => Some(Kind::Mono),
                    other => return Err(format!("bad kind {other:?}")),
                }
            }
            "side" => {
                side = match parts.next() {
                    Some("client") => Some(Side::Client),
                    Some("server") => Some(Side::Server),
                    other => return Err(format!("bad side {other:?}")),
                }
            }
            "mutation" => {
                let m = parts.next().unwrap_or("none");
                mutation = if m == "none" {
                    Mutation::None
                } else if m == "drop_pure_acks" {
                    Mutation::DropPureAcks
                } else if let Some(d) = m.strip_prefix("ack_future:") {
                    Mutation::AckFuture { delta: d.parse().map_err(|_| "bad delta")? }
                } else {
                    return Err(format!("bad mutation {m}"));
                };
            }
            "app" => {
                let at: u64 =
                    parts.next().ok_or("missing time")?.parse().map_err(|_| "bad time")?;
                let rest = parts.next().ok_or("missing op")?;
                let mut op_parts = rest.splitn(2, ' ');
                let op = match (op_parts.next().unwrap_or(""), op_parts.next()) {
                    ("listen", _) => AppOp::Listen,
                    ("connect", _) => AppOp::Connect,
                    ("send", Some(h)) => AppOp::Send(unhex(h)?),
                    ("recv", _) => AppOp::Recv,
                    ("close", _) => AppOp::Close,
                    ("abort", _) => AppOp::Abort,
                    ("inject", Some(h)) => AppOp::Inject(unhex(h)?),
                    (o, _) => return Err(format!("bad app op {o}")),
                };
                inputs.push((at, Item::App(op)));
            }
            "rx" => {
                let at: u64 =
                    parts.next().ok_or("missing time")?.parse().map_err(|_| "bad time")?;
                inputs.push((at, Item::Rx(unhex(parts.next().ok_or("missing frame")?)?)));
            }
            "tx" => {
                let at: u64 =
                    parts.next().ok_or("missing time")?.parse().map_err(|_| "bad time")?;
                expect_tx.push((at, unhex(parts.next().ok_or("missing frame")?)?));
            }
            "" => {}
            other => return Err(format!("bad line tag {other}")),
        }
    }
    // Inputs must be replayed in global capture order: rx frames were
    // delivered by the simulator before same-instant app ops ran.
    inputs.sort_by_key(|(at, item)| (*at, matches!(item, Item::App(_)) as u8));
    Ok(Parsed {
        kind: kind.ok_or("missing kind")?,
        side: side.ok_or("missing side")?,
        mutation,
        inputs,
        expect_tx,
    })
}

fn t_ns(ns: u64) -> Time {
    Time::ZERO + Dur::from_nanos(ns)
}

/// Replay an artifact against a fresh stack; returns the number of
/// transmissions matched, or a description of the first mismatch.
pub fn replay(text: &str) -> Result<usize, String> {
    let parsed = parse(text)?;
    match parsed.kind {
        Kind::Sub => replay_as::<SlTcpStack>(&parsed),
        Kind::Mono => replay_as::<TcpStack>(&parsed),
    }
}

fn replay_as<H: ConformStack>(parsed: &Parsed) -> Result<usize, String> {
    let (addr, local_port, remote) = match parsed.side {
        Side::Client => (A_ADDR, CLIENT_PORT, Endpoint::new(B_ADDR, SERVER_PORT)),
        Side::Server => (B_ADDR, SERVER_PORT, Endpoint::new(A_ADDR, CLIENT_PORT)),
    };
    let local = Endpoint::new(addr, local_port);
    let tuple = FourTuple { local, remote };
    let mut stack = BugStack::new(H::mk(addr), parsed.kind, parsed.mutation);
    let mut conn: Option<<H as slhost::HostStack>::ConnId> = None;
    let mut got_tx: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut now = Time::ZERO;

    // Mirror of `StackNode::pump` + the timer loop: drain transmissions,
    // then fire every due deadline before advancing past it.
    fn drain<S: Stack>(stack: &mut S, now: Time, got: &mut Vec<(u64, Vec<u8>)>) {
        while let Some(frame) = stack.poll_transmit(now) {
            got.push((now.nanos(), frame));
        }
    }

    for (at, item) in &parsed.inputs {
        let target = t_ns(*at);
        // Fire deadlines strictly before the next input's instant.
        while let Some(d) = stack.poll_deadline(now) {
            let d = d.max(now);
            if d >= target {
                break;
            }
            now = d;
            stack.on_tick(now);
            drain(&mut stack, now, &mut got_tx);
        }
        now = target.max(now);
        match item {
            Item::Rx(frame) => {
                stack.on_frame(now, frame);
            }
            Item::App(op) => {
                if conn.is_none() {
                    conn = stack.inner.conn_for_tuple(&tuple);
                }
                match op {
                    AppOp::Listen => stack.inner.listen(local_port),
                    AppOp::Connect => {
                        conn = stack.inner.try_connect(now, local_port, remote).ok();
                    }
                    AppOp::Send(bytes) => {
                        if let Some(id) = conn {
                            stack.inner.send(id, bytes);
                        }
                    }
                    AppOp::Recv => {
                        if let Some(id) = conn {
                            stack.inner.recv(id);
                        }
                    }
                    AppOp::Close => {
                        if let Some(id) = conn {
                            stack.inner.close(id);
                        }
                    }
                    AppOp::Abort => {
                        if let Some(id) = conn {
                            stack.inner.abort(now, id);
                        }
                    }
                    // The forged frame is already present in the rx
                    // stream (the tap recorded its delivery); feeding it
                    // here again would double it.
                    AppOp::Inject(_) => {}
                }
            }
        }
        drain(&mut stack, now, &mut got_tx);
    }
    // Run out the clock to the last expected transmission.
    if let Some(last) = parsed.expect_tx.last().map(|(at, _)| *at) {
        let end = t_ns(last);
        while let Some(d) = stack.poll_deadline(now) {
            let d = d.max(now);
            if d > end {
                break;
            }
            now = d;
            stack.on_tick(now);
            drain(&mut stack, now, &mut got_tx);
        }
    }

    for (i, want) in parsed.expect_tx.iter().enumerate() {
        match got_tx.get(i) {
            None => {
                return Err(format!(
                    "replay produced {} transmissions, recording has {} (first missing at {}ns)",
                    got_tx.len(),
                    parsed.expect_tx.len(),
                    want.0
                ))
            }
            Some(got) if got != want => {
                return Err(format!(
                    "transmission {i} differs: recorded {}ns {} bytes, replayed {}ns {} bytes",
                    want.0,
                    want.1.len(),
                    got.0,
                    got.1.len()
                ))
            }
            Some(_) => {}
        }
    }
    if got_tx.len() > parsed.expect_tx.len() {
        return Err(format!(
            "replay produced {} extra transmissions past the recorded {}",
            got_tx.len() - parsed.expect_tx.len(),
            parsed.expect_tx.len()
        ));
    }
    Ok(got_tx.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_kind;
    use crate::scenario::corpus;

    #[test]
    fn roundtrip_hex() {
        let b = vec![0x00, 0x5b, 0xff, 0x10];
        assert_eq!(unhex(&hex(&b)).unwrap(), b);
    }

    #[test]
    fn replay_matches_recording_byte_for_byte() {
        let all = corpus();
        for name in ["handshake_client_close", "data_c2s_small", "rst_in_window_client"] {
            let sc = all.iter().find(|s| s.name == name).unwrap();
            for kind in [Kind::Sub, Kind::Mono] {
                let run = run_kind(kind, sc, 1, Mutation::None);
                for side in [Side::Client, Side::Server] {
                    let art = render(sc.name, &run, side, Mutation::None);
                    let n = replay(&art).unwrap_or_else(|e| {
                        panic!("{name} {} {}: {e}", kind.label(), side.label())
                    });
                    assert!(n > 0, "{name}: no transmissions replayed");
                }
            }
        }
    }

    #[test]
    fn mutated_run_replays_with_its_mutation() {
        let sc = corpus().into_iter().find(|s| s.name == "data_c2s_small").unwrap();
        let m = Mutation::AckFuture { delta: 7 };
        let run = run_kind(Kind::Sub, &sc, 1, m);
        let art = render(sc.name, &run, Side::Client, m);
        replay(&art).expect("mutated replay must still be deterministic");
    }
}
