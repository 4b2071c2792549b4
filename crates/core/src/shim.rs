//! The **shim sublayer** (§3.1): native Figure-6 header ↔ RFC 793.
//!
//! The translation itself is stateless and lives beside the two codecs
//! ([`slwire::shim`], re-exported here); [`ShimStack`] wraps an
//! [`SlTcpStack`] in it so the stack speaks RFC 793 on the wire, and
//! experiment E7 runs it against the monolithic `tcp-mono` stack in both
//! directions.

use crate::stack::SlTcpStack;
use netsim::{Stack, Time};
use slwire::native::Packet;
use slwire::rfc793::Segment;
use slwire::shim::to_rfc793_header;
use slwire::WireError;

pub use slwire::shim::{from_rfc793, to_rfc793};

/// A sublayered stack speaking RFC 793 on the wire via the shim.
pub struct ShimStack {
    /// The wrapped native stack; the application drives it directly.
    pub inner: SlTcpStack,
    /// Translation counters.
    pub translated_tx: u64,
    pub translated_rx: u64,
    pub untranslatable_rx: u64,
}

impl ShimStack {
    pub fn new(inner: SlTcpStack) -> ShimStack {
        ShimStack { inner, translated_tx: 0, translated_rx: 0, untranslatable_rx: 0 }
    }
}

/// An RFC 793 frame as the native frame it translates to. Both frames are
/// read in place: the header is translated, and the payload is copied
/// once, from the old frame into the new.
fn rfc793_to_native(frame: &[u8]) -> Result<Vec<u8>, WireError> {
    let (seg, payload) = Segment::decode_view(frame)?;
    Ok(from_rfc793(&seg).encode_with(payload))
}

/// A native frame as the RFC 793 frame it translates to, likewise in place.
fn native_to_rfc793(frame: &[u8]) -> Vec<u8> {
    let (pkt, payload) =
        Packet::decode_view(frame).expect("inner stack emits valid native packets");
    to_rfc793_header(&pkt, !payload.is_empty()).encode_parts(payload, &[])
}

impl Stack for ShimStack {
    fn on_frame(&mut self, now: Time, frame: &[u8]) {
        match rfc793_to_native(frame) {
            Ok(native) => {
                self.translated_rx += 1;
                self.inner.on_frame(now, &native);
            }
            Err(_) => self.untranslatable_rx += 1,
        }
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Vec<u8>> {
        let native = self.inner.poll_transmit(now)?;
        self.translated_tx += 1;
        Some(native_to_rfc793(&native))
    }

    fn poll_deadline(&self, now: Time) -> Option<Time> {
        self.inner.poll_deadline(now)
    }

    fn on_tick(&mut self, now: Time) {
        self.inner.on_tick(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dm::ConnId;
    use crate::stack::SlConfig;
    use netsim::{two_party, Dur, FaultProfile, HostStack, LinkParams, StackNode};
    use tcp_mono::stack::TcpStack;
    use slwire::Endpoint;
    use tcp_mono::TcpState;

    const A: u32 = 0x0A000001;
    const B: u32 = 0x0A000002;

    /// Full interop: sublayered client (via shim) <-> monolithic server.
    fn sub_client_mono_server(seed: u64, fault: FaultProfile) {
        let mut client =
            ShimStack::new(SlTcpStack::new(A, SlConfig::default(), slmetrics::shared()));
        let mut server = TcpStack::new(B, slmetrics::shared());
        server.listen(80);
        let conn = client.inner.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
        let params = LinkParams::delay_only(Dur::from_millis(5)).with_fault(fault);
        let (mut net, nc, ns) = two_party(seed, client, server, params);
        net.poll_all();
        net.run_for(Dur::from_secs(3));

        // Handshake completed on both sides.
        {
            let c = &net.node::<StackNode<ShimStack>>(nc).stack;
            assert_eq!(c.inner.state(conn), crate::cm::CmState::Established);
        }
        let sconn = net.node::<StackNode<TcpStack>>(ns).stack.established()[0];

        // Sublayered -> monolithic data.
        let up: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        net.node_mut::<StackNode<ShimStack>>(nc).stack.inner.send(conn, &up);
        // Monolithic -> sublayered data.
        let down: Vec<u8> = (0..15_000u32).map(|i| (i % 13) as u8).collect();
        net.node_mut::<StackNode<TcpStack>>(ns).stack.send(sconn, &down);
        net.poll_all();

        let mut got_up = Vec::new();
        let mut got_down = Vec::new();
        for _ in 0..120 {
            net.run_for(Dur::from_secs(1));
            got_up.extend(net.node_mut::<StackNode<TcpStack>>(ns).stack.recv(sconn));
            got_down
                .extend(net.node_mut::<StackNode<ShimStack>>(nc).stack.inner.recv(conn));
            net.poll_all();
            if got_up.len() >= up.len() && got_down.len() >= down.len() {
                break;
            }
        }
        assert_eq!(got_up, up, "sublayered->monolithic direction");
        assert_eq!(got_down, down, "monolithic->sublayered direction");

        // Close initiated from the sublayered side completes the TCP
        // close handshake on the monolithic side.
        net.node_mut::<StackNode<ShimStack>>(nc).stack.inner.close(conn);
        net.poll_all();
        net.run_for(Dur::from_secs(3));
        assert_eq!(
            net.node::<StackNode<TcpStack>>(ns).stack.state(sconn),
            TcpState::CloseWait,
            "monolithic server saw the translated FIN"
        );
        net.node_mut::<StackNode<TcpStack>>(ns).stack.close(sconn);
        net.poll_all();
        net.run_for(Dur::from_secs(3));
        assert_eq!(
            net.node::<StackNode<TcpStack>>(ns).stack.state(sconn),
            TcpState::Closed
        );
    }

    #[test]
    fn interop_sublayered_client_monolithic_server_clean() {
        sub_client_mono_server(1, FaultProfile::none());
    }

    #[test]
    fn interop_sublayered_client_monolithic_server_lossy() {
        sub_client_mono_server(2, FaultProfile::lossy(0.08));
    }

    /// Full interop: monolithic client <-> sublayered server (via shim).
    #[test]
    fn interop_monolithic_client_sublayered_server() {
        let mut client = TcpStack::new(A, slmetrics::shared());
        let mut server =
            ShimStack::new(SlTcpStack::new(B, SlConfig::default(), slmetrics::shared()));
        server.inner.listen(80);
        let conn = client.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
        let (mut net, nc, ns) = two_party(
            3,
            client,
            server,
            LinkParams::delay_only(Dur::from_millis(5)).with_fault(FaultProfile::lossy(0.05)),
        );
        net.poll_all();
        net.run_for(Dur::from_secs(3));
        assert_eq!(
            net.node::<StackNode<TcpStack>>(nc).stack.state(conn),
            TcpState::Established
        );
        let sconn: ConnId = net.node::<StackNode<ShimStack>>(ns).stack.inner.established()[0];

        let data: Vec<u8> = (0..25_000u32).map(|i| (i % 201) as u8).collect();
        net.node_mut::<StackNode<TcpStack>>(nc).stack.send(conn, &data);
        net.poll_all();
        let mut got = Vec::new();
        for _ in 0..120 {
            net.run_for(Dur::from_secs(1));
            got.extend(net.node_mut::<StackNode<ShimStack>>(ns).stack.inner.recv(sconn));
            net.poll_all();
            if got.len() >= data.len() {
                break;
            }
        }
        assert_eq!(got, data);
    }

    proptest::proptest! {
        #[test]
        fn in_place_translation_writes_the_frames_the_copying_one_does(
            flags in 0u8..16, isn: u32, ack_isn: u32, seq: u32, ack: u32, has_ack: bool,
            rcv_wnd: u16, src_port: u16, dst_port: u16,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..80),
        ) {
            let mut pkt = Packet { src_addr: A, dst_addr: B, ..Packet::default() };
            (pkt.dm.src_port, pkt.dm.dst_port) = (src_port, dst_port);
            pkt.cm.flags.syn = flags & 1 != 0;
            pkt.cm.flags.fin = flags & 2 != 0;
            pkt.cm.flags.rst = flags & 4 != 0;
            pkt.cm.flags.cm_ack = flags & 8 != 0;
            (pkt.cm.isn, pkt.cm.ack_isn) = (isn, ack_isn);
            (pkt.rd.seq, pkt.rd.ack, pkt.rd.has_ack) = (seq, ack, has_ack);
            pkt.osr.rcv_wnd = rcv_wnd;
            pkt.payload = payload.into();
            let native = pkt.encode();
            let rfc793 = native_to_rfc793(&native);
            let copied = to_rfc793(&Packet::decode(&native).unwrap()).encode();
            proptest::prop_assert_eq!(&rfc793, &copied);
            let back = from_rfc793(&Segment::decode(&rfc793).unwrap()).encode();
            proptest::prop_assert_eq!(rfc793_to_native(&rfc793), Ok(back));
        }
    }

    #[test]
    fn a_corrupt_frame_is_untranslatable_either_way() {
        let mut frame = to_rfc793(&Packet { src_addr: A, dst_addr: B, ..Packet::default() }).encode();
        frame[12] ^= 1;
        let err = Segment::decode(&frame).unwrap_err();
        assert_eq!(rfc793_to_native(&frame), Err(err));
    }

    #[test]
    fn shim_counts_translations() {
        let mut client =
            ShimStack::new(SlTcpStack::new(A, SlConfig::default(), slmetrics::shared()));
        let mut server = TcpStack::new(B, slmetrics::shared());
        server.listen(80);
        client.inner.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
        let (mut net, nc, _ns) =
            two_party(4, client, server, LinkParams::delay_only(Dur::from_millis(5)));
        net.poll_all();
        net.run_for(Dur::from_secs(2));
        let c = &net.node::<StackNode<ShimStack>>(nc).stack;
        assert!(c.translated_tx >= 2, "SYN + handshake ack");
        assert!(c.translated_rx >= 1, "SYN-ACK");
    }
}
