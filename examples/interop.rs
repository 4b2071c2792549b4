//! Interoperation (paper §3.1 / experiment E7): a sublayered client talks
//! RFC 793 to a *monolithic* TCP server through the shim sublayer,
//! transfers a file each way, and closes gracefully.
//!
//! ```sh
//! cargo run --example interop
//! ```

use netsim::{two_party, Dur, FaultProfile, HostStack, LinkParams, StackNode, Time};
use sublayering::netsim;
use sublayering::sublayer_core::shim::ShimStack;
use sublayering::sublayer_core::{SlConfig, SlTcpStack};
use sublayering::tcp_mono::stack::TcpStack;
use sublayering::slwire::Endpoint;
use sublayering::tcp_mono::TcpState;

fn main() {
    let (a, b) = (0x0A00_0001u32, 0x0A00_0002u32);
    // Sublayered stack wrapped in the header-translating shim.
    let mut client = ShimStack::new(SlTcpStack::new(a, SlConfig::default(), slmetrics::shared()));
    // Plain monolithic RFC 793 stack.
    let mut server = TcpStack::new(b, slmetrics::shared());
    server.listen(80);
    let conn = client.inner.connect(Time::ZERO, 5000, Endpoint::new(b, 80));

    let params = LinkParams::delay_only(Dur::from_millis(10))
        .with_fault(FaultProfile::lossy(0.05));
    let (mut net, nc, ns) = two_party(3, client, server, params);
    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(3));

    let sconn = net.node::<StackNode<TcpStack>>(ns).stack.established()[0];
    println!("handshake complete: sublayered client <-> monolithic server (RFC 793 on the wire)");

    let up = b"from the sublayered world".repeat(500);
    let down = b"from the monolithic world".repeat(400);
    net.node_mut::<StackNode<ShimStack>>(nc).stack.inner.send(conn, &up);
    net.node_mut::<StackNode<TcpStack>>(ns).stack.send(sconn, &down);
    net.poll_all();

    let (mut got_up, mut got_down) = (Vec::new(), Vec::new());
    while got_up.len() < up.len() || got_down.len() < down.len() {
        let dl = net.now() + Dur::from_millis(100);
        net.run_until(dl);
        got_up.extend(net.node_mut::<StackNode<TcpStack>>(ns).stack.recv(sconn));
        got_down.extend(net.node_mut::<StackNode<ShimStack>>(nc).stack.inner.recv(conn));
        net.poll_all();
        assert!(net.now() < Time::ZERO + Dur::from_secs(300), "stalled");
    }
    assert_eq!(got_up, up);
    assert_eq!(got_down, down);
    println!("transferred {} B up / {} B down across the implementation boundary", up.len(), down.len());

    // Graceful close initiated by the sublayered side.
    net.node_mut::<StackNode<ShimStack>>(nc).stack.inner.close(conn);
    net.poll_all();
    net.run_until(net.now() + Dur::from_secs(3));
    assert_eq!(net.node::<StackNode<TcpStack>>(ns).stack.state(sconn), TcpState::CloseWait);
    net.node_mut::<StackNode<TcpStack>>(ns).stack.close(sconn);
    net.poll_all();
    net.run_until(net.now() + Dur::from_secs(3));
    assert_eq!(net.node::<StackNode<TcpStack>>(ns).stack.state(sconn), TcpState::Closed);
    let shim = &net.node::<StackNode<ShimStack>>(nc).stack;
    println!(
        "FIN handshake completed; shim translated {} tx / {} rx packets",
        shim.translated_tx, shim.translated_rx
    );
}
