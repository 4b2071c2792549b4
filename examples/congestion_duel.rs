//! Congestion-control replacement in action (paper §3 / experiment E8):
//! the *same* file transfer under four interchangeable rate controllers,
//! on the same lossy bottleneck link. Only the constructor argument
//! changes.
//!
//! ```sh
//! cargo run --release --example congestion_duel
//! ```

use netsim::{two_party, Dur, FaultProfile, HostStack, LinkParams, StackNode, Time};
use sublayering::netsim;
use sublayering::sublayer_core::{SlConfig, SlTcpStack};
use sublayering::slwire::Endpoint;

fn run(cc: &'static str) -> (f64, u64) {
    let (a, b) = (1u32, 2u32);
    let cfg = SlConfig { cc, ..Default::default() };
    let mut client = SlTcpStack::new(a, cfg.clone(), slmetrics::shared());
    let mut server = SlTcpStack::new(b, cfg, slmetrics::shared());
    server.listen(80);
    let conn = client.connect(Time::ZERO, 5000, Endpoint::new(b, 80));
    let params = LinkParams::delay_only(Dur::from_millis(20))
        .with_rate(10_000_000)
        .with_fault(FaultProfile::lossy(0.02));
    let (mut net, nc, ns) = two_party(7, client, server, params);
    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(2));

    let payload = vec![0xABu8; 300_000];
    net.node_mut::<StackNode<SlTcpStack>>(nc).stack.send(conn, &payload);
    net.poll_all();
    let start = net.now();
    let mut got = 0;
    while got < payload.len() {
        let dl = net.now() + Dur::from_millis(25);
        net.run_until(dl);
        let s = &mut net.node_mut::<StackNode<SlTcpStack>>(ns).stack;
        if let Some(&sc) = s.established().first() {
            got += s.recv(sc).len();
        }
        net.poll_all();
        assert!(net.now() < start + Dur::from_secs(600), "{cc} stalled at {got}");
    }
    let secs = net.now().since(start).secs_f64();
    let retx = net
        .node::<StackNode<SlTcpStack>>(nc)
        .stack
        .rd_stats(conn)
        .map(|r| r.retransmits + r.fast_retransmits)
        .unwrap_or(0);
    (secs, retx)
}

fn main() {
    println!("300 KB over a 10 Mbit/s, 40 ms RTT, 2%-loss bottleneck:\n");
    println!("{:<14} {:>10} {:>14} {:>15}", "controller", "time (s)", "goodput Mb/s", "retransmits");
    for cc in ["reno", "cubic", "rate-based", "fixed-window"] {
        let (secs, retx) = run(cc);
        println!(
            "{:<14} {:>10.2} {:>14.2} {:>15}",
            cc,
            secs,
            300_000.0 * 8.0 / secs / 1e6,
            retx
        );
    }
    println!("\nSwapping the controller touched no code outside OSR's constructor argument.");
}
