//! E6b — state entanglement: identical workloads through the monolithic
//! and sublayered stacks, comparing the field-sharing matrices (paper
//! §2.3: shared PCB state is what makes monolithic reasoning hard).

use netsim::{two_party, Dur, FaultProfile, HostStack, LinkParams, StackNode, Time};
use slmetrics::InteractionMatrix;
use sublayer_core::{SlConfig, SlTcpStack};
use tcp_mono::stack::TcpStack;
use slwire::Endpoint;

const A: u32 = 0x0A000001;
const B: u32 = 0x0A000002;

fn link() -> LinkParams {
    LinkParams::delay_only(Dur::from_millis(10)).with_fault(FaultProfile::lossy(0.05))
}

fn drive_mono() -> InteractionMatrix {
    let log = slmetrics::shared();
    let mut c = TcpStack::new(A, log.clone());
    let mut s = TcpStack::new(B, log.clone());
    s.listen(80);
    let conn = c.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
    let (mut net, nc, ns) = two_party(1, c, s, link());
    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(2));
    net.node_mut::<StackNode<TcpStack>>(nc).stack.send(conn, &vec![1u8; 100_000]);
    net.poll_all();
    for _ in 0..120 {
        let dl = net.now() + Dur::from_secs(1);
        net.run_until(dl);
        let st = &mut net.node_mut::<StackNode<TcpStack>>(ns).stack;
        if let Some(&sc) = st.established().first() {
            let _ = st.recv(sc);
        }
        net.poll_all();
    }
    net.node_mut::<StackNode<TcpStack>>(nc).stack.close(conn);
    net.poll_all();
    net.run_until(net.now() + Dur::from_secs(5));
    let m = InteractionMatrix::from_log(&log.borrow());
    m
}

fn drive_sub() -> InteractionMatrix {
    let log = slmetrics::shared();
    let mut c = SlTcpStack::new(A, SlConfig::default(), log.clone());
    let mut s = SlTcpStack::new(B, SlConfig::default(), log.clone());
    s.listen(80);
    let conn = c.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
    let (mut net, nc, ns) = two_party(1, c, s, link());
    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(2));
    net.node_mut::<StackNode<SlTcpStack>>(nc).stack.send(conn, &vec![1u8; 100_000]);
    net.poll_all();
    for _ in 0..120 {
        let dl = net.now() + Dur::from_secs(1);
        net.run_until(dl);
        let st = &mut net.node_mut::<StackNode<SlTcpStack>>(ns).stack;
        if let Some(&sc) = st.established().first() {
            let _ = st.recv(sc);
        }
        net.poll_all();
    }
    net.node_mut::<StackNode<SlTcpStack>>(nc).stack.close(conn);
    net.poll_all();
    net.run_until(net.now() + Dur::from_secs(5));
    let m = InteractionMatrix::from_log(&log.borrow());
    m
}

fn main() {
    println!("# E6b — state entanglement under an identical workload (paper §2.3)\n");
    println!("Workload: 100 KB transfer + graceful close over a 5%-loss link.\n");
    let mono = drive_mono();
    let sub = drive_sub();
    println!("{}", mono.render_markdown("Monolithic TCP (subfunctions over one PCB)"));
    println!("{}", sub.render_markdown("Sublayered TCP (DM/CM/RD/OSR private state)"));
    println!(
        "Summary: monolithic entanglement score **{}** across **{}** interacting \
         subfunction pairs; sublayered score **{}** across **{}** pairs. Rust's \
         module privacy makes the sublayered zero *by construction* — exactly \
         the ownership argument the paper cites ([21]).",
        mono.entanglement_score(),
        mono.interacting_pairs(),
        sub.entanglement_score(),
        sub.interacting_pairs()
    );
}
