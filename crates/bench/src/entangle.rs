//! E6b — state entanglement: identical workloads through the monolithic
//! and sublayered stacks, comparing the field-sharing matrices (paper
//! §2.3: shared PCB state is what makes monolithic reasoning hard). The
//! `exp_entangle` binary prints [`report`]; a test pins it.

use netsim::{two_party, Dur, FaultProfile, HostStack, LinkParams, StackNode, Time};
use slmetrics::{InteractionMatrix, SharedLog};
use slwire::Endpoint;
use sublayer_core::{SlConfig, SlTcpStack};
use tcp_mono::stack::TcpStack;

use crate::{A, B};

fn link() -> LinkParams {
    LinkParams::delay_only(Dur::from_millis(10)).with_fault(FaultProfile::lossy(0.05))
}

/// A 100 KB transfer and a graceful close over a 5 %-loss link, both ends
/// logging to one shared log.
fn drive<S: HostStack + 'static>(mk: impl Fn(u32, SharedLog) -> S) -> InteractionMatrix {
    let log = slmetrics::shared();
    let mut c = mk(A, log.clone());
    let mut s = mk(B, log.clone());
    s.listen(80);
    let conn = c
        .try_connect(Time::ZERO, 5000, Endpoint::new(B, 80))
        .expect("tuple free");
    let (mut net, nc, ns) = two_party(1, c, s, link());
    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(2));
    net.node_mut::<StackNode<S>>(nc)
        .stack
        .send(conn, &vec![1u8; 100_000]);
    net.poll_all();
    for _ in 0..120 {
        let dl = net.now() + Dur::from_secs(1);
        net.run_until(dl);
        let st = &mut net.node_mut::<StackNode<S>>(ns).stack;
        if let Some(&sc) = st.established().first() {
            let _ = st.recv(sc);
        }
        net.poll_all();
    }
    net.node_mut::<StackNode<S>>(nc).stack.close(conn);
    net.poll_all();
    net.run_until(net.now() + Dur::from_secs(5));
    let m = InteractionMatrix::from_log(&log.borrow());
    m
}

/// The monolith's matrix under the E6b workload.
pub fn drive_mono() -> InteractionMatrix {
    drive(TcpStack::new)
}

/// The sublayered stack's matrix under the E6b workload.
pub fn drive_sub() -> InteractionMatrix {
    drive(|addr, log| SlTcpStack::new(addr, SlConfig::default(), log))
}

/// What `exp_entangle` prints.
pub fn report() -> String {
    let (mono, sub) = (drive_mono(), drive_sub());
    format!(
        "# E6b — state entanglement under an identical workload (paper §2.3)\n\n\
         Workload: 100 KB transfer + graceful close over a 5%-loss link.\n\n\
         {}\n{}\n\
         Summary: monolithic entanglement score **{}** across **{}** interacting \
         subfunction pairs; sublayered score **{}** across **{}** pairs. Rust's \
         module privacy makes the sublayered zero *by construction* — exactly \
         the ownership argument the paper cites ([21]).\n",
        mono.render_markdown("Monolithic TCP (subfunctions over one PCB)"),
        sub.render_markdown("Sublayered TCP (DM/CM/RD/OSR private state)"),
        mono.entanglement_score(),
        mono.interacting_pairs(),
        sub.entanglement_score(),
        sub.interacting_pairs()
    )
}

#[cfg(test)]
mod tests {
    /// The whole printed report, byte for byte: E6b's numbers in
    /// EXPERIMENTS.md are this text.
    #[test]
    fn e6b_report_is_pinned() {
        let expected = "\
# E6b — state entanglement under an identical workload (paper §2.3)

Workload: 100 KB transfer + graceful close over a 5%-loss link.

### Monolithic TCP (subfunctions over one PCB)

- fields: 25
- shared fields: 13
- entanglement score: 23
- write entanglement: 9
- interacting context pairs: 10

| context A | context B | shared fields |
|---|---|---|
| congestion_control | conn_mgmt | 5 |
| congestion_control | flow_control | 1 |
| congestion_control | reliable_delivery | 6 |
| congestion_control | timers | 5 |
| conn_mgmt | flow_control | 1 |
| conn_mgmt | reliable_delivery | 6 |
| conn_mgmt | timers | 5 |
| flow_control | reliable_delivery | 3 |
| flow_control | timers | 1 |
| reliable_delivery | timers | 5 |

### Sublayered TCP (DM/CM/RD/OSR private state)

- fields: 20
- shared fields: 0
- entanglement score: 0
- write entanglement: 0
- interacting context pairs: 0


Summary: monolithic entanglement score **23** across **10** interacting subfunction pairs; sublayered score **0** across **0** pairs. Rust's module privacy makes the sublayered zero *by construction* — exactly the ownership argument the paper cites ([21]).
";
        assert_eq!(super::report(), expected);
    }
}
