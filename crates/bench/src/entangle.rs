//! E6b — state entanglement: identical workloads through the monolithic
//! and sublayered stacks, comparing the field-sharing matrices (paper
//! §2.3: shared PCB state is what makes monolithic reasoning hard). The
//! campaign is `exp entangle`; a test pins what it prints.

use netsim::{two_party, Dur, FaultProfile, HostStack, LinkParams, StackNode, Time};
use slmetrics::{InteractionMatrix, SharedLog};
use slwire::Endpoint;
use sublayer_core::{SlConfig, SlTcpStack};
use tcp_mono::stack::TcpStack;

use crate::{json, Report, Table, A, B};

/// A 100 KB transfer and a graceful close over a 5 %-loss link, both ends
/// logging to one shared log.
fn drive<S: HostStack + 'static>(mk: impl Fn(u32, SharedLog) -> S) -> InteractionMatrix {
    let log = slmetrics::shared();
    let mut c = mk(A, log.clone());
    let mut s = mk(B, log.clone());
    s.listen(80);
    let conn = c.try_connect(Time::ZERO, 5000, Endpoint::new(B, 80)).expect("tuple free");
    let link = LinkParams::delay_only(Dur::from_millis(10)).with_fault(FaultProfile::lossy(0.05));
    let (mut net, nc, ns) = two_party(1, c, s, link);
    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(2));
    net.node_mut::<StackNode<S>>(nc).stack.send(conn, &vec![1u8; 100_000]);
    net.poll_all();
    for _ in 0..120 {
        net.run_for(Dur::from_secs(1));
        let st = &mut net.node_mut::<StackNode<S>>(ns).stack;
        if let Some(&sc) = st.established().first() {
            let _ = st.recv(sc);
        }
        net.poll_all();
    }
    net.node_mut::<StackNode<S>>(nc).stack.close(conn);
    net.poll_all();
    net.run_for(Dur::from_secs(5));
    let m = InteractionMatrix::from_log(&log.borrow());
    m
}

/// The campaign: both matrices, summarised side by side, and each
/// stack's context pairs that share a field. The claims: the
/// monolith's subfunctions share state, the sublayers share none.
pub fn report(_smoke: bool) -> Report {
    let stacks = [
        ("monolithic", "Monolithic TCP (subfunctions over one PCB)", drive(TcpStack::new)),
        ("sublayered", "Sublayered TCP (DM/CM/RD/OSR private state)", drive(|a, log| {
            SlTcpStack::new(a, SlConfig::default(), log)
        })),
    ];
    let mut violations = Vec::new();
    let (mono, sub) = (&stacks[0].2, &stacks[1].2);
    if mono.entanglement_score() == 0 {
        violations.push("the monolith's subfunctions share no field".to_string());
    }
    if sub.entanglement_score() != 0 {
        violations.push(format!("sublayered entanglement score {}, not 0", sub.entanglement_score()));
    }

    let counts = |m: &InteractionMatrix| {
        let shared = m.shared_fields().len();
        [m.field_contexts.len(), shared, m.entanglement_score(), m.write_entanglement_score(), m.interacting_pairs()]
    };
    let mut tables = vec![Table::new(
        "Workload: 100 KB transfer + graceful close over a 5%-loss link",
        vec![
            "stack", "fields", "shared fields", "entanglement score", "write entanglement",
            "interacting context pairs",
        ],
        stacks
            .iter()
            .map(|(_, title, m)| [vec![title.to_string()], counts(m).map(|n| n.to_string()).into()].concat())
            .collect(),
    )];
    for (_, title, m) in stacks.iter().filter(|(_, _, m)| !m.pair_shared.is_empty()) {
        tables.push(Table::new(
            format!("{title}: context pairs sharing a field"),
            vec!["context A", "context B", "shared fields"],
            m.pair_shared.iter().map(|((a, b), n)| vec![a.to_string(), b.to_string(), n.to_string()]).collect(),
        ));
    }

    let docs = stacks.iter().map(|(name, _, m)| {
        let [fields, shared, score, write, pairs] = counts(m).map(|n| n.to_string());
        let pair_docs = m.pair_shared.iter().map(|((a, b), n)| {
            json::obj(&[("a", json::str(a)), ("b", json::str(b)), ("shared_fields", n.to_string())])
        });
        json::obj(&[
            ("stack", json::str(name)), ("fields", fields), ("shared_fields", shared), ("entanglement_score", score),
            ("write_entanglement", write), ("interacting_pairs", pairs), ("pairs", json::list(pair_docs)),
        ])
    });
    Report::checked(&[("stacks", docs.collect())], tables, violations)
}

#[cfg(test)]
mod tests {
    /// What `exp entangle` prints above its JSON, byte for byte: E6b's
    /// numbers in EXPERIMENTS.md are this text.
    #[test]
    fn e6b_report_is_pinned() {
        let expected = "\
# E6b — state entanglement

## Workload: 100 KB transfer + graceful close over a 5%-loss link

| stack | fields | shared fields | entanglement score | write entanglement | interacting context pairs |
|---|---|---|---|---|---|
| Monolithic TCP (subfunctions over one PCB) | 24 | 13 | 22 | 8 | 10 |
| Sublayered TCP (DM/CM/RD/OSR private state) | 20 | 0 | 0 | 0 | 0 |

## Monolithic TCP (subfunctions over one PCB): context pairs sharing a field

| context A | context B | shared fields |
|---|---|---|
| congestion_control | conn_mgmt | 4 |
| congestion_control | flow_control | 1 |
| congestion_control | reliable_delivery | 5 |
| congestion_control | timers | 4 |
| conn_mgmt | flow_control | 1 |
| conn_mgmt | reliable_delivery | 6 |
| conn_mgmt | timers | 5 |
| flow_control | reliable_delivery | 3 |
| flow_control | timers | 1 |
| reliable_delivery | timers | 5 |
";
        let c = crate::CAMPAIGNS.iter().find(|c| c.name == "entangle").unwrap();
        let r = super::report(false);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(c.render(&r), expected);
    }
}
