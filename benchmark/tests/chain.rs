//! SubChain — the benchmark's own copy of the glue — behaves like
//! `SlTcpStack`: same bytes delivered, same frames on the wire.

use slbench::arm::{build, Kind, Logs, Mode};
use slbench::workloads;

#[test]
fn subchain_delivers_the_same_bytes_as_the_stack_on_the_bulk_script() {
    for spec in [workloads::BULK.smoke(), workloads::BULK_LOSSY.smoke()] {
        let mut sub = build(Kind::Sub, &spec, 1, Logs::Muted);
        let mut chain = build(Kind::Chain, &spec, 1, Logs::Muted);
        let (a, b) = (sub.batch(100, Mode::Timed), chain.batch(100, Mode::Timed));
        assert_eq!((a.failed, b.failed), (0, 0), "{}", spec.name);
        assert_eq!(a.ops, b.ops, "{}", spec.name);
        assert!(sub.verified_bytes() >= 100 * spec.op_bytes as u64);
        assert_eq!(
            sub.verified_bytes(),
            chain.verified_bytes(),
            "{}",
            spec.name
        );
        assert_eq!(a.traffic, b.traffic, "{}: frames and wire bytes", spec.name);
        assert_eq!(a.retransmits, b.retransmits, "{}", spec.name);
    }
}

#[test]
fn subchain_matches_the_stack_through_open_and_close() {
    let spec = workloads::CHURN.smoke();
    let mut sub = build(Kind::Sub, &spec, 2, Logs::Muted);
    let mut chain = build(Kind::Chain, &spec, 2, Logs::Muted);
    let (a, b) = (sub.batch(300, Mode::Timed), chain.batch(300, Mode::Timed));
    assert_eq!((a.failed, b.failed), (0, 0));
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(sub.verified_bytes(), chain.verified_bytes());
}
