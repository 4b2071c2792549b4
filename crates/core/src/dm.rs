//! The **demultiplexing (DM)** sublayer — "essentially UDP" (§3).
//!
//! Lowest of the four TCP sublayers: every other sublayer needs its
//! service, so it sits at the bottom. It owns the port namespace (binding,
//! reuse) and the 4-tuple → connection map, and per test **T3** it reads
//! and writes only the DM subheader (ports) plus the network addresses.

use crate::fingerprint as fp;
use crate::wire::Packet;
use slmetrics::SharedLog;
use std::collections::{HashMap, HashSet};
use slwire::hash::FxBuildHasher;
use slwire::{Endpoint, FourTuple};

/// Opaque connection handle handed upward by DM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub usize);

/// Errors from binding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DmError {
    /// The exact 4-tuple is already bound.
    TupleInUse,
}

/// Proof of admission, minted exclusively by [`Demux::bind`].
///
/// This is the typestate half of the DM⇒CM contract: CM's constructors
/// consume an `Admitted` by value, so product code *cannot* create a
/// connection that DM never admitted — the contract violation is a compile
/// error, not a runtime check. The token is deliberately neither `Clone`
/// nor `Copy` (one admission, one connection) and has no public
/// constructor outside this module.
#[derive(Debug)]
pub struct Admitted {
    id: ConnId,
}

impl Admitted {
    /// The connection id DM assigned at admission.
    pub fn id(&self) -> ConnId {
        self.id
    }
}

/// The outcome of classifying an incoming packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DmVerdict {
    /// Belongs to an existing connection.
    Known(ConnId),
    /// A new flow addressed to a listening port.
    NewFlow(FourTuple),
    /// A new flow that would have been admitted, but the accept gate is
    /// closed (overload / drain).
    Gated(FourTuple),
    /// Nothing wants it.
    NoListener,
    /// Not addressed to this host.
    NotForUs,
}

/// The DM sublayer state for one host.
#[derive(Clone)]
pub struct Demux {
    local_addr: u32,
    /// Ports come off the wire: seeded like `table`.
    listeners: HashSet<u16, FxBuildHasher>,
    /// 4-tuple → connection map, keyed by the shared seeded fx mix (the
    /// same function the shard router uses — "Demux has no state", so the
    /// bucket placement is a pure function of the tuple).
    table: HashMap<FourTuple, ConnId, FxBuildHasher>,
    /// Ids are minted here (`next_id`), never read off the wire: the same
    /// mix, unseeded.
    tuples: HashMap<ConnId, FourTuple, FxBuildHasher>,
    next_id: usize,
    next_ephemeral: u16,
    /// Overload accept gate: when set, DM stops admitting new flows while
    /// still demultiplexing established ones. This is DM's slice of the
    /// backpressure contract — admission to the connection namespace is a
    /// DM concern, so the gate lives here and nowhere else.
    gated: bool,
    log: SharedLog,
}

impl Demux {
    pub fn new(local_addr: u32, log: SharedLog) -> Demux {
        let seeded = FxBuildHasher::with_seed(local_addr as u64);
        Demux {
            local_addr,
            listeners: HashSet::with_hasher(seeded),
            table: HashMap::with_hasher(seeded),
            tuples: HashMap::default(),
            next_id: 0,
            next_ephemeral: 49152,
            gated: false,
            log,
        }
    }

    pub fn local_addr(&self) -> u32 {
        self.local_addr
    }

    /// Accept new flows on `port`.
    pub fn listen(&mut self, port: u16) {
        self.log.borrow_mut().w("dm", "listeners");
        self.listeners.insert(port);
    }

    /// Gate (or un-gate) admission of new flows. Established connections
    /// are unaffected; gated new flows classify as [`DmVerdict::Gated`].
    pub fn set_gate(&mut self, gated: bool) {
        self.log.borrow_mut().w("dm", "gate");
        self.gated = gated;
    }

    /// Bind a connection to an exact 4-tuple, minting the [`Admitted`]
    /// token CM demands. Exactly-once admission is the contract: a tuple
    /// already in the table is rejected, never double-admitted.
    pub fn bind(&mut self, tuple: FourTuple) -> Result<Admitted, DmError> {
        self.log.borrow_mut().w("dm", "conn_table");
        if self.table.contains_key(&tuple) {
            return Err(DmError::TupleInUse);
        }
        let id = ConnId(self.next_id);
        self.next_id += 1;
        self.table.insert(tuple, id);
        self.tuples.insert(id, tuple);
        Ok(Admitted { id })
    }

    /// Allocate an ephemeral local port (encapsulating port reuse — the
    /// paper: "DM encapsulates details of binding IP addresses to ports
    /// and reusing ports"). `None` once every ephemeral port toward
    /// `remote` is bound — exhaustion is a typed outcome, not a hang.
    pub fn ephemeral_port(&mut self, remote: Endpoint) -> Option<u16> {
        self.log.borrow_mut().r("dm", "conn_table");
        const EPHEMERAL_RANGE: u32 = u16::MAX as u32 - 49152 + 1;
        for _ in 0..EPHEMERAL_RANGE {
            let p = self.next_ephemeral;
            self.next_ephemeral = self.next_ephemeral.checked_add(1).unwrap_or(49152);
            let tuple = FourTuple { local: Endpoint::new(self.local_addr, p), remote };
            if !self.table.contains_key(&tuple) {
                return Some(p);
            }
        }
        None
    }

    /// Release a binding.
    pub fn unbind(&mut self, id: ConnId) {
        self.log.borrow_mut().w("dm", "conn_table");
        if let Some(t) = self.tuples.remove(&id) {
            self.table.remove(&t);
        }
    }

    /// Classify an incoming packet by its DM bits only.
    pub fn classify(&self, pkt: &Packet) -> DmVerdict {
        self.log.borrow_mut().r("dm", "conn_table");
        self.log.borrow_mut().r("dm", "listeners");
        if pkt.dst_addr != self.local_addr {
            return DmVerdict::NotForUs;
        }
        let tuple = FourTuple { local: pkt.dst(), remote: pkt.src() };
        if let Some(&id) = self.table.get(&tuple) {
            return DmVerdict::Known(id);
        }
        if self.listeners.contains(&pkt.dm.dst_port) {
            if self.gated {
                return DmVerdict::Gated(tuple);
            }
            return DmVerdict::NewFlow(tuple);
        }
        DmVerdict::NoListener
    }

    /// Stamp the DM subheader and addresses on an outgoing packet.
    pub fn fill_tx(&self, id: ConnId, pkt: &mut Packet) {
        self.log.borrow_mut().r("dm", "conn_table");
        let t = self.tuples[&id];
        pkt.src_addr = t.local.addr;
        pkt.dst_addr = t.remote.addr;
        pkt.dm.src_port = t.local.port;
        pkt.dm.dst_port = t.remote.port;
    }

    pub fn tuple(&self, id: ConnId) -> Option<FourTuple> {
        self.tuples.get(&id).copied()
    }

    /// O(1) hashed 4-tuple lookup (the host layer's demux path).
    pub fn lookup(&self, tuple: &FourTuple) -> Option<ConnId> {
        self.table.get(tuple).copied()
    }

    /// Deterministic behavioral fingerprint for the DM contract checker.
    /// Equal keys must imply behaviorally identical demuxers under the
    /// contract's drive alphabet (see [`crate::fingerprint`]).
    pub fn contract_key(&self) -> Vec<u64> {
        let mut listeners: Vec<u64> = self.listeners.iter().map(|&p| p as u64).collect();
        listeners.sort_unstable();
        let mut conns: Vec<u64> = self
            .tuples
            .iter()
            .map(|(id, t)| fp::mix(id.0 as u64, tuple_fp(t)))
            .collect();
        conns.sort_unstable();
        vec![
            self.gated as u64,
            self.next_id as u64,
            self.next_ephemeral as u64,
            fp::fold(fp::SEED, listeners),
            fp::fold(fp::SEED, conns),
        ]
    }
}

fn tuple_fp(t: &FourTuple) -> u64 {
    fp::fold(
        fp::SEED,
        [
            t.local.addr as u64,
            t.local.port as u64,
            t.remote.addr as u64,
            t.remote.port as u64,
        ],
    )
}

// ---------------------------------------------------------------------
// Contract driver (slverify::contracts::DmContract drives the *real*
// sublayer through this, exactly as CongCtrl drives RateController).
// ---------------------------------------------------------------------

/// The operations the DM assume/guarantee contract exercises. Implemented
/// by the shipped [`Demux`] and by the [`BuggyDm`] mutation canary; the
/// checker model is written once, generic over this trait, and run against
/// both.
pub trait DmDriver: Clone {
    fn listen(&mut self, port: u16);
    fn set_gate(&mut self, gated: bool);
    /// Admission as the checker sees it: the [`Admitted`] token collapsed
    /// to its id. Product code gets the typestate; the checker tracks the
    /// ghost obligations itself.
    fn admit(&mut self, tuple: FourTuple) -> Result<ConnId, DmError>;
    fn release(&mut self, id: ConnId);
    fn classify(&self, pkt: &Packet) -> DmVerdict;
    fn lookup(&self, tuple: &FourTuple) -> Option<ConnId>;
    fn tuple_of(&self, id: ConnId) -> Option<FourTuple>;
    /// See [`Demux::contract_key`] — equal keys promise behaviorally
    /// identical drivers.
    fn contract_key(&self) -> Vec<u64>;
}

impl DmDriver for Demux {
    fn listen(&mut self, port: u16) {
        Demux::listen(self, port)
    }
    fn set_gate(&mut self, gated: bool) {
        Demux::set_gate(self, gated)
    }
    fn admit(&mut self, tuple: FourTuple) -> Result<ConnId, DmError> {
        self.bind(tuple).map(|a| a.id())
    }
    fn release(&mut self, id: ConnId) {
        self.unbind(id)
    }
    fn classify(&self, pkt: &Packet) -> DmVerdict {
        Demux::classify(self, pkt)
    }
    fn lookup(&self, tuple: &FourTuple) -> Option<ConnId> {
        Demux::lookup(self, tuple)
    }
    fn tuple_of(&self, id: ConnId) -> Option<FourTuple> {
        self.tuple(id)
    }
    fn contract_key(&self) -> Vec<u64> {
        Demux::contract_key(self)
    }
}

/// Mutation canary for the DM contract, mirroring [`slcc::BuggyDeflate`]:
/// a plausible refactor slip decides duplicate binds are "idempotent" and
/// hands out a *fresh* handle for a tuple that is already live — double
/// admission. Never wired into product code; it exists so `DmContract`
/// has a concrete counterexample proving the exactly-once obligation is
/// load-bearing.
#[derive(Clone)]
pub struct BuggyDm {
    inner: Demux,
    bonus: usize,
}

impl BuggyDm {
    pub fn new(local_addr: u32, log: SharedLog) -> BuggyDm {
        BuggyDm { inner: Demux::new(local_addr, log), bonus: 0 }
    }
}

impl DmDriver for BuggyDm {
    fn listen(&mut self, port: u16) {
        self.inner.listen(port)
    }
    fn set_gate(&mut self, gated: bool) {
        self.inner.set_gate(gated)
    }
    fn admit(&mut self, tuple: FourTuple) -> Result<ConnId, DmError> {
        match self.inner.bind(tuple) {
            Ok(a) => Ok(a.id()),
            Err(DmError::TupleInUse) => {
                // THE BUG: treat the duplicate as a re-admission and mint a
                // second ConnId for the same 4-tuple. The demux table still
                // points at the first id, so the two connections now shear.
                let id = ConnId(usize::MAX - self.bonus);
                self.bonus += 1;
                self.inner.tuples.insert(id, tuple);
                Ok(id)
            }
        }
    }
    fn release(&mut self, id: ConnId) {
        self.inner.unbind(id)
    }
    fn classify(&self, pkt: &Packet) -> DmVerdict {
        Demux::classify(&self.inner, pkt)
    }
    fn lookup(&self, tuple: &FourTuple) -> Option<ConnId> {
        Demux::lookup(&self.inner, tuple)
    }
    fn tuple_of(&self, id: ConnId) -> Option<FourTuple> {
        self.inner.tuple(id)
    }
    fn contract_key(&self) -> Vec<u64> {
        let mut k = self.inner.contract_key();
        k.push(self.bonus as u64);
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm() -> Demux {
        Demux::new(10, slmetrics::shared())
    }

    fn tuple(lport: u16, raddr: u32, rport: u16) -> FourTuple {
        FourTuple { local: Endpoint::new(10, lport), remote: Endpoint::new(raddr, rport) }
    }

    fn pkt_to(dst_addr: u32, dst_port: u16, src: Endpoint) -> Packet {
        let mut p = Packet { src_addr: src.addr, dst_addr, ..Packet::default() };
        p.dm.src_port = src.port;
        p.dm.dst_port = dst_port;
        p
    }

    #[test]
    fn bind_and_classify_known() {
        let mut d = dm();
        let t = tuple(5000, 20, 80);
        let id = d.bind(t).unwrap().id();
        let p = pkt_to(10, 5000, Endpoint::new(20, 80));
        assert_eq!(d.classify(&p), DmVerdict::Known(id));
    }

    #[test]
    fn duplicate_bind_rejected() {
        let mut d = dm();
        let t = tuple(5000, 20, 80);
        d.bind(t).unwrap();
        assert!(matches!(d.bind(t), Err(DmError::TupleInUse)));
    }

    #[test]
    fn listener_accepts_new_flow() {
        let mut d = dm();
        d.listen(80);
        let p = pkt_to(10, 80, Endpoint::new(20, 5555));
        match d.classify(&p) {
            DmVerdict::NewFlow(t) => {
                assert_eq!(t.local.port, 80);
                assert_eq!(t.remote, Endpoint::new(20, 5555));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn gate_blocks_new_flows_but_not_established() {
        let mut d = dm();
        d.listen(80);
        let id = d.bind(tuple(5000, 20, 80)).unwrap().id();
        d.set_gate(true);
        let fresh = pkt_to(10, 80, Endpoint::new(20, 5555));
        match d.classify(&fresh) {
            DmVerdict::Gated(t) => assert_eq!(t.local.port, 80),
            other => panic!("expected Gated, got {other:?}"),
        }
        let known = pkt_to(10, 5000, Endpoint::new(20, 80));
        assert_eq!(d.classify(&known), DmVerdict::Known(id));
        d.set_gate(false);
        assert!(matches!(d.classify(&fresh), DmVerdict::NewFlow(_)));
    }

    #[test]
    fn unknown_port_rejected() {
        let d = dm();
        let p = pkt_to(10, 81, Endpoint::new(20, 5555));
        assert_eq!(d.classify(&p), DmVerdict::NoListener);
    }

    #[test]
    fn foreign_address_ignored() {
        let d = dm();
        let p = pkt_to(99, 80, Endpoint::new(20, 5555));
        assert_eq!(d.classify(&p), DmVerdict::NotForUs);
    }

    #[test]
    fn unbind_frees_tuple() {
        let mut d = dm();
        let t = tuple(5000, 20, 80);
        let id = d.bind(t).unwrap().id();
        d.unbind(id);
        assert!(d.bind(t).is_ok(), "tuple reusable after unbind");
    }

    #[test]
    fn ephemeral_ports_skip_taken_tuples() {
        let mut d = dm();
        let remote = Endpoint::new(20, 80);
        let p1 = d.ephemeral_port(remote).unwrap();
        d.bind(tuple(p1, 20, 80)).unwrap();
        let p2 = d.ephemeral_port(remote).unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn buggy_dm_double_admits_where_real_dm_refuses() {
        let t = tuple(5000, 20, 80);
        let mut real = dm();
        real.bind(t).unwrap();
        assert!(DmDriver::admit(&mut real, t).is_err());
        let mut bug = BuggyDm::new(10, slmetrics::shared());
        let a = bug.admit(t).unwrap();
        let b = bug.admit(t).unwrap();
        assert_ne!(a, b, "the canary mints two ids for one tuple");
    }

    #[test]
    fn contract_key_is_stable_across_clone() {
        let mut d = dm();
        d.listen(80);
        d.bind(tuple(5000, 20, 80)).unwrap();
        assert_eq!(d.contract_key(), d.clone().contract_key());
    }

    #[test]
    fn fill_tx_stamps_only_dm_fields() {
        let mut d = dm();
        let id = d.bind(tuple(5000, 20, 80)).unwrap().id();
        let mut p = Packet::default();
        p.cm.isn = 7; // foreign field must be untouched
        d.fill_tx(id, &mut p);
        assert_eq!(p.src_addr, 10);
        assert_eq!(p.dst_addr, 20);
        assert_eq!(p.dm.src_port, 5000);
        assert_eq!(p.dm.dst_port, 80);
        assert_eq!(p.cm.isn, 7);
    }

    #[test]
    fn two_demuxes_driven_alike_iterate_their_tables_alike() {
        // No table here draws per-instance keys (see the stack's test).
        let mut pair = [dm(), dm()];
        for d in &mut pair {
            for k in 0..48u16 {
                d.listen(1000 + 7 * k);
                let id = d.bind(tuple(5000 + k, 20, 80)).unwrap().id();
                if k % 3 == 0 {
                    d.unbind(id);
                }
            }
        }
        let [a, b] = &pair;
        assert!(a.tuples.iter().eq(b.tuples.iter()));
        assert!(a.table.iter().eq(b.table.iter()));
        assert!(a.listeners.iter().eq(b.listeners.iter()));
    }
}
