//! The **demultiplexing (DM)** sublayer — "essentially UDP" (§3).
//!
//! Lowest of the four TCP sublayers: every other sublayer needs its
//! service, so it sits at the bottom. It owns the port namespace (binding,
//! reuse) and the 4-tuple → connection map, and per test **T3** it reads
//! and writes only the DM subheader (ports) plus the network addresses.

use crate::fingerprint as fp;
use crate::slots::SlotTable;
use crate::wire::Packet;
use slmetrics::{site, SharedLog};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU64;
use slwire::hash::FxBuildHasher;
use slwire::{Endpoint, FourTuple};

/// Low bits of a [`ConnId`] that hold its slot.
const SLOT_BITS: u32 = 24;
/// Slots DM can hand out at once.
pub(crate) const MAX_SLOTS: u32 = 1 << SLOT_BITS;
/// Serials DM can mint: serial + 1 fills the high 40 bits.
pub(crate) const MAX_SERIALS: u64 = (1 << (64 - SLOT_BITS)) - 1;

/// Opaque connection handle handed upward by DM. It carries two things:
/// its *serial*, minted in sequence and never reused — the one part that
/// is compared, ordered, hashed and printed — and its *slot*, where every
/// per-connection table keeps the connection's entry (one slot array
/// per table, not a hash). A slot is reused once `unbind` frees it; a
/// serial never is, so a stale handle never reaches the slot's next
/// tenant.
#[derive(Clone, Copy)]
pub struct ConnId(NonZeroU64);

impl ConnId {
    fn new(serial: u64, slot: u32) -> ConnId {
        debug_assert!(serial < MAX_SERIALS && slot < MAX_SLOTS);
        let raw = (serial + 1) << SLOT_BITS | slot as u64;
        ConnId(NonZeroU64::new(raw).expect("serial + 1 is not 0"))
    }

    pub(crate) fn serial(self) -> u64 {
        (self.0.get() >> SLOT_BITS) - 1
    }

    pub(crate) fn slot(self) -> usize {
        (self.0.get() & (MAX_SLOTS as u64 - 1)) as usize
    }
}

impl PartialEq for ConnId {
    fn eq(&self, other: &ConnId) -> bool {
        self.serial() == other.serial()
    }
}

impl Eq for ConnId {}

impl PartialOrd for ConnId {
    fn partial_cmp(&self, other: &ConnId) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ConnId {
    fn cmp(&self, other: &ConnId) -> Ordering {
        self.serial().cmp(&other.serial())
    }
}

/// As the `usize` id it replaced hashed: every fx table keyed by a handle
/// places and walks its entries as before.
impl Hash for ConnId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.serial() as usize).hash(state)
    }
}

impl fmt::Debug for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ConnId").field(&self.serial()).finish()
    }
}

/// Errors from binding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DmError {
    /// The exact 4-tuple is already bound.
    TupleInUse,
    /// Every slot is taken, or every serial minted: no handle is left.
    Exhausted,
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
    /// Each admitted connection's tuple, at its handle's slot.
    tuples: SlotTable<FourTuple>,
    next_serial: u64,
    /// Slots `unbind` freed, the last freed on top: `bind` takes one from
    /// here before it takes a fresh one. Placement, not behaviour: the
    /// contract key leaves it out.
    free: Vec<u32>,
    /// The first slot never handed out.
    next_slot: u32,
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
            tuples: SlotTable::new(),
            next_serial: 0,
            free: Vec::new(),
            next_slot: 0,
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
        self.log.borrow_mut().write(site!("dm", "listeners"));
        self.listeners.insert(port);
    }

    /// Gate (or un-gate) admission of new flows. Established connections
    /// are unaffected; gated new flows classify as [`DmVerdict::Gated`].
    pub fn set_gate(&mut self, gated: bool) {
        self.log.borrow_mut().write(site!("dm", "gate"));
        self.gated = gated;
    }

    /// Bind a connection to an exact 4-tuple, minting the [`Admitted`]
    /// token CM demands. Exactly-once admission is the contract: a tuple
    /// already in the table is rejected, never double-admitted.
    pub fn bind(&mut self, tuple: FourTuple) -> Result<Admitted, DmError> {
        self.log.borrow_mut().write(site!("dm", "conn_table"));
        if self.table.contains_key(&tuple) {
            return Err(DmError::TupleInUse);
        }
        let id = self.place(self.next_serial, tuple).ok_or(DmError::Exhausted)?;
        self.next_serial += 1;
        self.table.insert(tuple, id);
        Ok(Admitted { id })
    }

    /// Give `tuple` a handle with `serial` in the last freed slot, else a
    /// fresh one; `None` once the serials or the slots are spent.
    fn place(&mut self, serial: u64, tuple: FourTuple) -> Option<ConnId> {
        if serial >= MAX_SERIALS {
            return None;
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None if self.next_slot < MAX_SLOTS => {
                self.next_slot += 1;
                self.next_slot - 1
            }
            None => return None,
        };
        let id = ConnId::new(serial, slot);
        self.tuples.insert(id, tuple);
        Some(id)
    }

    /// Allocate an ephemeral local port (encapsulating port reuse — the
    /// paper: "DM encapsulates details of binding IP addresses to ports
    /// and reusing ports"). `None` once every ephemeral port toward
    /// `remote` is bound — exhaustion is a typed outcome, not a hang.
    pub fn ephemeral_port(&mut self, remote: Endpoint) -> Option<u16> {
        self.log.borrow_mut().read(site!("dm", "conn_table"));
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
        self.log.borrow_mut().write(site!("dm", "conn_table"));
        if let Some(&t) = self.tuples.get(id) {
            self.tuples.remove(id);
            self.table.remove(&t);
            self.free.push(id.slot() as u32);
        }
    }

    /// Classify an incoming packet by its DM bits only.
    pub fn classify(&self, pkt: &Packet) -> DmVerdict {
        self.log.borrow_mut().read(site!("dm", "conn_table"));
        self.log.borrow_mut().read(site!("dm", "listeners"));
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
        self.log.borrow_mut().read(site!("dm", "conn_table"));
        let t = *self.tuples.get(id).expect("a bound connection");
        pkt.src_addr = t.local.addr;
        pkt.dst_addr = t.remote.addr;
        pkt.dm.src_port = t.local.port;
        pkt.dm.dst_port = t.remote.port;
    }

    pub fn tuple(&self, id: ConnId) -> Option<FourTuple> {
        self.tuples.get(id).copied()
    }

    /// O(1) hashed 4-tuple lookup (the host layer's demux path).
    pub fn lookup(&self, tuple: &FourTuple) -> Option<ConnId> {
        self.table.get(tuple).copied()
    }

    /// A demuxer whose next serial and first fresh slot are `serial` and
    /// `slot`: how a test reaches DM's limits without minting them all.
    #[cfg(test)]
    pub(crate) fn starting_at(local_addr: u32, log: SharedLog, serial: u64, slot: u32) -> Demux {
        Demux { next_serial: serial, next_slot: slot, ..Demux::new(local_addr, log) }
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
            .map(|(id, t)| fp::mix(id.serial(), tuple_fp(t)))
            .collect();
        conns.sort_unstable();
        vec![
            self.gated as u64,
            self.next_serial,
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
                // second ConnId for the same 4-tuple, counting down from the
                // last serial. The demux table still points at the first
                // id, so the two connections now shear.
                let id = self
                    .inner
                    .place(MAX_SERIALS - 1 - self.bonus as u64, tuple)
                    .expect("the canary runs far from DM's limits");
                self.bonus += 1;
                Ok(id)
            }
            Err(e) => Err(e),
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
    use proptest::{collection, prop_assert, prop_assert_eq, proptest};

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

    /// The two hash maps DM kept before handles carried their slot: the
    /// reference the slot table is checked against.
    #[derive(Default)]
    struct HashDm {
        table: HashMap<FourTuple, ConnId>,
        tuples: HashMap<ConnId, FourTuple>,
        next_serial: u64,
    }

    impl HashDm {
        fn bind(&mut self, tuple: FourTuple) -> Result<ConnId, DmError> {
            if self.table.contains_key(&tuple) {
                return Err(DmError::TupleInUse);
            }
            let id = ConnId::new(self.next_serial, 0);
            self.next_serial += 1;
            self.table.insert(tuple, id);
            self.tuples.insert(id, tuple);
            Ok(id)
        }

        fn unbind(&mut self, id: ConnId) {
            if let Some(t) = self.tuples.remove(&id) {
                self.table.remove(&t);
            }
        }
    }

    /// Eight tuples, half of them to the listening port.
    fn scripted_tuple(k: u8) -> FourTuple {
        tuple(80 + (k % 2) as u16, 20 + (k / 2) as u32, 9000)
    }

    proptest! {
        /// Any script of binds, unbinds, classifies, stamps and tuple
        /// queries reads as it did on the hash maps; no two live handles
        /// share a slot, a freed slot is the next one handed out (the last
        /// freed first), and serials only grow.
        #[test]
        fn prop_slot_handles_answer_as_the_hash_maps_did(
            ops in collection::vec((0u8..5, 0u8..8), 0..96),
        ) {
            let mut d = dm();
            d.listen(80);
            let mut oracle = HashDm::default();
            // Every handle ever minted, stale ones included.
            let mut minted: Vec<ConnId> = Vec::new();
            let mut freed: Vec<usize> = Vec::new();
            let mut fresh = 0;
            for &(op, k) in &ops {
                let pick = |minted: &[ConnId]| minted.get(k as usize % minted.len().max(1)).copied();
                match op {
                    0 => {
                        let t = scripted_tuple(k);
                        let got = d.bind(t).map(|a| a.id());
                        prop_assert_eq!(&got, &oracle.bind(t));
                        if let Ok(id) = got {
                            if let Some(&last) = minted.last() {
                                prop_assert!(id.serial() > last.serial());
                            }
                            let want = freed.pop().unwrap_or_else(|| {
                                fresh += 1;
                                fresh - 1
                            });
                            prop_assert_eq!(id.slot(), want);
                            minted.push(id);
                        }
                    }
                    1 => {
                        if let Some(id) = pick(&minted) {
                            if oracle.tuples.contains_key(&id) {
                                freed.push(id.slot());
                            }
                            d.unbind(id);
                            oracle.unbind(id);
                        }
                    }
                    2 => {
                        let t = scripted_tuple(k);
                        let want = match oracle.table.get(&t) {
                            Some(&id) => DmVerdict::Known(id),
                            None if t.local.port == 80 => DmVerdict::NewFlow(t),
                            None => DmVerdict::NoListener,
                        };
                        prop_assert_eq!(d.classify(&pkt_to(10, t.local.port, t.remote)), want);
                        prop_assert_eq!(d.lookup(&t), oracle.table.get(&t).copied());
                    }
                    3 => {
                        let live: Vec<ConnId> =
                            minted.iter().copied().filter(|id| oracle.tuples.contains_key(id)).collect();
                        if let Some(id) = pick(&live) {
                            let t = oracle.tuples[&id];
                            let mut p = Packet::default();
                            d.fill_tx(id, &mut p);
                            prop_assert_eq!((p.src_addr, p.dm.src_port), (t.local.addr, t.local.port));
                            prop_assert_eq!((p.dst_addr, p.dm.dst_port), (t.remote.addr, t.remote.port));
                        }
                    }
                    _ => {
                        if let Some(id) = pick(&minted) {
                            prop_assert_eq!(d.tuple(id), oracle.tuples.get(&id).copied());
                        }
                    }
                }
                let mut slots: Vec<usize> =
                    minted.iter().filter(|id| oracle.tuples.contains_key(id)).map(|id| id.slot()).collect();
                let live = slots.len();
                slots.sort_unstable();
                slots.dedup();
                prop_assert_eq!(slots.len(), live, "two live handles share a slot");
                prop_assert_eq!(d.tuples.len(), live);
            }
        }
    }

    #[test]
    fn a_stale_handle_never_reaches_its_slots_next_tenant() {
        let mut d = dm();
        let old = d.bind(tuple(5000, 20, 80)).unwrap().id();
        d.unbind(old);
        let new = d.bind(tuple(5001, 20, 80)).unwrap().id();
        assert_eq!(new.slot(), old.slot(), "the freed slot is reused");
        assert_ne!(new, old);
        assert_eq!(d.tuple(old), None);
        d.unbind(old);
        assert_eq!(d.tuple(new), Some(tuple(5001, 20, 80)), "a stale unbind frees nothing");
    }

    #[test]
    fn spent_serials_are_a_typed_refusal() {
        let mut d = Demux::starting_at(10, slmetrics::shared(), MAX_SERIALS - 1, 0);
        let last = d.bind(tuple(5000, 20, 80)).unwrap().id();
        assert_eq!(last.serial(), MAX_SERIALS - 1);
        assert_eq!(d.bind(tuple(5001, 20, 80)).unwrap_err(), DmError::Exhausted);
        // A freed slot is no new serial.
        d.unbind(last);
        assert_eq!(d.bind(tuple(5001, 20, 80)).unwrap_err(), DmError::Exhausted);
        assert_eq!(d.lookup(&tuple(5001, 20, 80)), None, "a refusal binds nothing");
    }

    #[test]
    fn spent_slots_are_a_typed_refusal() {
        let mut d = Demux::starting_at(10, slmetrics::shared(), 0, MAX_SLOTS);
        assert_eq!(d.bind(tuple(5000, 20, 80)).unwrap_err(), DmError::Exhausted);
        assert_eq!(d.lookup(&tuple(5000, 20, 80)), None, "a refusal binds nothing");
        assert_eq!(d.contract_key()[1], 0, "nor spends a serial");
    }

    #[test]
    fn a_handle_compares_hashes_and_prints_as_its_serial() {
        let (a, b) = (ConnId::new(7, 0), ConnId::new(7, 3));
        assert_eq!(a, b);
        assert!(ConnId::new(6, 9) < a);
        assert_eq!(format!("{b:?}"), format!("{:?}", ConnId::new(7, 1)));
        assert_eq!(format!("{b:?}"), "ConnId(7)");
        let hash = |x: &dyn Fn(&mut std::collections::hash_map::DefaultHasher)| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            x(&mut h);
            h.finish()
        };
        assert_eq!(hash(&|h| b.hash(h)), hash(&|h| 7usize.hash(h)), "hashed as the usize id was");
    }
}
