//! Compositional sublayer contracts (the paper's §4 verification vision,
//! done the way a sublayered stack makes possible).
//!
//! One explicit assume/guarantee contract per core sublayer, each checked
//! against the **real** implementation in `sublayer-core` — not a re-model.
//! A contract is an assume set and a guarantee set (its [`ContractSpec`],
//! carried as [`Contract::SPEC`]) plus a driver generic over the machine it
//! drives. Each is built from that machine's constructor, so the shipped
//! sublayer and its mutation canary are chosen by type —
//! `DmContract::new(Demux::new)` or `DmContract::new(BuggyDm::new)` — and a
//! checker state holds the machine as a [`Keyed`], whose identity is the
//! sublayer's `contract_key` (as [`CongCtrl`](crate::models::CongCtrl) keys
//! a rate controller by `state_key`):
//!
//! | contract | assumes | guarantees |
//! |---|---|---|
//! | [`DmContract`]  | [`A_ENV`] | [`G_DM`]: a 4-tuple is admitted exactly once |
//! | [`CmContract`]  | [`G_DM`]  | [`G_CM`]: the connection sequences only within the admitted window (genuine ISN echo) |
//! | [`RdContract`]  | [`G_CM`]  | [`G_RD`]: every byte delivered exactly once, within a bounded schedule, under the fault alphabet |
//! | [`OsrContract`] | [`G_RD`]  | [`G_OSR`]: bytes released to the app in order, never across a gap |
//!
//! [`compose`] is the composition theorem: it checks each contract's
//! assumptions are discharged by an *earlier* guarantee (plus the
//! environment axiom [`A_ENV`]) and derives end-to-end reliable delivery
//! ([`E2E`]) from the four [`ContractRun`]s alone — the fused product of
//! the four state machines is **never explored**. The
//! [`crate::checker::Product`] combinator exists precisely to measure what
//! that avoided exploration would cost (experiment E22). [`check_chain`]
//! is the one list of the shipped chain every caller runs.
//!
//! Each contract has a seeded mutation canary in `sublayer-core`
//! (`BuggyDm`, `BuggyCm`, `BuggyRd`, `BuggyOsr`, mirroring
//! `slcc::BuggyDeflate`, run together by [`check_canaries`]): a
//! plausibly-broken sublayer that the *owning* contract catches with a
//! shrunk (BFS-shortest) counterexample, pinned in the tests below. A
//! canary can only reach its owner's contract — another sublayer's machine
//! does not type-check:
//!
//! ```compile_fail
//! use slverify::CmContract;
//! use sublayer_core::BuggyRd;
//! let _cm = CmContract::new(BuggyRd::new);
//! ```
//!
//! while CM's own machines do:
//!
//! ```
//! use slverify::CmContract;
//! use sublayer_core::{BuggyCm, ConnMgmt};
//! let _shipped = CmContract::new(ConnMgmt::open_active);
//! let _canary = CmContract::new(BuggyCm::open_active);
//! ```
//!
//! The DM⇒CM half of the chain is also enforced at compile time: CM's
//! constructors consume an [`sublayer_core::Admitted`] token that only
//! [`sublayer_core::Demux::bind`] can mint, so product code sequencing an
//! unadmitted flow is a compile error, not a checker finding:
//!
//! ```compile_fail
//! use netsim::Time;
//! use slwire::{Endpoint, FourTuple};
//! use sublayer_core::cm::{CmScheme, ConnMgmt};
//! use sublayer_core::Demux;
//! let mut dm = Demux::new(1, slmetrics::shared());
//! let tuple = FourTuple { local: Endpoint::new(1, 80), remote: Endpoint::new(2, 5000) };
//! let id = dm.bind(tuple).unwrap().id();
//! // There is no public way to conjure an `Admitted` token, even around
//! // an id DM minted.
//! let token = sublayer_core::dm::Admitted { id };
//! let _cm = ConnMgmt::open_active(
//!     token, CmScheme::ThreeWay, 1, Time::ZERO, slmetrics::shared());
//! ```

use crate::checker::{check, CheckResult, Keyed, Model};
use crate::relation::{RespClass, SeqVerdict};
use netsim::Time;
use slcc::RateController;
use slmetrics::SharedLog;
use slwire::native::{CmHeader, Endpoint, FourTuple, Packet};
use sublayer_core::cm::{CmDriver, CmState};
use sublayer_core::dm::DmDriver;
use sublayer_core::osr::OsrDriver;
use sublayer_core::rd::RdDriver;
use sublayer_core::signals::SeqValidity;
use sublayer_core::{
    Admitted, BuggyCm, BuggyDm, BuggyOsr, BuggyRd, CmScheme, ConnId, ConnMgmt, Demux, Osr,
    ReliableDelivery,
};

// ---------------------------------------------------------------------
// The obligation vocabulary and the composition theorem.
// ---------------------------------------------------------------------

/// Environment axiom every run is bounded by: the checker's fault alphabet
/// may drop at most [`RD_FAULT_BUDGET`] packets and duplicate at most
/// [`RD_DUP_BUDGET`], and never corrupts (corruption is the wire codec's
/// problem, discharged separately by `slconform`).
pub const A_ENV: &str = "env.fault-alphabet(drop<=2,dup<=1,no-corrupt)";
/// DM's guarantee: a 4-tuple is admitted exactly once while bound, and the
/// tuple↔connection maps stay coherent.
pub const G_DM: &str = "dm.exactly-once-admission";
/// CM's guarantee: the connection only synchronizes with the genuinely
/// admitted incarnation (correct ISN echo), and RSTs follow the RFC 5961
/// discipline.
pub const G_CM: &str = "cm.sequences-only-admitted-window";
/// RD's guarantee: every byte is delivered exactly once, uncorrupted, and
/// the whole stream completes within a bounded schedule under [`A_ENV`].
pub const G_RD: &str = "rd.exactly-once-bounded-delivery";
/// OSR's guarantee: bytes are released to the application in order and
/// never across a reassembly gap.
pub const G_OSR: &str = "osr.in-order-gapless-release";
/// The end-to-end property the chain derives: reliable in-order delivery.
pub const E2E: &str = "e2e.reliable-in-order-delivery";

/// A contract's interface in the assume/guarantee chain.
#[derive(Clone, Copy, Debug)]
pub struct ContractSpec {
    pub sublayer: &'static str,
    pub assumes: &'static [&'static str],
    pub guarantees: &'static [&'static str],
}

pub const DM_CONTRACT: ContractSpec =
    ContractSpec { sublayer: "dm", assumes: &[A_ENV], guarantees: &[G_DM] };
pub const CM_CONTRACT: ContractSpec =
    ContractSpec { sublayer: "cm", assumes: &[A_ENV, G_DM], guarantees: &[G_CM] };
pub const RD_CONTRACT: ContractSpec =
    ContractSpec { sublayer: "rd", assumes: &[A_ENV, G_CM], guarantees: &[G_RD] };
pub const OSR_CONTRACT: ContractSpec =
    ContractSpec { sublayer: "osr", assumes: &[G_RD], guarantees: &[G_OSR] };

/// The chain in sublayer order (bottom-up: DM ⇒ CM ⇒ RD ⇒ OSR).
pub fn chain() -> [ContractSpec; 4] {
    [DM_CONTRACT, CM_CONTRACT, RD_CONTRACT, OSR_CONTRACT]
}

/// A checker model that is one link of the chain: it knows its own spec.
pub trait Contract: Model + Sized {
    const SPEC: ContractSpec;

    /// Explore the contract exhaustively (at most `max_states` states) and
    /// pair the result with this contract's own spec.
    fn verify(&self, max_states: usize) -> ContractRun {
        ContractRun { spec: Self::SPEC, result: check(self, max_states) }
    }
}

/// One contract's exploration, paired with that contract's spec. Only
/// [`Contract::verify`] builds one and neither half can be replaced, so a
/// result cannot reach [`compose`] under another contract's spec.
#[derive(Clone, Debug)]
pub struct ContractRun {
    spec: ContractSpec,
    result: CheckResult,
}

impl ContractRun {
    pub fn spec(&self) -> ContractSpec {
        self.spec
    }

    pub fn result(&self) -> &CheckResult {
        &self.result
    }
}

/// The shipped chain in sublayer order, each contract driving the shipped
/// sublayer. `max_states` caps each *individual* contract run.
pub fn check_chain(max_states: usize) -> [ContractRun; 4] {
    [
        DmContract::new(Demux::new).verify(max_states),
        CmContract::new(ConnMgmt::open_active).verify(max_states),
        RdContract::new(ReliableDelivery::new).verify(max_states),
        OsrContract::new(Osr::new).verify(max_states),
    ]
}

/// The four mutation canaries in chain order, each under the contract
/// owning the obligation it breaks: every run must carry a violation.
pub fn check_canaries(max_states: usize) -> [ContractRun; 4] {
    [
        DmContract::new(BuggyDm::new).verify(max_states),
        CmContract::new(BuggyCm::open_active).verify(max_states),
        RdContract::new(BuggyRd::new).verify(max_states),
        OsrContract::new(BuggyOsr::new).verify(max_states),
    ]
}

/// What [`compose`] derives: the end-to-end property plus the proof-effort
/// accounting the benchmark reports (additive vs multiplicative).
#[derive(Clone, Debug)]
pub struct ChainProof {
    /// Always [`E2E`] on success.
    pub derived: &'static str,
    /// `(sublayer, states explored)` per contract, in chain order.
    pub per_contract: Vec<(&'static str, usize)>,
    /// Total states the compositional proof explored.
    pub sum_states: usize,
    /// What a fused product of the same four machines would face
    /// (the product of the per-contract spaces, saturating).
    pub fused_estimate: u128,
}

/// The composition theorem: every contract holds, and every assumption is
/// discharged by a guarantee established *earlier* in the chain (or by the
/// environment axiom). On success the end-to-end property [`E2E`] is
/// derived from the four runs alone — no fused product is ever explored.
pub fn compose(runs: &[ContractRun]) -> Result<ChainProof, String> {
    let mut established: Vec<&'static str> = vec![A_ENV];
    let mut per = Vec::new();
    let mut sum = 0usize;
    let mut prod: u128 = 1;
    for ContractRun { spec, result: res } in runs {
        if let Some(v) = &res.violation {
            return Err(format!(
                "{}: contract violated ({}) after {:?}",
                spec.sublayer, v.reason, v.actions
            ));
        }
        if !res.ok() {
            return Err(format!(
                "{}: exploration incomplete (deadlocks {}, truncated {})",
                spec.sublayer, res.deadlocks, res.truncated
            ));
        }
        for a in spec.assumes {
            if !established.contains(a) {
                return Err(format!(
                    "{}: assumption `{a}` is not established by any earlier \
                     guarantee — contracts compose only in sublayer order",
                    spec.sublayer
                ));
            }
        }
        established.extend_from_slice(spec.guarantees);
        per.push((spec.sublayer, res.states));
        sum += res.states;
        prod = prod.saturating_mul(res.states.max(1) as u128);
    }
    for g in [G_DM, G_CM, G_RD, G_OSR] {
        if !established.contains(&g) {
            return Err(format!("guarantee `{g}` missing from the chain; cannot derive `{E2E}`"));
        }
    }
    Ok(ChainProof { derived: E2E, per_contract: per, sum_states: sum, fused_estimate: prod })
}

/// Run the four shipped contracts and compose them: the whole end-to-end
/// proof in one call. `max_states` caps each *individual* contract run.
pub fn prove_end_to_end(max_states: usize) -> Result<ChainProof, String> {
    compose(&check_chain(max_states))
}

// ---------------------------------------------------------------------
// Shared vocabulary with the RFC-793/5961 relation.
// ---------------------------------------------------------------------

/// The post-synchronization RST discipline the CM contract enforces —
/// definitionally the same table as
/// [`crate::relation::rfc5961_response`]`(true, Rst, ·)`. The cross-check
/// tests pin the two together in *both* directions, so the contract can
/// never silently loosen the relation (nor the relation the contract).
pub fn cm_rst_response(v: SeqValidity) -> RespClass {
    match v {
        SeqValidity::Exact => RespClass::Reset,
        SeqValidity::InWindow => RespClass::ChallengeAck,
        SeqValidity::Outside => RespClass::Drop,
    }
}

/// The 1:1 bridge between RD's on-wire trichotomy and the relation's.
pub fn verdict_of(v: SeqValidity) -> SeqVerdict {
    match v {
        SeqValidity::Exact => SeqVerdict::Exact,
        SeqValidity::InWindow => SeqVerdict::InWindow,
        SeqValidity::Outside => SeqVerdict::Outside,
    }
}

/// Inverse of [`verdict_of`] (total, so the cross-check can walk the
/// relation's domain back onto the contract's).
pub fn validity_of(v: SeqVerdict) -> SeqValidity {
    match v {
        SeqVerdict::Exact => SeqValidity::Exact,
        SeqVerdict::InWindow => SeqValidity::InWindow,
        SeqVerdict::Outside => SeqValidity::Outside,
    }
}

// ---------------------------------------------------------------------
// DM contract: exactly-once admission.
// ---------------------------------------------------------------------

const LOCAL_ADDR: u32 = 1;
const LISTEN_PORT: u16 = 80;
/// Depth bound: environment actions per DM run.
const DM_STEP_BOUND: u8 = 5;

fn dm_tuple(i: usize) -> FourTuple {
    FourTuple {
        local: Endpoint::new(LOCAL_ADDR, LISTEN_PORT),
        remote: Endpoint::new(9, 9000 + i as u16),
    }
}

/// Assume/guarantee contract over a real demuxer — [`Demux`], or its
/// mutation canary [`BuggyDm`]: the environment admits/releases two flows
/// and toggles the accept gate; DM must admit each live tuple exactly once
/// and keep `lookup`/`tuple_of`/`classify` coherent with the ghost
/// admission set in every reachable state.
pub struct DmContract<D> {
    mk: fn(u32, SharedLog) -> D,
}

impl<D: DmDriver> DmContract<D> {
    /// The contract over the machine `mk` builds.
    pub fn new(mk: fn(u32, SharedLog) -> D) -> DmContract<D> {
        DmContract { mk }
    }
}

/// `M` is the [`Keyed`] demuxer — a parameter rather than `Keyed<D>` so the
/// derives ask nothing of the driver type. The same holds for the other
/// three contract states.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DmContractState<M> {
    dm: M,
    /// Ghost: the admission the environment believes it holds per tuple.
    admitted: [Option<ConnId>; 2],
    gated: bool,
    steps: u8,
    /// A per-transition obligation observed broken while driving (e.g. a
    /// duplicate admission accepted); reported by the invariant.
    breach: Option<String>,
}

/// A classify probe: a SYN whose DM bits address `dst` from `src`.
fn dm_probe(dst: Endpoint, src: Endpoint) -> Packet {
    let mut p = Packet { dst_addr: dst.addr, src_addr: src.addr, ..Default::default() };
    p.dm.dst_port = dst.port;
    p.dm.src_port = src.port;
    p.cm.flags.syn = true;
    p
}

impl<D: DmDriver> Contract for DmContract<D> {
    const SPEC: ContractSpec = DM_CONTRACT;
}

impl<D: DmDriver> Model for DmContract<D> {
    type State = DmContractState<Keyed<D>>;

    fn init(&self) -> Vec<Self::State> {
        let mut dm = (self.mk)(LOCAL_ADDR, slmetrics::shared());
        dm.listen(LISTEN_PORT);
        vec![DmContractState {
            dm: Keyed::new(dm, D::contract_key),
            admitted: [None, None],
            gated: false,
            steps: 0,
            breach: None,
        }]
    }

    fn next(&self, s: &Self::State) -> Vec<(&'static str, Self::State)> {
        if s.steps >= DM_STEP_BOUND {
            return vec![];
        }
        let mut out = Vec::new();
        let admit_labels = ["admit_t0", "admit_t1"];
        let release_labels = ["release_t0", "release_t1"];
        for i in 0..2 {
            let mut ns = s.clone();
            ns.steps += 1;
            match (s.admitted[i], ns.dm.with(|dm| dm.admit(dm_tuple(i)))) {
                (Some(_), Ok(id)) => {
                    ns.breach = Some(format!(
                        "{G_DM} violated: bound tuple re-admitted as {id:?} — \
                         two connections now shear on one 4-tuple"
                    ));
                }
                (Some(_), Err(_)) => {} // correctly refused
                (None, Ok(id)) => ns.admitted[i] = Some(id),
                (None, Err(e)) => {
                    ns.breach =
                        Some(format!("{G_DM} violated: fresh tuple refused admission: {e:?}"));
                }
            }
            out.push((admit_labels[i], ns));
            if let Some(id) = s.admitted[i] {
                let mut ns = s.clone();
                ns.steps += 1;
                ns.dm.with(|dm| dm.release(id));
                ns.admitted[i] = None;
                out.push((release_labels[i], ns));
            }
        }
        let mut ns = s.clone();
        ns.steps += 1;
        ns.gated = !s.gated;
        ns.dm.with(|dm| dm.set_gate(ns.gated));
        out.push(("gate", ns));
        out
    }

    fn invariant(&self, s: &Self::State) -> Result<(), String> {
        use sublayer_core::DmVerdict;
        if let Some(b) = &s.breach {
            return Err(b.clone());
        }
        for i in 0..2 {
            let t = dm_tuple(i);
            let got = s.dm.lookup(&t);
            if got != s.admitted[i] {
                return Err(format!(
                    "{G_DM} violated: lookup({t:?}) = {got:?} but the ghost admission is {:?}",
                    s.admitted[i]
                ));
            }
            if let Some(id) = s.admitted[i] {
                if s.dm.tuple_of(id) != Some(t) {
                    return Err(format!(
                        "{G_DM} violated: tuple_of({id:?}) lost the admitted 4-tuple"
                    ));
                }
                // An admitted flow's packets classify to it.
                match s.dm.classify(&dm_probe(t.local, t.remote)) {
                    DmVerdict::Known(k) if k == id => {}
                    v => {
                        return Err(format!(
                            "{G_DM} violated: admitted flow classifies as {v:?}, not Known({id:?})"
                        ))
                    }
                }
            }
        }
        // A fresh flow to the listening port obeys the gate.
        let fresh = dm_probe(
            Endpoint::new(LOCAL_ADDR, LISTEN_PORT),
            Endpoint::new(7, 777),
        );
        match (s.gated, s.dm.classify(&fresh)) {
            (true, DmVerdict::Gated(_)) | (false, DmVerdict::NewFlow(_)) => {}
            (g, v) => {
                return Err(format!(
                    "{G_DM} violated: fresh flow classified {v:?} with gate={g}"
                ))
            }
        }
        // No listener, not-for-us: fixed expectations.
        let stray = dm_probe(Endpoint::new(LOCAL_ADDR, 81), Endpoint::new(7, 777));
        if !matches!(s.dm.classify(&stray), DmVerdict::NoListener) {
            return Err(format!("{G_DM} violated: port with no listener classified as wanted"));
        }
        let foreign = dm_probe(Endpoint::new(LOCAL_ADDR + 1, LISTEN_PORT), Endpoint::new(7, 777));
        if !matches!(s.dm.classify(&foreign), DmVerdict::NotForUs) {
            return Err(format!("{G_DM} violated: foreign-addressed packet accepted"));
        }
        Ok(())
    }

    fn is_done(&self, s: &Self::State) -> bool {
        s.steps >= DM_STEP_BOUND
    }
}

// ---------------------------------------------------------------------
// CM contract: sequence only within the admitted window.
// ---------------------------------------------------------------------

/// Depth bound: environment actions per CM run.
const CM_STEP_BOUND: u8 = 6;
const CM_LOCAL_ISN: u32 = 0x1000_0001;
/// The genuine peer incarnation's ISN (carried by the valid SYN|ACK).
const CM_PEER_ISN: u32 = 0x2000_0002;
/// A second genuine incarnation: the bare SYN of a simultaneous open.
const CM_PEER_ISN_SIMO: u32 = 0x3000_0003;
/// A stale incarnation's ISN: its SYN|ACK echoes the wrong local ISN.
const CM_STALE_ISN: u32 = 0x4000_0004;
const CM_WRONG_ECHO: u32 = CM_LOCAL_ISN ^ 0x5a5a_5a5a;

fn cm_st(s: CmState) -> u8 {
    match s {
        CmState::Idle => 0,
        CmState::SynSent => 1,
        CmState::SynRcvd => 2,
        CmState::Established => 3,
        CmState::Closing => 4,
        CmState::TimeWait => 5,
        CmState::Closed => 6,
    }
}

/// Per-transition obligations the environment computed from the pre-state
/// and the action, checked on the successor (the `CongCtrl` idiom).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
struct CmObl {
    expect_state: Option<u8>,
    expect_challenges: Option<u64>,
}

/// Assume/guarantee contract over a real connection manager —
/// [`ConnMgmt`], or its canary [`BuggyCm`] — built, as the assumption
/// demands, from an `Admitted` token minted by a real [`Demux`]. The
/// environment replays genuine and stale handshake traffic plus blind
/// RSTs; CM must synchronize only with a genuine incarnation and follow the
/// RFC 5961 discipline ([`cm_rst_response`]) once synchronized.
pub struct CmContract<C> {
    mk: fn(Admitted, CmScheme, u32, Time, SharedLog) -> C,
}

impl<C: CmDriver> CmContract<C> {
    /// The contract over the machine `mk` opens actively.
    pub fn new(mk: fn(Admitted, CmScheme, u32, Time, SharedLog) -> C) -> CmContract<C> {
        CmContract { mk }
    }

    fn feed(
        &self,
        s: &CmContractState<Keyed<C>>,
        hdr: &CmHeader,
        rst_seq: SeqValidity,
        obl: CmObl,
    ) -> CmContractState<Keyed<C>> {
        let mut ns = s.clone();
        ns.steps += 1;
        ns.obl = obl;
        ns.cm.with(|cm| {
            cm.on_packet(hdr, false, rst_seq, ns.now);
            while cm.poll_event().is_some() {}
        });
        ns
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CmContractState<M> {
    cm: M,
    now: Time,
    steps: u8,
    /// Ghost: the genuine SYN|ACK has been emitted by the environment.
    fed_valid: bool,
    /// Ghost: the simultaneous-open SYN has been emitted.
    fed_simo: bool,
    obl: CmObl,
}

impl<C: CmDriver> Contract for CmContract<C> {
    const SPEC: ContractSpec = CM_CONTRACT;
}

impl<C: CmDriver> Model for CmContract<C> {
    type State = CmContractState<Keyed<C>>;

    fn init(&self) -> Vec<Self::State> {
        // The assumption G_DM made manifest: the token comes from a real
        // admission (and the typestate makes any other construction a
        // compile error).
        let mut dm = Demux::new(LOCAL_ADDR, slmetrics::shared());
        let token = dm.bind(dm_tuple(0)).expect("fresh demux admits");
        let cm =
            (self.mk)(token, CmScheme::ThreeWay, CM_LOCAL_ISN, Time::ZERO, slmetrics::shared());
        vec![CmContractState {
            cm: Keyed::new(cm, C::contract_key),
            now: Time::ZERO,
            steps: 0,
            fed_valid: false,
            fed_simo: false,
            obl: CmObl::default(),
        }]
    }

    fn next(&self, s: &Self::State) -> Vec<(&'static str, Self::State)> {
        if s.steps >= CM_STEP_BOUND {
            return vec![];
        }
        let pre = s.cm.state();
        let pre_ch = s.cm.challenge_acks();
        // Once synchronized (or torn down) the RST discipline is judged by
        // RD's sequence trichotomy; in the handshake states CM judges a
        // RST by its own bits (the echoed ISN).
        let presync = matches!(pre, CmState::SynSent | CmState::SynRcvd);
        let challenged = CmObl {
            expect_state: Some(cm_st(pre)),
            expect_challenges: Some(pre_ch + 1),
        };
        let held = CmObl { expect_state: Some(cm_st(pre)), expect_challenges: Some(pre_ch) };
        let mut out = Vec::new();

        // Genuine SYN|ACK (the admitted incarnation answering our SYN).
        let mut h = CmHeader::default();
        h.flags.syn = true;
        h.flags.cm_ack = true;
        h.isn = CM_PEER_ISN;
        h.ack_isn = CM_LOCAL_ISN;
        let obl = match pre {
            CmState::SynSent | CmState::SynRcvd => CmObl {
                expect_state: Some(cm_st(CmState::Established)),
                expect_challenges: Some(pre_ch),
            },
            // RFC 5961 §4: any SYN on a synchronized connection is
            // challenged, never obeyed.
            CmState::Established | CmState::Closing => challenged,
            _ => held,
        };
        let mut ns = self.feed(s, &h, SeqValidity::Outside, obl);
        ns.fed_valid = true;
        out.push(("synack_valid", ns));

        // A stale incarnation's SYN|ACK: echoes the wrong local ISN.
        let mut h = CmHeader::default();
        h.flags.syn = true;
        h.flags.cm_ack = true;
        h.isn = CM_STALE_ISN;
        h.ack_isn = CM_WRONG_ECHO;
        let obl = match pre {
            CmState::Established | CmState::Closing => challenged,
            _ => held, // pre-sync: must be ignored outright
        };
        out.push(("synack_stale", self.feed(s, &h, SeqValidity::Outside, obl)));

        // A bare SYN: simultaneous open in SynSent, duplicate in SynRcvd,
        // challenged once synchronized.
        let mut h = CmHeader::default();
        h.flags.syn = true;
        h.isn = CM_PEER_ISN_SIMO;
        let obl = match pre {
            CmState::SynSent => CmObl {
                expect_state: Some(cm_st(CmState::SynRcvd)),
                expect_challenges: Some(pre_ch),
            },
            CmState::Established | CmState::Closing => challenged,
            _ => held,
        };
        let mut ns = self.feed(s, &h, SeqValidity::Outside, obl);
        if pre == CmState::SynSent {
            ns.fed_simo = true;
        }
        out.push(("syn_simo", ns));

        // RSTs: one genuine (echoes our ISN / exact sequence), two blind.
        for (label, echo, validity) in [
            ("rst_genuine", CM_LOCAL_ISN, SeqValidity::Exact),
            ("rst_blind_inwindow", CM_WRONG_ECHO, SeqValidity::InWindow),
            ("rst_blind_outside", CM_WRONG_ECHO, SeqValidity::Outside),
        ] {
            let mut h = CmHeader::default();
            h.flags.rst = true;
            h.isn = CM_STALE_ISN;
            h.ack_isn = echo;
            let obl = if presync {
                // RFC 793: a RST answering a SYN must acknowledge it.
                if echo == CM_LOCAL_ISN {
                    CmObl {
                        expect_state: Some(cm_st(CmState::Closed)),
                        expect_challenges: Some(pre_ch),
                    }
                } else {
                    held
                }
            } else {
                match cm_rst_response(validity) {
                    RespClass::Reset => CmObl {
                        expect_state: Some(cm_st(CmState::Closed)),
                        expect_challenges: Some(pre_ch),
                    },
                    RespClass::ChallengeAck => challenged,
                    _ => held,
                }
            };
            out.push((label, self.feed(s, &h, validity, obl)));
        }

        // Time: the SYN retransmission deadline (handshake states only).
        if let Some(d) = s.cm.poll_deadline() {
            let mut ns = s.clone();
            ns.steps += 1;
            ns.now = ns.now.max(d);
            ns.cm.with(|cm| {
                cm.on_tick(ns.now);
                while cm.poll_event().is_some() {}
            });
            // A tick never challenges; the state may hold or give up.
            ns.obl = CmObl { expect_state: None, expect_challenges: Some(pre_ch) };
            out.push(("tick", ns));
        }
        out
    }

    fn invariant(&self, s: &Self::State) -> Result<(), String> {
        // The guarantee proper: synchronization only with a genuine
        // incarnation the environment actually offered.
        if s.cm.state() == CmState::Established {
            let legit = (s.fed_valid && s.cm.peer_isn() == Some(CM_PEER_ISN))
                || (s.fed_simo && s.cm.peer_isn() == Some(CM_PEER_ISN_SIMO));
            if !legit {
                return Err(format!(
                    "{G_CM} violated: established with peer_isn {:?} though no genuine \
                     incarnation offered it (valid synack fed: {}, simultaneous SYN fed: {})",
                    s.cm.peer_isn(),
                    s.fed_valid,
                    s.fed_simo
                ));
            }
        }
        if let Some(es) = s.obl.expect_state {
            let got = cm_st(s.cm.state());
            if got != es {
                return Err(format!(
                    "{G_CM} violated: transition obligation expected state {es}, \
                     machine is in {:?}",
                    s.cm.state()
                ));
            }
        }
        if let Some(ec) = s.obl.expect_challenges {
            let got = s.cm.challenge_acks();
            if got != ec {
                return Err(format!(
                    "{G_CM} violated: RFC 5961 challenge discipline expected \
                     {ec} challenge acks, machine has {got}"
                ));
            }
        }
        Ok(())
    }

    fn is_done(&self, s: &Self::State) -> bool {
        s.steps >= CM_STEP_BOUND
    }
}

// ---------------------------------------------------------------------
// RD contract: exactly-once bounded delivery under the fault alphabet.
// ---------------------------------------------------------------------

/// The environment may drop this many packets per run.
pub const RD_FAULT_BUDGET: u8 = 2;
/// ... and duplicate this many.
pub const RD_DUP_BUDGET: u8 = 1;
/// Liveness bound: the stream must be fully delivered and acknowledged
/// within this many scheduler steps on every admissible schedule.
pub const RD_STEP_BOUND: u8 = 40;
/// The stream under test: two one-byte segments.
pub const RD_STREAM: &[u8] = b"ab";

const RD_SND_ISN: u32 = 0x1111_0000;
const RD_RCV_ISN: u32 = 0x2222_0000;

/// Assume/guarantee contract over a sender/receiver pair of *real* RD
/// endpoints: the sender is the machine under test — [`ReliableDelivery`],
/// or the [`BuggyRd`] canary — and the receiver is always the shipped
/// [`ReliableDelivery`]. All scheduling is deterministic; the only
/// nondeterminism is the fault alphabet — where the drops and the
/// duplicate land. The guarantee is [`G_RD`]: every byte reaches the
/// receiver exactly once and the whole exchange completes within
/// [`RD_STEP_BOUND`] steps without exhausting the retry budget.
pub struct RdContract<R> {
    mk: fn(u32, u32, SharedLog) -> R,
}

impl<R: RdDriver> RdContract<R> {
    /// The contract over the sender `mk` builds.
    pub fn new(mk: fn(u32, u32, SharedLog) -> R) -> RdContract<R> {
        RdContract { mk }
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RdContractState<M> {
    snd: M,
    rcv: Keyed<ReliableDelivery>,
    now: Time,
    /// In-flight packets toward the receiver (encoded, + CM's fin flag).
    to_rcv: Vec<(Vec<u8>, bool)>,
    /// In-flight acks toward the sender.
    to_snd: Vec<Vec<u8>>,
    drops: u8,
    dups: u8,
    steps: u8,
    /// Ghost: how many times RD handed each stream offset up.
    delivered: [u8; 2],
    breach: Option<String>,
    /// Ghost: the sender reported `RetriesExhausted`.
    exhausted: bool,
}

impl<R: RdDriver> RdContractState<Keyed<R>> {
    fn complete(&self) -> bool {
        self.delivered == [1, 1] && self.snd.all_acked()
    }

    fn drain_snd_events(&mut self) {
        self.snd.with(|snd| {
            while let Some(ev) = snd.poll_event() {
                if matches!(ev, sublayer_core::RdEvent::RetriesExhausted) {
                    self.exhausted = true;
                }
            }
        });
    }

    /// One frame into the receiver, decoded in place as the stack decodes
    /// it; every part RD hands up is counted against the pushed stream.
    fn receive(&mut self, bytes: &[u8], fin: bool) {
        let (pkt, payload) = Packet::decode_view(bytes).expect("model channel holds valid frames");
        let (now, delivered, breach) = (self.now, &mut self.delivered, &mut self.breach);
        self.rcv.with(|rcv| {
            rcv.on_packet_view(now, &pkt, payload, fin, &mut |offset, data| {
                let off = offset as usize;
                if off >= RD_STREAM.len() || data != &RD_STREAM[off..off + 1] {
                    *breach = Some(format!(
                        "{G_RD} violated: delivered {data:?} at offset {offset}, \
                         not a byte of the pushed stream"
                    ));
                } else {
                    delivered[off] = delivered[off].saturating_add(1);
                }
            });
            // Its events (the peer's FIN, ours acked) carry nothing the
            // guarantee reads; drained, they stay out of the state key.
            while rcv.poll_event().is_some() {}
        });
    }

    /// Receiver's response packets (acks) enter the return channel.
    fn pump_rcv(&mut self) {
        self.rcv.with(|rcv| {
            while let Some((pkt, _fin)) = rcv.poll_packet(self.now) {
                self.to_snd.push(pkt.encode());
            }
        });
    }
}

impl<R: RdDriver> Contract for RdContract<R> {
    const SPEC: ContractSpec = RD_CONTRACT;
}

impl<R: RdDriver> Model for RdContract<R> {
    type State = RdContractState<Keyed<R>>;

    fn init(&self) -> Vec<Self::State> {
        let mut snd = (self.mk)(RD_SND_ISN, RD_RCV_ISN, slmetrics::shared());
        let rcv = ReliableDelivery::new(RD_RCV_ISN, RD_SND_ISN, slmetrics::shared());
        for b in RD_STREAM {
            snd.push_segment(Time::ZERO, vec![*b].into());
        }
        vec![RdContractState {
            snd: Keyed::new(snd, R::contract_key),
            rcv: Keyed::new(rcv, ReliableDelivery::contract_key),
            now: Time::ZERO,
            to_rcv: Vec::new(),
            to_snd: Vec::new(),
            drops: 0,
            dups: 0,
            steps: 0,
            delivered: [0, 0],
            breach: None,
            exhausted: false,
        }]
    }

    fn next(&self, s: &Self::State) -> Vec<(&'static str, Self::State)> {
        if s.steps >= RD_STEP_BOUND || s.complete() {
            return vec![];
        }
        let mut out = Vec::new();
        if !s.to_rcv.is_empty() {
            // The fault alphabet applies to the channel head: deliver it,
            // drop it (within budget), or deliver a duplicate of it.
            let deliver = |dup: bool| {
                let mut ns = s.clone();
                ns.steps += 1;
                let (bytes, fin) = if dup {
                    ns.dups += 1;
                    ns.to_rcv[0].clone()
                } else {
                    ns.to_rcv.remove(0)
                };
                ns.receive(&bytes, fin);
                ns.pump_rcv();
                ns
            };
            out.push(("deliver", deliver(false)));
            if s.dups < RD_DUP_BUDGET {
                out.push(("dup_deliver", deliver(true)));
            }
            if s.drops < RD_FAULT_BUDGET {
                let mut ns = s.clone();
                ns.steps += 1;
                ns.to_rcv.remove(0);
                ns.drops += 1;
                out.push(("drop", ns));
            }
            return out;
        }
        // Deterministic scheduler: transmit, then return acks, then time.
        {
            let mut ns = s.clone();
            if let Some((pkt, fin)) = ns.snd.with(|snd| snd.poll_packet(ns.now)) {
                ns.steps += 1;
                ns.to_rcv.push((pkt.encode(), fin));
                ns.drain_snd_events();
                return vec![("tx", ns)];
            }
        }
        if !s.to_snd.is_empty() {
            let mut ns = s.clone();
            ns.steps += 1;
            let bytes = ns.to_snd.remove(0);
            let (pkt, payload) =
                Packet::decode_view(&bytes).expect("model channel holds valid frames");
            // The receiver sends no data, so nothing is handed up here.
            ns.snd.with(|snd| snd.on_packet_view(ns.now, &pkt, payload, false, &mut |_, _| {}));
            ns.drain_snd_events();
            return vec![("ack", ns)];
        }
        if let Some(d) = s.snd.poll_deadline() {
            let mut ns = s.clone();
            ns.steps += 1;
            ns.now = ns.now.max(d);
            ns.snd.with(|snd| snd.on_tick(ns.now));
            ns.drain_snd_events();
            return vec![("rto", ns)];
        }
        out
    }

    fn invariant(&self, s: &Self::State) -> Result<(), String> {
        if let Some(b) = &s.breach {
            return Err(b.clone());
        }
        if let Some(off) = s.delivered.iter().position(|&c| c > 1) {
            return Err(format!(
                "{G_RD} violated: stream offset {off} delivered {} times — \
                 exactly-once broken",
                s.delivered[off]
            ));
        }
        if s.exhausted {
            return Err(format!(
                "{G_RD} violated: retries exhausted after {} drops / {} dups — \
                 the fault budget (drop<={RD_FAULT_BUDGET}, dup<={RD_DUP_BUDGET}) \
                 admits this schedule, so delivery must complete",
                s.drops, s.dups
            ));
        }
        if s.steps >= RD_STEP_BOUND && !s.complete() {
            return Err(format!(
                "{G_RD} violated: stream not fully delivered+acked within \
                 {RD_STEP_BOUND} steps (delivered {:?}, drops {}, dups {})",
                s.delivered, s.drops, s.dups
            ));
        }
        Ok(())
    }

    fn is_done(&self, s: &Self::State) -> bool {
        s.complete()
    }
}

// ---------------------------------------------------------------------
// OSR contract: in-order, gapless release.
// ---------------------------------------------------------------------

/// The three one-byte segments the OSR contract permutes.
pub const OSR_STREAM: &[u8] = b"ABC";

/// Assume/guarantee contract over a real reassembler — [`Osr`], or its
/// canary [`BuggyOsr`]. The assumption is exactly RD's guarantee — each
/// segment arrives exactly once, at its true offset, in any order — encoded
/// in the action alphabet itself. The guarantee is [`G_OSR`]: the
/// application sees precisely the contiguous delivered prefix, in order,
/// never a byte across a gap.
pub struct OsrContract<O> {
    mk: fn(Box<dyn RateController>, SharedLog) -> O,
}

impl<O: OsrDriver> OsrContract<O> {
    /// The contract over the machine `mk` builds.
    pub fn new(mk: fn(Box<dyn RateController>, SharedLog) -> O) -> OsrContract<O> {
        OsrContract { mk }
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct OsrContractState<M> {
    osr: M,
    /// Ghost: bit i set once segment i was delivered (exactly-once is the
    /// assumption, so the alphabet never offers a second delivery).
    mask: u8,
    /// Ghost: everything the application has read so far.
    read_out: Vec<u8>,
}

/// Length of the contiguous delivered prefix (trailing set bits of the
/// ghost mask from bit 0).
fn prefix_len(mask: u8) -> usize {
    (0..OSR_STREAM.len()).take_while(|i| mask & (1 << i) != 0).count()
}

impl<O: OsrDriver> Contract for OsrContract<O> {
    const SPEC: ContractSpec = OSR_CONTRACT;
}

impl<O: OsrDriver> Model for OsrContract<O> {
    type State = OsrContractState<Keyed<O>>;

    fn init(&self) -> Vec<Self::State> {
        let rate = slcc::make("fixed-window").expect("shipped controller");
        let osr = (self.mk)(rate, slmetrics::shared());
        let osr = Keyed::new(osr, O::contract_key);
        vec![OsrContractState { osr, mask: 0, read_out: Vec::new() }]
    }

    fn next(&self, s: &Self::State) -> Vec<(&'static str, Self::State)> {
        let labels = ["deliver_seg0", "deliver_seg1", "deliver_seg2"];
        let mut out = Vec::new();
        for i in 0..OSR_STREAM.len() {
            if s.mask & (1 << i) == 0 {
                let mut ns = s.clone();
                ns.osr.with(|osr| osr.on_delivered_bytes(i as u64, &OSR_STREAM[i..=i]));
                ns.mask |= 1 << i;
                out.push((labels[i], ns));
            }
        }
        if s.osr.readable_len() > 0 {
            let mut ns = s.clone();
            let got = ns.osr.with(|osr| osr.read());
            ns.read_out.extend(got);
            out.push(("read", ns));
        }
        out
    }

    fn invariant(&self, s: &Self::State) -> Result<(), String> {
        let released = s.read_out.len() + s.osr.readable_len();
        let prefix = prefix_len(s.mask);
        if released != prefix {
            return Err(format!(
                "{G_OSR} violated: {released} bytes released to the app but the \
                 contiguous delivered prefix is {prefix} (mask {:#05b}) — \
                 a byte crossed a reassembly gap or was withheld",
                s.mask
            ));
        }
        if s.read_out[..] != OSR_STREAM[..s.read_out.len()] {
            return Err(format!(
                "{G_OSR} violated: application read {:?}, not a prefix of {OSR_STREAM:?}",
                s.read_out
            ));
        }
        Ok(())
    }

    fn is_done(&self, s: &Self::State) -> bool {
        s.mask as usize == (1 << OSR_STREAM.len()) - 1 && s.osr.readable_len() == 0
    }
}

// ---------------------------------------------------------------------
// Tests: shipped sublayers honor the chain with pinned exploration counts;
// each canary is caught by its owning contract with a pinned shortest
// counterexample; the contracts stay pinned to the RFC-793/5961 relation
// in both directions.
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Product;
    use crate::relation::{classify_seq, rfc5961_response, SegClass};

    const CAP: usize = 2_000_000;

    #[test]
    fn shipped_chain_proves_with_exact_counts_pinned() {
        // (states, transitions, depth) per contract, as BENCH_contracts.json
        // records them: a change to a `contract_key`, a driver or an
        // alphabet moves one of these, which is the point.
        let want =
            [("dm", 86, 207, 5), ("cm", 1267, 3879, 6), ("rd", 114, 116, 14), ("osr", 15, 24, 4)];
        for (run, (sublayer, states, transitions, depth)) in check_chain(CAP).iter().zip(want) {
            let r = run.result();
            assert_eq!(run.spec().sublayer, sublayer);
            assert!(r.ok(), "{sublayer}: {r:?}");
            let got = (r.states, r.transitions, r.max_depth);
            assert_eq!(got, (states, transitions, depth), "{sublayer}");
        }
    }

    #[test]
    fn chain_composes_to_end_to_end_delivery() {
        let proof = prove_end_to_end(CAP).expect("the shipped chain composes");
        assert_eq!(proof.derived, E2E);
        assert_eq!(proof.per_contract.len(), 4);
        // The compositional cost is additive; the fused product is
        // multiplicative. That gap is the paper's point.
        assert!(
            (proof.sum_states as u128) * 10 < proof.fused_estimate,
            "sum {} should be well under the fused estimate {}",
            proof.sum_states,
            proof.fused_estimate
        );
    }

    #[test]
    fn composition_requires_sublayer_order() {
        // RD before CM: RD's assumption (G_CM) is not yet established.
        let [dm, _, rd, _] = check_chain(CAP);
        let err = compose(&[dm, rd]).expect_err("out-of-order chain must not compose");
        assert!(err.contains("sublayer order"), "{err}");
    }

    #[test]
    fn composition_refuses_a_failing_contract() {
        let mut runs = check_chain(CAP);
        runs[2] = RdContract::new(BuggyRd::new).verify(CAP);
        let err = compose(&runs).expect_err("a violated link must break the chain");
        assert!(err.starts_with("rd:"), "{err}");
    }

    // --- mutation canaries: each caught by the contract owning the
    // --- violated obligation, with the BFS-shortest counterexample pinned.

    #[test]
    fn each_canary_is_caught_by_its_owning_contract() {
        let want: [(&str, &[&str], &str); 4] = [
            // Admit the same tuple twice.
            (G_DM, &["admit_t0", "admit_t0"], "re-admitted"),
            // One stale SYN|ACK synchronizes.
            (G_CM, &["synack_stale"], "established with peer_isn"),
            // The drop-after-retry bug needs the two admissible drops on
            // one segment — the first RTO's retransmission still goes out,
            // but from the second RTO on the canary swallows them, so the
            // retry budget walks to exhaustion.
            (
                G_RD,
                &[
                    "tx", "deliver", "tx", "drop", "ack", "rto", "tx", "drop", "rto", "rto",
                    "rto", "rto", "rto", "rto", "rto", "rto",
                ],
                "retries exhausted",
            ),
            // One gapped delivery is released.
            (G_OSR, &["deliver_seg1"], "crossed a reassembly gap"),
        ];
        for (run, (guarantee, actions, why)) in check_canaries(CAP).iter().zip(want) {
            let sublayer = run.spec().sublayer;
            let v = run.result().violation.as_ref();
            let v = v.unwrap_or_else(|| panic!("{sublayer} canary escaped its contract"));
            assert_eq!(run.spec().guarantees, [guarantee], "{sublayer}");
            assert!(v.reason.contains(guarantee) && v.reason.contains(why), "{sublayer}: {v:?}");
            assert_eq!(v.actions, actions, "{sublayer}: {v:?}");
        }
    }

    // --- the fused arm: what composition avoids.

    #[test]
    fn fused_product_explodes_multiplicatively() {
        let fused =
            check(&Product::new(DmContract::new(Demux::new), OsrContract::new(Osr::new)), CAP);
        assert!(fused.ok(), "{fused:?}");
        // 86 + 15 states checked one contract at a time; 1,290 as one machine.
        assert_eq!(fused.states, 1290, "{fused:?}");
    }

    // --- cross-checks: contracts ⇔ relation, pinned in both directions.

    #[test]
    fn cm_rst_obligation_matches_relation() {
        // Contract → relation: every obligation the CM contract enforces
        // is exactly what the shared RFC 5961 relation prescribes.
        for v in [SeqValidity::Exact, SeqValidity::InWindow, SeqValidity::Outside] {
            assert_eq!(
                cm_rst_response(v),
                rfc5961_response(true, SegClass::Rst, verdict_of(v)),
                "contract diverges from relation at {v:?}"
            );
        }
    }

    #[test]
    fn relation_matches_cm_rst_obligation() {
        // Relation → contract: walking the relation's domain back onto the
        // contract, so loosening either side breaks a test.
        for v in [SeqVerdict::Exact, SeqVerdict::InWindow, SeqVerdict::Outside] {
            assert_eq!(
                rfc5961_response(true, SegClass::Rst, v),
                cm_rst_response(validity_of(v)),
                "relation diverges from contract at {v:?}"
            );
        }
    }

    #[test]
    fn rd_seq_validity_matches_classify_seq() {
        // The third leg: RD's own wire trichotomy is the same function as
        // the relation's classify_seq over RD's validity window.
        use sublayer_core::rd::VALIDITY_WND;
        let rd = ReliableDelivery::new(RD_SND_ISN, RD_RCV_ISN, slmetrics::shared());
        let rcv_ack = RD_RCV_ISN.wrapping_add(1); // offset 0 on the wire
        for delta in [
            0u32,
            1,
            2,
            VALIDITY_WND - 1,
            VALIDITY_WND,
            VALIDITY_WND + 1,
            u32::MAX / 2,
            u32::MAX,
        ] {
            let wire = rcv_ack.wrapping_add(delta);
            assert_eq!(
                verdict_of(rd.seq_validity(wire)),
                classify_seq(rcv_ack, wire, VALIDITY_WND),
                "divergence at delta {delta}"
            );
        }
    }

    #[test]
    fn chain_assumptions_are_the_previous_guarantee() {
        // The chain shape itself, pinned: each contract's non-environment
        // assumption is exactly the guarantee of the sublayer below.
        let c = chain();
        assert_eq!(c[1].assumes.last(), Some(&c[0].guarantees[0]));
        assert_eq!(c[2].assumes.last(), Some(&c[1].guarantees[0]));
        assert_eq!(c[3].assumes.last(), Some(&c[2].guarantees[0]));
    }
}
