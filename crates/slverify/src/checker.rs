//! A small explicit-state model checker.
//!
//! This is the workhorse behind experiment E6: it exhaustively explores a
//! protocol model's state space (BFS), checks a safety invariant in every
//! state, detects deadlocks, and reconstructs a counterexample trace on
//! violation. The *size* of the explored space and the number of named
//! properties are the proof-effort proxies we compare between monolithic
//! (combined) and sublayered (per-sublayer) models — the analogue of the
//! paper's Dafny-vs-Coq experience in §4.

use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;

/// A finite-state protocol model.
pub trait Model {
    /// A global state (all participants + channel).
    type State: Clone + Eq + Hash + Debug;

    /// Initial states.
    fn init(&self) -> Vec<Self::State>;

    /// All successor states, labeled with the action taken.
    fn next(&self, s: &Self::State) -> Vec<(&'static str, Self::State)>;

    /// Safety invariant; `Err(reason)` marks a violation.
    fn invariant(&self, s: &Self::State) -> Result<(), String>;

    /// Is this a legitimate terminal state? (Non-goal states without
    /// successors are reported as deadlocks.)
    fn is_done(&self, _s: &Self::State) -> bool {
        false
    }
}

/// A real object under test, identified by its behavioural fingerprint.
///
/// The checker deduplicates states, so a state holding a live machine needs
/// an identity for it: `Keyed` stores the machine beside the fingerprint
/// function it was built with (`contract_key` for a sublayer,
/// `state_key` for a rate controller) and the key that function last
/// returned. `Eq` and `Hash` are the key's — equal keys promise
/// behaviourally identical machines — so a state struct holding a `Keyed`
/// derives its own identity. Reads go through `Deref`; the only mutable
/// access is [`Keyed::with`], which re-fingerprints, so a stale key cannot
/// be written.
#[derive(Clone)]
pub struct Keyed<M> {
    machine: M,
    fingerprint: fn(&M) -> Vec<u64>,
    key: Vec<u64>,
}

impl<M> Keyed<M> {
    pub fn new(machine: M, fingerprint: fn(&M) -> Vec<u64>) -> Keyed<M> {
        let key = fingerprint(&machine);
        Keyed { machine, fingerprint, key }
    }

    /// Drive the machine, then re-fingerprint it.
    pub fn with<R>(&mut self, drive: impl FnOnce(&mut M) -> R) -> R {
        let out = drive(&mut self.machine);
        self.key = (self.fingerprint)(&self.machine);
        out
    }
}

impl<M> std::ops::Deref for Keyed<M> {
    type Target = M;
    fn deref(&self) -> &M {
        &self.machine
    }
}

impl<M> PartialEq for Keyed<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<M> Eq for Keyed<M> {}

impl<M> Hash for Keyed<M> {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.key.hash(h);
    }
}

impl<M> Debug for Keyed<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Keyed").field(&self.key).finish()
    }
}

/// A counterexample: the action labels leading to the bad state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    pub actions: Vec<&'static str>,
    pub reason: String,
}

/// Exploration outcome.
#[derive(Clone, Debug)]
pub struct CheckResult {
    pub states: usize,
    pub transitions: usize,
    pub max_depth: usize,
    pub violation: Option<Trace>,
    pub deadlocks: usize,
    /// Exploration hit the state cap before exhausting the space.
    pub truncated: bool,
}

impl CheckResult {
    pub fn ok(&self) -> bool {
        self.violation.is_none() && self.deadlocks == 0 && !self.truncated
    }
}

/// Exhaustively check `model`, exploring at most `max_states` states.
pub fn check<M: Model>(model: &M, max_states: usize) -> CheckResult {
    // state -> (predecessor index, action); roots have usize::MAX.
    let mut seen: HashMap<M::State, usize> = HashMap::new();
    let mut parents: Vec<(usize, &'static str)> = Vec::new();
    let mut order: Vec<M::State> = Vec::new();
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new(); // (index, depth)
    let mut result = CheckResult {
        states: 0,
        transitions: 0,
        max_depth: 0,
        violation: None,
        deadlocks: 0,
        truncated: false,
    };

    let trace_to = |idx: usize, parents: &Vec<(usize, &'static str)>, reason: String| {
        let mut actions = Vec::new();
        let mut i = idx;
        while parents[i].0 != usize::MAX {
            actions.push(parents[i].1);
            i = parents[i].0;
        }
        actions.reverse();
        Trace { actions, reason }
    };

    for s in model.init() {
        if let Err(reason) = model.invariant(&s) {
            return CheckResult {
                states: 1,
                violation: Some(Trace { actions: vec![], reason }),
                ..result
            };
        }
        if !seen.contains_key(&s) {
            let idx = order.len();
            seen.insert(s.clone(), idx);
            order.push(s);
            parents.push((usize::MAX, ""));
            queue.push_back((idx, 0));
        }
    }

    while let Some((idx, depth)) = queue.pop_front() {
        result.states += 1;
        result.max_depth = result.max_depth.max(depth);
        let state = order[idx].clone();
        let succs = model.next(&state);
        if succs.is_empty() && !model.is_done(&state) {
            result.deadlocks += 1;
        }
        for (action, ns) in succs {
            result.transitions += 1;
            if let Err(reason) = model.invariant(&ns) {
                let mut t = trace_to(idx, &parents, reason);
                t.actions.push(action);
                result.violation = Some(t);
                return result;
            }
            if !seen.contains_key(&ns) {
                if order.len() >= max_states {
                    result.truncated = true;
                    continue;
                }
                let nidx = order.len();
                seen.insert(ns.clone(), nidx);
                order.push(ns);
                parents.push((idx, action));
                queue.push_back((nidx, depth + 1));
            }
        }
    }
    result
}

/// The asynchronous product of two models: states are pairs, transitions
/// interleave (one side moves, the other holds still), the invariant is the
/// conjunction, and a state is done only when both sides are.
///
/// This is what a *monolithic* verification of two composed sublayers has
/// to explore — the state space multiplies. The compositional alternative
/// in [`crate::contracts`] checks each side against its own
/// assume/guarantee contract (additive cost) and derives the end-to-end
/// property by [`crate::contracts::compose`] without ever building this
/// product; `Product` exists so the benchmark can measure the gap.
pub struct Product<A: Model, B: Model> {
    pub a: A,
    pub b: B,
}

impl<A: Model, B: Model> Product<A, B> {
    pub fn new(a: A, b: B) -> Product<A, B> {
        Product { a, b }
    }
}

impl<A: Model, B: Model> Model for Product<A, B> {
    type State = (A::State, B::State);

    fn init(&self) -> Vec<Self::State> {
        let bs = self.b.init();
        self.a
            .init()
            .into_iter()
            .flat_map(|sa| bs.iter().map(move |sb| (sa.clone(), sb.clone())))
            .collect()
    }

    fn next(&self, s: &Self::State) -> Vec<(&'static str, Self::State)> {
        let mut out: Vec<(&'static str, Self::State)> = self
            .a
            .next(&s.0)
            .into_iter()
            .map(|(l, sa)| (l, (sa, s.1.clone())))
            .collect();
        out.extend(self.b.next(&s.1).into_iter().map(|(l, sb)| (l, (s.0.clone(), sb))));
        out
    }

    fn invariant(&self, s: &Self::State) -> Result<(), String> {
        self.a.invariant(&s.0)?;
        self.b.invariant(&s.1)
    }

    fn is_done(&self, s: &Self::State) -> bool {
        self.a.is_done(&s.0) && self.b.is_done(&s.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter that must never reach `bad`.
    struct Counter {
        limit: u32,
        bad: Option<u32>,
    }

    impl Model for Counter {
        type State = u32;
        fn init(&self) -> Vec<u32> {
            vec![0]
        }
        fn next(&self, s: &u32) -> Vec<(&'static str, u32)> {
            if *s < self.limit {
                vec![("inc", s + 1)]
            } else {
                vec![]
            }
        }
        fn invariant(&self, s: &u32) -> Result<(), String> {
            match self.bad {
                Some(b) if *s == b => Err(format!("reached {b}")),
                _ => Ok(()),
            }
        }
        fn is_done(&self, s: &u32) -> bool {
            *s == self.limit
        }
    }

    #[test]
    fn explores_full_space() {
        let r = check(&Counter { limit: 10, bad: None }, 1000);
        assert!(r.ok());
        assert_eq!(r.states, 11);
        assert_eq!(r.transitions, 10);
        assert_eq!(r.max_depth, 10);
    }

    #[test]
    fn finds_violation_with_shortest_trace() {
        let r = check(&Counter { limit: 10, bad: Some(3) }, 1000);
        let v = r.violation.expect("must find the bad state");
        assert_eq!(v.actions, vec!["inc", "inc", "inc"]);
        assert!(v.reason.contains("reached 3"));
    }

    #[test]
    fn detects_deadlock() {
        struct Stuck;
        impl Model for Stuck {
            type State = u8;
            fn init(&self) -> Vec<u8> {
                vec![0]
            }
            fn next(&self, _: &u8) -> Vec<(&'static str, u8)> {
                vec![]
            }
            fn invariant(&self, _: &u8) -> Result<(), String> {
                Ok(())
            }
        }
        let r = check(&Stuck, 10);
        assert_eq!(r.deadlocks, 1);
        assert!(!r.ok());
    }

    #[test]
    fn truncation_reported() {
        let r = check(&Counter { limit: 1000, bad: None }, 10);
        assert!(r.truncated);
        assert!(!r.ok());
    }

    #[test]
    fn product_space_is_multiplicative() {
        // Two independent counters: the product explores (limit+1)^2
        // states while each side alone is limit+1 — the monolithic blowup
        // the compositional contracts avoid.
        let lone = check(&Counter { limit: 6, bad: None }, 1000);
        let prod = check(
            &Product::new(Counter { limit: 6, bad: None }, Counter { limit: 6, bad: None }),
            1000,
        );
        assert!(prod.ok(), "{prod:?}");
        assert_eq!(lone.states, 7);
        assert_eq!(prod.states, 49);
    }

    #[test]
    fn product_violation_carries_either_sides_reason() {
        let prod = check(
            &Product::new(Counter { limit: 6, bad: None }, Counter { limit: 6, bad: Some(2) }),
            1000,
        );
        let v = prod.violation.expect("right side must trip");
        assert!(v.reason.contains("reached 2"), "{v:?}");
    }

    #[test]
    fn branching_space_counts_states_once() {
        /// Two independent bits: 4 states total.
        struct Bits;
        impl Model for Bits {
            type State = (bool, bool);
            fn init(&self) -> Vec<(bool, bool)> {
                vec![(false, false)]
            }
            fn next(&self, s: &(bool, bool)) -> Vec<(&'static str, (bool, bool))> {
                let mut v = vec![];
                if !s.0 {
                    v.push(("a", (true, s.1)));
                }
                if !s.1 {
                    v.push(("b", (s.0, true)));
                }
                v
            }
            fn invariant(&self, _: &(bool, bool)) -> Result<(), String> {
                Ok(())
            }
            fn is_done(&self, s: &(bool, bool)) -> bool {
                s.0 && s.1
            }
        }
        let r = check(&Bits, 100);
        assert!(r.ok());
        assert_eq!(r.states, 4);
    }
}
