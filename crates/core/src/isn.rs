//! Pluggable ISN generation — the mechanism encapsulated by CM.
//!
//! "Regardless of the mechanism encapsulated, the main function of CM is
//! to choose ISNs that are unique and hard to predict" (§3). Two
//! generators mirror the paper's history lesson: RFC 793's clock scheme
//! and RFC 1948's keyed-hash scheme. Because the mechanism is private to
//! CM, swapping them touches nothing else (experiment E8).

use netsim::Time;
use slwire::FourTuple;

/// The CM-private ISN mechanism.
pub trait IsnGenerator {
    fn name(&self) -> &'static str;
    fn isn(&mut self, now: Time, tuple: &FourTuple) -> u32;
}

/// RFC 793: "the low-order bits of a clock" (one tick per 4 µs).
#[derive(Clone, Debug, Default)]
pub struct ClockIsn;

impl IsnGenerator for ClockIsn {
    fn name(&self) -> &'static str {
        "clock (RFC 793)"
    }

    fn isn(&mut self, now: Time, tuple: &FourTuple) -> u32 {
        // Salt with the local endpoint so two simulated hosts starting at
        // t=0 do not collide; the clock term dominates over time.
        let salt = tuple.local.addr.wrapping_mul(0x9E3779B9) ^ (tuple.local.port as u32);
        ((now.micros() / 4) as u32).wrapping_add(salt)
    }
}

/// RFC 1948: `hash(ports, addresses, secret) + clock`, making the ISN
/// hard for an off-path attacker to predict.
#[derive(Clone, Debug)]
pub struct SecureIsn {
    key: u64,
}

impl SecureIsn {
    pub fn new(key: u64) -> SecureIsn {
        SecureIsn { key }
    }

    /// A small keyed mixing function (xorshift-multiply rounds); not
    /// cryptographic-grade, but structurally faithful to RFC 1948.
    fn keyed_hash(&self, tuple: &FourTuple) -> u32 {
        let mut x = self.key
            ^ ((tuple.local.addr as u64) << 32 | tuple.remote.addr as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= ((tuple.local.port as u64) << 16 | tuple.remote.port as u64) << 7;
        for _ in 0..3 {
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        }
        (x >> 32) as u32 ^ x as u32
    }
}

impl IsnGenerator for SecureIsn {
    fn name(&self) -> &'static str {
        "keyed hash (RFC 1948)"
    }

    fn isn(&mut self, now: Time, tuple: &FourTuple) -> u32 {
        self.keyed_hash(tuple).wrapping_add((now.micros() / 4) as u32)
    }
}

/// Factory by name, for configuration and experiments.
pub fn make(name: &str) -> Box<dyn IsnGenerator> {
    match name {
        "clock" => Box::new(ClockIsn),
        "secure" => Box::new(SecureIsn::new(0xC0FF_EE00_DEAD_BEEF)),
        other => panic!("unknown ISN generator {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Dur;
    use slwire::Endpoint;

    fn tup(lp: u16, rp: u16) -> FourTuple {
        FourTuple { local: Endpoint::new(1, lp), remote: Endpoint::new(2, rp) }
    }

    #[test]
    fn clock_isn_advances_with_time() {
        let mut g = ClockIsn;
        let a = g.isn(Time::ZERO, &tup(1, 2));
        let b = g.isn(Time::ZERO + Dur::from_millis(1), &tup(1, 2));
        assert_eq!(b.wrapping_sub(a), 250, "4µs per tick");
    }

    #[test]
    fn clock_isn_differs_across_hosts() {
        let mut g = ClockIsn;
        let t1 = FourTuple { local: Endpoint::new(1, 80), remote: Endpoint::new(2, 90) };
        let t2 = FourTuple { local: Endpoint::new(2, 80), remote: Endpoint::new(1, 90) };
        assert_ne!(g.isn(Time::ZERO, &t1), g.isn(Time::ZERO, &t2));
    }

    #[test]
    fn secure_isn_depends_on_tuple_and_key() {
        let mut a = SecureIsn::new(1);
        let mut b = SecureIsn::new(2);
        assert_ne!(a.isn(Time::ZERO, &tup(1, 2)), b.isn(Time::ZERO, &tup(1, 2)));
        assert_ne!(a.isn(Time::ZERO, &tup(1, 2)), a.isn(Time::ZERO, &tup(1, 3)));
        // Deterministic for the same inputs.
        assert_eq!(a.isn(Time::ZERO, &tup(1, 2)), a.isn(Time::ZERO, &tup(1, 2)));
    }

    #[test]
    fn secure_isn_spreads_over_the_space() {
        // Different tuples should land far apart (predictability test).
        let mut g = SecureIsn::new(42);
        let mut vals: Vec<u32> = (0..64u16).map(|p| g.isn(Time::ZERO, &tup(p, 80))).collect();
        vals.sort();
        vals.dedup();
        assert_eq!(vals.len(), 64, "no collisions across 64 tuples");
    }

    #[test]
    fn factory() {
        assert_eq!(make("clock").name(), "clock (RFC 793)");
        assert_eq!(make("secure").name(), "keyed hash (RFC 1948)");
    }
}
