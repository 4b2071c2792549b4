//! Host-level resource budget: the knobs for overload control.
//!
//! The budget bounds the *bytes* a host may hold across transport buffers
//! and ingest queues. Occupancy against `max_bytes` maps to a
//! [`Pressure`](netsim::Pressure) tier which the host pushes down into
//! the transport (window clamp, ACK pacing, accept gating) and applies to
//! its own admission policy (defer → shed-idle → refuse). The drain
//! fields parameterise slow-drain (slowloris) detection: a connection
//! that holds buffered bytes but advances its progress counter by less
//! than `min_drain_bytes` per `drain_check` interval is evicted.

use netsim::Dur;

/// Memory budget and overload-policy knobs for a [`Host`](crate::Host).
///
/// The default is **unlimited** (`max_bytes == 0`): no pressure is ever
/// reported, no admission control engages, and all pre-existing host
/// behaviour is unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Byte budget across all connection buffers plus queued ingest
    /// frames; `0` disables overload control entirely.
    pub max_bytes: usize,
    /// How often a buffer-holding connection must show progress.
    pub drain_check: Dur,
    /// Minimum progress (delivered + acked bytes) per `drain_check`
    /// interval; an accepted connection holding buffered bytes that
    /// advances less than this is a slow drainer and is evicted.
    pub min_drain_bytes: u64,
    /// An accepted connection must be idle at least this long before the
    /// shed-idle pass (at High pressure) may reset it.
    pub shed_idle_grace: Dur,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget {
            max_bytes: 0,
            drain_check: Dur::from_secs(1),
            min_drain_bytes: 1024,
            shed_idle_grace: Dur::from_secs(1),
        }
    }
}

impl ResourceBudget {
    /// A budget of `max_bytes` with the default drain policy.
    pub fn bytes(max_bytes: usize) -> Self {
        ResourceBudget { max_bytes, ..Default::default() }
    }

    /// Is overload control engaged at all?
    pub fn active(&self) -> bool {
        self.max_bytes != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Pressure;

    #[test]
    fn default_budget_is_inactive() {
        let b = ResourceBudget::default();
        assert!(!b.active());
        assert_eq!(Pressure::from_occupancy(u64::MAX, b.max_bytes as u64), Pressure::Nominal);
    }

    #[test]
    fn bytes_constructor_activates() {
        let b = ResourceBudget::bytes(1 << 20);
        assert!(b.active());
        assert_eq!(b.drain_check, Dur::from_secs(1));
    }
}
