//! HostStack-level differential observation.
//!
//! The two transports expose incompatible connection handles and state
//! enums (`ConnId`/`CmState` vs `FourTuple`/`TcpState`), but the
//! [`HostStack`] parity surface gives both the same observable
//! predicates. [`ConnObs`] snapshots a connection through that surface
//! only, producing a value that is directly comparable *across* stacks —
//! the basis of the conformance harness's stack-vs-stack outcome checks
//! (and a reusable building block for any differential test at the host
//! layer).

use netsim::{HostStack, TransportError};

/// One connection's observable state, read exclusively through the
/// [`HostStack`] parity surface so the same snapshot works for both
/// transports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ConnObs {
    pub established: bool,
    pub closed: bool,
    pub peer_closed: bool,
    pub error: Option<TransportError>,
    /// In-order bytes the app could read right now.
    pub readable: usize,
}

impl ConnObs {
    /// Field-by-field comparison; returns one human-readable line per
    /// mismatching field (empty = the stacks agree).
    pub fn diff(&self, label: &str, other: &ConnObs) -> Vec<String> {
        let mut out = Vec::new();
        if self.established != other.established {
            out.push(format!(
                "{label}: established {} vs {}",
                self.established, other.established
            ));
        }
        if self.closed != other.closed {
            out.push(format!("{label}: closed {} vs {}", self.closed, other.closed));
        }
        if self.peer_closed != other.peer_closed {
            out.push(format!(
                "{label}: peer_closed {} vs {}",
                self.peer_closed, other.peer_closed
            ));
        }
        if self.error != other.error {
            out.push(format!("{label}: error {:?} vs {:?}", self.error, other.error));
        }
        if self.readable != other.readable {
            out.push(format!(
                "{label}: readable {} vs {}",
                self.readable, other.readable
            ));
        }
        out
    }
}

/// Snapshot one connection. A connection the stack no longer knows about
/// reads as closed (with whatever terminal error survived its removal).
pub fn observe<H: HostStack>(stack: &H, id: H::ConnId) -> ConnObs {
    ConnObs {
        established: stack.is_established(id),
        closed: stack.is_closed(id),
        peer_closed: stack.peer_closed(id),
        error: stack.conn_error(id),
        readable: stack.readable_len(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_reports_each_field_once() {
        let a = ConnObs { established: true, readable: 4, ..Default::default() };
        let b = ConnObs {
            closed: true,
            error: Some(TransportError::Reset),
            ..Default::default()
        };
        let d = a.diff("client", &b);
        assert_eq!(d.len(), 4, "{d:?}");
        assert!(d.iter().all(|l| l.starts_with("client: ")));
        assert!(a.diff("x", &a).is_empty());
    }
}
