//! Reference [`HostApp`]s.

use crate::host::{Host, HostApp, HostEvent};
use netsim::{HostStack, Time};

/// Echoes every received byte back to its sender; closes when the peer
/// does. The server side of the scale experiment's request/response
/// workload.
#[derive(Default)]
pub struct EchoApp {
    /// Bytes echoed back across all connections.
    pub echoed: u64,
    /// Connections accepted.
    pub served: u64,
}

impl<S: HostStack> HostApp<S> for EchoApp {
    fn on_event(&mut self, now: Time, host: &mut Host<S>, ev: HostEvent<S::ConnId>) {
        match ev {
            HostEvent::Accepted(_) => {
                if host.accept().is_some() {
                    self.served += 1;
                }
            }
            HostEvent::Readable(id) => {
                let data = host.recv(now, id);
                if !data.is_empty() {
                    self.echoed += data.len() as u64;
                    host.send(now, id, &data);
                }
            }
            HostEvent::PeerClosed(id) => {
                host.close(now, id);
            }
            HostEvent::Writable(_) | HostEvent::Closed(_) | HostEvent::Error(..) => {}
        }
    }
}
