//! # netlayer — the sublayered network layer (paper §2.2, Figures 3/4)
//!
//! The paper sublayers the network layer into **neighbor determination**
//! (lowest — "route computation needs a list of neighbors"), **route
//! computation** ("below forwarding because route computation builds the
//! forwarding database") and **forwarding** (the data plane). Test **T3**
//! is met with *completely different packets* per sublayer: HELLOs,
//! routing PDUs (DV advertisements or LSPs), and data packets.
//!
//! | sublayer              | module       | implementations |
//! |-----------------------|--------------|-----------------|
//! | forwarding            | [`fib`], [`router`] | LPM trie FIB, TTL, local delivery |
//! | route computation     | [`routecomp`], [`dv`], [`ls`] | distance vector (RIP-style), link state (Dijkstra) |
//! | neighbor determination| [`neighbor`] | HELLO protocol with hold timers |
//!
//! [`topo`] builds whole router networks on `netsim` and carries the
//! DV-vs-LS equivalence and failure-reconvergence experiments (E2).
//!
//! [`boxnet`] is the multi-hop "Internet in a box" for transport
//! campaigns: statically-routed topologies (verified loop-free by
//! [`forwarding`] before traffic runs), scripted partition-triggered reroute,
//! and a NAT middlebox with scriptable failure personalities.

pub mod boxnet;
pub mod dv;
pub mod fib;
pub mod forwarding;
pub mod ls;
pub mod neighbor;
pub mod packet;
pub mod routecomp;
pub mod router;
pub mod topo;

pub use boxnet::{
    box_host_addr, schedule_nat_wipe, shipped_topologies, topo_diamond, topo_fanin,
    topo_line3, topo_long_haul, topo_nat_gateway, topo_random_connected, AddrPeek, BoxEdge,
    BoxNet, BoxRouterStats, BoxTopo, HostSite, NatBox, NatCodec, NatStats, StaticRouter,
    BOX_TTL, NAT_FIRST_PORT, NAT_INSIDE, NAT_OUTSIDE,
};
pub use dv::{DistanceVector, DvConfig};
pub use fib::{Fib, Prefix};
pub use ls::{LinkState, LsConfig, Lsp};
pub use neighbor::{NeighborConfig, NeighborEvent, NeighborTable};
pub use packet::{Addr, DataPacket, Hello};
pub use routecomp::{RcStats, RouteComputation};
pub use router::{Router, RouterStats};
pub use topo::{addr_of, build, RouterNet, Topology};
