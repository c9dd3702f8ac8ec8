//! The rank fabrics the workloads run over, built the way `bin/net.rs`
//! and the multi-process rendezvous build them: bind every endpoint,
//! then exchange the peer table.

use crate::counting::{Counters, CountingTransport};
use actcomp_net::{mpsc_world, SocketOptions, SocketTransport, Transport, TransportKind};
use std::sync::Arc;

/// Handshake config hash shared by every endpoint the ledger binds.
const CONFIG_HASH: u64 = 0x1ED6E2;

/// Which wire a workload's ranks talk over.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Wire {
    Mpsc,
    Uds,
    /// Loopback TCP behind the token-bucket cap, in Mbit/s.
    Tcp {
        link_mbps: Option<f64>,
    },
}

/// Binds and wires a `world`-rank fabric; with `counters`, every
/// endpoint is wrapped in a [`CountingTransport`] feeding them.
pub fn world(
    wire: Wire,
    world: usize,
    counters: Option<&Arc<Counters>>,
) -> Vec<Box<dyn Transport>> {
    let bare: Vec<Box<dyn Transport>> = match wire {
        Wire::Mpsc => mpsc_world(world)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect(),
        Wire::Uds => sockets(TransportKind::Uds, world, None),
        Wire::Tcp { link_mbps } => sockets(TransportKind::Tcp, world, link_mbps),
    };
    match counters {
        None => bare,
        Some(c) => bare
            .into_iter()
            .map(|t| Box::new(CountingTransport::new(t, Arc::clone(c))) as Box<dyn Transport>)
            .collect(),
    }
}

fn sockets(kind: TransportKind, world: usize, link_mbps: Option<f64>) -> Vec<Box<dyn Transport>> {
    let opts = SocketOptions {
        link_mbps,
        ..SocketOptions::default()
    };
    let mut ts: Vec<SocketTransport> = (0..world)
        .map(|r| SocketTransport::bind(kind, r, world, CONFIG_HASH, opts).expect("bind endpoint"))
        .collect();
    let addrs: Vec<String> = ts.iter().map(|t| t.local_addr().to_string()).collect();
    for t in ts.iter_mut() {
        for (p, a) in addrs.iter().enumerate() {
            t.set_peer(p, a.clone());
        }
    }
    ts.into_iter()
        .map(|t| Box::new(t) as Box<dyn Transport>)
        .collect()
}
