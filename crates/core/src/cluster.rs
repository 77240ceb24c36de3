//! Trinity cluster roles (paper §2, Figure 1).
//!
//! A Trinity system consists of *slaves* (each stores a portion of the
//! data and processes messages), optional *proxies* (middle tier — they
//! handle messages but own no data, e.g. dispatching a query to all
//! slaves and aggregating partial results), and *clients* (user-side
//! library handles that talk to slaves and proxies through the Trinity
//! APIs).
//!
//! In this reproduction all roles share one fabric: slaves occupy machine
//! ids `[0, slaves)`, proxies `[slaves, slaves + proxies)`, and clients
//! attach to dedicated endpoints after those; a client reaches the
//! slaves through a proxy ([`TrinityClient::call_proxy`]).

use std::sync::Arc;

use trinity_graph::GraphHandle;
use trinity_memcloud::{CloudConfig, MemoryCloud};
use trinity_net::{Endpoint, FrameBuf, MachineId, ProtoId};

/// Cluster deployment shape.
#[derive(Debug, Clone)]
pub struct TrinityConfig {
    /// Memory-cloud (slave) configuration.
    pub cloud: CloudConfig,
    /// Number of proxy endpoints.
    pub proxies: usize,
    /// Number of client endpoints.
    pub clients: usize,
}

impl TrinityConfig {
    /// `slaves` slaves, no proxies, one client; small trunks (tests).
    pub fn small(slaves: usize) -> Self {
        TrinityConfig {
            cloud: CloudConfig::small(slaves),
            proxies: 0,
            clients: 1,
        }
        .finalize()
    }

    /// `slaves` slaves, `proxies` proxies, one client; small trunks.
    pub fn with_proxies(slaves: usize, proxies: usize) -> Self {
        TrinityConfig {
            cloud: CloudConfig::small(slaves),
            proxies,
            clients: 1,
        }
        .finalize()
    }

    fn finalize(mut self) -> Self {
        self.cloud.extra_machines = self.proxies + self.clients;
        self
    }
}

/// A running Trinity cluster.
pub struct TrinityCluster {
    cloud: Arc<MemoryCloud>,
    slaves: usize,
    proxies: Vec<TrinityProxy>,
    clients: Vec<TrinityClient>,
}

impl std::fmt::Debug for TrinityCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrinityCluster")
            .field("slaves", &self.slaves)
            .field("proxies", &self.proxies.len())
            .field("clients", &self.clients.len())
            .finish()
    }
}

impl TrinityCluster {
    /// Bring up the cluster.
    pub fn new(mut cfg: TrinityConfig) -> Self {
        cfg.cloud.extra_machines = cfg.proxies + cfg.clients;
        let slaves = cfg.cloud.machines;
        let cloud = Arc::new(MemoryCloud::new(cfg.cloud));
        let proxies = (0..cfg.proxies)
            .map(|i| TrinityProxy {
                endpoint: cloud.fabric().endpoint(MachineId((slaves + i) as u16)),
                slaves,
            })
            .collect();
        let clients = (0..cfg.clients)
            .map(|i| TrinityClient {
                endpoint: cloud
                    .fabric()
                    .endpoint(MachineId((slaves + cfg.proxies + i) as u16)),
                slaves,
            })
            .collect();
        TrinityCluster {
            cloud,
            slaves,
            proxies,
            clients,
        }
    }

    /// The memory cloud (slave tier).
    pub fn cloud(&self) -> &Arc<MemoryCloud> {
        &self.cloud
    }

    /// Number of slaves.
    pub fn slaves(&self) -> usize {
        self.slaves
    }

    /// Graph handle bound to slave `m`.
    pub fn graph(&self, m: usize) -> GraphHandle {
        GraphHandle::new(Arc::clone(self.cloud.node(m)))
    }

    /// The `i`-th proxy.
    pub fn proxy(&self, i: usize) -> &TrinityProxy {
        &self.proxies[i]
    }

    /// The `i`-th client.
    pub fn client(&self, i: usize) -> &TrinityClient {
        &self.clients[i]
    }

    /// Stop the cluster.
    pub fn shutdown(&self) {
        self.cloud.shutdown();
    }
}

/// A Trinity proxy: handles messages, owns no data. Typical use is the
/// aggregator pattern — register a protocol handler that fans a request
/// out to all slaves and combines the partial results.
pub struct TrinityProxy {
    endpoint: Arc<Endpoint>,
    slaves: usize,
}

impl std::fmt::Debug for TrinityProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrinityProxy")
            .field("machine", &self.endpoint.machine())
            .finish()
    }
}

impl TrinityProxy {
    /// The proxy's endpoint (for handler registration).
    pub fn endpoint(&self) -> &Arc<Endpoint> {
        &self.endpoint
    }

    /// This proxy's machine id.
    pub fn machine(&self) -> MachineId {
        self.endpoint.machine()
    }

    /// Register an aggregating protocol: on each request, `slave_proto` is
    /// called on every slave in one round ([`Endpoint::call_many`]) and the
    /// partial replies that arrived are folded with `combine`.
    pub fn register_aggregator<F, G>(
        &self,
        proto: ProtoId,
        slave_proto: ProtoId,
        prepare: F,
        combine: G,
    ) where
        F: Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
        G: Fn(Vec<Vec<u8>>) -> Vec<u8> + Send + Sync + 'static,
    {
        let endpoint = Arc::clone(&self.endpoint);
        let slaves = self.slaves;
        self.endpoint.register(proto, move |_src, payload| {
            let slave_req = prepare(payload);
            let requests: Vec<_> = (0..slaves as u16)
                .map(|m| (MachineId(m), slave_proto, slave_req.as_slice()))
                .collect();
            let parts = endpoint.call_many(&requests).into_iter().flatten();
            Some(combine(parts.map(FrameBuf::into_vec).collect()))
        });
    }
}

/// A Trinity client: the user-interface tier. Applications link the
/// Trinity library and reach the cluster through these APIs.
pub struct TrinityClient {
    endpoint: Arc<Endpoint>,
    slaves: usize,
}

impl std::fmt::Debug for TrinityClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrinityClient")
            .field("machine", &self.endpoint.machine())
            .finish()
    }
}

impl TrinityClient {
    /// The client's endpoint.
    pub fn endpoint(&self) -> &Arc<Endpoint> {
        &self.endpoint
    }

    /// Call a protocol on proxy `i`.
    pub fn call_proxy(
        &self,
        i: usize,
        proto: ProtoId,
        payload: &[u8],
    ) -> trinity_net::Result<FrameBuf> {
        self.endpoint
            .call(MachineId((self.slaves + i) as u16), proto, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_aggregates_across_slaves() {
        let cluster = TrinityCluster::new(TrinityConfig::with_proxies(4, 1));
        const SLAVE_COUNT: u16 = 40;
        const PROXY_SUM: u16 = 41;
        // Each slave exposes its local cell count.
        for m in 0..4 {
            let node = Arc::clone(cluster.cloud().node(m));
            cluster
                .cloud()
                .node(m)
                .endpoint()
                .register(SLAVE_COUNT, move |_src, _p| {
                    Some((node.store().cell_count() as u64).to_le_bytes().to_vec())
                });
        }
        // The proxy sums the per-slave counts.
        cluster.proxy(0).register_aggregator(
            PROXY_SUM,
            SLAVE_COUNT,
            |req| req.to_vec(),
            |parts| {
                let total: u64 = parts
                    .iter()
                    .map(|p| u64::from_le_bytes(p[..8].try_into().unwrap()))
                    .sum();
                total.to_le_bytes().to_vec()
            },
        );
        for i in 0..25u64 {
            cluster.cloud().node(0).put(i, b"x").unwrap();
        }
        let reply = cluster.client(0).call_proxy(0, PROXY_SUM, b"").unwrap();
        assert_eq!(u64::from_le_bytes(reply[..8].try_into().unwrap()), 25);
        cluster.shutdown();
    }

    #[test]
    fn an_aggregator_overlaps_its_slaves_round_trips() {
        // Every remote envelope takes 100 ms: one round trip is 200 ms,
        // and asking three slaves one after another would take 600.
        let mut cfg = TrinityConfig::with_proxies(3, 1);
        cfg.cloud.faults = Some(trinity_net::FaultPlan::new(5).with_delay(1.0, 100_000, 0));
        let cluster = TrinityCluster::new(cfg);
        const SLAVE_ID: u16 = 40;
        const PROXY_IDS: u16 = 41;
        for m in 0..3 {
            cluster
                .cloud()
                .node(m)
                .endpoint()
                .register(SLAVE_ID, move |_src, _p| Some(vec![m as u8]));
        }
        let proxy = cluster.proxy(0);
        proxy.register_aggregator(
            PROXY_IDS,
            SLAVE_ID,
            |req| req.to_vec(),
            |parts| parts.concat(),
        );
        // Asked from the proxy itself, so only the slaves' hops are delayed.
        let started = std::time::Instant::now();
        let reply = proxy
            .endpoint()
            .call(proxy.machine(), PROXY_IDS, b"")
            .unwrap();
        let took = started.elapsed();
        assert_eq!(&reply[..], &[0, 1, 2]);
        assert!(
            took < std::time::Duration::from_millis(400),
            "{took:?} for 3 slaves"
        );
        cluster.shutdown();
    }
}
