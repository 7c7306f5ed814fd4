//! VNET server / Proxy attachments.
//!
//! §3.3: "A VNET server runs on each VMPlant, and on a host (called the
//! Proxy) in client domain. The client attaches to its VM request,
//! credentials for uniquely identifying its domain, and also the IP
//! address and port on which the Proxy is running." Deployment scenarios
//! include plants on a private network reachable only "through VMShop
//! running on a Gateway host" with "statically established SSH tunnels
//! between public ports on the Gateway and the ports where the VNET
//! servers are running on VMPlants".

use std::collections::BTreeMap;

use crate::pool::NetworkId;

/// The client-side endpoint of a VNET bridge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProxyEndpoint {
    /// Client domain the proxy fronts.
    pub domain: String,
    /// Proxy host address.
    pub host: String,
    /// Proxy TCP port.
    pub port: u16,
}

impl ProxyEndpoint {
    /// Convenience constructor.
    pub fn new(domain: impl Into<String>, host: impl Into<String>, port: u16) -> ProxyEndpoint {
        ProxyEndpoint {
            domain: domain.into(),
            host: host.into(),
            port,
        }
    }
}

/// How the plant's VNET server is reached from outside the site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reachability {
    /// The plant is directly reachable (open deployment).
    Direct {
        /// The VNET server port on the plant.
        port: u16,
    },
    /// The plant is on a private network; an SSH tunnel on the gateway
    /// forwards a public port to the plant's VNET server (§3.3's pursued
    /// implementation).
    GatewayTunnel {
        /// Gateway host name.
        gateway: String,
        /// Public port on the gateway.
        public_port: u16,
        /// The VNET server port on the plant.
        plant_port: u16,
    },
}

/// Bridge failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BridgeError {
    /// A bridge for this network already exists.
    AlreadyBridged(NetworkId),
    /// No bridge exists for this network.
    NotBridged(NetworkId),
    /// Domain credentials do not match the network's assignment.
    DomainMismatch {
        /// The network's owning domain.
        expected: String,
        /// The proxy's claimed domain.
        got: String,
    },
}

impl std::fmt::Display for BridgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BridgeError::AlreadyBridged(n) => write!(f, "{n} is already bridged"),
            BridgeError::NotBridged(n) => write!(f, "{n} has no bridge"),
            BridgeError::DomainMismatch { expected, got } => {
                write!(f, "proxy domain '{got}' does not own this network ('{expected}')")
            }
        }
    }
}

impl std::error::Error for BridgeError {}

/// One established bridge: a host-only network patched through to a proxy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bridge {
    /// The bridged host-only network.
    pub network: NetworkId,
    /// The client-side endpoint.
    pub proxy: ProxyEndpoint,
    /// How the plant end is reached.
    pub reachability: Reachability,
}

/// The VNET server state on one plant.
#[derive(Clone, Debug, Default)]
pub struct VnetBridge {
    bridges: BTreeMap<NetworkId, Bridge>,
}

impl VnetBridge {
    /// A server with no bridges.
    pub(crate) fn new() -> VnetBridge {
        VnetBridge::default()
    }

    /// Establish a bridge from `network` (owned by `owner_domain`) to the
    /// given proxy. The proxy's credentials must name the owning domain —
    /// this is what keeps one client's Ethernet frames out of another's
    /// network.
    pub(crate) fn connect(
        &mut self,
        network: NetworkId,
        owner_domain: &str,
        proxy: ProxyEndpoint,
        reachability: Reachability,
    ) -> Result<&Bridge, BridgeError> {
        if proxy.domain != owner_domain {
            return Err(BridgeError::DomainMismatch {
                expected: owner_domain.to_owned(),
                got: proxy.domain,
            });
        }
        if self.bridges.contains_key(&network) {
            return Err(BridgeError::AlreadyBridged(network));
        }
        let bridge = Bridge {
            network,
            proxy,
            reachability,
        };
        Ok(self.bridges.entry(network).or_insert(bridge))
    }

    /// Tear a bridge down.
    pub(crate) fn disconnect(&mut self, network: NetworkId) -> Result<Bridge, BridgeError> {
        self.bridges
            .remove(&network)
            .ok_or(BridgeError::NotBridged(network))
    }

    /// The bridge on `network`, if any.
    pub(crate) fn bridge(&self, network: NetworkId) -> Option<&Bridge> {
        self.bridges.get(&network)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proxy() -> ProxyEndpoint {
        ProxyEndpoint::new("ufl.edu", "proxy.acis.ufl.edu", 9300)
    }

    #[test]
    fn connect_and_disconnect() {
        let mut v = VnetBridge::new();
        let b = v
            .connect(
                NetworkId(0),
                "ufl.edu",
                proxy(),
                Reachability::Direct { port: 9400 },
            )
            .unwrap();
        assert_eq!(b.network, NetworkId(0));
        assert!(v.bridge(NetworkId(0)).is_some());
        let removed = v.disconnect(NetworkId(0)).unwrap();
        assert_eq!(removed.proxy.port, 9300);
        assert!(v.bridges.is_empty());
    }

    #[test]
    fn domain_credentials_are_enforced() {
        let mut v = VnetBridge::new();
        let err = v
            .connect(
                NetworkId(0),
                "northwestern.edu",
                proxy(), // claims ufl.edu
                Reachability::Direct { port: 9400 },
            )
            .unwrap_err();
        assert_eq!(
            err,
            BridgeError::DomainMismatch {
                expected: "northwestern.edu".into(),
                got: "ufl.edu".into()
            }
        );
        assert!(v.bridges.is_empty());
    }

    #[test]
    fn double_bridge_rejected() {
        let mut v = VnetBridge::new();
        v.connect(
            NetworkId(1),
            "ufl.edu",
            proxy(),
            Reachability::Direct { port: 9400 },
        )
        .unwrap();
        let err = v
            .connect(
                NetworkId(1),
                "ufl.edu",
                proxy(),
                Reachability::Direct { port: 9401 },
            )
            .unwrap_err();
        assert_eq!(err, BridgeError::AlreadyBridged(NetworkId(1)));
    }

    #[test]
    fn disconnect_unbridged_fails() {
        let mut v = VnetBridge::new();
        assert_eq!(
            v.disconnect(NetworkId(5)),
            Err(BridgeError::NotBridged(NetworkId(5)))
        );
    }

    #[test]
    fn gateway_tunnel_scenario() {
        let mut v = VnetBridge::new();
        let b = v
            .connect(
                NetworkId(2),
                "ufl.edu",
                proxy(),
                Reachability::GatewayTunnel {
                    gateway: "gw.site.example".into(),
                    public_port: 10_002,
                    plant_port: 9400,
                },
            )
            .unwrap();
        match &b.reachability {
            Reachability::GatewayTunnel {
                gateway,
                public_port,
                plant_port,
            } => {
                assert_eq!(gateway, "gw.site.example");
                assert_eq!(*public_port, 10_002);
                assert_eq!(*plant_port, 9400);
            }
            other => panic!("expected tunnel, got {other:?}"),
        }
    }
}
