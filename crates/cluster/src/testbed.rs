//! The §4.2 experimental testbed, as a preset.

use crate::cluster::Cluster;
use crate::host::{Host, HostSpec};
use crate::nfs::{NfsServer, DEFAULT_NFS_BW};

/// Tunable parameters of the testbed (the defaults reproduce §4.2; the
/// ablation benches sweep them).
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Number of cluster nodes, each running one VMPlant.
    pub nodes: usize,
    /// Effective NFS bandwidth, bytes/sec.
    pub nfs_bandwidth: f64,
    /// Secondary storage servers (replication targets for hot goldens).
    /// The §4.2 testbed has none.
    pub replica_servers: usize,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            nodes: 8,
            nfs_bandwidth: DEFAULT_NFS_BW,
            replica_servers: 0,
        }
    }
}

/// Build the 8-node IBM e1350 testbed of §4.2: dual-P4 nodes with 1.5 GB
/// RAM and an NFS-served warehouse behind a 100 Mbit/s path.
pub fn e1350() -> Cluster {
    e1350_with(&TestbedConfig::default())
}

/// Build the testbed with explicit parameters.
pub fn e1350_with(config: &TestbedConfig) -> Cluster {
    let nfs = NfsServer::with_params("storage", config.nfs_bandwidth);
    let mut cluster = Cluster::new(nfs);
    for i in 0..config.replica_servers {
        cluster.add_replica(NfsServer::with_params(format!("storage-r{i}"), config.nfs_bandwidth));
    }
    for i in 0..config.nodes {
        cluster.add_host(Host::new(HostSpec::e1350_node(format!("node{i}"))));
    }
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_testbed_matches_section_4_2() {
        let c = e1350();
        assert_eq!(c.hosts().count(), 8);
        for (_, h) in c.hosts() {
            let spec = h.spec();
            assert_eq!(spec.cpus, 2);
            assert_eq!(spec.ram_mb, 1536);
            assert_eq!(spec.disk_bytes, 18 * 1024 * 1024 * 1024);
        }
        assert!((c.nfs().pipe.capacity() - DEFAULT_NFS_BW).abs() < 1.0);
    }

    #[test]
    fn config_overrides_apply() {
        let c = e1350_with(&TestbedConfig {
            nodes: 2,
            nfs_bandwidth: 50.0 * 1024.0 * 1024.0,
            replica_servers: 0,
        });
        assert_eq!(c.hosts().count(), 2);
        assert!((c.nfs().pipe.capacity() - 50.0 * 1024.0 * 1024.0).abs() < 1.0);
    }

    #[test]
    fn replica_servers_are_built_alongside_the_primary() {
        let c = e1350_with(&TestbedConfig {
            replica_servers: 2,
            ..TestbedConfig::default()
        });
        assert_eq!(c.replicas().len(), 2);
        assert_eq!(c.replicas()[0].name(), "storage-r0");
        assert_eq!(c.replicas()[1].name(), "storage-r1");
        assert!(e1350().replicas().is_empty());
    }
}
