//! The assembled cluster: hosts plus the warehouse storage server.

use crate::files::StoreError;
use crate::host::Host;
use crate::nfs::NfsServer;

/// I/O failures surfaced to the production lines.
pub type IoError = StoreError;

/// Index of a host within a [`Cluster`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// A site: a set of nodes sharing one NFS-served warehouse, plus any
/// secondary storage servers hot goldens replicate to.
pub struct Cluster {
    hosts: Vec<Host>,
    nfs: NfsServer,
    replicas: Vec<NfsServer>,
}

impl Cluster {
    /// A cluster around the given storage server.
    pub(crate) fn new(nfs: NfsServer) -> Cluster {
        Cluster {
            hosts: Vec::new(),
            nfs,
            replicas: Vec::new(),
        }
    }

    /// Attach a secondary storage server (a replication target).
    pub(crate) fn add_replica(&mut self, replica: NfsServer) {
        self.replicas.push(replica);
    }

    /// The secondary storage servers, in attach order.
    pub fn replicas(&self) -> &[NfsServer] {
        &self.replicas
    }

    /// Add a node; returns its id.
    pub(crate) fn add_host(&mut self, host: Host) -> HostId {
        self.hosts.push(host);
        HostId(self.hosts.len() - 1)
    }

    /// All nodes with their ids.
    pub fn hosts(&self) -> impl Iterator<Item = (HostId, &Host)> {
        self.hosts.iter().enumerate().map(|(i, h)| (HostId(i), h))
    }

    /// The storage server.
    pub fn nfs(&self) -> &NfsServer {
        &self.nfs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;

    fn two_node_cluster() -> Cluster {
        let mut c = Cluster::new(NfsServer::new("storage"));
        c.add_host(Host::new(HostSpec::e1350_node("node0")));
        c.add_host(Host::new(HostSpec::e1350_node("node1")));
        c
    }

    #[test]
    fn host_lookup_and_iteration() {
        let c = two_node_cluster();
        let hosts: Vec<(HostId, String)> = c.hosts().map(|(id, h)| (id, h.name())).collect();
        assert_eq!(
            hosts,
            vec![(HostId(0), "node0".into()), (HostId(1), "node1".into())]
        );
    }

    #[test]
    fn empty_cluster() {
        let c = Cluster::new(NfsServer::new("s"));
        assert_eq!(c.hosts().count(), 0);
    }

    #[test]
    fn display_of_host_id() {
        assert_eq!(HostId(3).to_string(), "host3");
    }
}
