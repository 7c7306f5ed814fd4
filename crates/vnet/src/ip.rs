//! Client-domain IP and MAC assignment.
//!
//! §3.3: "The client may want to assign to the VM an IP address from its
//! own domain" — with VNET, "it has been possible to run an In-VIGO
//! back-end on a host at Northwestern University, assign it an IP address
//! from a University of Florida domain (and use typical LAN services such
//! as NIS/NFS)". The allocator below manages a /24-style pool per client
//! domain and generates locally administered MAC addresses.

use std::fmt;
use std::net::Ipv4Addr;

/// A MAC address. It is printed, in the classad and in errors, as six
/// colon-separated lowercase hex octets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d, e, g] = self.0;
        write!(f, "{a:02x}:{b:02x}:{c:02x}:{d:02x}:{e:02x}:{g:02x}")
    }
}

/// IP/MAC allocator for one client domain.
#[derive(Clone, Debug)]
pub struct DomainIpAllocator {
    domain: String,
    /// First three octets, e.g. `[128, 227, 56]` for a UF subnet.
    prefix: [u8; 3],
    /// Host-octet range available for VMs.
    first_host: u8,
    last_host: u8,
    /// Host octets in use, one bit each.
    in_use: [u64; 4],
    next_mac: u64,
}

/// Allocation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IpError {
    /// Every host address in the range is assigned.
    PoolExhausted,
    /// Releasing an address that was not allocated (or not ours).
    NotAllocated(String),
    /// The address is outside this domain's pool.
    Foreign(String),
}

impl std::fmt::Display for IpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpError::PoolExhausted => write!(f, "IP pool exhausted"),
            IpError::NotAllocated(ip) => write!(f, "{ip} was not allocated"),
            IpError::Foreign(ip) => write!(f, "{ip} is not in this domain's pool"),
        }
    }
}

impl std::error::Error for IpError {}

impl DomainIpAllocator {
    /// A pool `prefix.first..=prefix.last` for `domain`.
    ///
    /// # Panics
    ///
    /// Panics if the host range is empty.
    pub fn new(domain: impl Into<String>, prefix: [u8; 3], first_host: u8, last_host: u8) -> Self {
        assert!(first_host <= last_host, "empty host range");
        DomainIpAllocator {
            domain: domain.into(),
            prefix,
            first_host,
            last_host,
            in_use: [0; 4],
            next_mac: 1,
        }
    }

    /// The owning domain.
    pub(crate) fn domain(&self) -> &str {
        &self.domain
    }

    /// Allocate the lowest free address.
    pub(crate) fn allocate(&mut self) -> Result<Ipv4Addr, IpError> {
        let host = (self.first_host..=self.last_host)
            .find(|&host| !self.is_used(host))
            .ok_or(IpError::PoolExhausted)?;
        self.in_use[usize::from(host / 64)] |= 1 << (host % 64);
        let [a, b, c] = self.prefix;
        Ok(Ipv4Addr::new(a, b, c, host))
    }

    /// Release a previously allocated address.
    pub(crate) fn release(&mut self, ip: Ipv4Addr) -> Result<(), IpError> {
        let [a, b, c, host] = ip.octets();
        if [a, b, c] != self.prefix || host < self.first_host || host > self.last_host {
            return Err(IpError::Foreign(ip.to_string()));
        }
        if !self.is_used(host) {
            return Err(IpError::NotAllocated(ip.to_string()));
        }
        self.in_use[usize::from(host / 64)] &= !(1 << (host % 64));
        Ok(())
    }

    fn is_used(&self, host: u8) -> bool {
        self.in_use[usize::from(host / 64)] & (1 << (host % 64)) != 0
    }

    /// Addresses currently assigned.
    pub(crate) fn allocated_count(&self) -> usize {
        self.in_use.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Generate a fresh locally administered MAC address.
    pub(crate) fn next_mac(&mut self) -> MacAddr {
        let n = self.next_mac;
        self.next_mac += 1;
        // 02: locally administered, unicast; 56: this site's tag.
        let [.., a, b, c, d] = n.to_be_bytes();
        MacAddr([0x02, 0x56, a, b, c, d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> DomainIpAllocator {
        DomainIpAllocator::new("ufl.edu", [128, 227, 56], 10, 13)
    }

    fn ip(host: u8) -> Ipv4Addr {
        Ipv4Addr::new(128, 227, 56, host)
    }

    #[test]
    fn allocates_lowest_free_and_reuses_released() {
        let mut p = pool();
        assert_eq!(p.allocate().unwrap().to_string(), "128.227.56.10");
        assert_eq!(p.allocate().unwrap(), ip(11));
        p.release(ip(10)).unwrap();
        assert_eq!(p.allocate().unwrap(), ip(10));
        assert_eq!(p.allocated_count(), 2);
    }

    #[test]
    fn exhaustion_and_recovery() {
        let mut p = pool();
        for _ in 0..4 {
            p.allocate().unwrap();
        }
        assert_eq!(p.allocate(), Err(IpError::PoolExhausted));
        p.release(ip(12)).unwrap();
        assert_eq!(p.allocate().unwrap(), ip(12));
    }

    #[test]
    fn release_validates_ownership() {
        let mut p = pool();
        assert_eq!(
            p.release(ip(10)),
            Err(IpError::NotAllocated("128.227.56.10".into()))
        );
        assert!(matches!(
            p.release(Ipv4Addr::new(10, 0, 0, 1)),
            Err(IpError::Foreign(_))
        ));
        assert!(matches!(p.release(ip(200)), Err(IpError::Foreign(_))));
    }

    #[test]
    fn macs_are_unique_and_locally_administered() {
        let mut p = pool();
        let m1 = p.next_mac();
        let m2 = p.next_mac();
        assert_ne!(m1, m2);
        assert_eq!(m1.to_string(), "02:56:00:00:00:01");
        assert_eq!(
            MacAddr([2, 0x56, 0, 1, 0xab, 0x10]).to_string(),
            "02:56:00:01:ab:10"
        );
    }
}
