//! # vmplants-vnet — virtual networking for plant-hosted VMs
//!
//! §3.3 of the paper: client VMs are created inside **host-only networks**
//! ("statically installed 'vmnet' switches for VMware and 'tap' devices
//! with a switch daemon for UML, which are dynamically assigned to client
//! domains"), with the hard invariant that *VMs from different client
//! domains are never created inside the same host-only network*. A VNET
//! server on each plant bridges a VM at the Ethernet layer to a Proxy host
//! in the client's domain, which is how a VM physically at one site gets
//! an IP address (and licensed software) from another.
//!
//! Host-only networks are a scarce per-plant resource — §3.4's cost
//! function charges a one-time "network cost" precisely because a plant
//! can run out of networks before it runs out of compute. This crate
//! provides:
//!
//! * [`pool::HostOnlyPool`] — per-plant network allocation with the
//!   exclusivity invariant, VM attach/detach counting, and reclamation;
//! * [`ip::DomainIpAllocator`] — client-domain IP/MAC assignment (the
//!   client "may want to assign to the VM an IP address from its own
//!   domain");
//! * [`bridge`] — VNET server / Proxy attachment records, including the
//!   gateway-with-SSH-tunnels deployment of §3.3;
//! * [`domains::DomainDirectory`] — the site-wide registry of client-domain
//!   allocators, shared by every plant;
//! * [`service::VirtualNetworkService`] — one plant's service over its pool
//!   and bridge and the shared directory: the only code that leases or
//!   releases a VM's network. §3.3 has "the front-end VMShop become a
//!   client to this service"; here each plant is the client of its own
//!   service, because the plant decides the attach at production time
//!   (after PPP matching, before cloning).

pub mod bridge;
pub mod domains;
pub mod ip;
pub mod pool;
pub mod service;

pub use bridge::{Bridge, BridgeError, ProxyEndpoint, Reachability, VnetBridge};
pub use domains::DomainDirectory;
pub use ip::{DomainIpAllocator, MacAddr};
pub use pool::{HostOnlyPool, NetworkId, PoolError};
pub use service::{NetworkLease, ServiceError, VirtualNetworkService};
