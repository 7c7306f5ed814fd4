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
//! * [`service::VirtualNetworkService`] — the facade VMShop drives to
//!   set up and tear down VNET handlers ("the front-end VMShop becomes a
//!   client to this service").

pub mod bridge;
pub mod ip;
pub mod pool;
pub mod service;

pub use bridge::{BridgeError, ProxyEndpoint, VnetBridge};
pub use ip::DomainIpAllocator;
pub use pool::{HostOnlyPool, NetworkId, PoolError};
pub use service::{NetworkLease, ServiceError, VirtualNetworkService};
