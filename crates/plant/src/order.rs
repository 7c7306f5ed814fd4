//! Production orders, VM identifiers, and plant errors.

use std::rc::Rc;

use vmplants_dag::ConfigDag;
use vmplants_simkit::obs::SpanId;
use vmplants_virt::{VirtError, VmSpec};
use vmplants_vnet::{PoolError, ProxyEndpoint, ServiceError};

/// A VMShop-assigned unique identifier for a virtual machine (§3.1's
/// "VMID").
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub String);

/// A VMID looks up as its text, so maps keyed by `VmId` answer a `&str`.
impl std::borrow::Borrow<str> for VmId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A request for VM production, as the PPP receives it: hardware spec,
/// software-configuration DAG, and the client's network identity.
#[derive(Clone, Debug)]
pub struct ProductionOrder {
    /// Hardware requirements.
    pub spec: VmSpec,
    /// Software configuration actions.
    pub dag: ConfigDag,
    /// The requesting client's domain (drives host-only network
    /// assignment and the §3.4 network cost).
    pub client_domain: String,
    /// The client's VNET proxy endpoint, shared with the record of the VM
    /// it is produced for.
    pub proxy: Rc<ProxyEndpoint>,
    /// VMShop-assigned identifier (§3.1: the VMID is assigned by the
    /// shop). `None` lets the plant generate one (direct-to-plant use).
    pub vm_id: Option<VmId>,
    /// Optional classad constraint on the serving plant (§3.4's
    /// Condor-style matchmaking): only plants whose resource ad satisfies
    /// this expression may bid. `None` means any plant is eligible.
    pub requirements: Option<String>,
    /// Trace-context propagation: the caller's span (the shop's `order`
    /// span) under which the plant parents its `produce` span, the
    /// simulated analog of a distributed-tracing header. [`SpanId::NONE`]
    /// when the caller is not tracing.
    pub trace_parent: SpanId,
}

impl ProductionOrder {
    /// Order with a proxy synthesized from the domain (convenience for
    /// tests and experiments where the proxy endpoint is immaterial).
    pub fn new(spec: VmSpec, dag: ConfigDag, client_domain: impl Into<String>) -> ProductionOrder {
        let client_domain = client_domain.into();
        let proxy = Rc::new(ProductionOrder::default_proxy(&client_domain));
        ProductionOrder::with_proxy(spec, dag, client_domain, proxy)
    }

    /// The proxy [`ProductionOrder::new`] synthesizes for `domain`.
    pub fn default_proxy(domain: &str) -> ProxyEndpoint {
        ProxyEndpoint::new(domain, format!("proxy.{domain}"), 9300)
    }

    /// Order from the client of `client_domain` behind `proxy`; one
    /// client's orders can share its endpoint.
    pub fn with_proxy(
        spec: VmSpec,
        dag: ConfigDag,
        client_domain: String,
        proxy: Rc<ProxyEndpoint>,
    ) -> ProductionOrder {
        ProductionOrder {
            spec,
            dag,
            client_domain,
            proxy,
            vm_id: None,
            requirements: None,
            trace_parent: SpanId::NONE,
        }
    }

    /// Builder: set the shop-assigned VMID.
    pub fn with_vm_id(mut self, id: VmId) -> ProductionOrder {
        self.vm_id = Some(id);
        self
    }

    /// Builder: constrain eligible plants with a classad expression over
    /// their resource ads (e.g. `freememory >= 256 && alive`).
    pub fn with_requirements(mut self, expr: impl Into<String>) -> ProductionOrder {
        self.requirements = Some(expr.into());
        self
    }
}

/// Failures surfaced by a plant.
#[derive(Clone, Debug, PartialEq)]
pub enum PlantError {
    /// No golden image passed the hardware filter and the DAG tests (the
    /// prototype requires off-line-defined goldens, §3.2).
    NoGoldenImage,
    /// Host-only network / IP allocation failed.
    Network(String),
    /// The network pool is exhausted for new domains.
    NetworkExhausted(PoolError),
    /// The VMM backend failed.
    Virt(VirtError),
    /// A configuration action failed after its error policy was exhausted.
    ActionFailed {
        /// DAG node label.
        action_id: String,
        /// Final failure reason.
        reason: String,
    },
    /// Query/collect of an unknown VM id.
    UnknownVm(VmId),
    /// The plant has failed (crash injection in resilience tests).
    PlantDown,
    /// The plant did not answer within the caller's timeout (the shop's
    /// watchdog raises this; the plant itself may still be mid-crash).
    Unresponsive,
    /// The order is self-inconsistent.
    InvalidOrder(String),
    /// A typed error decoded from a remote peer's response envelope
    /// that has no richer local representation. The code comes from
    /// the closed [`crate::protocol::ErrorCode`] set.
    Remote {
        /// Machine-readable code from the closed protocol set.
        code: crate::protocol::ErrorCode,
        /// Human-readable message from the peer.
        message: String,
    },
}

impl std::fmt::Display for PlantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlantError::NoGoldenImage => {
                write!(f, "no golden image matches the request (hardware + DAG tests)")
            }
            PlantError::Network(msg) => write!(f, "network setup failed: {msg}"),
            PlantError::NetworkExhausted(e) => write!(f, "host-only networks exhausted: {e}"),
            PlantError::Virt(e) => write!(f, "virtualization failure: {e}"),
            PlantError::ActionFailed { action_id, reason } => {
                write!(f, "configuration action '{action_id}' failed: {reason}")
            }
            PlantError::UnknownVm(id) => write!(f, "unknown VM '{id}'"),
            PlantError::PlantDown => write!(f, "plant is down"),
            PlantError::Unresponsive => write!(f, "plant did not answer before the timeout"),
            PlantError::InvalidOrder(msg) => write!(f, "invalid order: {msg}"),
            PlantError::Remote { code, message } => {
                write!(f, "remote error [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for PlantError {}

impl From<VirtError> for PlantError {
    fn from(e: VirtError) -> Self {
        PlantError::Virt(e)
    }
}

impl From<ServiceError> for PlantError {
    /// A full pool is `NetworkExhausted`; a bridge, IP or unknown-domain
    /// failure is `Network` with the underlying error's text.
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::Pool(e) => PlantError::NetworkExhausted(e),
            ServiceError::Bridge(e) => PlantError::Network(e.to_string()),
            ServiceError::Ip(e) => PlantError::Network(e.to_string()),
            e @ ServiceError::UnknownDomain(_) => PlantError::Network(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplants_dag::graph::invigo_workspace_dag;

    #[test]
    fn order_synthesizes_proxy_from_domain() {
        let order = ProductionOrder::new(
            VmSpec::mandrake(64),
            invigo_workspace_dag("arijit"),
            "ufl.edu",
        );
        assert_eq!(order.proxy.domain, "ufl.edu");
        assert_eq!(order.proxy.host, "proxy.ufl.edu");
    }

    #[test]
    fn errors_display_usefully() {
        let e = PlantError::ActionFailed {
            action_id: "G".into(),
            reason: "script exited nonzero".into(),
        };
        assert!(e.to_string().contains("'G'"));
        assert!(PlantError::NoGoldenImage.to_string().contains("golden"));
        assert!(PlantError::UnknownVm(VmId("vm-9".into()))
            .to_string()
            .contains("vm-9"));
    }
}
