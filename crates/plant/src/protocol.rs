//! The XML service protocol (§4.1: "Services requested by VMShop clients
//! are specified as XML strings. The Create VM service specification
//! contains the DAG of configuration actions").
//!
//! This module owns three layers:
//!
//! * [`Request`] / [`Response`] — the service messages themselves, with
//!   their XML wire form.
//! * [`ErrorCode`] — a *closed*, machine-stable set of error codes.
//!   Retransmit/dedup logic branches on codes, so they must never be
//!   free-form strings: every code has a pinned string form asserted by
//!   a stability test, and unknown wire codes decode to
//!   [`ErrorCode::Unknown`] rather than inventing new ones.
//! * [`Envelope`] — the unreliable-transport framing: sender name and
//!   epoch, per-sender sequence number, and an idempotency key. The
//!   plant's dedup cache and the shop's retransmission machinery both
//!   key on the envelope, which is what turns at-least-once delivery
//!   into exactly-once *effect*.

use std::rc::Rc;

use vmplants_classad::{parse_classad, ClassAd};
use vmplants_dag::xml::{dag_from_xml, dag_to_xml};
use vmplants_cluster::files::StoreError;
use vmplants_simkit::TraceLabel;
use vmplants_virt::{VirtError, VmSpec, VmmType};
use vmplants_vnet::ProxyEndpoint;
use vmplants_xmlmsg::Element;

use crate::order::{PlantError, ProductionOrder, VmId};

/// The closed set of machine-readable error codes. Adding a variant is
/// a protocol change: update [`ErrorCode::ALL`], the stability test,
/// and any dedup/retry logic that branches on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ErrorCode {
    /// The request could not be parsed or is structurally invalid.
    BadRequest,
    /// The shop has no registered plants at all.
    NoPlants,
    /// No golden image satisfies the order.
    NoGolden,
    /// Every plant was tried and every attempt failed.
    AllPlantsFailed,
    /// Every plant is excluded (crashed/unresponsive) for this order.
    AllPlantsExcluded,
    /// The order's completion deadline passed.
    DeadlineExceeded,
    /// The shop is in degraded mode and sheds load.
    Degraded,
    /// A plant-side failure that fits no more specific code.
    PlantFailure,
    /// The VM id is not known to the receiving component.
    UnknownVm,
    /// The plant is down (crashed or refusing connections).
    PlantDown,
    /// The plant did not answer within the attempt timeout.
    Unresponsive,
    /// The plant's host is down.
    HostDown,
    /// The backing store (NFS) is unavailable.
    StorageUnavailable,
    /// A network/lease operation failed.
    Network,
    /// The plant's proxy port pool is exhausted.
    NetworkExhausted,
    /// A DAG configuration action failed with error policy `fail`.
    ActionFailed,
    /// The production order itself is invalid.
    InvalidOrder,
    /// A virtualization-layer failure that fits no more specific code.
    Virt,
    /// A code this build does not recognize (forward compatibility).
    Unknown,
}

impl ErrorCode {
    /// Every code, in declaration order — the stability test pins the
    /// string form of each entry.
    pub const ALL: [ErrorCode; 19] = [
        ErrorCode::BadRequest,
        ErrorCode::NoPlants,
        ErrorCode::NoGolden,
        ErrorCode::AllPlantsFailed,
        ErrorCode::AllPlantsExcluded,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Degraded,
        ErrorCode::PlantFailure,
        ErrorCode::UnknownVm,
        ErrorCode::PlantDown,
        ErrorCode::Unresponsive,
        ErrorCode::HostDown,
        ErrorCode::StorageUnavailable,
        ErrorCode::Network,
        ErrorCode::NetworkExhausted,
        ErrorCode::ActionFailed,
        ErrorCode::InvalidOrder,
        ErrorCode::Virt,
        ErrorCode::Unknown,
    ];

    /// The stable wire string. These strings are frozen: changing one
    /// breaks persisted fixtures and any peer speaking the protocol.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::NoPlants => "no-plants",
            ErrorCode::NoGolden => "no-golden",
            ErrorCode::AllPlantsFailed => "all-plants-failed",
            ErrorCode::AllPlantsExcluded => "all-plants-excluded",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Degraded => "degraded",
            ErrorCode::PlantFailure => "plant-error",
            ErrorCode::UnknownVm => "unknown-vm",
            ErrorCode::PlantDown => "plant-down",
            ErrorCode::Unresponsive => "unresponsive",
            ErrorCode::HostDown => "host-down",
            ErrorCode::StorageUnavailable => "storage-unavailable",
            ErrorCode::Network => "network",
            ErrorCode::NetworkExhausted => "network-exhausted",
            ErrorCode::ActionFailed => "action-failed",
            ErrorCode::InvalidOrder => "invalid-order",
            ErrorCode::Virt => "virt",
            ErrorCode::Unknown => "unknown",
        }
    }

    /// Decode a wire string. Unrecognized strings map to
    /// [`ErrorCode::Unknown`] — never an error, so old peers can talk
    /// to newer ones.
    pub fn parse(s: &str) -> ErrorCode {
        ErrorCode::ALL
            .into_iter()
            .find(|c| c.as_str() == s)
            .unwrap_or(ErrorCode::Unknown)
    }

    /// Is an attempt that failed with this code worth retrying on
    /// another plant? Mirrors the shop's transient-failure set.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::PlantDown
                | ErrorCode::Unresponsive
                | ErrorCode::HostDown
                | ErrorCode::StorageUnavailable
        )
    }

    /// The code a plant-side error travels under.
    pub fn from_plant_error(err: &PlantError) -> ErrorCode {
        match err {
            PlantError::NoGoldenImage => ErrorCode::NoGolden,
            PlantError::Network(_) => ErrorCode::Network,
            PlantError::NetworkExhausted(_) => ErrorCode::NetworkExhausted,
            PlantError::Virt(VirtError::HostDown(_)) => ErrorCode::HostDown,
            PlantError::Virt(VirtError::Io(StoreError::Unavailable(_))) => {
                ErrorCode::StorageUnavailable
            }
            PlantError::Virt(_) => ErrorCode::Virt,
            PlantError::ActionFailed { .. } => ErrorCode::ActionFailed,
            PlantError::UnknownVm(_) => ErrorCode::UnknownVm,
            PlantError::PlantDown => ErrorCode::PlantDown,
            PlantError::Unresponsive => ErrorCode::Unresponsive,
            PlantError::InvalidOrder(_) => ErrorCode::InvalidOrder,
            PlantError::Remote { code, .. } => *code,
        }
    }

    /// Rebuild a [`PlantError`] on the shop side of the wire. Codes
    /// the shop's recovery machinery dispatches on structurally come
    /// back as their canonical variants; the rest stay typed but
    /// opaque as [`PlantError::Remote`].
    pub fn into_plant_error(self, message: String) -> PlantError {
        match self {
            ErrorCode::NoGolden => PlantError::NoGoldenImage,
            ErrorCode::PlantDown => PlantError::PlantDown,
            ErrorCode::Unresponsive => PlantError::Unresponsive,
            // `unknown-vm` errors carry the bare VM id as their message
            // (see [`Response::plant_error`]), so the id round-trips.
            ErrorCode::UnknownVm => PlantError::UnknownVm(VmId(message)),
            ErrorCode::InvalidOrder => PlantError::InvalidOrder(message),
            code => PlantError::Remote { code, message },
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Lets existing call sites keep comparing codes against literal
/// strings (`assert_eq!(code, "unknown-vm")`).
impl PartialEq<&str> for ErrorCode {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<ErrorCode> for &str {
    fn eq(&self, other: &ErrorCode) -> bool {
        *self == other.as_str()
    }
}

/// A client → shop (or shop → plant) request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Create a VM.
    Create(ProductionOrder),
    /// Query an active VM's classad.
    Query(VmId),
    /// Destroy (collect) an active VM.
    Destroy(VmId),
    /// Ask for a creation-cost estimate (the bidding probe).
    Estimate(ProductionOrder),
    /// Move a running VM to a named plant (§6 migration).
    Migrate {
        /// The VM to move.
        id: VmId,
        /// Target plant name.
        target: String,
    },
    /// Publish a running VM's state as a new golden image (§3.2).
    Publish {
        /// The VM to publish.
        id: VmId,
        /// Id for the new golden image.
        golden_id: String,
        /// Human-readable image name.
        name: String,
    },
}

/// A shop/plant → client response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A classad (creation result, query result, final collect state).
    Ad(ClassAd),
    /// A bid.
    Bid(f64),
    /// A publish acknowledgement carrying the new golden image id.
    Published {
        /// The registered golden image id.
        golden_id: String,
    },
    /// A failure.
    Error {
        /// Machine-readable code from the closed set.
        code: ErrorCode,
        /// Human-readable message.
        message: String,
    },
}

/// Encoding/decoding failures.
#[derive(Clone, Debug, PartialEq)]
pub struct MessageError(pub String);

impl std::fmt::Display for MessageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad message: {}", self.0)
    }
}

impl std::error::Error for MessageError {}

fn order_body(order: &ProductionOrder) -> Vec<Element> {
    let spec = Element::new("spec")
        .with_attr("memory-mb", order.spec.memory_mb.to_string())
        .with_attr("disk-gb", order.spec.disk_gb.to_string())
        .with_attr("os", &order.spec.os)
        .with_attr("vmm", order.spec.vmm.to_string());
    let proxy = Element::new("proxy")
        .with_attr("domain", &order.proxy.domain)
        .with_attr("host", &order.proxy.host)
        .with_attr("port", order.proxy.port.to_string());
    vec![spec, proxy, dag_to_xml(&order.dag)]
}

fn order_from_element(el: &Element) -> Result<ProductionOrder, MessageError> {
    let domain = el
        .attr("client-domain")
        .ok_or_else(|| MessageError("missing client-domain".into()))?;
    let spec_el = el
        .child("spec")
        .ok_or_else(|| MessageError("missing <spec>".into()))?;
    let attr_u64 = |name: &str| -> Result<u64, MessageError> {
        spec_el
            .attr(name)
            .ok_or_else(|| MessageError(format!("spec missing '{name}'")))?
            .parse()
            .map_err(|_| MessageError(format!("bad '{name}'")))
    };
    let vmm: VmmType = spec_el
        .attr("vmm")
        .ok_or_else(|| MessageError("spec missing 'vmm'".into()))?
        .parse()
        .map_err(MessageError)?;
    let spec = VmSpec {
        memory_mb: attr_u64("memory-mb")?,
        disk_gb: attr_u64("disk-gb")?,
        os: spec_el
            .attr("os")
            .ok_or_else(|| MessageError("spec missing 'os'".into()))?
            .to_owned(),
        vmm,
    };
    let proxy_el = el
        .child("proxy")
        .ok_or_else(|| MessageError("missing <proxy>".into()))?;
    let proxy = ProxyEndpoint::new(
        proxy_el
            .attr("domain")
            .ok_or_else(|| MessageError("proxy missing 'domain'".into()))?,
        proxy_el
            .attr("host")
            .ok_or_else(|| MessageError("proxy missing 'host'".into()))?,
        proxy_el
            .attr("port")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| MessageError("proxy missing/bad 'port'".into()))?,
    );
    let dag_el = el
        .child("dag")
        .ok_or_else(|| MessageError("missing <dag>".into()))?;
    let dag = dag_from_xml(dag_el).map_err(|e| MessageError(e.to_string()))?;
    let mut order = ProductionOrder {
        spec,
        dag,
        client_domain: domain.to_owned(),
        proxy,
        vm_id: None,
        requirements: None,
        // Span ids are process-local; trace context does not survive the
        // wire encoding.
        trace_parent: vmplants_simkit::obs::SpanId::NONE,
    };
    if let Some(id) = el.attr("vmid") {
        order.vm_id = Some(VmId(id.to_owned()));
    }
    if let Some(req) = el.attr("requirements") {
        order.requirements = Some(req.to_owned());
    }
    Ok(order)
}

impl Request {
    /// Encode to an XML element.
    pub fn to_xml(&self) -> Element {
        match self {
            Request::Create(order) | Request::Estimate(order) => {
                let name = if matches!(self, Request::Create(_)) {
                    "create-vm"
                } else {
                    "estimate-vm"
                };
                let mut el = Element::new(name).with_attr("client-domain", &order.client_domain);
                if let Some(id) = &order.vm_id {
                    el.set_attr("vmid", &id.0);
                }
                if let Some(req) = &order.requirements {
                    el.set_attr("requirements", req);
                }
                for child in order_body(order) {
                    el.push_child(child);
                }
                el
            }
            Request::Query(id) => Element::new("query-vm").with_attr("vmid", &id.0),
            Request::Destroy(id) => Element::new("destroy-vm").with_attr("vmid", &id.0),
            Request::Migrate { id, target } => Element::new("migrate-vm")
                .with_attr("vmid", &id.0)
                .with_attr("target", target),
            Request::Publish { id, golden_id, name } => Element::new("publish-vm")
                .with_attr("vmid", &id.0)
                .with_attr("golden-id", golden_id)
                .with_attr("name", name),
        }
    }

    /// Decode from an XML element.
    pub fn from_xml(el: &Element) -> Result<Request, MessageError> {
        match el.name.as_str() {
            "create-vm" => Ok(Request::Create(order_from_element(el)?)),
            "estimate-vm" => Ok(Request::Estimate(order_from_element(el)?)),
            "query-vm" => Ok(Request::Query(VmId(
                el.attr("vmid")
                    .ok_or_else(|| MessageError("query-vm missing vmid".into()))?
                    .to_owned(),
            ))),
            "destroy-vm" => Ok(Request::Destroy(VmId(
                el.attr("vmid")
                    .ok_or_else(|| MessageError("destroy-vm missing vmid".into()))?
                    .to_owned(),
            ))),
            "migrate-vm" => Ok(Request::Migrate {
                id: VmId(
                    el.attr("vmid")
                        .ok_or_else(|| MessageError("migrate-vm missing vmid".into()))?
                        .to_owned(),
                ),
                target: el
                    .attr("target")
                    .ok_or_else(|| MessageError("migrate-vm missing target".into()))?
                    .to_owned(),
            }),
            "publish-vm" => Ok(Request::Publish {
                id: VmId(
                    el.attr("vmid")
                        .ok_or_else(|| MessageError("publish-vm missing vmid".into()))?
                        .to_owned(),
                ),
                golden_id: el
                    .attr("golden-id")
                    .ok_or_else(|| MessageError("publish-vm missing golden-id".into()))?
                    .to_owned(),
                name: el.attr("name").unwrap_or("published image").to_owned(),
            }),
            other => Err(MessageError(format!("unknown request <{other}>"))),
        }
    }

    /// Encode to wire text.
    pub fn to_wire(&self) -> String {
        self.to_xml().to_xml()
    }

    /// Decode from wire text.
    pub fn from_wire(text: &str) -> Result<Request, MessageError> {
        let el = vmplants_xmlmsg::parse(text).map_err(|e| MessageError(e.to_string()))?;
        Request::from_xml(&el)
    }

    /// A short label for transport traces.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Create(_) => "create",
            Request::Query(_) => "query",
            Request::Destroy(_) => "destroy",
            Request::Estimate(_) => "estimate",
            Request::Migrate { .. } => "migrate",
            Request::Publish { .. } => "publish",
        }
    }
}

impl Response {
    /// The error response a [`PlantError`] travels as. `unknown-vm`
    /// carries the bare VM id as its message so
    /// [`ErrorCode::into_plant_error`] can rebuild the exact variant.
    pub fn plant_error(err: &PlantError) -> Response {
        let message = match err {
            PlantError::UnknownVm(id) => id.0.clone(),
            other => other.to_string(),
        };
        Response::Error {
            code: ErrorCode::from_plant_error(err),
            message,
        }
    }

    /// Encode to an XML element. The classad rides as text content in its
    /// own (classad) syntax, exactly as the prototype shipped classads
    /// inside XML envelopes.
    pub fn to_xml(&self) -> Element {
        match self {
            Response::Ad(ad) => Element::new("vm-classad").with_text(ad.to_string()),
            Response::Bid(cost) => Element::new("bid").with_attr("cost", cost.to_string()),
            Response::Published { golden_id } => {
                Element::new("published").with_attr("golden-id", golden_id)
            }
            Response::Error { code, message } => Element::new("error")
                .with_attr("code", code.as_str())
                .with_text(message.clone()),
        }
    }

    /// Decode from an XML element.
    pub fn from_xml(el: &Element) -> Result<Response, MessageError> {
        match el.name.as_str() {
            "vm-classad" => {
                let text = el
                    .text()
                    .ok_or_else(|| MessageError("empty vm-classad".into()))?;
                let ad = parse_classad(text).map_err(|e| MessageError(e.to_string()))?;
                Ok(Response::Ad(ad))
            }
            "bid" => {
                let cost = el
                    .attr("cost")
                    .and_then(|c| c.parse().ok())
                    .ok_or_else(|| MessageError("bid missing/bad cost".into()))?;
                Ok(Response::Bid(cost))
            }
            "published" => Ok(Response::Published {
                golden_id: el
                    .attr("golden-id")
                    .ok_or_else(|| MessageError("published missing golden-id".into()))?
                    .to_owned(),
            }),
            "error" => Ok(Response::Error {
                code: ErrorCode::parse(el.attr("code").unwrap_or("unknown")),
                message: el.text().unwrap_or("").to_owned(),
            }),
            other => Err(MessageError(format!("unknown response <{other}>"))),
        }
    }

    /// Encode to wire text.
    pub fn to_wire(&self) -> String {
        self.to_xml().to_xml()
    }

    /// Decode from wire text.
    pub fn from_wire(text: &str) -> Result<Response, MessageError> {
        let el = vmplants_xmlmsg::parse(text).map_err(|e| MessageError(e.to_string()))?;
        Response::from_xml(&el)
    }

    /// A short label for transport traces.
    pub fn label(&self) -> &'static str {
        match self {
            Response::Ad(_) => "ad",
            Response::Bid(_) => "bid",
            Response::Published { .. } => "published",
            Response::Error { .. } => "error",
        }
    }
}

/// What an envelope carries.
#[derive(Clone, Debug)]
pub enum Payload {
    /// A request, travelling shop → plant. Shared by retransmits and
    /// duplicates: cloning the envelope bumps a reference count, so every
    /// transmission of a create carries the same production order.
    Request(Rc<Request>),
    /// A response, travelling plant → shop.
    Response(Response),
}

/// An envelope's transport-trace label (`kind/key#seq`), rendered only
/// when the transport records ([`Envelope::trace_label`]).
pub struct EnvelopeLabel {
    kind: &'static str,
    key: Rc<str>,
    seq: u64,
}

impl TraceLabel for EnvelopeLabel {
    fn render(self) -> String {
        format!("{}/{}#{}", self.kind, self.key, self.seq)
    }
}

/// The unreliable-transport framing around a [`Request`]/[`Response`].
///
/// `(from, epoch, seq)` identifies one transmission source: `from` is
/// the sender's name, `epoch` its incarnation number (bumped on every
/// crash/restart, per the PR 1 incarnation machinery), and `seq` a
/// per-sender monotone counter. `key` is the idempotency key — every
/// retransmission of a logical request reuses the key, and the plant's
/// dedup cache replays the cached response for a key it has already
/// served. A response echoes the request's key and carries the request
/// sender's epoch in `reply_epoch`, so a shop that restarted can drop
/// answers addressed to its previous life.
///
/// `from` and `key` are shared, not copied: a call's key is allocated
/// once and the same text backs its transmissions, retransmissions, the
/// plant's dedup entry, and the response.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender name.
    pub from: Rc<str>,
    /// Sender incarnation number.
    pub epoch: u64,
    /// Per-sender monotone sequence number (unique per transmission).
    pub seq: u64,
    /// Idempotency key — stable across retransmissions of one logical
    /// request; echoed by the response.
    pub key: Rc<str>,
    /// On responses: the epoch of the request this answers.
    pub reply_epoch: Option<u64>,
    /// The message itself.
    pub body: Payload,
}

impl Envelope {
    /// Frame a request.
    pub fn request(
        from: impl Into<Rc<str>>,
        epoch: u64,
        seq: u64,
        key: impl Into<Rc<str>>,
        request: Request,
    ) -> Envelope {
        Envelope {
            from: from.into(),
            epoch,
            seq,
            key: key.into(),
            reply_epoch: None,
            body: Payload::Request(Rc::new(request)),
        }
    }

    /// Frame a response to a request envelope.
    pub fn response(
        from: impl Into<Rc<str>>,
        epoch: u64,
        seq: u64,
        to_request: &Envelope,
        response: Response,
    ) -> Envelope {
        Envelope {
            from: from.into(),
            epoch,
            seq,
            key: Rc::clone(&to_request.key),
            reply_epoch: Some(to_request.epoch),
            body: Payload::Response(response),
        }
    }

    /// The transport-trace label, `kind/key#seq`, unrendered: it shares
    /// the key and is formatted only if the transport is recording.
    pub fn trace_label(&self) -> EnvelopeLabel {
        EnvelopeLabel {
            kind: match &self.body {
                Payload::Request(r) => r.label(),
                Payload::Response(r) => r.label(),
            },
            key: Rc::clone(&self.key),
            seq: self.seq,
        }
    }

    /// Encode to an XML element.
    pub fn to_xml(&self) -> Element {
        let mut el = Element::new("envelope")
            .with_attr("from", &*self.from)
            .with_attr("epoch", self.epoch.to_string())
            .with_attr("seq", self.seq.to_string())
            .with_attr("key", &*self.key);
        if let Some(re) = self.reply_epoch {
            el.set_attr("re-epoch", re.to_string());
        }
        el.push_child(match &self.body {
            Payload::Request(r) => r.to_xml(),
            Payload::Response(r) => r.to_xml(),
        });
        el
    }

    /// Decode from an XML element.
    pub fn from_xml(el: &Element) -> Result<Envelope, MessageError> {
        if el.name != "envelope" {
            return Err(MessageError(format!("expected <envelope>, got <{}>", el.name)));
        }
        let attr = |name: &str| -> Result<&str, MessageError> {
            el.attr(name)
                .ok_or_else(|| MessageError(format!("envelope missing '{name}'")))
        };
        let num = |name: &str| -> Result<u64, MessageError> {
            attr(name)?
                .parse()
                .map_err(|_| MessageError(format!("bad envelope '{name}'")))
        };
        let body_el = el
            .elements()
            .next()
            .ok_or_else(|| MessageError("empty envelope".into()))?;
        // Requests and responses use disjoint element names, so the
        // child's name alone disambiguates the payload kind.
        let body = match Request::from_xml(body_el) {
            Ok(req) => Payload::Request(Rc::new(req)),
            Err(_) => Payload::Response(Response::from_xml(body_el)?),
        };
        Ok(Envelope {
            from: attr("from")?.into(),
            epoch: num("epoch")?,
            seq: num("seq")?,
            key: attr("key")?.into(),
            reply_epoch: match el.attr("re-epoch") {
                Some(_) => Some(num("re-epoch")?),
                None => None,
            },
            body,
        })
    }

    /// Encode to wire text.
    pub fn to_wire(&self) -> String {
        self.to_xml().to_xml()
    }

    /// Decode from wire text.
    pub fn from_wire(text: &str) -> Result<Envelope, MessageError> {
        let el = vmplants_xmlmsg::parse(text).map_err(|e| MessageError(e.to_string()))?;
        Envelope::from_xml(&el)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplants_dag::graph::invigo_workspace_dag;

    fn order() -> ProductionOrder {
        ProductionOrder::new(VmSpec::mandrake(64), invigo_workspace_dag("arijit"), "ufl.edu")
            .with_vm_id(VmId("vm-shop-0001".into()))
    }

    #[test]
    fn create_request_round_trips() {
        let req = Request::Create(order());
        let wire = req.to_wire();
        let decoded = Request::from_wire(&wire).unwrap();
        match decoded {
            Request::Create(o) => {
                assert_eq!(o.spec, order().spec);
                assert_eq!(o.client_domain, "ufl.edu");
                assert_eq!(o.vm_id, Some(VmId("vm-shop-0001".into())));
                assert_eq!(o.dag, order().dag);
                assert_eq!(o.proxy, order().proxy);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn estimate_query_destroy_round_trip() {
        for req in [
            Request::Estimate(order()),
            Request::Query(VmId("vm-1".into())),
            Request::Destroy(VmId("vm-2".into())),
        ] {
            let wire = req.to_wire();
            let decoded = Request::from_wire(&wire).unwrap();
            match (&req, &decoded) {
                (Request::Estimate(a), Request::Estimate(b)) => {
                    assert_eq!(a.spec, b.spec)
                }
                (Request::Query(a), Request::Query(b)) => assert_eq!(a, b),
                (Request::Destroy(a), Request::Destroy(b)) => assert_eq!(a, b),
                _ => panic!("variant mismatch"),
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        let mut ad = ClassAd::new();
        ad.set_value("vmid", "vm-1");
        ad.set_value("memory_mb", 64i64);
        ad.set_value("note", "quotes \" and <angles> & amps");
        for resp in [
            Response::Ad(ad),
            Response::Bid(52.5),
            Response::Error {
                code: ErrorCode::NoGolden,
                message: "no golden image matches".into(),
            },
        ] {
            let wire = resp.to_wire();
            let decoded = Response::from_wire(&wire).unwrap();
            assert_eq!(resp, decoded, "wire: {wire}");
        }
    }

    #[test]
    fn migrate_publish_round_trip() {
        let reqs = [
            Request::Migrate {
                id: VmId("vm-1".into()),
                target: "node3".into(),
            },
            Request::Publish {
                id: VmId("vm-1".into()),
                golden_id: "my-app".into(),
                name: "My application image".into(),
            },
        ];
        for req in reqs {
            let wire = req.to_wire();
            match (req, Request::from_wire(&wire).unwrap()) {
                (
                    Request::Migrate { id: a, target: t1 },
                    Request::Migrate { id: b, target: t2 },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(t1, t2);
                }
                (
                    Request::Publish { id: a, golden_id: g1, name: n1 },
                    Request::Publish { id: b, golden_id: g2, name: n2 },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(g1, g2);
                    assert_eq!(n1, n2);
                }
                other => panic!("variant mismatch: {other:?}"),
            }
        }
        let resp = Response::Published {
            golden_id: "my-app".into(),
        };
        assert_eq!(Response::from_wire(&resp.to_wire()).unwrap(), resp);
        assert!(Response::from_wire("<published/>").is_err());
        assert!(Request::from_wire("<migrate-vm vmid=\"x\"/>").is_err());
        assert!(Request::from_wire("<publish-vm golden-id=\"g\"/>").is_err());
    }

    #[test]
    fn malformed_messages_are_rejected() {
        assert!(Request::from_wire("<nope/>").is_err());
        assert!(Request::from_wire("not xml").is_err());
        assert!(Request::from_wire("<query-vm/>").is_err());
        assert!(Request::from_wire(r#"<create-vm client-domain="d"/>"#).is_err());
        assert!(Response::from_wire("<bid/>").is_err());
        assert!(Response::from_wire("<vm-classad>not a classad</vm-classad>").is_err());
    }

    /// The closed code set is wire-stable: every code's string form is
    /// pinned here, parse round-trips, and unknown strings degrade to
    /// `Unknown` instead of minting new codes.
    #[test]
    fn error_codes_are_closed_and_stable() {
        let expected = [
            "bad-request",
            "no-plants",
            "no-golden",
            "all-plants-failed",
            "all-plants-excluded",
            "deadline-exceeded",
            "degraded",
            "plant-error",
            "unknown-vm",
            "plant-down",
            "unresponsive",
            "host-down",
            "storage-unavailable",
            "network",
            "network-exhausted",
            "action-failed",
            "invalid-order",
            "virt",
            "unknown",
        ];
        let actual: Vec<&str> = ErrorCode::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(actual, expected, "error-code wire strings changed");
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), code);
            assert_eq!(code, code.as_str());
        }
        assert_eq!(ErrorCode::parse("some-future-code"), ErrorCode::Unknown);
        assert_eq!(ErrorCode::parse(""), ErrorCode::Unknown);
    }

    #[test]
    fn envelopes_round_trip() {
        let req_env = Envelope::request("shop", 2, 17, "create:vm-1", Request::Create(order()));
        let wire = req_env.to_wire();
        let decoded = Envelope::from_wire(&wire).unwrap();
        assert_eq!(&*decoded.from, "shop");
        assert_eq!(decoded.epoch, 2);
        assert_eq!(decoded.seq, 17);
        assert_eq!(&*decoded.key, "create:vm-1");
        assert_eq!(decoded.reply_epoch, None);
        assert!(
            matches!(&decoded.body, Payload::Request(r) if matches!(**r, Request::Create(_)))
        );

        let resp_env = Envelope::response(
            "node0",
            5,
            3,
            &req_env,
            Response::Error {
                code: ErrorCode::PlantDown,
                message: "plant 'node0' is down".into(),
            },
        );
        let decoded = Envelope::from_wire(&resp_env.to_wire()).unwrap();
        assert_eq!(&*decoded.from, "node0");
        assert_eq!(&*decoded.key, "create:vm-1");
        assert_eq!(decoded.reply_epoch, Some(2));
        match decoded.body {
            Payload::Response(Response::Error { code, .. }) => {
                assert_eq!(code, ErrorCode::PlantDown)
            }
            other => panic!("wrong decode: {other:?}"),
        }
        assert_eq!(resp_env.trace_label().render(), "error/create:vm-1#3");

        assert!(Envelope::from_wire("<envelope/>").is_err());
        assert!(Envelope::from_wire("<nope/>").is_err());
    }

    /// One span mutation of `text`: delete, insert, overwrite, or
    /// duplicate a short run of characters. Inserted characters come
    /// from the XML-significant set plus a few letters and digits.
    fn mutate(text: &mut Vec<char>, rng: &mut vmplants_simkit::SimRng) {
        const ALPHABET: &[char] = &[
            '<', '>', '/', '=', '"', '\'', '&', ';', '#', ' ', '\n', '!', '?', '-', '[', ']', 'a',
            'e', 'k', 'x', 'v', '0', '1', '9', '.', ':', 'é',
        ];
        let len = text.len();
        let at = rng.index(len + 1);
        let span = 1 + rng.index(8);
        let end = (at + span).min(len);
        match rng.index(4) {
            0 => {
                text.drain(at..end);
            }
            1 => {
                let fresh: Vec<char> = (0..span)
                    .map(|_| ALPHABET[rng.index(ALPHABET.len())])
                    .collect();
                text.splice(at..at, fresh);
            }
            2 => {
                for c in &mut text[at..end] {
                    *c = ALPHABET[rng.index(ALPHABET.len())];
                }
            }
            _ => {
                let copy: Vec<char> = text[at..end].to_vec();
                let to = rng.index(text.len() + 1);
                text.splice(to..to, copy);
            }
        }
    }

    /// Hostile wire input: seeded span mutations of the envelope form of
    /// every request and response kind never panic the decoder, and
    /// whatever still decodes re-encodes to a fixed point.
    #[test]
    fn mutated_envelopes_never_panic_and_reencode_stably() {
        let mut ad = ClassAd::new();
        ad.set_value("vmid", "vm-1");
        ad.set_value("memory_mb", 64i64);
        ad.set_value("note", "quotes \" and <angles> & amps");
        let requests = [
            Request::Create(order()),
            Request::Estimate(order()),
            Request::Query(VmId("vm-1".into())),
            Request::Destroy(VmId("vm-2".into())),
            Request::Migrate {
                id: VmId("vm-1".into()),
                target: "node3".into(),
            },
            Request::Publish {
                id: VmId("vm-1".into()),
                golden_id: "my-app".into(),
                name: "My application image".into(),
            },
        ];
        let responses = [
            Response::Ad(ad),
            Response::Bid(52.5),
            Response::Published {
                golden_id: "my-app".into(),
            },
            Response::Error {
                code: ErrorCode::PlantDown,
                message: "plant 'node0' is down".into(),
            },
        ];
        let mut corpus: Vec<Vec<char>> = Vec::new();
        for (seq, request) in (0u64..).zip(requests) {
            let env = Envelope::request("shop", 1, seq, format!("k:{seq}"), request);
            corpus.push(env.to_wire().chars().collect());
        }
        let asked = Envelope::request(
            "shop",
            3,
            9,
            "create:vm-1",
            Request::Query(VmId("vm-1".into())),
        );
        for (seq, response) in (0u64..).zip(responses) {
            let env = Envelope::response("node0", 2, seq, &asked, response);
            corpus.push(env.to_wire().chars().collect());
        }
        let mut rng = vmplants_simkit::SimRng::seed_from_u64(2104);
        let mut decoded = 0usize;
        for _ in 0..20_000 {
            let mut text = corpus[rng.index(corpus.len())].clone();
            for _ in 0..1 + rng.index(3) {
                mutate(&mut text, &mut rng);
            }
            let wire: String = text.into_iter().collect();
            let result = std::panic::catch_unwind(|| Envelope::from_wire(&wire));
            let Ok(result) = result else {
                panic!("decoder panicked on {wire:?}");
            };
            let Ok(env) = result else { continue };
            decoded += 1;
            let once = env.to_wire();
            let again = Envelope::from_wire(&once)
                .unwrap_or_else(|e| panic!("re-encoding of {wire:?} does not decode: {e}"))
                .to_wire();
            assert_eq!(once, again, "re-encoding of {wire:?} is not stable");
        }
        // The mutations must leave a fair share decodable, or the
        // re-encoding half of the check exercises nothing.
        assert!(decoded > 1_000, "only {decoded} mutants decoded");
    }
}
