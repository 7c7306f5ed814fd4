//! Live service mode: the whole stack behind a real TCP endpoint.
//!
//! The prototype's services communicated "based on Berkeley Sockets" with
//! "services … specified as XML strings" (§4.1). This module runs a
//! VMShop (with its full simulated site behind it) inside a dedicated
//! thread, listening on a localhost TCP socket and speaking the
//! [`vmplants_plant::protocol`] XML protocol with length-prefixed frames.
//!
//! The substrate clock stays *virtual*: a Create request returns as fast
//! as the event loop can drain, but the returned classad's `create_s`
//! attribute reports the simulated creation latency — so live mode
//! demonstrates the service design (framing, XML, discovery by
//! address, concurrent clients) without making tests slow.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

use vmplants_classad::ClassAd;
use vmplants_plant::protocol::{ErrorCode, Request, Response};
use vmplants_plant::{PlantError, ProductionOrder, VmId};
use vmplants_shop::bidding::collect_bids;
use vmplants_shop::ShopError;

use crate::site::{SimSite, SiteConfig};

/// Maximum accepted frame size (a DAG-bearing create request is a few KB;
/// this bound keeps a corrupt length prefix from allocating gigabytes).
const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Write one length-prefixed frame.
pub fn write_frame(stream: &mut TcpStream, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    stream.write_all(&len.to_be_bytes())?;
    stream.write_all(bytes)?;
    stream.flush()
}

/// Read one length-prefixed frame.
pub fn read_frame(stream: &mut TcpStream) -> io::Result<String> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} byte cap"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    stream.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn shop_error_response(e: &ShopError) -> Response {
    let code = match e {
        ShopError::NoPlants => ErrorCode::NoPlants,
        ShopError::AllPlantsFailed(PlantError::NoGoldenImage) => ErrorCode::NoGolden,
        ShopError::AllPlantsFailed(_) => ErrorCode::AllPlantsFailed,
        ShopError::Plant(_) => ErrorCode::PlantFailure,
        ShopError::UnknownVm(_) => ErrorCode::UnknownVm,
        ShopError::AllPlantsExcluded => ErrorCode::AllPlantsExcluded,
        ShopError::DeadlineExceeded(_) => ErrorCode::DeadlineExceeded,
        ShopError::Degraded { .. } => ErrorCode::Degraded,
        ShopError::ShopDown => ErrorCode::Unresponsive,
        // A journal-replayed error lost its structured form; the
        // rendered message still carries the original class.
        ShopError::Journaled(_) => ErrorCode::Unknown,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// A running live shop: owns the listener thread.
pub struct LiveShop {
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl LiveShop {
    /// Start a live shop on an ephemeral localhost port. The site is
    /// constructed inside the service thread (its types are deliberately
    /// thread-local).
    pub fn start(config: SiteConfig) -> io::Result<LiveShop> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let handle = std::thread::Builder::new()
            .name("vmshop-live".into())
            .spawn(move || serve(listener, config))?;
        Ok(LiveShop {
            addr,
            handle: Some(handle),
        })
    }

    /// The endpoint clients connect to (publishable in a registry).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the service and join its thread.
    pub fn stop(mut self) {
        let _ = send_raw(self.addr, "<shutdown/>");
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LiveShop {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = send_raw(self.addr, "<shutdown/>");
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

fn send_raw(addr: SocketAddr, payload: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, payload)?;
    read_frame(&mut stream)
}

fn serve(listener: TcpListener, config: SiteConfig) {
    let mut site = SimSite::build(config);
    for conn in listener.incoming() {
        let Ok(mut stream) = conn else { continue };
        let Ok(text) = read_frame(&mut stream) else {
            continue;
        };
        if text == "<shutdown/>" {
            let _ = write_frame(&mut stream, "<ok/>");
            return;
        }
        let response = handle_request(&mut site, &text);
        let _ = write_frame(&mut stream, &response.to_wire());
    }
}

fn handle_request(site: &mut SimSite, text: &str) -> Response {
    let request = match Request::from_wire(text) {
        Ok(r) => r,
        Err(e) => {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: e.to_string(),
            }
        }
    };
    match request {
        Request::Create(order) => match site.create_order(order) {
            Ok(ad) => Response::Ad(ad),
            Err(e) => shop_error_response(&e),
        },
        Request::Query(id) => match site.query_vm(&id) {
            Ok(ad) => Response::Ad(ad),
            Err(e) => shop_error_response(&e),
        },
        Request::Destroy(id) => match site.destroy_vm(&id) {
            Ok(ad) => Response::Ad(ad),
            Err(e) => shop_error_response(&e),
        },
        Request::Migrate { id, target } => {
            match site
                .settle("migrate", |shop, engine, done| {
                    shop.migrate(engine, &id, &target, done)
                })
                .unwrap_or_else(|unsettled| Err(unsettled.into()))
            {
                Ok(ad) => Response::Ad(ad),
                Err(e) => shop_error_response(&e),
            }
        }
        Request::Publish { id, golden_id, name } => {
            match site
                .settle("publish", |shop, engine, done| {
                    shop.publish(engine, &id, &golden_id, &name, done)
                })
                .unwrap_or_else(|unsettled| Err(unsettled.into()))
            {
                Ok(gid) => Response::Published { golden_id: gid.0 },
                Err(e) => shop_error_response(&e),
            }
        }
        Request::Estimate(order) => {
            let bids = collect_bids(&site.shop.plants(), &order);
            match bids.iter().map(|b| b.cost).fold(f64::INFINITY, f64::min) {
                cost if cost.is_finite() => Response::Bid(cost),
                _ => Response::Error {
                    code: ErrorCode::NoPlants,
                    message: "no plant answered the estimate".into(),
                },
            }
        }
    }
}

/// A client of a live shop. Each call opens one connection (the classic
/// request/response socket pattern of the prototype).
pub struct LiveClient {
    addr: SocketAddr,
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket / framing trouble.
    Io(io::Error),
    /// The service answered with an error response.
    Service {
        /// Machine-readable code from the closed [`ErrorCode`] set.
        code: ErrorCode,
        /// Message.
        message: String,
    },
    /// The service answered with an unexpected response kind.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Service { code, message } => write!(f, "service error [{code}]: {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl LiveClient {
    /// A client bound to a shop endpoint.
    pub fn connect(addr: SocketAddr) -> LiveClient {
        LiveClient { addr }
    }

    fn call(&self, request: &Request) -> Result<Response, ClientError> {
        let reply = send_raw(self.addr, &request.to_wire())?;
        Response::from_wire(&reply).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    fn expect_ad(&self, request: &Request) -> Result<ClassAd, ClientError> {
        match self.call(request)? {
            Response::Ad(ad) => Ok(ad),
            Response::Error { code, message } => Err(ClientError::Service { code, message }),
            other => Err(ClientError::Protocol(format!("expected classad, got {other:?}"))),
        }
    }

    /// Create a VM.
    pub fn create(&self, order: ProductionOrder) -> Result<ClassAd, ClientError> {
        self.expect_ad(&Request::Create(order))
    }

    /// Query an active VM.
    pub fn query(&self, id: &VmId) -> Result<ClassAd, ClientError> {
        self.expect_ad(&Request::Query(id.clone()))
    }

    /// Destroy an active VM.
    pub fn destroy(&self, id: &VmId) -> Result<ClassAd, ClientError> {
        self.expect_ad(&Request::Destroy(id.clone()))
    }

    /// Migrate a VM to a named plant.
    pub fn migrate(&self, id: &VmId, target: &str) -> Result<ClassAd, ClientError> {
        self.expect_ad(&Request::Migrate {
            id: id.clone(),
            target: target.to_owned(),
        })
    }

    /// Publish a running VM as a new golden image; returns the image id.
    pub fn publish(&self, id: &VmId, golden_id: &str, name: &str) -> Result<String, ClientError> {
        match self.call(&Request::Publish {
            id: id.clone(),
            golden_id: golden_id.to_owned(),
            name: name.to_owned(),
        })? {
            Response::Published { golden_id } => Ok(golden_id),
            Response::Error { code, message } => Err(ClientError::Service { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected published ack, got {other:?}"
            ))),
        }
    }

    /// Ask for the cheapest creation-cost estimate.
    pub fn estimate(&self, order: ProductionOrder) -> Result<f64, ClientError> {
        match self.call(&Request::Estimate(order))? {
            Response::Bid(cost) => Ok(cost),
            Response::Error { code, message } => Err(ClientError::Service { code, message }),
            other => Err(ClientError::Protocol(format!("expected bid, got {other:?}"))),
        }
    }
}
