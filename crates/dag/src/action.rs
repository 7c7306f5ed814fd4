//! Configuration actions: the nodes of a configuration DAG.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::rc::Rc;

/// Where an action executes (paper §3.1: "actions to be performed within a
/// virtual machine's guest … or by a virtual machine's host").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// Executed inside the VM guest (delivered as a script on a virtual
    /// CD-ROM and run by the in-guest daemon in the prototype).
    Guest,
    /// Executed by the VM's host (e.g. attach an ISO image, wire a virtual
    /// NIC into a host-only network).
    Host,
}

impl fmt::Display for ActionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionKind::Guest => write!(f, "guest"),
            ActionKind::Host => write!(f, "host"),
        }
    }
}

/// What to do when an action fails. Every action node has an implicit error
/// node (paper §3.1); a client may override it with a retry policy or a
/// custom error-handling sub-graph of recovery actions.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum ErrorPolicy {
    /// Abort the whole production (the implicit error node's default).
    #[default]
    Abort,
    /// Retry the action up to the given number of additional attempts, then
    /// abort.
    Retry(u32),
    /// Run a recovery sequence of actions, then abort if any of those fail.
    /// (A linear sub-graph; the general case nests these.)
    Recover(Vec<Action>),
    /// Ignore the failure and continue — for best-effort cosmetic actions.
    Ignore,
}

/// One configuration action.
///
/// `id` is the client's label for the node (unique within a DAG). Matching
/// between a request DAG and a cached image compares **signatures** —
/// kind, command and parameters — not labels, so two clients that name the
/// same operation differently still share cached state.
///
/// An `Action` is a handle to a shared [`ActionBody`]: one order's actions
/// ride the DAG, the residual schedule, the VM's performed log and the
/// golden it may be published as, and cloning the handle into each of
/// them bumps a reference count. The builders copy the body only when it
/// is shared. Fields read through the handle (`action.command`).
#[derive(Clone, PartialEq)]
pub struct Action(Rc<ActionBody>);

/// The fields of an [`Action`].
#[derive(Clone, Debug, PartialEq)]
pub struct ActionBody {
    /// Node label, unique within its DAG.
    pub id: String,
    /// Where the action runs.
    pub kind: ActionKind,
    /// Command to execute (script text or a well-known operation name like
    /// `install-vnc-server`).
    pub command: String,
    /// Named parameters substituted into the command (sorted map so the
    /// signature is stable).
    pub params: BTreeMap<String, String>,
    /// Error handling for this node.
    pub on_error: ErrorPolicy,
    /// Nominal execution time in milliseconds, used by the simulated
    /// production lines; real deployments would ignore it.
    pub nominal_ms: Option<u64>,
    /// Names of classad attributes this action's output contributes (e.g.
    /// the node configuring networking emits `ip_address`).
    pub outputs: Vec<String>,
}

impl Deref for Action {
    type Target = ActionBody;

    fn deref(&self) -> &ActionBody {
        &self.0
    }
}

impl From<ActionBody> for Action {
    fn from(body: ActionBody) -> Action {
        Action(Rc::new(body))
    }
}

/// Formats as the body, under the name `Action`.
impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ActionBody {
            id,
            kind,
            command,
            params,
            on_error,
            nominal_ms,
            outputs,
        } = &*self.0;
        f.debug_struct("Action")
            .field("id", id)
            .field("kind", kind)
            .field("command", command)
            .field("params", params)
            .field("on_error", on_error)
            .field("nominal_ms", nominal_ms)
            .field("outputs", outputs)
            .finish()
    }
}

impl Action {
    /// A guest action with no parameters.
    pub fn guest(id: impl Into<String>, command: impl Into<String>) -> Action {
        Action::new(id.into(), ActionKind::Guest, command.into())
    }

    /// A host action with no parameters.
    pub fn host(id: impl Into<String>, command: impl Into<String>) -> Action {
        Action::new(id.into(), ActionKind::Host, command.into())
    }

    fn new(id: String, kind: ActionKind, command: String) -> Action {
        Action::from(ActionBody {
            id,
            kind,
            command,
            params: BTreeMap::new(),
            on_error: ErrorPolicy::default(),
            nominal_ms: None,
            outputs: Vec::new(),
        })
    }

    /// The body, copied first if another handle shares it.
    fn body_mut(&mut self) -> &mut ActionBody {
        Rc::make_mut(&mut self.0)
    }

    /// Builder: add a parameter.
    pub(crate) fn with_param(mut self, key: impl Into<String>, value: impl Into<String>) -> Action {
        self.body_mut().params.insert(key.into(), value.into());
        self
    }

    /// Builder: set the error policy.
    pub fn with_error_policy(mut self, policy: ErrorPolicy) -> Action {
        self.body_mut().on_error = policy;
        self
    }

    /// Builder: set the nominal simulated duration.
    pub fn with_nominal_ms(mut self, ms: u64) -> Action {
        self.body_mut().nominal_ms = Some(ms);
        self
    }

    /// Builder: declare an output attribute.
    pub fn with_output(mut self, attr: impl Into<String>) -> Action {
        self.body_mut().outputs.push(attr.into());
        self
    }

    /// The action's matching identity: two actions are "the same operation"
    /// when their kind, command and parameters coincide.
    ///
    /// Per-instance parameters (an IP address, a user name) naturally make
    /// signatures differ, which is exactly right: a cached image with *user
    /// "alice" created* must not match a request for user "bob".
    pub fn signature(&self) -> ActionSignature {
        self.sig_ref().to_signature()
    }

    /// The matching identity read in place, without copying the command
    /// or the parameters.
    pub fn sig_ref(&self) -> SigRef<'_> {
        SigRef {
            kind: self.kind,
            command: &self.command,
            params: &self.params,
        }
    }
}

/// Matching identity of an action (kind + command + parameters).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ActionSignature {
    /// Where the action runs.
    pub kind: ActionKind,
    /// The command.
    pub command: String,
    /// Its parameters.
    pub params: BTreeMap<String, String>,
}

impl ActionSignature {
    /// The signature as a borrowed view.
    pub(crate) fn sig_ref(&self) -> SigRef<'_> {
        SigRef {
            kind: self.kind,
            command: &self.command,
            params: &self.params,
        }
    }
}

/// Hashes as its [`SigRef`], so a map keyed by owned signatures can be
/// probed with a borrowed one.
impl Hash for ActionSignature {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.sig_ref().hash(state);
    }
}

/// A borrowed [`ActionSignature`]: an action's matching identity read in
/// place from the action.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SigRef<'a> {
    /// Where the action runs.
    pub kind: ActionKind,
    /// The command.
    pub command: &'a str,
    /// Its parameters.
    pub params: &'a BTreeMap<String, String>,
}

impl SigRef<'_> {
    /// An owned copy.
    pub(crate) fn to_signature(self) -> ActionSignature {
        ActionSignature {
            kind: self.kind,
            command: self.command.to_owned(),
            params: self.params.clone(),
        }
    }
}

impl PartialOrd for ActionKind {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ActionKind {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(k: &ActionKind) -> u8 {
            match k {
                ActionKind::Guest => 0,
                ActionKind::Host => 1,
            }
        }
        rank(self).cmp(&rank(other))
    }
}

impl fmt::Display for ActionSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.sig_ref().fmt(f)
    }
}

impl fmt::Display for SigRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind, self.command)?;
        if !self.params.is_empty() {
            write!(f, "(")?;
            for (i, (k, v)) in self.params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{k}={v}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_fill_fields() {
        let a = Action::guest("E", "create-user")
            .with_param("name", "arijit")
            .with_error_policy(ErrorPolicy::Retry(2))
            .with_nominal_ms(1500)
            .with_output("user_name");
        assert_eq!(a.kind, ActionKind::Guest);
        assert_eq!(a.params["name"], "arijit");
        assert_eq!(a.on_error, ErrorPolicy::Retry(2));
        assert_eq!(a.nominal_ms, Some(1500));
        assert_eq!(a.outputs, vec!["user_name"]);
    }

    #[test]
    fn clones_share_the_body_until_a_builder_writes() {
        let a = Action::guest("E", "create-user").with_param("name", "arijit");
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::ptr::eq(&*a, &*b), "a clone shares the body");
        let c = b.clone().with_param("home", "/home/arijit");
        assert_eq!(a.params.len(), 1, "the builder left the source alone");
        assert_eq!(b, a);
        assert!(std::ptr::eq(&*a, &*b));
        assert_eq!(c.params["home"], "/home/arijit");
        assert_ne!(a, c);
        assert_ne!(a.signature(), c.signature());
    }

    #[test]
    fn debug_prints_the_fields_under_the_action_name() {
        let a = Action::host("D", "configure-mac-ip")
            .with_output("ip_address")
            .with_error_policy(ErrorPolicy::Recover(vec![Action::guest("R", "reset-nic")]));
        assert_eq!(
            format!("{a:?}"),
            "Action { id: \"D\", kind: Host, command: \"configure-mac-ip\", params: {}, \
             on_error: Recover([Action { id: \"R\", kind: Guest, command: \"reset-nic\", \
             params: {}, on_error: Abort, nominal_ms: None, outputs: [] }]), nominal_ms: None, \
             outputs: [\"ip_address\"] }"
        );
    }

    #[test]
    fn borrowed_signature_agrees_with_the_owned_one() {
        let a = Action::host("H", "attach-iso").with_param("path", "/tmp/x.iso");
        let owned = a.signature();
        assert_eq!(a.sig_ref(), owned.sig_ref());
        assert_eq!(a.sig_ref().to_signature(), owned);
        assert_eq!(a.sig_ref().to_string(), owned.to_string());
        let hash = |h: &dyn Fn(&mut std::collections::hash_map::DefaultHasher)| {
            let mut state = std::collections::hash_map::DefaultHasher::new();
            h(&mut state);
            state.finish()
        };
        assert_eq!(hash(&|s| owned.hash(s)), hash(&|s| a.sig_ref().hash(s)));
    }

    #[test]
    fn signature_ignores_label_but_not_params() {
        let a = Action::guest("A", "install-vnc").with_param("v", "4.0");
        let b = Action::guest("B-different-label", "install-vnc").with_param("v", "4.0");
        let c = Action::guest("A", "install-vnc").with_param("v", "4.1");
        let d = Action::host("A", "install-vnc").with_param("v", "4.0");
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature());
        assert_ne!(a.signature(), d.signature());
    }

    #[test]
    fn signature_param_order_is_canonical() {
        let a = Action::guest("A", "cfg")
            .with_param("x", "1")
            .with_param("y", "2");
        let b = Action::guest("A", "cfg")
            .with_param("y", "2")
            .with_param("x", "1");
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn signature_display_is_informative() {
        let a = Action::host("H", "attach-iso").with_param("path", "/tmp/x.iso");
        assert_eq!(a.signature().to_string(), "host:attach-iso(path=/tmp/x.iso)");
        let b = Action::guest("G", "reboot");
        assert_eq!(b.signature().to_string(), "guest:reboot");
    }

    #[test]
    fn default_error_policy_aborts() {
        assert_eq!(ErrorPolicy::default(), ErrorPolicy::Abort);
    }
}
