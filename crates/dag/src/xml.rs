//! XML encoding of configuration DAGs.
//!
//! The prototype ships DAGs inside XML Create-VM requests (§4.1: "The
//! Create VM service specification contains the DAG of configuration
//! actions"). The schema here:
//!
//! ```xml
//! <dag>
//!   <action id="A" kind="guest" nominal-ms="900000">
//!     <command>install-redhat-8.0</command>
//!     <param name="version">8.0</param>
//!     <output>ip_address</output>
//!     <on-error retry="2"/>          <!-- or abort / ignore / recover -->
//!   </action>
//!   <edge from="A" to="B"/>
//! </dag>
//! ```

use vmplants_xmlmsg::Element;

use crate::action::{Action, ActionKind, ErrorPolicy};
use crate::graph::{ConfigDag, DagError};

/// Errors decoding a DAG from XML.
#[derive(Clone, Debug, PartialEq)]
pub enum DagXmlError {
    /// A structural problem in the document.
    Malformed(String),
    /// The decoded graph violated DAG invariants.
    Graph(DagError),
}

impl std::fmt::Display for DagXmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagXmlError::Malformed(msg) => write!(f, "malformed DAG XML: {msg}"),
            DagXmlError::Graph(e) => write!(f, "invalid DAG: {e}"),
        }
    }
}

impl std::error::Error for DagXmlError {}

impl From<DagError> for DagXmlError {
    fn from(e: DagError) -> Self {
        DagXmlError::Graph(e)
    }
}

/// Encode a DAG as an XML element.
pub fn dag_to_xml(dag: &ConfigDag) -> Element {
    let mut root = Element::new("dag");
    for action in dag.actions() {
        root.push_child(action_to_xml(action));
    }
    for (from, to) in dag.edges() {
        root.push_child(Element::new("edge").with_attr("from", from).with_attr("to", to));
    }
    root
}

/// Decode a DAG from an XML element produced by [`dag_to_xml`].
pub fn dag_from_xml(root: &Element) -> Result<ConfigDag, DagXmlError> {
    if root.name != "dag" {
        return Err(DagXmlError::Malformed(format!(
            "expected <dag>, found <{}>",
            root.name
        )));
    }
    let mut dag = ConfigDag::new();
    for el in root.children_named("action") {
        dag.add_action(action_from_xml(el)?)?;
    }
    for el in root.children_named("edge") {
        let from = el
            .attr("from")
            .ok_or_else(|| DagXmlError::Malformed("<edge> missing 'from'".into()))?;
        let to = el
            .attr("to")
            .ok_or_else(|| DagXmlError::Malformed("<edge> missing 'to'".into()))?;
        dag.add_edge(from, to)?;
    }
    Ok(dag)
}

fn action_to_xml(action: &Action) -> Element {
    let mut el = Element::new("action")
        .with_attr("id", &action.id)
        .with_attr("kind", action.kind.to_string());
    if let Some(ms) = action.nominal_ms {
        el.set_attr("nominal-ms", ms.to_string());
    }
    el.push_child(Element::new("command").with_text(&action.command));
    for (k, v) in &action.params {
        el.push_child(Element::new("param").with_attr("name", k).with_text(v));
    }
    for output in &action.outputs {
        el.push_child(Element::new("output").with_text(output));
    }
    match &action.on_error {
        ErrorPolicy::Abort => {}
        ErrorPolicy::Retry(n) => {
            el.push_child(Element::new("on-error").with_attr("retry", n.to_string()));
        }
        ErrorPolicy::Ignore => {
            el.push_child(Element::new("on-error").with_attr("ignore", "true"));
        }
        ErrorPolicy::Recover(actions) => {
            let mut recover = Element::new("on-error");
            for a in actions {
                recover.push_child(action_to_xml(a));
            }
            el.push_child(recover);
        }
    }
    el
}

fn action_from_xml(el: &Element) -> Result<Action, DagXmlError> {
    let id = el
        .attr("id")
        .ok_or_else(|| DagXmlError::Malformed("<action> missing 'id'".into()))?;
    let kind = match el.attr("kind") {
        Some("guest") => ActionKind::Guest,
        Some("host") => ActionKind::Host,
        Some(other) => {
            return Err(DagXmlError::Malformed(format!(
                "unknown action kind '{other}'"
            )))
        }
        None => return Err(DagXmlError::Malformed("<action> missing 'kind'".into())),
    };
    let command = el
        .child_text("command")
        .ok_or_else(|| DagXmlError::Malformed(format!("action '{id}' missing <command>")))?;
    let mut action = match kind {
        ActionKind::Guest => Action::guest(id, command),
        ActionKind::Host => Action::host(id, command),
    };
    if let Some(ms_text) = el.attr("nominal-ms") {
        let ms = ms_text.parse().map_err(|_| {
            DagXmlError::Malformed(format!("bad nominal-ms '{ms_text}' on action '{id}'"))
        })?;
        action = action.with_nominal_ms(ms);
    }
    for p in el.children_named("param") {
        let name = p
            .attr("name")
            .ok_or_else(|| DagXmlError::Malformed("<param> missing 'name'".into()))?;
        action = action.with_param(name, p.text().unwrap_or(""));
    }
    for o in el.children_named("output") {
        if let Some(text) = o.text() {
            action = action.with_output(text);
        }
    }
    if let Some(err_el) = el.child("on-error") {
        let policy = if let Some(n) = err_el.attr("retry") {
            let n = n.parse().map_err(|_| {
                DagXmlError::Malformed(format!("bad retry count on action '{id}'"))
            })?;
            ErrorPolicy::Retry(n)
        } else if err_el.attr("ignore") == Some("true") {
            ErrorPolicy::Ignore
        } else {
            let mut recover = Vec::new();
            for child in err_el.children_named("action") {
                recover.push(action_from_xml(child)?);
            }
            if recover.is_empty() {
                ErrorPolicy::Abort
            } else {
                ErrorPolicy::Recover(recover)
            }
        };
        action = action.with_error_policy(policy);
    }
    Ok(action)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::invigo_workspace_dag;

    #[test]
    fn round_trips_the_invigo_dag() {
        let dag = invigo_workspace_dag("arijit");
        let xml = dag_to_xml(&dag);
        let decoded = dag_from_xml(&xml).unwrap();
        assert_eq!(dag, decoded);
        // And through actual serialization.
        let text = xml.to_pretty_xml();
        let reparsed = vmplants_xmlmsg::parse(&text).unwrap();
        let decoded2 = dag_from_xml(&reparsed).unwrap();
        assert_eq!(dag, decoded2);
    }

    /// Equality ignores the order edges were added in: the writer emits
    /// them grouped by source, so `4→5` added before `3→5` comes back
    /// as `3→5`, `4→5`.
    #[test]
    fn round_trips_edges_added_out_of_source_order() {
        let mut dag = ConfigDag::new();
        for i in 0..6 {
            dag.add_action(Action::guest(format!("n{i}"), format!("op-{i}")))
                .unwrap();
        }
        dag.add_edge("n4", "n5").unwrap();
        dag.add_edge("n3", "n5").unwrap();
        let text = dag_to_xml(&dag).to_xml();
        let decoded = dag_from_xml(&vmplants_xmlmsg::parse(&text).unwrap()).unwrap();
        assert_eq!(dag, decoded);
        // A different edge set still compares unequal.
        let mut other = decoded.clone();
        other.add_edge("n2", "n5").unwrap();
        assert_ne!(dag, other);
    }

    #[test]
    fn round_trips_error_policies() {
        let mut dag = ConfigDag::new();
        dag.add_action(Action::guest("a", "x").with_error_policy(ErrorPolicy::Retry(3)))
            .unwrap();
        dag.add_action(Action::guest("b", "y").with_error_policy(ErrorPolicy::Ignore))
            .unwrap();
        dag.add_action(
            Action::guest("c", "z").with_error_policy(ErrorPolicy::Recover(vec![
                Action::guest("c-fix", "cleanup"),
            ])),
        )
        .unwrap();
        dag.add_edge("a", "b").unwrap();
        let decoded = dag_from_xml(&dag_to_xml(&dag)).unwrap();
        assert_eq!(dag, decoded);
    }

    #[test]
    fn rejects_malformed_documents() {
        let bad_root = Element::new("not-a-dag");
        assert!(matches!(
            dag_from_xml(&bad_root),
            Err(DagXmlError::Malformed(_))
        ));

        let missing_kind = Element::new("dag").with_child(
            Element::new("action")
                .with_attr("id", "a")
                .with_text_child("command", "x"),
        );
        assert!(dag_from_xml(&missing_kind).is_err());

        let missing_command = Element::new("dag")
            .with_child(Element::new("action").with_attr("id", "a").with_attr("kind", "guest"));
        assert!(dag_from_xml(&missing_command).is_err());

        let bad_edge = Element::new("dag").with_child(Element::new("edge").with_attr("from", "a"));
        assert!(dag_from_xml(&bad_edge).is_err());
    }

    #[test]
    fn rejects_graph_violations() {
        // Edge to an unknown node surfaces as a Graph error.
        let doc = Element::new("dag")
            .with_child(
                Element::new("action")
                    .with_attr("id", "a")
                    .with_attr("kind", "guest")
                    .with_text_child("command", "x"),
            )
            .with_child(Element::new("edge").with_attr("from", "a").with_attr("to", "ghost"));
        assert!(matches!(
            dag_from_xml(&doc),
            Err(DagXmlError::Graph(DagError::UnknownNode(_)))
        ));
    }

    #[test]
    fn params_round_trip_with_unicode() {
        let mut dag = ConfigDag::new();
        dag.add_action(
            Action::guest("u", "create-user")
                .with_param("name", "josé")
                .with_param("shell", "/bin/bash"),
        )
        .unwrap();
        let decoded = dag_from_xml(&dag_to_xml(&dag)).unwrap();
        assert_eq!(
            decoded.action("u").unwrap().params["name"],
            "josé".to_owned()
        );
    }
}
