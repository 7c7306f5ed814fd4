//! XML descriptors for cached images.
//!
//! §4.1: "XML files are used to describe such cached images in terms of
//! their memory sizes, operating system installed, and the configuration
//! actions that have already been performed in the cached machines."
//!
//! ```xml
//! <golden-image id="mandrake81-64mb" name="…">
//!   <spec memory-mb="64" disk-gb="4" os="linux-mandrake-8.1" vmm="vmware"/>
//!   <performed>
//!     <action id="A" kind="guest"><command>install-redhat-8.0</command></action>
//!     …
//!   </performed>
//! </golden-image>
//! ```

use std::rc::Rc;

use vmplants_dag::xml::{dag_from_xml, dag_to_xml, DagXmlError};
use vmplants_dag::{ConfigDag, PerformedLog};
use vmplants_virt::{ImageFiles, VmSpec, VmmType};
use vmplants_xmlmsg::Element;

use crate::golden::{GoldenId, GoldenImage};
use crate::store::GOLDEN_DISK_BYTES;

/// Encode an image descriptor.
pub(crate) fn image_to_xml(image: &GoldenImage) -> Element {
    let spec = Element::new("spec")
        .with_attr("memory-mb", image.spec.memory_mb.to_string())
        .with_attr("disk-gb", image.spec.disk_gb.to_string())
        .with_attr("os", &image.spec.os)
        .with_attr("vmm", image.spec.vmm.to_string());
    // The performed log is a degenerate (linear) DAG; reuse the DAG
    // encoding with explicit sequence edges so the order survives.
    let mut as_dag = ConfigDag::new();
    let mut prev: Option<String> = None;
    for action in image.performed.actions() {
        as_dag
            .add_action(action.clone())
            .expect("performed log labels are unique");
        if let Some(p) = prev {
            as_dag.add_edge(&p, &action.id).expect("linear chain");
        }
        prev = Some(action.id.clone());
    }
    let mut performed = dag_to_xml(&as_dag);
    performed.name = "performed".into();

    Element::new("golden-image")
        .with_attr("id", &image.id.0)
        .with_attr("name", &image.name)
        .with_child(spec)
        .with_child(performed)
}

/// Errors decoding a descriptor.
#[derive(Clone, Debug, PartialEq)]
pub enum DescError {
    /// Structural problem.
    Malformed(String),
    /// The embedded performed log failed to decode.
    Dag(DagXmlError),
}

impl std::fmt::Display for DescError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DescError::Malformed(m) => write!(f, "malformed golden-image descriptor: {m}"),
            DescError::Dag(e) => write!(f, "descriptor performed-log error: {e}"),
        }
    }
}

impl std::error::Error for DescError {}

impl From<DagXmlError> for DescError {
    fn from(e: DagXmlError) -> Self {
        DescError::Dag(e)
    }
}

/// Decode an image descriptor (reconstructing the file layout from the id
/// and spec, as the warehouse would on restart).
pub(crate) fn image_from_xml(el: &Element) -> Result<GoldenImage, DescError> {
    if el.name != "golden-image" {
        return Err(DescError::Malformed(format!(
            "expected <golden-image>, found <{}>",
            el.name
        )));
    }
    let id = el
        .attr("id")
        .ok_or_else(|| DescError::Malformed("missing id".into()))?;
    let name = el.attr("name").unwrap_or(id);
    let spec_el = el
        .child("spec")
        .ok_or_else(|| DescError::Malformed("missing <spec>".into()))?;
    let parse_attr = |attr: &str| -> Result<u64, DescError> {
        spec_el
            .attr(attr)
            .ok_or_else(|| DescError::Malformed(format!("spec missing '{attr}'")))?
            .parse()
            .map_err(|_| DescError::Malformed(format!("bad '{attr}'")))
    };
    let memory_mb = parse_attr("memory-mb")?;
    let disk_gb = parse_attr("disk-gb")?;
    let os = spec_el
        .attr("os")
        .ok_or_else(|| DescError::Malformed("spec missing 'os'".into()))?
        .to_owned();
    let vmm: VmmType = spec_el
        .attr("vmm")
        .ok_or_else(|| DescError::Malformed("spec missing 'vmm'".into()))?
        .parse()
        .map_err(DescError::Malformed)?;
    let spec = VmSpec {
        memory_mb,
        disk_gb,
        os,
        vmm,
    };
    let performed = match el.child("performed") {
        Some(p_el) => {
            let mut as_dag_el = p_el.clone();
            as_dag_el.name = "dag".into();
            let dag = dag_from_xml(&as_dag_el)?;
            let order = dag
                .topo_sort()
                .map_err(|e| DescError::Malformed(e.to_string()))?;
            order
                .iter()
                .map(|aid| dag.action(aid).expect("from topo").clone())
                .collect()
        }
        None => PerformedLog::new(),
    };
    let dir = format!("/warehouse/{id}");
    Ok(GoldenImage {
        id: GoldenId(id.to_owned()),
        name: name.to_owned(),
        files: Rc::new(ImageFiles::plan(
            &dir,
            spec.vmm,
            spec.memory_mb,
            GOLDEN_DISK_BYTES,
        )),
        spec,
        performed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplants_dag::graph::invigo_workspace_dag;

    fn sample_image() -> GoldenImage {
        let dag = invigo_workspace_dag("arijit");
        let performed: PerformedLog = ["A", "B", "C"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        GoldenImage {
            id: GoldenId("mandrake81-64mb".into()),
            name: "Mandrake 8.1, 64 MB".into(),
            spec: VmSpec::mandrake(64),
            files: Rc::new(ImageFiles::plan(
                "/warehouse/mandrake81-64mb",
                VmmType::VmwareLike,
                64,
                GOLDEN_DISK_BYTES,
            )),
            performed,
        }
    }

    #[test]
    fn round_trip_preserves_identity_and_log_order() {
        let img = sample_image();
        let xml = image_to_xml(&img);
        let text = xml.to_pretty_xml();
        let reparsed = vmplants_xmlmsg::parse(&text).unwrap();
        let decoded = image_from_xml(&reparsed).unwrap();
        assert_eq!(decoded.id, img.id);
        assert_eq!(decoded.name, img.name);
        assert_eq!(decoded.spec, img.spec);
        assert_eq!(decoded.performed, img.performed);
        assert_eq!(decoded.files, img.files);
    }

    #[test]
    fn empty_performed_log_round_trips() {
        let mut img = sample_image();
        img.performed = PerformedLog::new();
        let decoded = image_from_xml(&image_to_xml(&img)).unwrap();
        assert!(decoded.performed.is_empty());
    }

    #[test]
    fn uml_spec_round_trips() {
        let mut img = sample_image();
        img.spec = VmSpec::uml(32);
        img.files = Rc::new(ImageFiles::plan(
            "/warehouse/mandrake81-64mb",
            VmmType::UmlLike,
            32,
            GOLDEN_DISK_BYTES,
        ));
        let decoded = image_from_xml(&image_to_xml(&img)).unwrap();
        assert_eq!(decoded.spec.vmm, VmmType::UmlLike);
        assert!(decoded.files.memory_state.is_none());
    }

    #[test]
    fn rejects_malformed_descriptors() {
        assert!(image_from_xml(&Element::new("wrong")).is_err());
        let no_spec = Element::new("golden-image").with_attr("id", "x");
        assert!(image_from_xml(&no_spec).is_err());
        let bad_vmm = Element::new("golden-image").with_attr("id", "x").with_child(
            Element::new("spec")
                .with_attr("memory-mb", "64")
                .with_attr("disk-gb", "4")
                .with_attr("os", "linux")
                .with_attr("vmm", "hyperv"),
        );
        assert!(image_from_xml(&bad_vmm).is_err());
        let bad_mem = Element::new("golden-image").with_attr("id", "x").with_child(
            Element::new("spec")
                .with_attr("memory-mb", "lots")
                .with_attr("disk-gb", "4")
                .with_attr("os", "linux")
                .with_attr("vmm", "vmware"),
        );
        assert!(image_from_xml(&bad_mem).is_err());
    }
}
