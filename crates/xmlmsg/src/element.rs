//! The element tree and writer.

use std::fmt;

/// A child of an element: nested element or character data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Character data (unescaped).
    Text(String),
}

/// An XML element: name, ordered attributes, ordered children.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order. Duplicate names are rejected by the
    /// parser; the builder API replaces on collision.
    pub attrs: Vec<(String, String)>,
    /// Children in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// An empty element with the given tag name.
    pub fn new(name: impl Into<String>) -> Element {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder: set an attribute (replacing an existing one of that name).
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Element {
        self.set_attr(name, value);
        self
    }

    /// Builder: append a child element.
    pub fn with_child(mut self, child: Element) -> Element {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder: append character data.
    pub fn with_text(mut self, text: impl Into<String>) -> Element {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Builder: append a `<name>text</name>` child — the most common shape
    /// in the service messages.
    pub fn with_text_child(self, name: impl Into<String>, text: impl Into<String>) -> Element {
        self.with_child(Element::new(name).with_text(text))
    }

    /// Set an attribute, replacing an existing one of the same name.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attrs.push((name, value));
        }
    }

    /// Attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Append a child element.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// All child elements (skipping text nodes).
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// First child element with the given tag name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.elements().find(|e| e.name == name)
    }

    /// All child elements with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> {
        self.elements().filter(move |e| e.name == name)
    }

    /// Concatenated character data directly under this element, trimmed.
    /// Returns `None` if there is no non-empty text.
    pub fn text(&self) -> Option<&str> {
        // The writer emits at most one text node per "leaf" element, and the
        // parser coalesces adjacent character data, so taking the first
        // non-empty node is exact for our documents.
        self.children.iter().find_map(|n| match n {
            Node::Text(t) => {
                let t = t.trim();
                (!t.is_empty()).then_some(t)
            }
            Node::Element(_) => None,
        })
    }

    /// Trimmed text of the first child element with the given name.
    pub fn child_text(&self, name: &str) -> Option<&str> {
        self.child(name).and_then(Element::text)
    }

    /// Serialize compactly (no insignificant whitespace).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialize with two-space indentation. Elements containing character
    /// data are kept on one line so their text stays byte-exact.
    pub fn to_pretty_xml(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (n, v) in &self.attrs {
            out.push(' ');
            out.push_str(n);
            out.push_str("=\"");
            out.push_str(&escape_attr(v));
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for child in &self.children {
            match child {
                Node::Element(e) => e.write(out),
                Node::Text(t) => out.push_str(&escape_text(t)),
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }

    fn has_element_children(&self) -> bool {
        self.children
            .iter()
            .any(|n| matches!(n, Node::Element(_)))
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        if !self.has_element_children() {
            // Leaf (possibly with text): single line.
            self.write(out);
            return;
        }
        out.push('<');
        out.push_str(&self.name);
        for (n, v) in &self.attrs {
            out.push(' ');
            out.push_str(n);
            out.push_str("=\"");
            out.push_str(&escape_attr(v));
            out.push('"');
        }
        out.push('>');
        for child in &self.children {
            match child {
                Node::Element(e) => {
                    out.push('\n');
                    e.write_pretty(out, depth + 1);
                }
                Node::Text(t) => {
                    let trimmed = t.trim();
                    if !trimmed.is_empty() {
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth + 1));
                        out.push_str(&escape_text(trimmed));
                    }
                }
            }
        }
        out.push('\n');
        out.push_str(&pad);
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

/// Escape character data.
pub(crate) fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            other => out.push(other),
        }
    }
    out
}

/// Escape an attribute value (double-quote delimited).
pub(crate) fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\n' => out.push_str("&#10;"),
            '\t' => out.push_str("&#9;"),
            '\r' => out.push_str("&#13;"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let e = Element::new("vm")
            .with_attr("id", "vm-1")
            .with_attr("kind", "vmware")
            .with_text_child("memory-mb", "64")
            .with_child(
                Element::new("disk")
                    .with_attr("gb", "4")
                    .with_attr("mode", "nonpersistent"),
            );
        assert_eq!(e.attr("id"), Some("vm-1"));
        assert_eq!(e.attr("missing"), None);
        assert_eq!(e.child_text("memory-mb"), Some("64"));
        assert_eq!(e.child("disk").unwrap().attr("mode"), Some("nonpersistent"));
        assert_eq!(e.elements().count(), 2);
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::new("x");
        e.set_attr("a", "1");
        e.set_attr("a", "2");
        assert_eq!(e.attrs.len(), 1);
        assert_eq!(e.attr("a"), Some("2"));
    }

    #[test]
    fn compact_serialization() {
        let e = Element::new("a")
            .with_attr("k", "v")
            .with_child(Element::new("b"))
            .with_text_child("c", "hi");
        assert_eq!(e.to_xml(), r#"<a k="v"><b/><c>hi</c></a>"#);
    }

    #[test]
    fn escaping_in_text_and_attrs() {
        let e = Element::new("m")
            .with_attr("q", "a\"b<c>&d")
            .with_text("x < y && z > w");
        let xml = e.to_xml();
        assert!(xml.contains("&quot;"));
        assert!(xml.contains("&lt;"));
        assert!(xml.contains("&amp;&amp;"));
        assert!(!xml.contains("<c>"));
    }

    #[test]
    fn children_named_filters() {
        let e = Element::new("dag")
            .with_child(Element::new("node").with_attr("id", "a"))
            .with_child(Element::new("edge"))
            .with_child(Element::new("node").with_attr("id", "b"));
        let ids: Vec<&str> = e
            .children_named("node")
            .filter_map(|n| n.attr("id"))
            .collect();
        assert_eq!(ids, vec!["a", "b"]);
    }

    #[test]
    fn pretty_print_is_reparseable_and_readable() {
        let e = Element::new("root")
            .with_child(Element::new("leaf").with_text("text"))
            .with_child(Element::new("nest").with_child(Element::new("inner")));
        let pretty = e.to_pretty_xml();
        assert!(pretty.contains("\n  <leaf>text</leaf>\n"));
        let reparsed = crate::parse(&pretty).unwrap();
        assert_eq!(reparsed.child_text("leaf"), Some("text"));
        assert!(reparsed.child("nest").unwrap().child("inner").is_some());
    }

    #[test]
    fn text_of_empty_element_is_none() {
        assert_eq!(Element::new("x").text(), None);
        let ws = Element::new("x").with_text("   ");
        assert_eq!(ws.text(), None);
    }
}
