//! Parser for the XML subset.

use std::fmt;

use crate::element::{Element, Node};

/// Parse failure with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlError {
    /// Byte position in the input where the problem was detected.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl XmlError {
    fn new(at: usize, message: impl Into<String>) -> Self {
        XmlError {
            at,
            message: message.into(),
        }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Deepest element nesting [`parse`] accepts, with the root at level one.
/// The parser recurses once per level and wire input reaches it, so the
/// bound is fixed; every message and scenario format is a handful of
/// levels deep.
const MAX_DEPTH: usize = 128;

/// Parse a document: optional `<?xml …?>` declaration, comments, exactly one
/// root element, nested at most 128 levels deep.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        input,
        pos: 0,
    };
    p.skip_prolog()?;
    let root = p.element(1)?;
    p.skip_misc()?;
    if p.pos != p.bytes.len() {
        return Err(XmlError::new(p.pos, "trailing content after root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_comment(&mut self) -> Result<bool, XmlError> {
        if !self.starts_with("<!--") {
            return Ok(false);
        }
        let start = self.pos;
        self.pos += 4;
        match self.input[self.pos..].find("-->") {
            Some(rel) => {
                self.pos += rel + 3;
                Ok(true)
            }
            None => Err(XmlError::new(start, "unterminated comment")),
        }
    }

    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            let start = self.pos;
            match self.input[self.pos..].find("?>") {
                Some(rel) => self.pos += rel + 2,
                None => return Err(XmlError::new(start, "unterminated XML declaration")),
            }
        }
        self.skip_misc()
    }

    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if !self.skip_comment()? {
                return Ok(());
            }
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ch = c as char;
            if ch.is_ascii_alphanumeric() || matches!(ch, '_' | '-' | '.' | ':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(XmlError::new(start, "expected a name"));
        }
        let first = self.bytes[start] as char;
        if !(first.is_ascii_alphabetic() || first == '_') {
            return Err(XmlError::new(start, "names must start with a letter or '_'"));
        }
        Ok(self.input[start..self.pos].to_owned())
    }

    /// Parse the element starting here, at nesting level `depth`.
    fn element(&mut self, depth: usize) -> Result<Element, XmlError> {
        let open_at = self.pos;
        if self.peek() != Some(b'<') {
            return Err(XmlError::new(self.pos, "expected '<'"));
        }
        if depth > MAX_DEPTH {
            return Err(XmlError::new(
                open_at,
                format!("elements nested deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut element = Element::new(name.clone());
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(XmlError::new(self.pos, "expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok(element); // self-closing
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let attr_at = self.pos;
                    let attr_name = self.name()?;
                    if element.attr(&attr_name).is_some() {
                        return Err(XmlError::new(
                            attr_at,
                            format!("duplicate attribute '{attr_name}'"),
                        ));
                    }
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(XmlError::new(self.pos, "expected '=' after attribute name"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let value = self.attr_value()?;
                    element.attrs.push((attr_name, value));
                }
                None => return Err(XmlError::new(open_at, "unterminated start tag")),
            }
        }
        // Content until the matching close tag.
        let mut text_buf = String::new();
        loop {
            match self.peek() {
                None => return Err(XmlError::new(open_at, format!("missing </{name}>"))),
                Some(b'<') => {
                    if self.starts_with("</") {
                        flush_text(&mut element, &mut text_buf);
                        self.pos += 2;
                        let close_at = self.pos;
                        let close_name = self.name()?;
                        if close_name != name {
                            return Err(XmlError::new(
                                close_at,
                                format!("mismatched close tag </{close_name}>, expected </{name}>"),
                            ));
                        }
                        self.skip_ws();
                        if self.peek() != Some(b'>') {
                            return Err(XmlError::new(self.pos, "expected '>' in close tag"));
                        }
                        self.pos += 1;
                        return Ok(element);
                    }
                    if self.skip_comment()? {
                        continue;
                    }
                    flush_text(&mut element, &mut text_buf);
                    let child = self.element(depth + 1)?;
                    element.children.push(Node::Element(child));
                }
                Some(_) => {
                    let chunk = self.char_data()?;
                    text_buf.push_str(&chunk);
                }
            }
        }
    }

    fn attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(XmlError::new(self.pos, "expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(XmlError::new(start, "unterminated attribute value")),
                Some(q) if q == quote => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'<') => return Err(XmlError::new(self.pos, "'<' in attribute value")),
                Some(b'&') => {
                    let c = self.entity()?;
                    out.push(c);
                }
                Some(_) => {
                    let ch = self.input[self.pos..].chars().next().expect("char");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn char_data(&mut self) -> Result<String, XmlError> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'<') => return Ok(out),
                Some(b'&') => {
                    let c = self.entity()?;
                    out.push(c);
                }
                Some(_) => {
                    let ch = self.input[self.pos..].chars().next().expect("char");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn entity(&mut self) -> Result<char, XmlError> {
        let start = self.pos;
        debug_assert_eq!(self.peek(), Some(b'&'));
        let rest = &self.input[self.pos..];
        let semi = rest
            .find(';')
            .ok_or_else(|| XmlError::new(start, "unterminated entity reference"))?;
        let body = &rest[1..semi];
        let c = match body {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ => {
                if let Some(hex) = body.strip_prefix("#x").or_else(|| body.strip_prefix("#X")) {
                    u32::from_str_radix(hex, 16)
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or_else(|| XmlError::new(start, format!("bad char ref &{body};")))?
                } else if let Some(dec) = body.strip_prefix('#') {
                    dec.parse::<u32>()
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or_else(|| XmlError::new(start, format!("bad char ref &{body};")))?
                } else {
                    return Err(XmlError::new(
                        start,
                        format!("unknown entity &{body}; (subset supports the five XML built-ins and numeric refs)"),
                    ));
                }
            }
        };
        self.pos += semi + 1;
        Ok(c)
    }
}

fn flush_text(element: &mut Element, buf: &mut String) {
    if buf.trim().is_empty() {
        buf.clear();
        return;
    }
    element.children.push(Node::Text(std::mem::take(buf)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"<?xml version="1.0"?>
            <!-- a create request -->
            <create-vm client="portal">
                <memory-mb>64</memory-mb>
                <disk gb="4"/>
                <dag>
                    <node id="a" kind="guest">install</node>
                    <node id="b" kind="host">attach-iso</node>
                </dag>
            </create-vm>"#;
        let root = parse(doc).unwrap();
        assert_eq!(root.name, "create-vm");
        assert_eq!(root.attr("client"), Some("portal"));
        assert_eq!(root.child_parse::<u32>("memory-mb"), Some(64));
        assert_eq!(root.child("disk").unwrap().attr("gb"), Some("4"));
        assert_eq!(root.child("dag").unwrap().children_named("node").count(), 2);
    }

    #[test]
    fn whitespace_only_text_is_dropped_but_real_text_kept() {
        let root = parse("<a>\n  <b/>\n  hello\n  <c/>\n</a>").unwrap();
        assert_eq!(root.elements().count(), 2);
        let texts: Vec<&Node> = root
            .children
            .iter()
            .filter(|n| matches!(n, Node::Text(_)))
            .collect();
        assert_eq!(texts.len(), 1);
        assert_eq!(root.text(), Some("hello"));
    }

    #[test]
    fn entities_round_trip() {
        let root = parse("<m q=\"a&quot;b\">x &lt; y &amp;&amp; z &#65;&#x42;</m>").unwrap();
        assert_eq!(root.attr("q"), Some("a\"b"));
        assert_eq!(root.text(), Some("x < y && z AB"));
    }

    #[test]
    fn serialize_parse_round_trip() {
        let e = Element::new("msg")
            .with_attr("weird", "quotes\" and <angles> & amps\nnewline")
            .with_text_child("payload", "a<b>&c")
            .with_child(Element::new("empty"));
        let reparsed = parse(&e.to_xml()).unwrap();
        assert_eq!(e, reparsed);
    }

    #[test]
    fn single_quoted_attributes_accepted() {
        let root = parse("<a x='1'/>").unwrap();
        assert_eq!(root.attr("x"), Some("1"));
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn rejects_duplicate_attributes() {
        let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn rejects_trailing_content_and_multiple_roots() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>junk").is_err());
        // Trailing comments and whitespace are fine.
        assert!(parse("<a/> <!-- ok --> ").is_ok());
    }

    #[test]
    fn rejects_unterminated_structures() {
        assert!(parse("<a>").unwrap_err().message.contains("missing </a>"));
        assert!(parse("<a x=\"1").is_err());
        assert!(parse("<!-- never closed").is_err());
        assert!(parse("<a>&nope;</a>").is_err());
        assert!(parse("<a>&amp</a>").is_err());
    }

    #[test]
    fn rejects_bad_names() {
        assert!(parse("<1a/>").is_err());
        assert!(parse("<-x/>").is_err());
        // Dashes and dots inside names are fine.
        assert!(parse("<create-vm.v1/>").is_ok());
    }

    #[test]
    fn deeply_nested_document() {
        let mut doc = String::new();
        for i in 0..100 {
            doc.push_str(&format!("<n{i}>"));
        }
        for i in (0..100).rev() {
            doc.push_str(&format!("</n{i}>"));
        }
        let root = parse(&doc).unwrap();
        assert_eq!(root.name, "n0");
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |levels: usize| "<a>".repeat(levels) + &"</a>".repeat(levels);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, 3 * MAX_DEPTH, "points at the first too-deep tag");
        assert!(err.message.contains("nested deeper than 128"), "{err}");
        // Far past the bound is refused the same way, without recursing
        // past it.
        assert_eq!(parse(&nested(100_000)).unwrap_err(), err);
    }
}
