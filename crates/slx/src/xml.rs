//! A minimal XML tree: parser and writer.
//!
//! Covers the subset `.slx` block-diagram documents use — elements,
//! attributes, character data, comments, processing instructions, and the
//! five predefined entities plus numeric character references. No DTDs or
//! namespaces (Simulink documents do not rely on them for the dataflow
//! information FRODO extracts).

use crate::FormatError;
use std::fmt::Write as _;

/// A child of an element: nested element or character data.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Decoded character data.
    Text(String),
}

/// An XML element: name, attributes in document order, and children.
///
/// # Example
///
/// ```
/// use frodo_slx::xml::{parse, Element};
///
/// # fn main() -> Result<(), frodo_slx::FormatError> {
/// let doc = parse(r#"<Block BlockType="Gain"><P Name="Gain">2.5</P></Block>"#)?;
/// assert_eq!(doc.attr("BlockType"), Some("Gain"));
/// let p = doc.child("P").unwrap();
/// assert_eq!(p.text(), "2.5");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Adds or replaces an attribute, returning `self` for chaining.
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Adds or replaces an attribute.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        if let Some(a) = self.attrs.iter_mut().find(|(k, _)| *k == key) {
            a.1 = value;
        } else {
            self.attrs.push((key, value));
        }
    }

    /// Attribute value by name.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Appends a child element.
    pub fn push(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Appends character data.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    /// First child element with the given name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.elements().find(|e| e.name == name)
    }

    /// All child elements.
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// All child elements with a given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.elements().filter(move |e| e.name == name)
    }

    /// Concatenated direct character data, whitespace-trimmed.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out.trim().to_string()
    }
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

fn escape(s: &str, quote: bool) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if quote => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Serializes an element tree with two-space indentation and an XML
/// declaration, matching the look of real `.slx` documents.
pub fn write(root: &Element) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    write_element(root, 0, &mut out);
    out
}

fn write_element(e: &Element, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let _ = write!(out, "{pad}<{}", e.name);
    for (k, v) in &e.attrs {
        let _ = write!(out, " {k}=\"{}\"", escape(v, true));
    }
    if e.children.is_empty() {
        out.push_str("/>\n");
        return;
    }
    // text-only elements print inline
    let text_only = e.children.iter().all(|n| matches!(n, Node::Text(_)));
    if text_only {
        let _ = writeln!(out, ">{}</{}>", escape(&e.text(), false), e.name);
        return;
    }
    out.push_str(">\n");
    for n in &e.children {
        match n {
            Node::Element(c) => write_element(c, depth + 1, out),
            Node::Text(t) => {
                let t = t.trim();
                if !t.is_empty() {
                    let _ = writeln!(out, "{pad}  {}", escape(t, false));
                }
            }
        }
    }
    let _ = writeln!(out, "{pad}</{}>", e.name);
}

// ---------------------------------------------------------------------------
// parser
// ---------------------------------------------------------------------------

/// Parses a document into its root element.
///
/// # Errors
///
/// Returns [`FormatError::Xml`] with a byte offset for malformed input:
/// mismatched tags, bad entities, attribute syntax errors, or trailing
/// garbage after the root element.
pub fn parse(input: &str) -> Result<Element, FormatError> {
    let mut p = Parser {
        s: input,
        b: input.as_bytes(),
        pos: 0,
    };
    p.skip_misc()?;
    let root = p.parse_element()?;
    p.skip_misc()?;
    if p.pos != p.b.len() {
        return Err(p.err("content after document root"));
    }
    Ok(root)
}

/// Every slice of `s` the parser takes starts and ends at an ASCII
/// delimiter, so it always falls on `char` boundaries.
struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: impl Into<String>) -> FormatError {
        FormatError::Xml {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.b[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments, PIs, and the XML declaration.
    fn skip_misc(&mut self) -> Result<(), FormatError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                let end = self.find("-->")?;
                self.pos = end + 3;
            } else if self.starts_with("<?") {
                let end = self.find("?>")?;
                self.pos = end + 2;
            } else {
                return Ok(());
            }
        }
    }

    fn find(&self, needle: &str) -> Result<usize, FormatError> {
        let hay = &self.b[self.pos..];
        hay.windows(needle.len())
            .position(|w| w == needle.as_bytes())
            .map(|i| self.pos + i)
            .ok_or_else(|| self.err(format!("unterminated '{needle}' construct")))
    }

    fn parse_name(&mut self) -> Result<&'a str, FormatError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(&self.s[start..self.pos])
    }

    fn expect(&mut self, c: u8) -> Result<(), FormatError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn parse_element(&mut self) -> Result<Element, FormatError> {
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let mut element = Element::new(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(element);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?.to_string();
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = self.peek().ok_or_else(|| self.err("truncated attribute"))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.err("attribute value must be quoted"));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    let Some(len) = self.b[start..].iter().position(|&c| c == quote) else {
                        self.pos = self.b.len();
                        return Err(self.err("unterminated attribute value"));
                    };
                    self.pos = start + len + 1;
                    let value = self.decode_entities(&self.s[start..start + len])?;
                    element.attrs.push((key, value));
                }
                None => return Err(self.err("truncated start tag")),
            }
        }
        // content
        loop {
            if self.starts_with("<!--") {
                let end = self.find("-->")?;
                self.pos = end + 3;
            } else if self.starts_with("<![CDATA[") {
                self.pos += 9;
                let end = self.find("]]>")?;
                // CDATA is literal: no entity decoding
                if end > self.pos {
                    element.push_text(&self.s[self.pos..end]);
                }
                self.pos = end + 3;
            } else if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != element.name {
                    return Err(self.err(format!(
                        "mismatched close tag </{close}> for <{}>",
                        element.name
                    )));
                }
                self.skip_ws();
                self.expect(b'>')?;
                return Ok(element);
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element()?;
                element.push(child);
            } else if self.peek().is_none() {
                return Err(self.err(format!("unclosed element <{}>", element.name)));
            } else {
                let start = self.pos;
                self.pos += self.b[start..]
                    .iter()
                    .position(|&c| c == b'<')
                    .unwrap_or(self.b.len() - start);
                let raw = &self.s[start..self.pos];
                // indentation between elements: dropped before any copy
                if raw.bytes().all(|c| c.is_ascii_whitespace()) {
                    continue;
                }
                let text = self.decode_entities(raw)?;
                if !text.trim().is_empty() {
                    element.push_text(text);
                }
            }
        }
    }

    fn decode_entities(&self, raw: &str) -> Result<String, FormatError> {
        if !raw.contains('&') {
            return Ok(raw.to_string());
        }
        let mut out = String::with_capacity(raw.len());
        let mut rest = raw;
        while let Some(i) = rest.find('&') {
            out.push_str(&rest[..i]);
            rest = &rest[i + 1..];
            let semi = rest
                .find(';')
                .ok_or_else(|| self.err("unterminated entity"))?;
            let ent = &rest[..semi];
            match ent {
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "amp" => out.push('&'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                    let code = u32::from_str_radix(&ent[2..], 16)
                        .map_err(|_| self.err(format!("bad character reference &{ent};")))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| self.err("invalid character reference"))?,
                    );
                }
                _ if ent.starts_with('#') => {
                    let code: u32 = ent[1..]
                        .parse()
                        .map_err(|_| self.err(format!("bad character reference &{ent};")))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| self.err("invalid character reference"))?,
                    );
                }
                _ => return Err(self.err(format!("unknown entity &{ent};"))),
            }
            rest = &rest[semi + 1..];
        }
        out.push_str(rest);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_document() {
        let doc = parse(
            r#"<?xml version="1.0"?>
            <!-- a comment -->
            <Model Name="conv">
              <System>
                <Block BlockType="Gain" Name="g"><P Name="Gain">2.0</P></Block>
              </System>
            </Model>"#,
        )
        .unwrap();
        assert_eq!(doc.name, "Model");
        assert_eq!(doc.attr("Name"), Some("conv"));
        let block = doc.child("System").unwrap().child("Block").unwrap();
        assert_eq!(block.attr("BlockType"), Some("Gain"));
        assert_eq!(block.child("P").unwrap().text(), "2.0");
    }

    #[test]
    fn self_closing_and_empty_elements() {
        let doc = parse("<A><B/><C></C></A>").unwrap();
        assert_eq!(doc.elements().count(), 2);
        assert!(doc.child("B").unwrap().children.is_empty());
    }

    #[test]
    fn entities_decode_in_text_and_attrs() {
        let doc = parse(r#"<A v="a&lt;b&amp;c&quot;d">&#65;&#x42;&apos;</A>"#).unwrap();
        assert_eq!(doc.attr("v"), Some(r#"a<b&c"d"#));
        assert_eq!(doc.text(), "AB'");
    }

    #[test]
    fn mismatched_tags_are_rejected() {
        let err = parse("<A><B></A></B>").unwrap_err();
        assert!(matches!(err, FormatError::Xml { .. }));
        assert!(err.to_string().contains("mismatched"));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse("<A/><B/>").is_err());
        assert!(parse("<A/>junk").is_err());
    }

    #[test]
    fn unknown_entity_is_rejected() {
        assert!(parse("<A>&nope;</A>").is_err());
    }

    #[test]
    fn write_then_parse_roundtrips() {
        let mut root = Element::new("Model").with_attr("Name", "m<&>");
        let mut sys = Element::new("System");
        let mut b = Element::new("Block")
            .with_attr("BlockType", "Selector")
            .with_attr("Name", "weird \"name\"");
        let mut p = Element::new("P").with_attr("Name", "Indices");
        p.push_text("[5 6 7]");
        b.push(p);
        sys.push(b);
        root.push(sys);
        let text = write(&root);
        let back = parse(&text).unwrap();
        assert_eq!(back, root);
    }

    #[test]
    fn cdata_sections_are_literal() {
        let doc = parse("<A><![CDATA[1 < 2 && \"x\"]]></A>").unwrap();
        assert_eq!(doc.text(), "1 < 2 && \"x\"");
        let doc = parse("<A><![CDATA[]]><B/></A>").unwrap();
        assert_eq!(doc.elements().count(), 1);
    }

    #[test]
    fn comments_inside_content_are_skipped() {
        let doc = parse("<A><!-- hi --><B/></A>").unwrap();
        assert_eq!(doc.elements().count(), 1);
    }

    #[test]
    fn attribute_duplicate_set_replaces() {
        let mut e = Element::new("E");
        e.set_attr("k", "1");
        e.set_attr("k", "2");
        assert_eq!(e.attr("k"), Some("2"));
        assert_eq!(e.attrs.len(), 1);
    }

    #[test]
    fn single_quoted_attributes_parse() {
        let doc = parse("<A v='x'/>").unwrap();
        assert_eq!(doc.attr("v"), Some("x"));
    }
}
