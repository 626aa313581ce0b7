//! Minimal XML: a pull reader and a tree writer.
//!
//! Covers the subset `.slx` block-diagram documents use — elements,
//! attributes, character data, comments, processing instructions, and the
//! five predefined entities plus numeric character references. No DTDs or
//! namespaces (Simulink documents do not rely on them for the dataflow
//! information FRODO extracts).
//!
//! Reading builds no tree: [`Reader`] yields start, text and end events
//! that borrow from the input, and the `.slx` mapping builds the model
//! from them directly. Writing goes through an [`Element`] tree.

use crate::{FormatError, MAX_DEPTH};
use std::borrow::Cow;
use std::fmt::Write as _;

/// A child of an element: nested element or character data.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Decoded character data.
    Text(String),
}

/// An XML element to write: name, attributes in document order, and
/// children.
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

    /// Appends a child element.
    pub fn push(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Appends character data.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
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
// pull reader
// ---------------------------------------------------------------------------

/// One step of a document, as [`Reader::read_event`] yields it.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// A start tag. Its attributes are [`Reader::attr`] until the next
    /// call to [`Reader::read_event`]. A self-closing tag yields `Start` and
    /// then `End`.
    Start(&'a str),
    /// Character data, entity-decoded. Whitespace-only runs between tags
    /// are dropped; CDATA sections come through literally.
    Text(Cow<'a, str>),
    /// The end of the innermost open element.
    End,
    /// The root element closed and only whitespace, comments and
    /// processing instructions follow it.
    Eof,
}

/// A pull parser over a whole document.
///
/// It checks well-formedness as it goes — matched tags, quoted
/// attributes, known entities, one root element, nothing after it — and
/// reports [`FormatError::Xml`] with the byte offset of the problem. It
/// refuses elements nested deeper than [`MAX_DEPTH`], so neither it nor
/// a recursive consumer can exhaust the stack.
///
/// # Example
///
/// ```
/// use frodo_slx::xml::{Event, Reader};
///
/// # fn main() -> Result<(), frodo_slx::FormatError> {
/// let mut r = Reader::new(r#"<Block BlockType="Gain"><P Name="Gain">2.5</P></Block>"#);
/// assert_eq!(r.read_event()?, Event::Start("Block"));
/// assert_eq!(r.attr("BlockType").as_deref(), Some("Gain"));
/// assert_eq!(r.read_event()?, Event::Start("P"));
/// assert_eq!(r.read_event()?, Event::Text("2.5".into()));
/// assert_eq!(r.read_event()?, Event::End);
/// assert_eq!(r.read_event()?, Event::End);
/// assert_eq!(r.read_event()?, Event::Eof);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    /// Every slice of `s` the reader takes starts and ends at an ASCII
    /// delimiter, so it always falls on `char` boundaries.
    s: &'a str,
    b: &'a [u8],
    pos: usize,
    /// Names of the open elements, outermost first.
    open: Vec<&'a str>,
    /// Attributes of the last start tag.
    attrs: Vec<(&'a str, Cow<'a, str>)>,
    /// The last start tag was self-closing: its `End` is due next.
    pending_end: bool,
    /// The root element has been opened.
    started: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document's first byte.
    pub fn new(input: &'a str) -> Self {
        Reader {
            s: input,
            b: input.as_bytes(),
            pos: 0,
            open: Vec::new(),
            attrs: Vec::new(),
            pending_end: false,
            started: false,
        }
    }

    /// The value of the last start tag's first attribute named `key`.
    pub fn attr(&self, key: &str) -> Option<Cow<'a, str>> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    }

    /// The next event.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Xml`] with a byte offset for malformed
    /// input: mismatched tags, bad entities, attribute syntax errors,
    /// nesting deeper than [`MAX_DEPTH`], or trailing garbage after the
    /// root element.
    pub fn read_event(&mut self) -> Result<Event<'a>, FormatError> {
        if self.pending_end {
            self.pending_end = false;
            self.open.pop();
            return Ok(Event::End);
        }
        let Some(&top) = self.open.last() else {
            self.skip_misc()?;
            if !self.started {
                self.started = true;
                self.expect(b'<')?;
                return self.start_tag();
            }
            if self.pos != self.b.len() {
                return Err(self.err("content after document root"));
            }
            return Ok(Event::Eof);
        };
        loop {
            if self.starts_with("<!--") {
                let end = self.find("-->")?;
                self.pos = end + 3;
            } else if self.starts_with("<![CDATA[") {
                self.pos += 9;
                let end = self.find("]]>")?;
                let start = self.pos;
                self.pos = end + 3;
                // CDATA is literal: no entity decoding
                if end > start {
                    return Ok(Event::Text(Cow::Borrowed(&self.s[start..end])));
                }
            } else if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != top {
                    return Err(self.err(format!("mismatched close tag </{close}> for <{top}>")));
                }
                self.skip_ws();
                self.expect(b'>')?;
                self.open.pop();
                return Ok(Event::End);
            } else if self.peek() == Some(b'<') {
                self.pos += 1;
                return self.start_tag();
            } else if self.peek().is_none() {
                return Err(self.err(format!("unclosed element <{top}>")));
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
                    return Ok(Event::Text(text));
                }
            }
        }
    }

    /// Consumes the rest of the innermost open element (the one whose
    /// `Start` was just returned), up to and including its `End`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`FormatError::Xml`] inside the element.
    pub fn skip(&mut self) -> Result<(), FormatError> {
        let depth = self.open.len();
        while depth > 0 && self.open.len() >= depth {
            self.read_event()?;
        }
        Ok(())
    }

    /// Reads the rest of a start tag whose `<` is consumed.
    fn start_tag(&mut self) -> Result<Event<'a>, FormatError> {
        let name = self.parse_name()?;
        if self.open.len() == MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH}")));
        }
        self.attrs.clear();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    self.pending_end = true;
                    break;
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
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
                    self.attrs.push((key, value));
                }
                None => return Err(self.err("truncated start tag")),
            }
        }
        self.open.push(name);
        Ok(Event::Start(name))
    }

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

    fn decode_entities(&self, raw: &'a str) -> Result<Cow<'a, str>, FormatError> {
        if !raw.contains('&') {
            return Ok(Cow::Borrowed(raw));
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
        Ok(Cow::Owned(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event of a document, with each start tag's attributes.
    fn events(input: &str) -> Result<Vec<String>, FormatError> {
        let mut r = Reader::new(input);
        let mut out = Vec::new();
        loop {
            match r.read_event()? {
                Event::Start(name) => {
                    let attrs: Vec<String> =
                        r.attrs.iter().map(|(k, v)| format!(" {k}={v}")).collect();
                    out.push(format!("<{name}{}>", attrs.concat()));
                }
                Event::Text(t) => out.push(format!("{t:?}")),
                Event::End => out.push("/".into()),
                Event::Eof => return Ok(out),
            }
        }
    }

    fn reason(input: &str) -> String {
        match events(input).unwrap_err() {
            FormatError::Xml { reason, .. } => reason,
            e => panic!("not an xml error: {e}"),
        }
    }

    #[test]
    fn reads_simple_document() {
        let ev = events(
            r#"<?xml version="1.0"?>
            <!-- a comment -->
            <Model Name="conv">
              <System>
                <Block BlockType="Gain" Name="g"><P Name="Gain">2.0</P></Block>
              </System>
            </Model>"#,
        )
        .unwrap();
        assert_eq!(
            ev,
            [
                "<Model Name=conv>",
                "<System>",
                "<Block BlockType=Gain Name=g>",
                "<P Name=Gain>",
                "\"2.0\"",
                "/",
                "/",
                "/",
                "/"
            ]
        );
    }

    #[test]
    fn self_closing_and_empty_elements() {
        assert_eq!(
            events("<A><B/><C></C></A>").unwrap(),
            ["<A>", "<B>", "/", "<C>", "/", "/"]
        );
    }

    #[test]
    fn entities_decode_in_text_and_attrs() {
        let ev = events(r#"<A v="a&lt;b&amp;c&quot;d">&#65;&#x42;&apos;</A>"#).unwrap();
        assert_eq!(ev, [r#"<A v=a<b&c"d>"#, "\"AB'\"", "/"]);
    }

    #[test]
    fn text_borrows_unless_decoded() {
        let mut r = Reader::new("<A>plain<B>a&amp;b</B></A>");
        r.read_event().unwrap();
        assert!(matches!(
            r.read_event().unwrap(),
            Event::Text(Cow::Borrowed("plain"))
        ));
        r.read_event().unwrap();
        assert!(matches!(
            r.read_event().unwrap(),
            Event::Text(Cow::Owned(_))
        ));
    }

    #[test]
    fn mismatched_tags_are_rejected() {
        let err = events("<A><B></A></B>").unwrap_err();
        assert_eq!(
            err,
            FormatError::Xml {
                offset: 9,
                reason: "mismatched close tag </A> for <B>".into()
            }
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert_eq!(reason("<A/><B/>"), "content after document root");
        assert_eq!(reason("<A/>junk"), "content after document root");
    }

    #[test]
    fn malformed_input_reports_offset_and_reason() {
        let cases = [
            ("", 0, "expected '<'"),
            ("<A>&nope;</A>", 9, "unknown entity &nope;"),
            ("<A v=x/>", 5, "attribute value must be quoted"),
            ("<A v=\"x/>", 9, "unterminated attribute value"),
            ("<A", 2, "truncated start tag"),
            ("<A>text", 7, "unclosed element <A>"),
            ("<A><!-- x", 3, "unterminated '-->' construct"),
            ("<A>&#xZZ;</A>", 9, "bad character reference &#xZZ;"),
        ];
        for (input, offset, reason) in cases {
            let want = FormatError::Xml {
                offset,
                reason: reason.into(),
            };
            assert_eq!(events(input).unwrap_err(), want, "{input:?}");
        }
    }

    #[test]
    fn write_then_read_roundtrips() {
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
        assert_eq!(
            events(&write(&root)).unwrap(),
            [
                "<Model Name=m<&>>",
                "<System>",
                "<Block BlockType=Selector Name=weird \"name\">",
                "<P Name=Indices>",
                "\"[5 6 7]\"",
                "/",
                "/",
                "/",
                "/"
            ]
        );
    }

    #[test]
    fn cdata_sections_are_literal() {
        assert_eq!(
            events("<A><![CDATA[1 < 2 && \"x\"]]></A>").unwrap(),
            ["<A>", "\"1 < 2 && \\\"x\\\"\"", "/"]
        );
        assert_eq!(
            events("<A><![CDATA[]]><B/></A>").unwrap(),
            ["<A>", "<B>", "/", "/"]
        );
    }

    #[test]
    fn comments_inside_content_are_skipped() {
        assert_eq!(
            events("<A><!-- hi --><B/></A>").unwrap(),
            ["<A>", "<B>", "/", "/"]
        );
    }

    #[test]
    fn attribute_duplicate_set_replaces() {
        let mut e = Element::new("E");
        e.set_attr("k", "1");
        e.set_attr("k", "2");
        assert_eq!(e.attrs, [("k".to_string(), "2".to_string())]);
    }

    #[test]
    fn single_quoted_attributes_parse() {
        assert_eq!(events("<A v='x'/>").unwrap(), ["<A v=x>", "/"]);
    }

    #[test]
    fn skip_consumes_one_subtree() {
        let mut r = Reader::new("<A><B><C/>t</B><D/></A>");
        r.read_event().unwrap();
        assert_eq!(r.read_event().unwrap(), Event::Start("B"));
        r.skip().unwrap();
        assert_eq!(r.read_event().unwrap(), Event::Start("D"));
    }

    #[test]
    fn nesting_is_bounded() {
        let doc = |depth: usize| "<a>".repeat(depth) + &"</a>".repeat(depth);
        assert!(events(&doc(MAX_DEPTH)).is_ok());
        assert_eq!(
            reason(&doc(MAX_DEPTH + 1)),
            format!("elements nested deeper than {MAX_DEPTH}")
        );
    }
}
