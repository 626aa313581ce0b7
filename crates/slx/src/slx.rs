//! The `.slx` container mapping: Simulink models as XML inside ZIP.
//!
//! Mirrors the real `.slx` layout the paper's parser handles: the archive
//! contains `[Content_Types].xml`, package metadata, and the block diagram
//! at `simulink/blockdiagram.xml`; the diagram is a `<Model>` wrapping a
//! `<System>` of `<Block>` and `<Line>` elements, with blocks addressed by
//! `SID` and parameters in `<P Name="…">` children. Subsystems nest a
//! `<System>` inside their `<Block>`.

use crate::params::{decode, encode};
use crate::xml::{write as write_xml, Element, Event, Reader};
use crate::zip::{Archive, Method};
use crate::FormatError;
use frodo_model::{Block, BlockId, Model};
use std::borrow::Cow;
use std::collections::HashMap;

/// Archive path of the block diagram.
pub const BLOCKDIAGRAM_PATH: &str = "simulink/blockdiagram.xml";

/// Serializes a model as `.slx` bytes.
///
/// # Errors
///
/// Currently infallible for well-formed models; the `Result` is kept for
/// forward compatibility with size limits.
pub fn write_slx(model: &Model) -> Result<Vec<u8>, FormatError> {
    let mut ar = Archive::new();
    ar.add(
        "[Content_Types].xml",
        write_xml(&content_types()).into_bytes(),
        Method::Stored,
    );
    ar.add(
        "metadata/coreProperties.xml",
        write_xml(&core_properties(model.name())).into_bytes(),
        Method::Stored,
    );
    // the diagram itself travels deflated, like real .slx entries
    ar.add(
        BLOCKDIAGRAM_PATH,
        write_xml(&model_to_xml(model)).into_bytes(),
        Method::Deflate,
    );
    Ok(ar.to_bytes())
}

/// Parses `.slx` bytes back into a model, recorded on the given trace:
/// an `unzip` span for container decompression (with
/// `slx_bytes`/`inflated_bytes` counters) and a `build_model` span for
/// the one pass that reads the XML into the model. Pass
/// `&Trace::noop()` when no instrumentation is wanted.
///
/// The model comes from the `<Model>` root's first `<System>`. A block's
/// parameter is its first `<P>` child of that `Name`, a subsystem block's
/// nested model is its first `<System>` child, and elements the mapping
/// does not know are skipped (but must be well-formed).
///
/// # Errors
///
/// Propagates container ([`FormatError::Zip`]), decompression, XML, and
/// schema errors. A malformed document is an XML error even where a
/// schema fault comes first, and elements nested deeper than
/// [`crate::MAX_DEPTH`] are an XML error.
pub fn read_slx(bytes: &[u8], trace: &frodo_obs::Trace) -> Result<Model, FormatError> {
    let span = trace.span("unzip");
    let ar = Archive::from_bytes(bytes)?;
    let diagram = ar
        .get(BLOCKDIAGRAM_PATH)
        .ok_or_else(|| FormatError::Schema(format!("archive has no {BLOCKDIAGRAM_PATH}")))?;
    span.count("slx_bytes", bytes.len() as u64);
    span.count("inflated_bytes", diagram.len() as u64);
    let text = std::str::from_utf8(diagram)
        .map_err(|_| FormatError::Schema("block diagram is not UTF-8".into()))?;
    span.end();
    let _b = trace.span("build_model");
    let mut r = Reader::new(text);
    let model = read_model(&mut r);
    if let Err(e) = &model {
        // a schema fault waits until the rest of the document is known to
        // be well-formed: a malformed document is an XML error first
        if !matches!(e, FormatError::Xml { .. }) {
            while r.read_event()? != Event::Eof {}
        }
    }
    model
}

fn content_types() -> Element {
    let mut root = Element::new("Types").with_attr(
        "xmlns",
        "http://schemas.openxmlformats.org/package/2006/content-types",
    );
    root.push(
        Element::new("Default")
            .with_attr("Extension", "xml")
            .with_attr("ContentType", "application/xml"),
    );
    root
}

fn core_properties(name: &str) -> Element {
    let mut root = Element::new("coreProperties");
    let mut title = Element::new("title");
    title.push_text(name);
    root.push(title);
    let mut generator = Element::new("generator");
    generator.push_text("frodo-slx");
    root.push(generator);
    root
}

/// Converts a model to its `<Model>` element.
pub fn model_to_xml(model: &Model) -> Element {
    let mut root = Element::new("Model").with_attr("Name", model.name());
    root.push(system_to_xml(model));
    root
}

fn system_to_xml(model: &Model) -> Element {
    let mut system = Element::new("System").with_attr("Name", model.name());
    for (id, block) in model.iter() {
        let enc = encode(&block.kind);
        let mut e = Element::new("Block")
            .with_attr("BlockType", enc.type_name)
            .with_attr("Name", block.name.clone())
            .with_attr("SID", id.index().to_string());
        for (k, v) in &enc.params {
            let mut p = Element::new("P").with_attr("Name", *k);
            p.push_text(v.clone());
            e.push(p);
        }
        if let Some(inner) = &enc.subsystem {
            e.push(system_to_xml(inner));
        }
        system.push(e);
    }
    for c in model.connections() {
        let mut line = Element::new("Line");
        let mut src = Element::new("P").with_attr("Name", "Src");
        src.push_text(format!("{}#out:{}", c.from.block.index(), c.from.port));
        let mut dst = Element::new("P").with_attr("Name", "Dst");
        dst.push_text(format!("{}#in:{}", c.to.block.index(), c.to.port));
        line.push(src);
        line.push(dst);
        system.push(line);
    }
    system
}

/// Reads a whole `<Model>` document.
fn read_model(r: &mut Reader<'_>) -> Result<Model, FormatError> {
    let Event::Start(root) = r.read_event()? else {
        unreachable!("a document's first event is its root");
    };
    if root != "Model" {
        return Err(FormatError::Schema(format!(
            "expected <Model> root, found <{root}>"
        )));
    }
    let name = r
        .attr("Name")
        .ok_or_else(|| FormatError::Schema("<Model> missing Name".into()))?;
    let mut model = None;
    loop {
        match r.read_event()? {
            Event::Start("System") if model.is_none() => model = Some(read_system(r, &name)?),
            Event::Start(_) => r.skip()?,
            Event::Text(_) => {}
            Event::End | Event::Eof => break,
        }
    }
    let model = model.ok_or_else(|| FormatError::Schema("<Model> missing <System>".into()))?;
    // the root is closed: this only checks that nothing but comments follows
    r.read_event()?;
    Ok(model)
}

/// A `<Block>`'s or `<Line>`'s `<P Name="…">` children, in document
/// order: name and untrimmed text.
type Params<'a> = Vec<(Cow<'a, str>, Cow<'a, str>)>;

/// The text of the first parameter named `key`, trimmed.
fn param<'p>(params: &'p Params<'_>, key: &str) -> Option<&'p str> {
    params.iter().find(|(k, _)| k == key).map(|(_, v)| v.trim())
}

/// Reads the children of a `<System>` whose start tag was just read, up
/// to its end tag. Lines connect once every block of the system is in.
fn read_system(r: &mut Reader<'_>, name: &str) -> Result<Model, FormatError> {
    let mut model = Model::new(name);
    let mut id_of_sid = HashMap::new();
    let mut lines = Vec::new();
    loop {
        match r.read_event()? {
            Event::Start("Block") => {
                let (sid, block) = read_block(r)?;
                insert_sid(&mut id_of_sid, sid, model.add(block))?;
            }
            Event::Start("Line") => lines.push(read_body(r, None)?.0),
            Event::Start(_) => r.skip()?,
            Event::Text(_) => {}
            Event::End | Event::Eof => break,
        }
    }
    let lookup = |sid: usize| sid_lookup(&id_of_sid, sid);
    let mut wires = model.connector();
    for line in &lines {
        let get = |key: &str| {
            param(line, key).ok_or_else(|| FormatError::Schema(format!("<Line> missing {key}")))
        };
        let (src_block, src_port) = parse_endpoint(get("Src")?, "out")?;
        let (dst_block, dst_port) = parse_endpoint(get("Dst")?, "in")?;
        wires.connect(lookup(src_block)?, src_port, lookup(dst_block)?, dst_port)?;
    }
    Ok(model)
}

/// Reads a `<Block>` whose start tag was just read: its SID and block.
fn read_block(r: &mut Reader<'_>) -> Result<(usize, Block), FormatError> {
    let type_name = r
        .attr("BlockType")
        .ok_or_else(|| FormatError::Schema("<Block> missing BlockType".into()))?;
    let block_name = r
        .attr("Name")
        .ok_or_else(|| FormatError::Schema("<Block> missing Name".into()))?;
    let sid: usize = r
        .attr("SID")
        .ok_or_else(|| FormatError::Schema("<Block> missing SID".into()))?
        .parse()
        .map_err(|_| FormatError::Schema("non-numeric SID".into()))?;
    let (params, subsystem) = read_body(r, Some(&block_name))?;
    let kind = decode(&type_name, &|key| param(&params, key), subsystem)?;
    Ok((sid, Block::new(block_name, kind)))
}

/// Reads the children of a `<Block>` or `<Line>` up to its end tag: the
/// `<P>` parameters and, for a block, the first nested `<System>`.
/// `system_name` is `Some(block name)` for a block (a nested system
/// without a `Name` takes it) and `None` for a line.
fn read_body<'a>(
    r: &mut Reader<'a>,
    system_name: Option<&str>,
) -> Result<(Params<'a>, Option<Model>), FormatError> {
    let mut params = Params::new();
    let mut system = None;
    loop {
        match r.read_event()? {
            Event::Start("P") => {
                let key = r.attr("Name");
                let text = read_text(r)?;
                if let Some(key) = key {
                    params.push((key, text));
                }
            }
            Event::Start("System") if system.is_none() && system_name.is_some() => {
                let name = r.attr("Name");
                let name = name.as_deref().or(system_name).unwrap_or_default();
                system = Some(read_system(r, name)?);
            }
            Event::Start(_) => r.skip()?,
            Event::Text(_) => {}
            Event::End | Event::Eof => return Ok((params, system)),
        }
    }
}

/// The direct character data of the element whose start tag was just
/// read, concatenated; nested elements are skipped.
fn read_text<'a>(r: &mut Reader<'a>) -> Result<Cow<'a, str>, FormatError> {
    let mut text = Cow::Borrowed("");
    loop {
        match r.read_event()? {
            Event::Text(t) if text.is_empty() => text = t,
            Event::Text(t) => text.to_mut().push_str(&t),
            Event::Start(_) => r.skip()?,
            Event::End | Event::Eof => return Ok(text),
        }
    }
}

/// Records a block's SID. SIDs identify blocks uniquely: a second block
/// with the same SID would leave every line addressed to it ambiguous.
pub(crate) fn insert_sid(
    id_of_sid: &mut HashMap<usize, BlockId>,
    sid: usize,
    id: BlockId,
) -> Result<(), FormatError> {
    match id_of_sid.insert(sid, id) {
        Some(_) => Err(FormatError::Schema(format!("duplicate SID {sid}"))),
        None => Ok(()),
    }
}

/// The block a line endpoint's SID names.
pub(crate) fn sid_lookup(
    id_of_sid: &HashMap<usize, BlockId>,
    sid: usize,
) -> Result<BlockId, FormatError> {
    id_of_sid
        .get(&sid)
        .copied()
        .ok_or_else(|| FormatError::Schema(format!("line references unknown SID {sid}")))
}

fn parse_endpoint(text: &str, dir: &str) -> Result<(usize, usize), FormatError> {
    let (sid, rest) = text
        .split_once('#')
        .ok_or_else(|| FormatError::Schema(format!("bad endpoint '{text}'")))?;
    let (kind, port) = rest
        .split_once(':')
        .ok_or_else(|| FormatError::Schema(format!("bad endpoint '{text}'")))?;
    if kind != dir {
        return Err(FormatError::Schema(format!(
            "endpoint '{text}' should be an '{dir}' port"
        )));
    }
    let sid = sid
        .trim()
        .parse()
        .map_err(|_| FormatError::Schema(format!("bad endpoint '{text}'")))?;
    let port = port
        .trim()
        .parse()
        .map_err(|_| FormatError::Schema(format!("bad endpoint '{text}'")))?;
    Ok((sid, port))
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_model::{BlockKind, SelectorMode, Tensor};
    use frodo_ranges::Shape;

    fn figure1() -> Model {
        let mut m = Model::new("Convolution");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(50),
            },
        ));
        let k = m.add(Block::new(
            "k",
            BlockKind::Constant {
                value: Tensor::vector(vec![0.1; 11]),
            },
        ));
        let c = m.add(Block::new("conv", BlockKind::Convolution));
        let s = m.add(Block::new(
            "sel",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 5, end: 55 },
            },
        ));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, c, 0).unwrap();
        m.connect(k, 0, c, 1).unwrap();
        m.connect(c, 0, s, 0).unwrap();
        m.connect(s, 0, o, 0).unwrap();
        m
    }

    #[test]
    fn figure1_roundtrips_through_slx() {
        let m = figure1();
        let bytes = write_slx(&m).unwrap();
        let back = read_slx(&bytes, &frodo_obs::Trace::noop()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn archive_layout_matches_slx_conventions() {
        let bytes = write_slx(&figure1()).unwrap();
        let ar = Archive::from_bytes(&bytes).unwrap();
        assert!(ar.get("[Content_Types].xml").is_some());
        assert!(ar.get("metadata/coreProperties.xml").is_some());
        assert!(ar.get(BLOCKDIAGRAM_PATH).is_some());
    }

    #[test]
    fn subsystems_nest_as_inner_systems() {
        let mut inner = Model::new("inner");
        let i = inner.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(4),
            },
        ));
        let g = inner.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let o = inner.add(Block::new("o", BlockKind::Outport { index: 0 }));
        inner.connect(i, 0, g, 0).unwrap();
        inner.connect(g, 0, o, 0).unwrap();
        let mut m = Model::new("outer");
        let x = m.add(Block::new(
            "x",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(4),
            },
        ));
        let s = m.add(Block::new("sub", BlockKind::Subsystem(Box::new(inner))));
        let y = m.add(Block::new("y", BlockKind::Outport { index: 0 }));
        m.connect(x, 0, s, 0).unwrap();
        m.connect(s, 0, y, 0).unwrap();
        let back = read_slx(&write_slx(&m).unwrap(), &frodo_obs::Trace::noop()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn every_benchmark_model_roundtrips() {
        for bench in frodo_benchmodels_proxy() {
            let bytes = write_slx(&bench).unwrap();
            let back = read_slx(&bytes, &frodo_obs::Trace::noop()).unwrap();
            assert_eq!(back, bench);
        }
    }

    /// A few structurally diverse models standing in for the full suite
    /// (the complete suite roundtrip lives in the integration tests, where
    /// `frodo-benchmodels` is available without a dependency cycle).
    fn frodo_benchmodels_proxy() -> Vec<Model> {
        let mut with_delay = Model::new("delay");
        let i = with_delay.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        let z = with_delay.add(Block::new(
            "z",
            BlockKind::UnitDelay {
                initial: Tensor::scalar(1.5),
            },
        ));
        let o = with_delay.add(Block::new("o", BlockKind::Outport { index: 0 }));
        with_delay.connect(i, 0, z, 0).unwrap();
        with_delay.connect(z, 0, o, 0).unwrap();

        let mut with_names = Model::new("names & <specials>");
        let a = with_names.add(Block::new(
            "weird \"name\" <here>",
            BlockKind::Constant {
                value: Tensor::scalar(1.0),
            },
        ));
        let t = with_names.add(Block::new("sink & done", BlockKind::Terminator));
        with_names.connect(a, 0, t, 0).unwrap();

        vec![figure1(), with_delay, with_names]
    }

    #[test]
    fn missing_diagram_is_reported() {
        let ar = Archive::new();
        let err = read_slx(&ar.to_bytes(), &frodo_obs::Trace::noop()).unwrap_err();
        assert!(err.to_string().contains("blockdiagram"));
    }

    /// Reads a block-diagram document through a whole `.slx` container.
    fn read_diagram(xml: &str) -> Result<Model, FormatError> {
        let mut ar = Archive::new();
        ar.add(BLOCKDIAGRAM_PATH, xml.as_bytes().to_vec(), Method::Stored);
        read_slx(&ar.to_bytes(), &frodo_obs::Trace::noop())
    }

    fn schema(reason: &str) -> Result<Model, FormatError> {
        Err(FormatError::Schema(reason.into()))
    }

    #[test]
    fn duplicate_sid_is_rejected() {
        let text = r#"<Model Name="m"><System>
            <Block BlockType="terminator" Name="a" SID="7"/>
            <Block BlockType="terminator" Name="b" SID="7"/>
        </System></Model>"#;
        assert_eq!(read_diagram(text), schema("duplicate SID 7"));
    }

    #[test]
    fn the_first_doubly_driven_line_is_reported() {
        // c drives t:0 and t:1, then t:1 and t:0 again: the third line is
        // the first bad one, and the fourth is never reached
        let text = r#"<Model Name="m"><System>
            <Block BlockType="constant" Name="c" SID="0"><P Name="Shape">scalar</P><P Name="Value">[1.0]</P></Block>
            <Block BlockType="add" Name="t" SID="1"/>
            <Line><P Name="Src">0#out:0</P><P Name="Dst">1#in:0</P></Line>
            <Line><P Name="Src">0#out:0</P><P Name="Dst">1#in:1</P></Line>
            <Line><P Name="Src">0#out:0</P><P Name="Dst">1#in:1</P></Line>
            <Line><P Name="Src">0#out:0</P><P Name="Dst">1#in:0</P></Line>
        </System></Model>"#;
        let t = frodo_model::BlockId::from_index(1);
        assert_eq!(
            read_diagram(text),
            Err(frodo_model::ModelError::DuplicateInput(frodo_model::InPort::new(t, 1)).into())
        );
        // a schema fault on an earlier line still comes first
        let text = text.replacen("1#in:1", "1#in:x", 1);
        assert_eq!(read_diagram(&text), schema("bad endpoint '1#in:x'"));
    }

    #[test]
    fn bad_endpoint_is_reported() {
        let text = r#"<Model Name="m"><System>
            <Block BlockType="terminator" Name="t" SID="0"/>
            <Line><P Name="Src">zero#out:0</P><P Name="Dst">0#in:0</P></Line>
        </System></Model>"#;
        assert_eq!(read_diagram(text), schema("bad endpoint 'zero#out:0'"));
    }

    #[test]
    fn schema_faults_are_reported() {
        let cases = [
            ("<Diagram/>", "expected <Model> root, found <Diagram>"),
            ("<Model/>", "<Model> missing Name"),
            (
                r#"<Model Name="m"><Other/></Model>"#,
                "<Model> missing <System>",
            ),
            (
                r#"<Model Name="m"><System><Block Name="a" SID="0"/></System></Model>"#,
                "<Block> missing BlockType",
            ),
            (
                r#"<Model Name="m"><System><Block BlockType="gain" Name="a" SID="x"/></System></Model>"#,
                "non-numeric SID",
            ),
            (
                r#"<Model Name="m"><System><Block BlockType="gain" Name="a" SID="0"/></System></Model>"#,
                "block type 'gain' missing parameter 'Gain'",
            ),
            (
                r#"<Model Name="m"><System><Line><P Name="Dst">0#in:0</P></Line></System></Model>"#,
                "<Line> missing Src",
            ),
            (
                r#"<Model Name="m"><System><Line><P Name="Src">3#out:0</P><P Name="Dst">0#in:0</P></Line></System></Model>"#,
                "line references unknown SID 3",
            ),
        ];
        for (text, reason) in cases {
            assert_eq!(read_diagram(text), schema(reason), "{text}");
        }
    }

    #[test]
    fn xml_faults_keep_their_offsets() {
        let text = r#"<Model Name="m"><System></Model>"#;
        assert_eq!(
            read_diagram(text),
            Err(FormatError::Xml {
                offset: 31,
                reason: "mismatched close tag </Model> for <System>".into()
            })
        );
        assert!(matches!(
            read_diagram(r#"<Model Name="m"><System/></Model><Model/>"#),
            Err(FormatError::Xml { .. })
        ));
        // the wrong root is a schema fault, but the unmatched close tag
        // later on wins, as it would in a tree parser
        assert_eq!(
            read_diagram(r#"<Modem Name="m"><System/></Model>"#),
            Err(FormatError::Xml {
                offset: 32,
                reason: "mismatched close tag </Model> for <Modem>".into()
            })
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        const DEPTH: usize = 1_000_000;
        let xml = format!(
            r#"<Model Name="deep"><System>{}{}</System></Model>"#,
            "<a>".repeat(DEPTH),
            "</a>".repeat(DEPTH)
        );
        let bytes = {
            let mut ar = Archive::new();
            ar.add(BLOCKDIAGRAM_PATH, xml.into_bytes(), Method::Stored);
            ar.to_bytes()
        };
        // a pool worker's default stack
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || read_slx(&bytes, &frodo_obs::Trace::noop()))
            .unwrap()
            .join()
            .unwrap();
        match result {
            Err(FormatError::Xml { reason, .. }) => {
                assert_eq!(reason, "elements nested deeper than 256")
            }
            other => panic!("expected a nesting error, got {other:?}"),
        }
    }

    #[test]
    fn reader_keeps_the_tree_semantics() {
        // lines before their blocks, a parameter split by a comment and a
        // CDATA section, a later duplicate <P> and <System>, entities in
        // names, and unknown elements are all read as a tree walk would
        let text = r#"<?xml version="1.0"?>
<Model Name="a &amp; b">
  <Meta><System Name="ignored"/></Meta>
  <System Name="outer name is not used">
    <Line><P Name="Src">0#out:0</P><Extra/><P Name="Dst"> 1#in:0 </P><P Name="Src">9#out:0</P></Line>
    <Block BlockType="gain" Name="g&lt;1&gt;" SID="0">
      <P Name="Gain"> 2<!-- split --><![CDATA[.5]]> </P>
      <P Name="Gain">7.0</P>
      <P>unnamed</P>
    </Block>
    <Block BlockType="subsystem" Name="sub" SID="1">
      <System>
        <Block BlockType="inport" Name="i" SID="4"><P Name="Port">0</P><P Name="Shape">scalar</P></Block>
        <Block BlockType="terminator" Name="t" SID="0"/>
        <Line><P Name="Src">4#out:0</P><P Name="Dst">0#in:0</P></Line>
      </System>
      <System><Block BlockType="nonsense" Name="x" SID="0"/></System>
    </Block>
  </System>
  <System><Block BlockType="nonsense" Name="x" SID="0"/></System>
</Model>
<!-- trailing comment -->"#;
        let mut inner = Model::new("sub");
        let i = inner.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        let t = inner.add(Block::new("t", BlockKind::Terminator));
        inner.connect(i, 0, t, 0).unwrap();
        let mut m = Model::new("a & b");
        let g = m.add(Block::new("g<1>", BlockKind::Gain { gain: 2.5 }));
        let s = m.add(Block::new("sub", BlockKind::Subsystem(Box::new(inner))));
        m.connect(g, 0, s, 0).unwrap();
        assert_eq!(read_diagram(text), Ok(m));
    }
}
