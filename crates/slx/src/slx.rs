//! The `.slx` container mapping: Simulink models as XML inside ZIP.
//!
//! Mirrors the real `.slx` layout the paper's parser handles: the archive
//! contains `[Content_Types].xml`, package metadata, and the block diagram
//! at `simulink/blockdiagram.xml`; the diagram is a `<Model>` wrapping a
//! `<System>` of `<Block>` and `<Line>` elements, with blocks addressed by
//! `SID` and parameters in `<P Name="…">` children. Subsystems nest a
//! `<System>` inside their `<Block>`.

use crate::params::{decode, encode};
use crate::xml::{parse as parse_xml, write as write_xml, Element};
use crate::zip::{Archive, Method};
use crate::FormatError;
use frodo_model::{Block, BlockId, Model};
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
/// `slx_bytes`/`inflated_bytes` counters), an `xml_parse` span, and a
/// `build_model` span for the XML→model mapping. Pass
/// `&Trace::noop()` when no instrumentation is wanted.
///
/// # Errors
///
/// Propagates container ([`FormatError::Zip`]), decompression, XML, and
/// schema errors.
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
    let parsed = {
        let _x = trace.span("xml_parse");
        parse_xml(text)?
    };
    let _b = trace.span("build_model");
    model_from_xml(&parsed)
}

/// Deprecated alias of [`read_slx`], kept one release for callers of the
/// old split traced/untraced entry points.
///
/// # Errors
///
/// Propagates container ([`FormatError::Zip`]), decompression, XML, and
/// schema errors.
#[deprecated(since = "0.7.0", note = "use `read_slx(bytes, trace)` instead")]
pub fn read_slx_traced(bytes: &[u8], trace: &frodo_obs::Trace) -> Result<Model, FormatError> {
    read_slx(bytes, trace)
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

/// Converts a parsed `<Model>` element back to a model.
///
/// # Errors
///
/// Returns [`FormatError::Schema`] when required elements/attributes are
/// missing or endpoints are malformed.
pub fn model_from_xml(root: &Element) -> Result<Model, FormatError> {
    if root.name != "Model" {
        return Err(FormatError::Schema(format!(
            "expected <Model> root, found <{}>",
            root.name
        )));
    }
    let name = root
        .attr("Name")
        .ok_or_else(|| FormatError::Schema("<Model> missing Name".into()))?;
    let system = root
        .child("System")
        .ok_or_else(|| FormatError::Schema("<Model> missing <System>".into()))?;
    system_from_xml(name, system)
}

fn system_from_xml(name: &str, system: &Element) -> Result<Model, FormatError> {
    let mut model = Model::new(name);
    let mut id_of_sid = HashMap::new();
    for e in system.children_named("Block") {
        let type_name = e
            .attr("BlockType")
            .ok_or_else(|| FormatError::Schema("<Block> missing BlockType".into()))?;
        let block_name = e
            .attr("Name")
            .ok_or_else(|| FormatError::Schema("<Block> missing Name".into()))?;
        let sid: usize = e
            .attr("SID")
            .ok_or_else(|| FormatError::Schema("<Block> missing SID".into()))?
            .parse()
            .map_err(|_| FormatError::Schema("non-numeric SID".into()))?;
        let get = |key: &str| -> Option<String> {
            e.children_named("P")
                .find(|p| p.attr("Name") == Some(key))
                .map(|p| p.text())
        };
        let subsystem = match e.child("System") {
            Some(inner) => {
                let inner_name = inner.attr("Name").unwrap_or(block_name);
                Some(system_from_xml(inner_name, inner)?)
            }
            None => None,
        };
        let kind = decode(type_name, &get, subsystem)?;
        insert_sid(&mut id_of_sid, sid, model.add(Block::new(block_name, kind)))?;
    }
    let lookup = |sid: usize| sid_lookup(&id_of_sid, sid);
    for line in system.children_named("Line") {
        let get = |key: &str| -> Result<String, FormatError> {
            line.children_named("P")
                .find(|p| p.attr("Name") == Some(key))
                .map(|p| p.text())
                .ok_or_else(|| FormatError::Schema(format!("<Line> missing {key}")))
        };
        let (src_block, src_port) = parse_endpoint(&get("Src")?, "out")?;
        let (dst_block, dst_port) = parse_endpoint(&get("Dst")?, "in")?;
        model
            .connect(lookup(src_block)?, src_port, lookup(dst_block)?, dst_port)
            .map_err(|e| FormatError::Model(e.to_string()))?;
    }
    Ok(model)
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
    #[allow(deprecated)]
    fn deprecated_traced_shim_still_works() {
        let m = figure1();
        let bytes = write_slx(&m).unwrap();
        let via_shim = read_slx_traced(&bytes, &frodo_obs::Trace::noop()).unwrap();
        assert_eq!(
            via_shim,
            read_slx(&bytes, &frodo_obs::Trace::noop()).unwrap()
        );
    }

    #[test]
    fn missing_diagram_is_reported() {
        let ar = Archive::new();
        let err = read_slx(&ar.to_bytes(), &frodo_obs::Trace::noop()).unwrap_err();
        assert!(err.to_string().contains("blockdiagram"));
    }

    #[test]
    fn duplicate_sid_is_rejected() {
        let text = r#"<Model Name="m"><System>
            <Block BlockType="terminator" Name="a" SID="7"/>
            <Block BlockType="terminator" Name="b" SID="7"/>
        </System></Model>"#;
        let err = model_from_xml(&parse_xml(text).unwrap()).unwrap_err();
        assert_eq!(err, FormatError::Schema("duplicate SID 7".into()));
    }

    #[test]
    fn bad_endpoint_is_reported() {
        let text = r#"<Model Name="m"><System>
            <Block BlockType="terminator" Name="t" SID="0"/>
            <Line><P Name="Src">zero#out:0</P><P Name="Dst">0#in:0</P></Line>
        </System></Model>"#;
        let root = parse_xml(text).unwrap();
        assert!(model_from_xml(&root).is_err());
    }
}
