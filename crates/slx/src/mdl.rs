//! A classic `.mdl`-style textual model format.
//!
//! Simulink's original text format uses nested braced sections with
//! `Key value` properties. This module implements a faithful-in-spirit
//! subset:
//!
//! ```text
//! Model {
//!   Name "Convolution"
//!   System {
//!     Block {
//!       BlockType selector
//!       Name "sel"
//!       SID 3
//!       Mode start_end
//!       Start 5
//!       End 55
//!     }
//!     Line {
//!       Src "2#out:0"
//!       Dst "3#in:0"
//!     }
//!   }
//! }
//! ```

use crate::params::{decode, encode};
use crate::slx::{insert_sid, sid_lookup};
use crate::{FormatError, MAX_DEPTH};
use frodo_model::{Block, Model};
use std::collections::HashMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// generic section tree
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Default)]
struct Section {
    name: String,
    props: Vec<(String, String)>,
    subs: Vec<Section>,
}

impl Section {
    fn prop(&self, key: &str) -> Option<&str> {
        self.props
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn subs_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Section> + 'a {
        self.subs.iter().filter(move |s| s.name == name)
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn unquote(s: &str, line: usize) -> Result<String, FormatError> {
    let inner = s
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or(FormatError::Mdl {
            line,
            reason: "unterminated string".into(),
        })?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                _ => {
                    return Err(FormatError::Mdl {
                        line,
                        reason: "bad escape".into(),
                    });
                }
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

fn write_section(s: &Section, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let _ = writeln!(out, "{pad}{} {{", s.name);
    for (k, v) in &s.props {
        let _ = writeln!(out, "{pad}  {k} {v}");
    }
    for sub in &s.subs {
        write_section(sub, depth + 1, out);
    }
    let _ = writeln!(out, "{pad}}}");
}

fn parse_sections(text: &str) -> Result<Section, FormatError> {
    let mut stack: Vec<Section> = Vec::new();
    let mut root: Option<Section> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_suffix('{') {
            let name = name.trim();
            if name.is_empty() || name.contains(char::is_whitespace) {
                return Err(FormatError::Mdl {
                    line: line_no,
                    reason: format!("bad section header '{line}'"),
                });
            }
            if stack.len() == MAX_DEPTH {
                return Err(FormatError::Mdl {
                    line: line_no,
                    reason: format!("sections nested deeper than {MAX_DEPTH}"),
                });
            }
            stack.push(Section {
                name: name.to_string(),
                ..Section::default()
            });
        } else if line == "}" {
            let done = stack.pop().ok_or(FormatError::Mdl {
                line: line_no,
                reason: "unmatched '}'".into(),
            })?;
            match stack.last_mut() {
                Some(parent) => parent.subs.push(done),
                None => {
                    if root.is_some() {
                        return Err(FormatError::Mdl {
                            line: line_no,
                            reason: "multiple top-level sections".into(),
                        });
                    }
                    root = Some(done);
                }
            }
        } else {
            let (key, value) = line
                .split_once(char::is_whitespace)
                .ok_or(FormatError::Mdl {
                    line: line_no,
                    reason: format!("property '{line}' has no value"),
                })?;
            let value = value.trim();
            let decoded = if value.starts_with('"') {
                unquote(value, line_no)?
            } else {
                value.to_string()
            };
            let section = stack.last_mut().ok_or(FormatError::Mdl {
                line: line_no,
                reason: "property outside any section".into(),
            })?;
            section.props.push((key.to_string(), decoded));
        }
    }
    if !stack.is_empty() {
        return Err(FormatError::Mdl {
            line: text.lines().count(),
            reason: "unclosed section".into(),
        });
    }
    root.ok_or(FormatError::Mdl {
        line: 1,
        reason: "empty document".into(),
    })
}

// ---------------------------------------------------------------------------
// model mapping
// ---------------------------------------------------------------------------

/// Serializes a model to `.mdl` text.
pub fn write_mdl(model: &Model) -> String {
    let mut out = String::new();
    write_section(&model_to_section(model), 0, &mut out);
    out
}

fn model_to_section(model: &Model) -> Section {
    Section {
        name: "Model".into(),
        props: vec![("Name".into(), quote(model.name()))],
        subs: vec![system_to_section(model)],
    }
}

fn system_to_section(model: &Model) -> Section {
    let mut system = Section {
        name: "System".into(),
        props: vec![("Name".into(), quote(model.name()))],
        ..Section::default()
    };
    for (id, block) in model.iter() {
        let enc = encode(&block.kind);
        let mut props = vec![
            ("BlockType".to_string(), enc.type_name.to_string()),
            ("Name".to_string(), quote(&block.name)),
            ("SID".to_string(), id.index().to_string()),
        ];
        for (k, v) in &enc.params {
            props.push((k.to_string(), v.clone()));
        }
        let subs = match &enc.subsystem {
            Some(inner) => vec![system_to_section(inner)],
            None => Vec::new(),
        };
        system.subs.push(Section {
            name: "Block".into(),
            props,
            subs,
        });
    }
    for c in model.connections() {
        system.subs.push(Section {
            name: "Line".into(),
            props: vec![
                (
                    "Src".into(),
                    quote(&format!("{}#out:{}", c.from.block.index(), c.from.port)),
                ),
                (
                    "Dst".into(),
                    quote(&format!("{}#in:{}", c.to.block.index(), c.to.port)),
                ),
            ],
            subs: Vec::new(),
        });
    }
    system
}

/// Parses `.mdl` text back into a model, recorded as an `mdl_parse`
/// span (with an `mdl_bytes` counter) on the given trace. Pass
/// `&Trace::noop()` when no instrumentation is wanted.
///
/// # Errors
///
/// Returns [`FormatError::Mdl`] for syntax problems, sections nested
/// deeper than [`MAX_DEPTH`] among them, and [`FormatError::Schema`] for
/// semantic ones.
pub fn read_mdl(text: &str, trace: &frodo_obs::Trace) -> Result<Model, FormatError> {
    let span = trace.span("mdl_parse");
    span.count("mdl_bytes", text.len() as u64);
    let root = parse_sections(text)?;
    if root.name != "Model" {
        return Err(FormatError::Schema(format!(
            "expected Model section, found {}",
            root.name
        )));
    }
    let name = root
        .prop("Name")
        .ok_or_else(|| FormatError::Schema("Model missing Name".into()))?;
    let system = root
        .subs_named("System")
        .next()
        .ok_or_else(|| FormatError::Schema("Model missing System".into()))?;
    system_to_model(name, system)
}

fn system_to_model(name: &str, system: &Section) -> Result<Model, FormatError> {
    let mut model = Model::new(name);
    let mut id_of_sid = HashMap::new();
    for b in system.subs_named("Block") {
        let type_name = b
            .prop("BlockType")
            .ok_or_else(|| FormatError::Schema("Block missing BlockType".into()))?;
        let block_name = b
            .prop("Name")
            .ok_or_else(|| FormatError::Schema("Block missing Name".into()))?;
        let sid: usize = b
            .prop("SID")
            .ok_or_else(|| FormatError::Schema("Block missing SID".into()))?
            .parse()
            .map_err(|_| FormatError::Schema("non-numeric SID".into()))?;
        let get = |key: &str| b.prop(key);
        let subsystem = match b.subs_named("System").next() {
            Some(inner) => {
                let inner_name = inner.prop("Name").unwrap_or(block_name);
                Some(system_to_model(inner_name, inner)?)
            }
            None => None,
        };
        let id = model.add(Block::new(block_name, decode(type_name, &get, subsystem)?));
        insert_sid(&mut id_of_sid, sid, id)?;
    }
    let lookup = |sid: usize| sid_lookup(&id_of_sid, sid);
    let mut wires = model.connector();
    for line in system.subs_named("Line") {
        let endpoint = |key: &str| -> Result<(usize, usize), FormatError> {
            let raw = line
                .prop(key)
                .ok_or_else(|| FormatError::Schema(format!("Line missing {key}")))?;
            let (sid, rest) = raw
                .split_once('#')
                .ok_or_else(|| FormatError::Schema(format!("bad endpoint '{raw}'")))?;
            let (_, port) = rest
                .split_once(':')
                .ok_or_else(|| FormatError::Schema(format!("bad endpoint '{raw}'")))?;
            Ok((
                sid.parse()
                    .map_err(|_| FormatError::Schema(format!("bad endpoint '{raw}'")))?,
                port.parse()
                    .map_err(|_| FormatError::Schema(format!("bad endpoint '{raw}'")))?,
            ))
        };
        let (sb, sp) = endpoint("Src")?;
        let (db, dp) = endpoint("Dst")?;
        wires.connect(lookup(sb)?, sp, lookup(db)?, dp)?;
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frodo_model::{BlockKind, SelectorMode, Tensor};
    use frodo_ranges::Shape;

    fn sample() -> Model {
        let mut m = Model::new("sample");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(20),
            },
        ));
        let s = m.add(Block::new(
            "sel",
            BlockKind::Selector {
                mode: SelectorMode::StartEnd { start: 2, end: 12 },
            },
        ));
        let k = m.add(Block::new(
            "taps",
            BlockKind::FirFilter {
                coeffs: vec![0.5, 0.5],
            },
        ));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, s, 0).unwrap();
        m.connect(s, 0, k, 0).unwrap();
        m.connect(k, 0, o, 0).unwrap();
        m
    }

    #[test]
    fn roundtrip_preserves_model() {
        let m = sample();
        let text = write_mdl(&m);
        let back = read_mdl(&text, &frodo_obs::Trace::noop()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn output_looks_like_mdl() {
        let text = write_mdl(&sample());
        assert!(text.starts_with("Model {"));
        assert!(text.contains("BlockType selector"));
        assert!(text.contains("Start 2"));
        assert!(text.contains("Line {"));
    }

    #[test]
    fn quoted_names_with_escapes_roundtrip() {
        let mut m = Model::new("weird \"quoted\" name\nwith newline");
        let a = m.add(Block::new(
            "block \\ with \" specials",
            BlockKind::Constant {
                value: Tensor::scalar(1.0),
            },
        ));
        let t = m.add(Block::new("t", BlockKind::Terminator));
        m.connect(a, 0, t, 0).unwrap();
        let back = read_mdl(&write_mdl(&m), &frodo_obs::Trace::noop()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn subsystem_roundtrip() {
        let mut inner = Model::new("inner");
        let i = inner.add(Block::new(
            "i",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Scalar,
            },
        ));
        let o = inner.add(Block::new("o", BlockKind::Outport { index: 0 }));
        inner.connect(i, 0, o, 0).unwrap();
        let mut m = Model::new("outer");
        let c = m.add(Block::new(
            "c",
            BlockKind::Constant {
                value: Tensor::scalar(2.0),
            },
        ));
        let s = m.add(Block::new("sub", BlockKind::Subsystem(Box::new(inner))));
        let t = m.add(Block::new("t", BlockKind::Terminator));
        m.connect(c, 0, s, 0).unwrap();
        m.connect(s, 0, t, 0).unwrap();
        assert_eq!(
            read_mdl(&write_mdl(&m), &frodo_obs::Trace::noop()).unwrap(),
            m
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header comment\n\nModel {\n  Name \"m\"\n  System {\n  }\n}\n";
        let m = read_mdl(text, &frodo_obs::Trace::noop()).unwrap();
        assert_eq!(m.name(), "m");
        assert!(m.is_empty());
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = read_mdl("Model {\n  Name \"m\"\n  }}\n", &frodo_obs::Trace::noop()).unwrap_err();
        match err {
            FormatError::Mdl { line, .. } => assert_eq!(line, 3),
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn unclosed_section_is_reported() {
        assert!(matches!(
            read_mdl("Model {\n  Name \"m\"\n", &frodo_obs::Trace::noop()),
            Err(FormatError::Mdl { .. })
        ));
    }

    #[test]
    fn duplicate_input_wire_is_rejected() {
        // two Lines into the same destination port
        let text = "Model {\n  Name \"m\"\n  System {\n    Block {\n      BlockType constant\n      Name \"c\"\n      SID 0\n      Shape scalar\n      Value [1.0]\n    }\n    Block {\n      BlockType terminator\n      Name \"t\"\n      SID 1\n    }\n    Line {\n      Src \"0#out:0\"\n      Dst \"1#in:0\"\n    }\n    Line {\n      Src \"0#out:0\"\n      Dst \"1#in:0\"\n    }\n  }\n}\n";
        let err = read_mdl(text, &frodo_obs::Trace::noop()).unwrap_err();
        assert!(err.to_string().contains("more than one"), "{err}");
    }

    #[test]
    fn duplicate_sid_is_rejected() {
        let text = "Model {\n  Name \"m\"\n  System {\n    Block {\n      BlockType terminator\n      Name \"a\"\n      SID 7\n    }\n    Block {\n      BlockType terminator\n      Name \"b\"\n      SID 7\n    }\n  }\n}\n";
        let err = read_mdl(text, &frodo_obs::Trace::noop()).unwrap_err();
        assert_eq!(err, FormatError::Schema("duplicate SID 7".into()));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        const DEPTH: usize = 1_000_000;
        let text = "Model {\n".repeat(DEPTH) + &"}\n".repeat(DEPTH);
        // a pool worker's default stack
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || read_mdl(&text, &frodo_obs::Trace::noop()))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(
            result,
            Err(FormatError::Mdl {
                line: MAX_DEPTH + 1,
                reason: format!("sections nested deeper than {MAX_DEPTH}"),
            })
        );
    }

    #[test]
    fn unknown_sid_in_line_is_reported() {
        let text = "Model {\n  Name \"m\"\n  System {\n    Block {\n      BlockType terminator\n      Name \"t\"\n      SID 0\n    }\n    Line {\n      Src \"9#out:0\"\n      Dst \"0#in:0\"\n    }\n  }\n}\n";
        let err = read_mdl(text, &frodo_obs::Trace::noop()).unwrap_err();
        assert!(err.to_string().contains("unknown SID"));
    }
}
