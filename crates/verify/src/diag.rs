//! Structured diagnostics: codes, severities, and the three renderers
//! (human, JSON lines, SARIF 2.1.0).

use frodo_model::{Model, ModelError};
use frodo_obs::json_escape;
use std::fmt;

/// How bad a finding is. `Error` findings fail `frodo lint` /
/// `frodo compile --verify`; `Warning` findings are reported but pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not provably wrong (dead block, dangling output).
    Warning,
    /// The model or the generated program is provably ill-formed.
    Error,
}

impl Severity {
    /// Lowercase label used by the JSON and SARIF renderers.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding from the linter or the range-soundness checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code (`F0xx` model lint, `F1xx` soundness).
    pub code: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Block path (flattened name) the finding is about, when known.
    pub block: Option<String>,
    /// Span-ish location inside the artifact: a port (`b3:in0`), a
    /// statement (`stmt 7`), or a buffer (`buffer conv_out`).
    pub location: Option<String>,
    /// What is wrong, with concrete indices/extents.
    pub message: String,
    /// How to fix it, when a fix is obvious.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic for a rule in [`RULES`], inheriting the rule's
    /// default severity.
    ///
    /// # Panics
    ///
    /// Panics if `code` is not a registered rule (a bug in the caller).
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        let rule = rule(code).unwrap_or_else(|| panic!("unregistered diagnostic code {code}"));
        Diagnostic {
            code,
            severity: rule.severity,
            block: None,
            location: None,
            message: message.into(),
            help: None,
        }
    }

    /// Attaches the block path.
    pub fn with_block(mut self, block: impl Into<String>) -> Self {
        self.block = Some(block.into());
        self
    }

    /// Attaches a span-ish location.
    pub fn with_location(mut self, location: impl Into<String>) -> Self {
        self.location = Some(location.into());
        self
    }

    /// Attaches a help message.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(b) = &self.block {
            write!(f, " `{b}`")?;
        }
        if let Some(l) = &self.location {
            write!(f, " ({l})")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// One registered rule: code, default severity, a one-line summary (also
/// the SARIF `rules` table and the README codes table), and a minimal
/// triggering example for `frodo lint --explain`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable code.
    pub code: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
    /// Minimal triggering example, one line.
    pub example: &'static str,
}

/// Every rule the linter (`F0xx`), the soundness checker (`F1xx`), and
/// the dataflow analyses (`F2xx` numeric safety / residual redundancy)
/// can emit, in code order.
pub const RULES: &[Rule] = &[
    Rule {
        code: "F001",
        severity: Severity::Error,
        summary: "input port has no incoming connection",
        example: "a Gain block whose input port is never the target of a connect()",
    },
    Rule {
        code: "F002",
        severity: Severity::Error,
        summary: "input port is driven by more than one connection",
        example: "two source blocks both connected to Add's in0",
    },
    Rule {
        code: "F003",
        severity: Severity::Error,
        summary: "operand shapes are incompatible across an edge",
        example: "Add fed a Vector(8) on in0 and a Vector(4) on in1",
    },
    Rule {
        code: "F004",
        severity: Severity::Error,
        summary: "truncation parameter indexes outside the input extent",
        example: "Selector start=5 end=55 on a Vector(50) input",
    },
    Rule {
        code: "F005",
        severity: Severity::Error,
        summary: "delay-free cycle (algebraic loop)",
        example: "Add -> Gain -> Add with no UnitDelay on the feedback edge",
    },
    Rule {
        code: "F006",
        severity: Severity::Warning,
        summary: "dead block: calculation range is empty",
        example: "a Gain whose only consumer selects none of its elements",
    },
    Rule {
        code: "F007",
        severity: Severity::Warning,
        summary: "output port drives no consumer",
        example: "a Product block whose output is connected to nothing",
    },
    Rule {
        code: "F008",
        severity: Severity::Error,
        summary: "model failed validation",
        example: "any ModelError without a more specific rule mapping",
    },
    Rule {
        code: "F101",
        severity: Severity::Error,
        summary: "element read before any statement writes it",
        example: "a Copy reading temp[5..8] when only temp[0..5] was computed",
    },
    Rule {
        code: "F102",
        severity: Severity::Error,
        summary: "index outside the buffer's declared extent",
        example: "a run reading in0[8..11] from a buffer of extent 8",
    },
    Rule {
        code: "F103",
        severity: Severity::Error,
        summary: "output under-computation: demanded elements never written",
        example: "out0 demands [0, 8) but the final copy writes only [0, 6)",
    },
    Rule {
        code: "F104",
        severity: Severity::Error,
        summary: "output over-computation: elements written beyond the demand",
        example: "out0 demands [0, 4) but the program writes [0, 8)",
    },
    Rule {
        code: "F105",
        severity: Severity::Error,
        summary: "malformed or degenerate statement",
        example: "a Unary statement with len == 0",
    },
    Rule {
        code: "F201",
        severity: Severity::Warning,
        summary: "possible division by zero (divisor interval contains 0)",
        example: "Divide whose divisor is an unconstrained input with interval [-1e6, 1e6]",
    },
    Rule {
        code: "F202",
        severity: Severity::Warning,
        summary: "sqrt/log of a possibly negative operand",
        example: "Sqrt applied directly to an input with interval [-1e6, 1e6]",
    },
    Rule {
        code: "F203",
        severity: Severity::Warning,
        summary: "arithmetic may overflow to +/-inf",
        example: "Gain(1e300) applied to a value already bounded by 1e300",
    },
    Rule {
        code: "F204",
        severity: Severity::Warning,
        summary: "residual redundancy: elements written but never demanded",
        example: "a full-range Conv writing [0, 60) when the Selector demands only [5, 55)",
    },
];

/// Looks up a rule by code.
pub fn rule(code: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.code == code)
}

fn block_name(model: Option<&Model>, id: frodo_model::BlockId) -> String {
    match model {
        Some(m) if id.index() < m.len() => m.block(id).name.clone(),
        _ => id.to_string(),
    }
}

/// Maps a [`ModelError`] onto the rule table. `model` (when available and
/// id-compatible with the error) resolves block ids to names.
pub fn from_model_error(model: Option<&Model>, err: &ModelError) -> Diagnostic {
    match err {
        ModelError::UnconnectedInput(p) => {
            Diagnostic::new("F001", format!("input port {p} has no incoming connection"))
                .with_block(block_name(model, p.block))
                .with_location(p.to_string())
                .with_help("connect a source block or remove the consumer")
        }
        ModelError::DuplicateInput(p) => Diagnostic::new(
            "F002",
            format!("input port {p} has more than one incoming connection"),
        )
        .with_block(block_name(model, p.block))
        .with_location(p.to_string()),
        ModelError::ShapeMismatch { block, reason } => {
            Diagnostic::new("F003", format!("shape inference failed: {reason}"))
                .with_block(block_name(model, *block))
        }
        ModelError::BadParameter { block, reason } => {
            Diagnostic::new("F004", format!("invalid block parameter: {reason}"))
                .with_block(block_name(model, *block))
        }
        ModelError::AlgebraicLoop { cycle } => {
            let path: Vec<String> = cycle.iter().map(|b| block_name(model, *b)).collect();
            Diagnostic::new(
                "F005",
                format!("delay-free cycle through: {}", path.join(" -> ")),
            )
            .with_help("break the loop with a UnitDelay block")
        }
        other => Diagnostic::new("F008", other.to_string()),
    }
}

/// Renders diagnostics the way a compiler prints them, one per line with
/// an optional indented `help:` line.
pub fn render_human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
        if let Some(h) = &d.help {
            out.push_str("  help: ");
            out.push_str(h);
            out.push('\n');
        }
    }
    out
}

/// Renders diagnostics as NDJSON: one flat JSON object per line.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\"",
            json_escape(d.code),
            d.severity.as_str()
        ));
        if let Some(b) = &d.block {
            out.push_str(&format!(",\"block\":\"{}\"", json_escape(b)));
        }
        if let Some(l) = &d.location {
            out.push_str(&format!(",\"location\":\"{}\"", json_escape(l)));
        }
        out.push_str(&format!(",\"message\":\"{}\"", json_escape(&d.message)));
        if let Some(h) = &d.help {
            out.push_str(&format!(",\"help\":\"{}\"", json_escape(h)));
        }
        out.push_str("}\n");
    }
    out
}

/// Renders diagnostics as a minimal SARIF 2.1.0 document (one run, the
/// full rule table, one result per diagnostic with a logical location).
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\"version\":\"2.1.0\",");
    out.push_str("\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",");
    out.push_str("\"runs\":[{\"tool\":{\"driver\":{\"name\":\"frodo-verify\",\"rules\":[");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            json_escape(r.code),
            json_escape(r.summary)
        ));
    }
    out.push_str("]}},\"results\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut text = d.message.clone();
        if let Some(l) = &d.location {
            text.push_str(&format!(" (at {l})"));
        }
        out.push_str(&format!(
            "{{\"ruleId\":\"{}\",\"level\":\"{}\",\"message\":{{\"text\":\"{}\"}}",
            json_escape(d.code),
            d.severity.as_str(),
            json_escape(&text)
        ));
        if let Some(b) = &d.block {
            out.push_str(&format!(
                ",\"locations\":[{{\"logicalLocations\":[{{\"fullyQualifiedName\":\"{}\"}}]}}]",
                json_escape(b)
            ));
        }
        out.push('}');
    }
    out.push_str("]}]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_table_is_sorted_and_unique() {
        for w in RULES.windows(2) {
            assert!(w[0].code < w[1].code);
        }
        assert_eq!(rule("F101").unwrap().severity, Severity::Error);
        assert_eq!(rule("F006").unwrap().severity, Severity::Warning);
        assert!(rule("F999").is_none());
    }

    #[test]
    #[should_panic(expected = "unregistered diagnostic code")]
    fn unknown_code_is_a_caller_bug() {
        let _ = Diagnostic::new("F999", "nope");
    }

    #[test]
    fn human_rendering_carries_code_block_and_help() {
        let d = Diagnostic::new("F004", "selector end 55 exceeds input length 50")
            .with_block("sel")
            .with_location("b3:in0")
            .with_help("shrink the selection");
        let text = render_human(&[d]);
        assert!(text.contains("error[F004] `sel` (b3:in0): selector end 55"));
        assert!(text.contains("  help: shrink the selection"));
    }

    #[test]
    fn json_rendering_is_flat_ndjson() {
        let d = Diagnostic::new("F101", "read of \"x\" before write").with_block("conv");
        let line = render_json(&[d]);
        assert!(line.ends_with("}\n"));
        assert!(line.starts_with("{\"code\":\"F101\",\"severity\":\"error\""));
        assert!(line.contains("\\\"x\\\""));
        let fields = frodo_obs::ndjson::parse_line(line.trim_end()).unwrap();
        assert!(fields.iter().any(|(k, _)| k == "message"));
    }

    #[test]
    fn sarif_document_has_schema_rules_and_results() {
        let d = Diagnostic::new("F103", "output 0 misses [5, 9)").with_block("out");
        let doc = render_sarif(&[d]);
        assert!(doc.contains("\"version\":\"2.1.0\""));
        assert!(doc.contains("\"name\":\"frodo-verify\""));
        assert!(doc.contains("\"id\":\"F001\""));
        assert!(doc.contains("\"ruleId\":\"F103\""));
        assert!(doc.contains("\"fullyQualifiedName\":\"out\""));
    }

    #[test]
    fn model_error_mapping_targets_the_specific_rules() {
        use frodo_model::{Block, BlockKind, Model};
        let mut m = Model::new("t");
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let err = ModelError::BadParameter {
            block: g,
            reason: "end 9 past input".into(),
        };
        let d = from_model_error(Some(&m), &err);
        assert_eq!(d.code, "F004");
        assert_eq!(d.block.as_deref(), Some("g"));
        let d = from_model_error(None, &err);
        assert_eq!(d.block.as_deref(), Some("b0"));
    }
}
