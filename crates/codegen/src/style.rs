//! Generator styles: FRODO and the three comparison generators.

use crate::lir::ConvStyle;
use std::fmt;

/// Which code generator's behaviour to emulate.
///
/// The styles differ along the axes the paper's evaluation isolates:
///
/// | Style | Calculation ranges | Convolution loops | Explicit SIMD |
/// |-------|--------------------|-------------------|---------------|
/// | `Frodo` | eliminated (Algorithm 1) | tight bounds | no (compiler auto-vec) |
/// | `SimulinkCoder` | full | per-element boundary judgments | no, and conservative auto-vec |
/// | `DfSynth` | full | tight bounds | no (compiler auto-vec) |
/// | `Hcg` | full | tight bounds | yes (intrinsics hints) |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeneratorStyle {
    /// This paper: redundancy elimination + concise code.
    Frodo,
    /// Simulink Embedded Coder-like baseline.
    SimulinkCoder,
    /// DFSynth-like baseline (branch-structured synthesis).
    DfSynth,
    /// HCG-like baseline (SIMD instruction synthesis).
    Hcg,
}

impl GeneratorStyle {
    /// All styles, in the paper's table order.
    pub const ALL: [GeneratorStyle; 4] = [
        GeneratorStyle::SimulinkCoder,
        GeneratorStyle::DfSynth,
        GeneratorStyle::Hcg,
        GeneratorStyle::Frodo,
    ];

    /// Whether lowering should restrict blocks to their calculation ranges.
    pub fn uses_ranges(&self) -> bool {
        matches!(self, GeneratorStyle::Frodo)
    }

    /// How convolution loops are emitted.
    pub fn conv_style(&self) -> ConvStyle {
        match self {
            GeneratorStyle::SimulinkCoder => ConvStyle::Branchy,
            _ => ConvStyle::Tight,
        }
    }

    /// Display label used in regenerated tables (matches the paper).
    pub fn label(&self) -> &'static str {
        match self {
            GeneratorStyle::Frodo => "Frodo",
            GeneratorStyle::SimulinkCoder => "Simulink",
            GeneratorStyle::DfSynth => "DFSynth",
            GeneratorStyle::Hcg => "HCG",
        }
    }
}

impl fmt::Display for GeneratorStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn style_axes_match_paper_characterization() {
        assert!(GeneratorStyle::Frodo.uses_ranges());
        assert!(!GeneratorStyle::Hcg.uses_ranges());
        assert_eq!(
            GeneratorStyle::SimulinkCoder.conv_style(),
            ConvStyle::Branchy
        );
        assert_eq!(GeneratorStyle::Frodo.conv_style(), ConvStyle::Tight);
    }

    #[test]
    fn labels_match_table2_headers() {
        let labels: Vec<&str> = GeneratorStyle::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["Simulink", "DFSynth", "HCG", "Frodo"]);
    }
}
