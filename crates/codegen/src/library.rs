//! The **element-level code library**: C snippet templates with
//! `$placeholder$` substitution, mirroring the paper's Figure 4.
//!
//! Each complex block has a *single-element* snippet (①) and a
//! *consecutive-elements* snippet (②); FRODO picks per run of the derived
//! calculation range and substitutes the placeholders (e.g.
//! `$Input2_size$`) with the block's actual parameters. The C emitter
//! ([`crate::emit_c`]) renders every complex-block statement through these
//! templates.
//!
//! The window statements (convolution, FIR, moving average) are emitted
//! boundary-peeled, since every bound is a compile-time constant: only the
//! outputs whose window crosses an edge of the input go through the clamped
//! consecutive-elements snippet ([`CONV_RUN`], [`FIR_RUN`],
//! [`MOVAVG_RUN`]); the *steady* outputs in between go through
//! [`WINDOW_STEADY`], whose window loop has a constant trip count and no
//! per-element boundary judgment (paper §4.1), or through
//! [`WINDOW_BLOCKED`] when the window is longer than
//! [`UNROLLED_WINDOW_MAX`]. Every output sums the same terms in the same
//! order under all three shapes.

use std::fmt;

/// A C code template with `$name$` placeholders.
///
/// # Example
///
/// ```
/// use frodo_codegen::library::CodeTemplate;
///
/// let t = CodeTemplate::new("$dst$[$k$] = $src$[$k$] * 2.0;");
/// let code = t.render(&[("dst", "y".into()), ("k", "3".into()), ("src", "x".into())]).unwrap();
/// assert_eq!(code, "y[3] = x[3] * 2.0;");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeTemplate {
    text: &'static str,
}

/// A placeholder left unresolved after rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderError {
    /// The placeholder that had no substitution.
    pub placeholder: String,
}

impl fmt::Display for RenderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unresolved placeholder ${}$", self.placeholder)
    }
}

impl std::error::Error for RenderError {}

impl CodeTemplate {
    /// Wraps a template string.
    pub const fn new(text: &'static str) -> Self {
        CodeTemplate { text }
    }

    /// The raw template text.
    pub fn text(&self) -> &'static str {
        self.text
    }

    /// Substitutes every `$key$` with its value.
    ///
    /// # Errors
    ///
    /// Returns [`RenderError`] if a placeholder remains unsubstituted —
    /// a template/parameter mismatch in the block library.
    pub fn render(&self, subs: &[(&str, String)]) -> Result<String, RenderError> {
        render_text(self.text, subs)
    }
}

/// [`CodeTemplate::render`] over template text built at run time (the
/// width-parameterized snippets from [`conv_batched_template`]).
///
/// # Errors
///
/// Returns [`RenderError`] if a placeholder remains unsubstituted.
pub fn render_text(text: &str, subs: &[(&str, String)]) -> Result<String, RenderError> {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(start) = rest.find('$') {
        out.push_str(&rest[..start]);
        let tail = &rest[start + 1..];
        let end = tail.find('$');
        let key = &tail[..end.unwrap_or(tail.len())];
        match (end, subs.iter().find(|(k, _)| *k == key)) {
            (Some(end), Some((_, value))) => {
                out.push_str(value);
                rest = &tail[end + 1..];
            }
            _ => {
                return Err(RenderError {
                    placeholder: key.to_string(),
                })
            }
        }
    }
    out.push_str(rest);
    Ok(out)
}

/// Pairwise-reduction expression over `acc0 .. acc{width-1}` — the
/// accumulator merge of a batched dot product (`(acc0 + acc1) + (acc2 +
/// acc3)` at width 4). Pairing keeps the reduction tree balanced, which is
/// what lets the compiler map it onto horizontal vector adds.
fn pairwise_sum(lo: usize, len: usize) -> String {
    if len == 1 {
        return format!("acc{lo}");
    }
    let half = len / 2;
    let wrap = |s: String, l: usize| if l > 1 { format!("({s})") } else { s };
    format!(
        "{} + {}",
        wrap(pairwise_sum(lo, half), half),
        wrap(pairwise_sum(lo + half, len - half), len - half)
    )
}

/// Builds the consecutive-elements convolution snippet with an explicit
/// `width`-lane batched inner dot product, tagged with the generator's
/// lowercase label. `conv_batched_template(4, "hcg")` reproduces
/// [`CONV_RUN_HCG`] byte-for-byte; other widths generalize the same
/// structure to the target's SIMD lane count.
///
/// # Panics
///
/// Panics if `width < 2` — a one-lane batch is just [`CONV_RUN`].
pub fn conv_batched_template(width: usize, tag: &str) -> String {
    assert!(width >= 2, "batched conv needs at least two lanes");
    let mut t = String::new();
    t.push_str(&format!(
        "/* {tag}: explicit simd batch (width {width}) */\n"
    ));
    t.push_str("for (int k = $k0$; k < $k1$; ++k) {\n");
    t.push_str("    int lo = k >= $Input2_size$ ? k - ($Input2_size$ - 1) : 0;\n");
    t.push_str("    int hi = k < $Input1_size$ - 1 ? k : $Input1_size$ - 1;\n");
    let decls: Vec<String> = (0..width).map(|l| format!("acc{l} = 0.0")).collect();
    t.push_str(&format!("    double {};\n", decls.join(", ")));
    t.push_str("    int j = lo;\n");
    t.push_str(&format!(
        "    for (; j + {} <= hi; j += {width}) {{\n",
        width - 1
    ));
    for l in 0..width {
        if l == 0 {
            t.push_str("        acc0 += $Input1$[j] * $Input2$[k - j];\n");
        } else {
            t.push_str(&format!(
                "        acc{l} += $Input1$[j + {l}] * $Input2$[k - j - {l}];\n"
            ));
        }
    }
    t.push_str("    }\n");
    t.push_str(&format!("    double acc = {};\n", pairwise_sum(0, width)));
    t.push_str("    for (; j <= hi; ++j) {\n");
    t.push_str("        acc += $Input1$[j] * $Input2$[k - j];\n");
    t.push_str("    }\n");
    t.push_str("    $Output$[k] = acc;\n");
    t.push('}');
    t
}

/// Convolution, consecutive-elements snippet (paper Figure 4 ②): exact
/// loop bounds, no per-element branching. The emitter uses it for the
/// outputs whose window crosses an edge of either operand; the steady
/// outputs go through [`WINDOW_STEADY`] or [`WINDOW_BLOCKED`].
pub const CONV_RUN: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   int lo = k >= $Input2_size$ ? k - ($Input2_size$ - 1) : 0;\n\
     \x20   int hi = k < $Input1_size$ - 1 ? k : $Input1_size$ - 1;\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int j = lo; j <= hi; ++j) {\n\
     \x20       acc += $Input1$[j] * $Input2$[k - j];\n\
     \x20   }\n\
     \x20   $Output$[k] = acc;\n\
     }",
);

/// Convolution, single-element snippet (paper Figure 4 ①).
pub const CONV_SINGLE: CodeTemplate = CodeTemplate::new(
    "{\n\
     \x20   int k = $k$;\n\
     \x20   int lo = k >= $Input2_size$ ? k - ($Input2_size$ - 1) : 0;\n\
     \x20   int hi = k < $Input1_size$ - 1 ? k : $Input1_size$ - 1;\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int j = lo; j <= hi; ++j) {\n\
     \x20       acc += $Input1$[j] * $Input2$[k - j];\n\
     \x20   }\n\
     \x20   $Output$[k] = acc;\n\
     }",
);

/// Convolution, full-padding loop with per-element *boundary judgments* —
/// the style the paper observes in Simulink Embedded Coder output
/// (Figure 1, green).
pub const CONV_BRANCHY: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int j = $Input2_size$ - 1; j >= 0; --j) {\n\
     \x20       if (k - j >= 0 && k - j < $Input1_size$) {\n\
     \x20           acc += $Input2$[j] * $Input1$[k - j];\n\
     \x20       }\n\
     \x20   }\n\
     \x20   $Output$[k] = acc;\n\
     }",
);

/// Convolution with HCG-style explicit SIMD batching: the inner dot product
/// is hand-batched four lanes wide (the structural equivalent of the
/// `_mm256_fmadd_pd` synthesis the paper analyzes).
pub const CONV_RUN_HCG: CodeTemplate = CodeTemplate::new(
    "/* hcg: explicit simd batch (width 4) */\n\
     for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   int lo = k >= $Input2_size$ ? k - ($Input2_size$ - 1) : 0;\n\
     \x20   int hi = k < $Input1_size$ - 1 ? k : $Input1_size$ - 1;\n\
     \x20   double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;\n\
     \x20   int j = lo;\n\
     \x20   for (; j + 3 <= hi; j += 4) {\n\
     \x20       acc0 += $Input1$[j] * $Input2$[k - j];\n\
     \x20       acc1 += $Input1$[j + 1] * $Input2$[k - j - 1];\n\
     \x20       acc2 += $Input1$[j + 2] * $Input2$[k - j - 2];\n\
     \x20       acc3 += $Input1$[j + 3] * $Input2$[k - j - 3];\n\
     \x20   }\n\
     \x20   double acc = (acc0 + acc1) + (acc2 + acc3);\n\
     \x20   for (; j <= hi; ++j) {\n\
     \x20       acc += $Input1$[j] * $Input2$[k - j];\n\
     \x20   }\n\
     \x20   $Output$[k] = acc;\n\
     }",
);

/// FIR filter, consecutive-elements snippet for the head outputs `k <
/// $Taps$ - 1`, whose taps run past the start of the input.
pub const FIR_RUN: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   int tmax = k < $Taps$ - 1 ? k : $Taps$ - 1;\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int t = 0; t <= tmax; ++t) {\n\
     \x20       acc += $Coeffs$[t] * $Input$[k - t];\n\
     \x20   }\n\
     \x20   $Output$[k] = acc;\n\
     }",
);

/// Trailing moving average, consecutive-elements snippet for the head
/// outputs `k < $Window$ - 1`, whose window starts before the input.
pub const MOVAVG_RUN: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   int lo = k >= $Window$ - 1 ? k - ($Window$ - 1) : 0;\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int j = lo; j <= k; ++j) {\n\
     \x20       acc += $Input$[j];\n\
     \x20   }\n\
     \x20   $Output$[k] = acc / (double)$Window$;\n\
     }",
);

/// The longest window whose steady range is emitted as [`WINDOW_STEADY`].
/// `gcc -O3 -march=native` (12.2) unrolls a constant window loop of up to
/// 20 terms completely and then vectorizes the loop over outputs; a longer
/// one stays a serial reduction, one scalar add per term, so its steady
/// range is emitted as [`WINDOW_BLOCKED`] instead. A threshold of 16,
/// which blocks AudioProcess's 17-tap convolutions, made its step 1.10×
/// slower and its gcc run about 1.5× longer (EXPERIMENTS.md, ablation 8).
pub const UNROLLED_WINDOW_MAX: usize = 20;

/// Outputs per block of [`WINDOW_BLOCKED`]: 32 doubles, eight AVX2 vectors
/// of accumulators. Blocks of 8 or 16 outputs made the long-window models
/// slower than the clamped loop, because gcc then vectorized the window
/// loop instead of the lane loop.
pub const WINDOW_BLOCK: usize = 32;

/// Steady range of a window statement: every output in `[k0, k1)` sums
/// `$Window$` terms `$Term$` (an expression in `k` and the window position
/// `t`), so the window loop has a constant trip count and no boundary
/// judgment. `$Scale$` is appended to the accumulator on the store (`" /
/// (double)8"` for a moving average, empty for a dot product).
pub const WINDOW_STEADY: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int t = 0; t < $Window$; ++t) {\n\
     \x20       acc += $Term$;\n\
     \x20   }\n\
     \x20   $Output$[k] = acc$Scale$;\n\
     }",
);

/// [`WINDOW_STEADY`] in blocks of `$Lanes$` outputs (`$k1$ - $k0$` is a
/// multiple of it), with the window loop outside the lane loop: each
/// output still adds its terms in window order, and the lane loop is the
/// one the compiler vectorizes.
pub const WINDOW_BLOCKED: CodeTemplate = CodeTemplate::new(
    "for (int kb = $k0$; kb < $k1$; kb += $Lanes$) {\n\
     \x20   double acc[$Lanes$] = {0.0};\n\
     \x20   for (int t = 0; t < $Window$; ++t) {\n\
     \x20       for (int l = 0; l < $Lanes$; ++l) {\n\
     \x20           int k = kb + l;\n\
     \x20           acc[l] += $Term$;\n\
     \x20       }\n\
     \x20   }\n\
     \x20   for (int l = 0; l < $Lanes$; ++l) {\n\
     \x20       $Output$[kb + l] = acc[l]$Scale$;\n\
     \x20   }\n\
     }",
);

/// Matrix multiply, row-range snippet.
pub const MATMUL_RUN: CodeTemplate = CodeTemplate::new(
    "for (int r = $r0$; r < $r1$; ++r) {\n\
     \x20   for (int c = 0; c < $N$; ++c) {\n\
     \x20       double acc = 0.0;\n\
     \x20       for (int t = 0; t < $K$; ++t) {\n\
     \x20           acc += $A$[r * $K$ + t] * $B$[t * $N$ + c];\n\
     \x20       }\n\
     \x20       $Output$[r * $N$ + c] = acc;\n\
     \x20   }\n\
     }",
);

/// Cumulative sum prefix snippet.
pub const CUMSUM_RUN: CodeTemplate = CodeTemplate::new(
    "{\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int k = 0; k < $k_end$; ++k) {\n\
     \x20       acc += $Input$[k];\n\
     \x20       $Output$[k] = acc;\n\
     \x20   }\n\
     }",
);

/// First-difference run snippet (the `k0 == 0` head element is emitted
/// separately by the emitter).
pub const DIFF_RUN: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   $Output$[k] = $Input$[k] - $Input$[k - 1];\n\
     }",
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_replaces_all_placeholders() {
        let code = CONV_RUN
            .render(&[
                ("k0", "5".into()),
                ("k1", "55".into()),
                ("Input1", "g_in".into()),
                ("Input1_size", "50".into()),
                ("Input2", "g_k".into()),
                ("Input2_size", "11".into()),
                ("Output", "g_conv".into()),
            ])
            .unwrap();
        assert!(code.contains("for (int k = 5; k < 55; ++k)"));
        assert!(code.contains("g_in[j] * g_k[k - j]"));
        assert!(!code.contains('$'));
    }

    #[test]
    fn render_reports_missing_placeholder() {
        let err = CONV_RUN.render(&[("k0", "0".into())]).unwrap_err();
        assert_eq!(err.placeholder, "k1");
        assert!(err.to_string().contains("$k1$"));
        let err = render_text("x = $open;", &[("open", "1".into())]).unwrap_err();
        assert_eq!(err.placeholder, "open;");
    }

    #[test]
    fn render_writes_each_value_once() {
        let subs = [("a", "$b$".to_string()), ("b", "x".to_string())];
        assert_eq!(render_text("$a$ + $b$", &subs).unwrap(), "$b$ + x");
    }

    #[test]
    fn branchy_template_contains_boundary_judgment() {
        assert!(CONV_BRANCHY.text().contains("if (k - j >= 0"));
        assert!(!CONV_RUN.text().contains("if (k - j"));
    }

    #[test]
    fn steady_window_templates_carry_no_boundary_judgment() {
        for t in [WINDOW_STEADY, WINDOW_BLOCKED] {
            assert!(!t.text().contains('?') && !t.text().contains("if ("));
        }
        let code = WINDOW_BLOCKED
            .render(&[
                ("k0", "20".into()),
                ("k1", "84".into()),
                ("Lanes", "32".into()),
                ("Window", "21".into()),
                ("Term", "x[k - 20 + t]".into()),
                ("Scale", " / (double)21".into()),
                ("Output", "y".into()),
            ])
            .unwrap();
        assert!(code.contains("for (int kb = 20; kb < 84; kb += 32)"));
        assert!(code.contains("acc[l] += x[k - 20 + t];"));
        assert!(code.contains("y[kb + l] = acc[l] / (double)21;"));
    }

    #[test]
    fn conv_batched_width_4_reproduces_the_hcg_snippet() {
        assert_eq!(conv_batched_template(4, "hcg"), CONV_RUN_HCG.text());
    }

    #[test]
    fn conv_batched_scales_lanes_and_keeps_pairwise_merge() {
        let w8 = conv_batched_template(8, "frodo");
        assert!(w8.starts_with("/* frodo: explicit simd batch (width 8) */"));
        assert!(w8.contains("for (; j + 7 <= hi; j += 8)"));
        assert!(w8.contains("acc7 += $Input1$[j + 7] * $Input2$[k - j - 7];"));
        assert!(w8.contains("((acc0 + acc1) + (acc2 + acc3)) + ((acc4 + acc5) + (acc6 + acc7))"));
        let w2 = conv_batched_template(2, "frodo");
        assert!(w2.contains("double acc = acc0 + acc1;"));
    }

    #[test]
    fn single_element_snippet_pins_one_index() {
        let code = CONV_SINGLE
            .render(&[
                ("k", "7".into()),
                ("Input1", "u".into()),
                ("Input1_size", "10".into()),
                ("Input2", "v".into()),
                ("Input2_size", "3".into()),
                ("Output", "y".into()),
            ])
            .unwrap();
        assert!(code.contains("int k = 7;"));
    }
}
