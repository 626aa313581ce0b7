//! C code emission (the paper's *code synthesis* step).
//!
//! [`emit_c`] renders a [`Program`] as a self-contained C translation unit
//! with a `void <model>_step(const double *in0, …, double *out0, …)` entry
//! point; [`emit_c_harness`] additionally appends a timing `main` that
//! matches the paper's measurement protocol (repeat the step function and
//! average).

use crate::lir::{BinOp, BufId, BufferRole, ConvStyle, Program, ReduceOp, Slice, Src, Stmt, UnOp};
use crate::GeneratorStyle;
use crate::{access, library};
use std::fmt::Write;

/// How aggressively the emitter shapes loops for SIMD execution
/// (`--vectorize auto|hints|batch[:W]` on the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VectorMode {
    /// Historical per-style behavior: HCG batches vectorizable loops four
    /// lanes wide, every other style emits plain scalar loops. This is the
    /// default, and its output is byte-identical to what the emitter
    /// produced before [`VectorMode`] existed.
    #[default]
    Auto,
    /// Scalar loop bodies, but the step function takes `restrict`-qualified
    /// pointers, asserts 64-byte buffer alignment, and marks vectorizable
    /// loops with `#pragma GCC ivdep` so the compiler's auto-vectorizer has
    /// everything it needs.
    Hints,
    /// Everything [`VectorMode::Hints`] does, plus explicit `W`-wide batched
    /// loop bodies on every vectorizable statement (the HCG treatment,
    /// parameterized by the target lane count: 8×f64 on x86-512b, 2×f64 on
    /// ARM-128b).
    Batch(usize),
}

impl VectorMode {
    /// Lane widths accepted by [`VectorMode::parse`].
    pub const WIDTH_RANGE: std::ops::RangeInclusive<usize> = 2..=16;

    /// Parses the CLI syntax `auto | hints | batch[:W]`; bare `batch` takes
    /// `default_width` (callers map this from the target cost model's lane
    /// count).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown modes and out-of-range
    /// widths.
    pub fn parse(s: &str, default_width: usize) -> Result<Self, String> {
        match s {
            "auto" => return Ok(VectorMode::Auto),
            "hints" => return Ok(VectorMode::Hints),
            "batch" => return Ok(VectorMode::Batch(default_width)),
            _ => {}
        }
        if let Some(w) = s.strip_prefix("batch:") {
            let w: usize = w.parse().map_err(|_| {
                format!(
                    "bad batch width '{w}' in --vectorize (expected batch[:W], W in {}..={})",
                    Self::WIDTH_RANGE.start(),
                    Self::WIDTH_RANGE.end()
                )
            })?;
            if !Self::WIDTH_RANGE.contains(&w) {
                return Err(format!(
                    "batch width {w} out of range {}..={}",
                    Self::WIDTH_RANGE.start(),
                    Self::WIDTH_RANGE.end()
                ));
            }
            return Ok(VectorMode::Batch(w));
        }
        Err(format!(
            "unknown vectorize mode '{s}' (expected auto|hints|batch[:W], W in {}..={})",
            Self::WIDTH_RANGE.start(),
            Self::WIDTH_RANGE.end()
        ))
    }

    /// Whether the mode asks for `restrict` pointers and alignment
    /// assertions on the step function.
    pub fn wants_hints(&self) -> bool {
        matches!(self, VectorMode::Hints | VectorMode::Batch(_))
    }
}

/// Options for C emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CEmitOptions {
    /// Emit a single generic `frodo_conv_range` helper and call it with the
    /// derived calculation range as parameters, instead of instantiating a
    /// loop nest per convolution statement — the code-size remedy the
    /// paper's §5 proposes for duplicated complex-block code.
    pub shared_conv_helper: bool,
    /// Loop shaping for SIMD execution; see [`VectorMode`].
    pub vectorize: VectorMode,
    /// Self-profiling emission: wrap every statement in monotonic-clock
    /// hooks that accumulate per-statement invocation counts, nanosecond
    /// totals, log2-bucket latency histograms, and FLOP tallies into a
    /// static table, and emit a `frodo_prof_dump(FILE*)` that prints them
    /// in the `frodo-obs` flat-NDJSON export schema (`span` / `counter` /
    /// `hist` lines, keyed `stmt_<index>_<kind>`). Off by default; the
    /// non-profiled emission is byte-identical to `profile: false`.
    pub profile: bool,
}

/// Emits a complete C translation unit for the program.
pub fn emit_c(program: &Program) -> String {
    emit_c_with(program, CEmitOptions::default())
}

/// [`emit_c`] with explicit [`CEmitOptions`].
pub fn emit_c_with(program: &Program, opts: CEmitOptions) -> String {
    Emitter::new_with(program, opts).emit()
}

/// [`emit_c_with`], recorded as an `emit` span (with a `bytes_emitted`
/// counter) on the given trace.
pub fn emit_c_traced(program: &Program, opts: CEmitOptions, trace: &frodo_obs::Trace) -> String {
    let span = trace.span("emit");
    let code = emit_c_with(program, opts);
    span.count("bytes_emitted", code.len() as u64);
    code
}

/// Emits the translation unit plus a timing `main` that fills the inputs
/// with a deterministic LCG, calls the step function `iters` times, and
/// prints `<checksum> <nanoseconds-per-iteration>`.
pub fn emit_c_harness(program: &Program, iters: usize) -> String {
    emit_c_harness_with(program, iters, CEmitOptions::default())
}

/// [`emit_c_harness`] with explicit [`CEmitOptions`].
pub fn emit_c_harness_with(program: &Program, iters: usize, opts: CEmitOptions) -> String {
    let mut out = Emitter::new_with(program, opts).emit();
    if !opts.profile {
        // the `main` below calls clock_gettime; the define must precede
        // every include
        out.insert_str(0, POSIX_DEFINE);
    }
    let name = &program.name;
    let mut main = String::new();
    let _ = writeln!(main, "\n#include <stdio.h>\n#include <time.h>\n");
    let _ = writeln!(main, "int main(void) {{");
    // hints/batch emission asserts 64-byte alignment on in/out buffers, so
    // the harness must honor that contract
    let align = if opts.vectorize.wants_hints() {
        "_Alignas(64) "
    } else {
        ""
    };
    for (idx, id) in program.inputs() {
        let len = program.buffer(id).len;
        let _ = writeln!(main, "    static {align}double in{idx}[{len}];");
    }
    for (idx, id) in program.outputs() {
        let len = program.buffer(id).len;
        let _ = writeln!(main, "    static {align}double out{idx}[{len}];");
    }
    let _ = writeln!(main, "    unsigned long long lcg = 0x243F6A8885A308D3ULL;");
    for (idx, id) in program.inputs() {
        let len = program.buffer(id).len;
        let _ = writeln!(
            main,
            "    for (int i = 0; i < {len}; ++i) {{\n        \
             lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;\n        \
             in{idx}[i] = (double)(lcg >> 40) / 16777216.0 - 0.5;\n    }}"
        );
    }
    let args = call_args(program);
    let _ = writeln!(main, "    struct timespec t0, t1;");
    let _ = writeln!(main, "    clock_gettime(CLOCK_MONOTONIC, &t0);");
    let _ = writeln!(main, "    for (int rep = 0; rep < {iters}; ++rep) {{");
    let _ = writeln!(main, "        {name}_step({args});");
    let _ = writeln!(main, "    }}");
    let _ = writeln!(main, "    clock_gettime(CLOCK_MONOTONIC, &t1);");
    let _ = writeln!(main, "    double checksum = 0.0;");
    for (idx, id) in program.outputs() {
        let len = program.buffer(id).len;
        let _ = writeln!(
            main,
            "    for (int i = 0; i < {len}; ++i) checksum += out{idx}[i];"
        );
    }
    let _ = writeln!(
        main,
        "    double ns = ((t1.tv_sec - t0.tv_sec) * 1e9 + (t1.tv_nsec - t0.tv_nsec)) / {iters}.0;"
    );
    let _ = writeln!(main, "    printf(\"%.17g %.3f\\n\", checksum, ns);");
    if opts.profile {
        // the profile goes to stderr so the stdout checksum line stays
        // machine-parseable on its own
        let _ = writeln!(main, "    frodo_prof_dump(stderr);");
    }
    let _ = writeln!(main, "    return 0;");
    let _ = writeln!(main, "}}");
    out.push_str(&main);
    out
}

fn call_args(program: &Program) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (idx, _) in program.inputs() {
        parts.push(format!("in{idx}"));
    }
    for (idx, _) in program.outputs() {
        parts.push(format!("out{idx}"));
    }
    parts.join(", ")
}

struct Emitter<'a> {
    p: &'a Program,
    opts: CEmitOptions,
    out: String,
    indent: usize,
}

/// The generic range-parameterized convolution helper (paper §5).
const CONV_HELPER: &str = "\
static void frodo_conv_range(const double *u, int ulen, const double *v,\n\
                             int vlen, double *dst, int k0, int k1) {\n\
    for (int k = k0; k < k1; ++k) {\n\
        int lo = k >= vlen ? k - (vlen - 1) : 0;\n\
        int hi = k < ulen - 1 ? k : ulen - 1;\n\
        double acc = 0.0;\n\
        for (int j = lo; j <= hi; ++j) {\n\
            acc += u[j] * v[k - j];\n\
        }\n\
        dst[k] = acc;\n\
    }\n\
}\n";

/// C's NaN-ignoring `fmax`/`fmin` as compare-selects gcc can inline and
/// vectorize (it keeps the libm calls out of line). Each returns what
/// glibc's `fmax`/`fmin` return on every pair of NaN, ±inf, ±1 and ±0,
/// signs of zero included: `b` on a tie, the other operand when one is
/// NaN. With a constant non-NaN `b`, each is one `maxpd`/`minpd`.
const MINMAX_HELPERS: &str = "\
static inline double frodo_max(double a, double b) { return (a > b || b != b) ? a : b; }\n\
static inline double frodo_min(double a, double b) { return (a < b || b != b) ? a : b; }\n";

/// Lets the profile runtime and the harness `main` use `clock_gettime`
/// under ISO C.
const POSIX_DEFINE: &str = "#define _POSIX_C_SOURCE 199309L\n";

impl<'a> Emitter<'a> {
    fn new_with(p: &'a Program, opts: CEmitOptions) -> Self {
        Emitter {
            p,
            opts,
            out: String::new(),
            indent: 1,
        }
    }

    /// Whether a statement computes a saturation or an elementwise min or
    /// max, through [`MINMAX_HELPERS`].
    fn uses_minmax_helpers(&self) -> bool {
        let helped = |op: &UnOp| matches!(op, UnOp::Sat(..));
        self.p.stmts.iter().any(|s| match s {
            Stmt::Unary { op, .. } => helped(op),
            Stmt::FusedUnary { ops, .. } => ops.iter().any(helped),
            Stmt::Binary { op, .. } => matches!(op, BinOp::Min | BinOp::Max),
            _ => false,
        })
    }

    fn uses_conv_helper(&self) -> bool {
        self.opts.shared_conv_helper
            && self.p.style != GeneratorStyle::Hcg
            && self.p.stmts.iter().any(|s| {
                matches!(
                    s,
                    Stmt::Conv {
                        style: ConvStyle::Tight,
                        ..
                    }
                )
            })
    }

    fn buf_expr(&self, id: BufId) -> String {
        let b = self.p.buffer(id);
        match b.role {
            BufferRole::Input(idx) => format!("in{idx}"),
            BufferRole::Output(idx) => format!("out{idx}"),
            _ => format!("g_{}", b.name),
        }
    }

    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn block_text(&mut self, text: &str) {
        for line in text.lines() {
            self.line(line);
        }
    }

    fn emit(mut self) -> String {
        self.out = self.header();
        for (i, s) in self.p.stmts.iter().enumerate() {
            self.emit_stmt(i, s);
        }
        self.out.push_str("}\n");
        self.out
    }

    /// Everything before the statement bodies: file comment, includes,
    /// buffers, optional conv helper, and the open `_step` signature.
    fn header(&self) -> String {
        let p = self.p;
        let mut head = String::new();
        if self.opts.profile {
            head.push_str(POSIX_DEFINE);
        }
        let _ = writeln!(
            head,
            "/* Generated by frodo-codegen (style: {}) for model '{}'. */",
            p.style.label(),
            p.name
        );
        let _ = writeln!(head, "#include <math.h>");
        if self.opts.profile {
            let _ = writeln!(head, "#include <stdio.h>");
        }
        let _ = writeln!(head, "#include <string.h>");
        if self.opts.profile {
            let _ = writeln!(head, "#include <time.h>");
        }
        let _ = writeln!(head);

        // file-scope buffers; under hints/batch modes they carry an
        // explicit 64-byte alignment so the assumed alignment below holds
        let align = if self.opts.vectorize.wants_hints() {
            "_Alignas(64) "
        } else {
            ""
        };
        for b in &p.buffers {
            match &b.role {
                BufferRole::Input(_) | BufferRole::Output(_) => {}
                BufferRole::Temp => {
                    let _ = writeln!(head, "static {align}double g_{}[{}];", b.name, b.len);
                }
                BufferRole::Const(data) => {
                    let _ = write!(
                        head,
                        "static {align}const double g_{}[{}] = {{",
                        b.name, b.len
                    );
                    write_initializer(&mut head, data);
                }
                BufferRole::State(init) => {
                    let _ = write!(head, "static {align}double g_{}[{}] = {{", b.name, b.len);
                    write_initializer(&mut head, init);
                }
            }
        }

        if self.uses_conv_helper() {
            let _ = writeln!(head, "\n{CONV_HELPER}");
        }
        if self.uses_minmax_helpers() {
            let _ = write!(head, "\n{MINMAX_HELPERS}");
        }

        if self.opts.profile {
            head.push_str(&self.profile_runtime());
        }

        // signature; hints/batch modes promise the compiler non-aliasing
        // arguments via restrict
        let restrict = if self.opts.vectorize.wants_hints() {
            "restrict "
        } else {
            ""
        };
        let mut params: Vec<String> = Vec::new();
        for (idx, _) in p.inputs() {
            params.push(format!("const double *{restrict}in{idx}"));
        }
        for (idx, _) in p.outputs() {
            params.push(format!("double *{restrict}out{idx}"));
        }
        if params.is_empty() {
            params.push("void".to_string());
        }
        let _ = writeln!(head, "\nvoid {}_step({}) {{", p.name, params.join(", "));
        if self.opts.vectorize.wants_hints() {
            // alignment contract: callers pass 64-byte aligned buffers
            let _ = writeln!(head, "#if defined(__GNUC__)");
            for (idx, _) in p.inputs() {
                let _ = writeln!(
                    head,
                    "    in{idx} = (const double *)__builtin_assume_aligned(in{idx}, 64);"
                );
            }
            for (idx, _) in p.outputs() {
                let _ = writeln!(
                    head,
                    "    out{idx} = (double *)__builtin_assume_aligned(out{idx}, 64);"
                );
            }
            let _ = writeln!(head, "#endif");
        }
        // an input no statement reads (Algorithm 1 demanded none of its
        // elements) keeps its parameter, named once so it counts as used
        for (idx, id) in p.inputs() {
            if !self.reads(id) {
                let _ = writeln!(head, "    (void)in{idx};");
            }
        }
        head
    }

    /// Whether any statement reads the buffer (a malformed one counts).
    fn reads(&self, buf: BufId) -> bool {
        self.p.stmts.iter().any(|s| {
            access::stmt_access(self.p, s).map_or(true, |a| a.reads.iter().any(|r| r.buf == buf))
        })
    }

    fn src_expr(&self, src: Src, iv: &str) -> String {
        match src {
            Src::Run(s) => format!("{}[{} + {iv}]", self.buf_expr(s.buf), s.off),
            Src::Broadcast(s) => format!("{}[{}]", self.buf_expr(s.buf), s.off),
            Src::Const(c) => format!("{c:?}"),
        }
    }

    fn dst_expr(&self, dst: Slice, iv: &str) -> String {
        format!("{}[{} + {iv}]", self.buf_expr(dst.buf), dst.off)
    }

    fn emit_loop<F: Fn(&Self, &str) -> String>(&mut self, len: usize, body: F) {
        let text = body(self, "i");
        self.line(&format!("for (int i = 0; i < {len}; ++i) {{"));
        self.indent += 1;
        self.line(&text);
        self.indent -= 1;
        self.line("}");
    }

    /// The generator's lowercase label, used to tag batched loops.
    fn style_tag(&self) -> String {
        self.p.style.label().to_lowercase()
    }

    /// Batch width for a vectorizable statement's elementwise loop under
    /// the active [`VectorMode`]: `Auto` preserves the historical HCG-only
    /// width-4 batching (explicit SIMD is what HCG's instruction synthesis
    /// amounts to structurally), `Batch(w)` batches every style. Runs
    /// shorter than two full batches gain nothing over the scalar loop
    /// plus its remainder and stay scalar.
    fn batch_width(&self, s: &Stmt, len: usize) -> Option<usize> {
        let width = match self.opts.vectorize {
            VectorMode::Auto if self.p.style == GeneratorStyle::Hcg => 4,
            VectorMode::Batch(w) => w,
            _ => return None,
        };
        (s.is_vectorizable() && len >= 2 * width).then_some(width)
    }

    /// Width of the batched inner dot product for tight convolution runs
    /// (same policy as [`Emitter::batch_width`], minus the length gate —
    /// the batched dimension is the kernel, not the run).
    fn conv_batch_width(&self) -> Option<usize> {
        match self.opts.vectorize {
            VectorMode::Auto if self.p.style == GeneratorStyle::Hcg => Some(4),
            VectorMode::Batch(w) => Some(w),
            _ => None,
        }
    }

    fn emit_batched_loop<F: Fn(&Self, &str) -> String>(
        &mut self,
        width: usize,
        len: usize,
        body: F,
    ) {
        let main = (len / width) * width;
        self.line(&format!(
            "/* {}: explicit simd batch (width {width}) */",
            self.style_tag()
        ));
        self.line(&format!("for (int i = 0; i < {main}; i += {width}) {{"));
        self.indent += 1;
        for lane in 0..width {
            let txt = body(self, &format!("(i + {lane})"));
            self.line(&txt);
        }
        self.indent -= 1;
        self.line("}");
        if main < len {
            self.line(&format!("for (int i = {main}; i < {len}; ++i) {{"));
            self.indent += 1;
            let txt = body(self, "i");
            self.line(&txt);
            self.indent -= 1;
            self.line("}");
        }
    }

    fn elementwise<F: Fn(&Self, &str) -> String + Copy>(&mut self, s: &Stmt, len: usize, body: F) {
        if let Some(width) = self.batch_width(s, len) {
            self.emit_batched_loop(width, len, body);
        } else {
            if self.opts.vectorize == VectorMode::Hints && s.is_vectorizable() {
                self.line("#pragma GCC ivdep");
            }
            self.emit_loop(len, body);
        }
    }

    /// A window statement's run `[k0, k1)`, boundary-peeled: the outputs
    /// before and after the steady range go through the clamped
    /// `boundary(a, b)` snippet, the steady ones through
    /// [`library::WINDOW_STEADY`], or [`library::WINDOW_BLOCKED`] when the
    /// window is longer than [`library::UNROLLED_WINDOW_MAX`] (full blocks
    /// of [`library::WINDOW_BLOCK`] outputs, then one block of the rest).
    fn emit_window(
        &mut self,
        k0: usize,
        k1: usize,
        output: &str,
        w: &Window,
        boundary: impl Fn(usize, usize) -> Result<String, library::RenderError>,
    ) {
        let s0 = w.steady.0.clamp(k0, k1);
        let s1 = w.steady.1.clamp(s0, k1);
        // blocked, [s0, full) holds the full blocks and [full, s1) the rest;
        // unblocked, [s0, full) is the whole steady range
        let (template, full) = if w.len <= library::UNROLLED_WINDOW_MAX {
            (&library::WINDOW_STEADY, s1)
        } else {
            let block = library::WINDOW_BLOCK;
            (&library::WINDOW_BLOCKED, s0 + (s1 - s0) / block * block)
        };
        let mut code = Vec::new();
        if k0 < s0 {
            code.push(boundary(k0, s0));
        }
        for (a, b) in [(s0, full), (full, s1)].into_iter().filter(|&(a, b)| a < b) {
            code.push(template.render(&[
                ("k0", a.to_string()),
                ("k1", b.to_string()),
                ("Lanes", (b - a).min(library::WINDOW_BLOCK).to_string()),
                ("Window", w.len.to_string()),
                ("Term", w.term.clone()),
                ("Scale", w.scale.clone()),
                ("Output", output.to_string()),
            ]));
        }
        if s1 < k1 {
            code.push(boundary(s1, k1));
        }
        for text in code {
            self.block_text(&text.expect("window template complete"));
        }
    }

    /// One statement, wrapped in the per-statement timing hooks when
    /// profiling is on. The wrapper braces give the hook's `t0` local its
    /// own scope, so statement bodies (including the conv helper's early
    /// return path) never see it.
    fn emit_stmt(&mut self, idx: usize, s: &Stmt) {
        if !self.opts.profile {
            self.emit_stmt_body(idx, s);
            return;
        }
        self.line("{");
        self.indent += 1;
        self.line("unsigned long long frodo_prof_t0 = frodo_prof_now();");
        self.emit_stmt_body(idx, s);
        self.line(&format!("frodo_prof_record({idx}, frodo_prof_t0);"));
        self.indent -= 1;
        self.line("}");
    }

    /// The self-profiling runtime: static accumulation tables sized to the
    /// statement count, a monotonic-clock reader, the per-statement
    /// recorder (whose log2 bucketing matches `frodo_obs::Histogram`
    /// exactly), and `frodo_prof_dump`, which prints the tables in the
    /// `frodo-obs` NDJSON export schema — one root `prof:<model>` span,
    /// one span + `_calls`/`_flops` counters per statement, and one
    /// latency `hist` line per executed statement.
    fn profile_runtime(&self) -> String {
        let p = self.p;
        let n = p.stmts.len();
        // C forbids zero-length arrays; a statement-less program still
        // gets well-formed (never-indexed) tables
        let cap = n.max(1);
        let flops: Vec<String> = if n == 0 {
            vec!["0ULL".to_string()]
        } else {
            p.stmts
                .iter()
                .map(|s| format!("{}ULL", s.flops()))
                .collect()
        };
        let kinds: Vec<String> = if n == 0 {
            vec!["\"none\"".to_string()]
        } else {
            p.stmts
                .iter()
                .map(|s| format!("\"{}\"", s.kind_label()))
                .collect()
        };
        let mut out = String::new();
        let _ = writeln!(out, "\n#define FRODO_PROF_N {n}");
        let _ = writeln!(out, "#define FRODO_PROF_BUCKETS 48");
        let _ = writeln!(out, "static unsigned long long frodo_prof_calls[{cap}];");
        let _ = writeln!(out, "static unsigned long long frodo_prof_ns[{cap}];");
        let _ = writeln!(out, "static unsigned long long frodo_prof_ns_min[{cap}];");
        let _ = writeln!(out, "static unsigned long long frodo_prof_ns_max[{cap}];");
        let _ = writeln!(
            out,
            "static unsigned long long frodo_prof_hist[{cap}][FRODO_PROF_BUCKETS];"
        );
        let _ = writeln!(
            out,
            "static const unsigned long long frodo_prof_flops[{cap}] = {{{}}};",
            flops.join(", ")
        );
        let _ = writeln!(
            out,
            "static const char *const frodo_prof_kind[{cap}] = {{{}}};",
            kinds.join(", ")
        );
        out.push_str(
            "\nstatic unsigned long long frodo_prof_now(void) {\n\
             \x20   struct timespec ts;\n\
             \x20   clock_gettime(CLOCK_MONOTONIC, &ts);\n\
             \x20   return (unsigned long long)ts.tv_sec * 1000000000ULL\n\
             \x20       + (unsigned long long)ts.tv_nsec;\n\
             }\n\
             \n\
             static void frodo_prof_record(int idx, unsigned long long t0) {\n\
             \x20   unsigned long long ns = frodo_prof_now() - t0;\n\
             \x20   unsigned long long v = ns;\n\
             \x20   int bits = 0;\n\
             \x20   if (frodo_prof_calls[idx] == 0 || ns < frodo_prof_ns_min[idx]) {\n\
             \x20       frodo_prof_ns_min[idx] = ns;\n\
             \x20   }\n\
             \x20   if (frodo_prof_calls[idx] == 0 || ns > frodo_prof_ns_max[idx]) {\n\
             \x20       frodo_prof_ns_max[idx] = ns;\n\
             \x20   }\n\
             \x20   frodo_prof_calls[idx] += 1;\n\
             \x20   frodo_prof_ns[idx] += ns;\n\
             \x20   while (v) { v >>= 1; ++bits; }\n\
             \x20   if (bits > FRODO_PROF_BUCKETS - 1) bits = FRODO_PROF_BUCKETS - 1;\n\
             \x20   frodo_prof_hist[idx][bits] += 1;\n\
             }\n\
             \n\
             static void frodo_prof_dump(FILE *out) {\n\
             \x20   unsigned long long total = 0;\n\
             \x20   int i, b, first;\n\
             \x20   for (i = 0; i < FRODO_PROF_N; ++i) total += frodo_prof_ns[i];\n",
        );
        let _ = writeln!(
            out,
            "    fprintf(out, \"{{\\\"type\\\":\\\"span\\\",\\\"id\\\":1,\\\"parent\\\":0,\
             \\\"name\\\":\\\"prof:{}\\\",\\\"start_ns\\\":0,\\\"dur_ns\\\":%llu}}\\n\", total);",
            p.name
        );
        out.push_str(
            "    for (i = 0; i < FRODO_PROF_N; ++i) {\n\
             \x20       fprintf(out, \"{\\\"type\\\":\\\"span\\\",\\\"id\\\":%d,\\\"parent\\\":1,\
             \\\"name\\\":\\\"stmt_%d_%s\\\",\\\"start_ns\\\":0,\\\"dur_ns\\\":%llu}\\n\",\n\
             \x20               i + 2, i, frodo_prof_kind[i], frodo_prof_ns[i]);\n\
             \x20   }\n\
             \x20   for (i = 0; i < FRODO_PROF_N; ++i) {\n\
             \x20       fprintf(out, \"{\\\"type\\\":\\\"counter\\\",\\\"span\\\":%d,\
             \\\"name\\\":\\\"stmt_%d_%s_calls\\\",\\\"value\\\":%llu}\\n\",\n\
             \x20               i + 2, i, frodo_prof_kind[i], frodo_prof_calls[i]);\n\
             \x20       fprintf(out, \"{\\\"type\\\":\\\"counter\\\",\\\"span\\\":%d,\
             \\\"name\\\":\\\"stmt_%d_%s_flops\\\",\\\"value\\\":%llu}\\n\",\n\
             \x20               i + 2, i, frodo_prof_kind[i],\n\
             \x20               frodo_prof_flops[i] * frodo_prof_calls[i]);\n\
             \x20   }\n\
             \x20   for (i = 0; i < FRODO_PROF_N; ++i) {\n\
             \x20       if (frodo_prof_calls[i] == 0) continue;\n\
             \x20       fprintf(out, \"{\\\"type\\\":\\\"hist\\\",\\\"name\\\":\\\"stmt_%d_%s_ns\\\",\
             \\\"count\\\":%llu,\\\"sum\\\":%llu,\\\"min\\\":%llu,\\\"max\\\":%llu,\\\"bucket_upper\\\":[\",\n\
             \x20               i, frodo_prof_kind[i], frodo_prof_calls[i], frodo_prof_ns[i],\n\
             \x20               frodo_prof_ns_min[i], frodo_prof_ns_max[i]);\n\
             \x20       first = 1;\n\
             \x20       for (b = 0; b < FRODO_PROF_BUCKETS; ++b) {\n\
             \x20           if (!frodo_prof_hist[i][b]) continue;\n\
             \x20           fprintf(out, first ? \"%llu\" : \",%llu\", 1ULL << b);\n\
             \x20           first = 0;\n\
             \x20       }\n\
             \x20       fprintf(out, \"],\\\"bucket_count\\\":[\");\n\
             \x20       first = 1;\n\
             \x20       for (b = 0; b < FRODO_PROF_BUCKETS; ++b) {\n\
             \x20           if (!frodo_prof_hist[i][b]) continue;\n\
             \x20           fprintf(out, first ? \"%llu\" : \",%llu\", frodo_prof_hist[i][b]);\n\
             \x20           first = 0;\n\
             \x20       }\n\
             \x20       fprintf(out, \"]}\\n\");\n\
             \x20   }\n\
             }\n",
        );
        out
    }

    fn emit_stmt_body(&mut self, idx: usize, s: &Stmt) {
        match s {
            &Stmt::Unary { op, dst, src, len } => {
                self.elementwise(s, len, |e, iv| {
                    format!(
                        "{} = {};",
                        e.dst_expr(dst, iv),
                        unop_expr(op, &e.src_expr(src, iv))
                    )
                });
            }
            Stmt::FusedUnary { ops, dst, src, len } => {
                self.elementwise(s, *len, |e, iv| {
                    let mut expr = e.src_expr(*src, iv);
                    for &op in ops {
                        expr = unop_expr(op, &format!("({expr})"));
                    }
                    format!("{} = {};", e.dst_expr(*dst, iv), expr)
                });
            }
            &Stmt::Binary { op, dst, a, b, len } => {
                self.elementwise(s, len, |e, iv| {
                    format!(
                        "{} = {};",
                        e.dst_expr(dst, iv),
                        binop_expr(op, &e.src_expr(a, iv), &e.src_expr(b, iv))
                    )
                });
            }
            &Stmt::Select {
                dst,
                ctrl,
                threshold,
                a,
                b,
                len,
            } => {
                self.emit_loop(len, |e, iv| {
                    format!(
                        "{} = ({} >= {threshold:?}) ? {} : {};",
                        e.dst_expr(dst, iv),
                        e.src_expr(ctrl, iv),
                        e.src_expr(a, iv),
                        e.src_expr(b, iv)
                    )
                });
            }
            &Stmt::Copy { dst, src, len } => {
                let d = self.buf_expr(dst.buf);
                let sb = self.buf_expr(src.buf);
                self.line(&format!(
                    "memcpy(&{d}[{}], &{sb}[{}], {len} * sizeof(double));",
                    dst.off, src.off
                ));
            }
            &Stmt::Fill { dst, value, len } => {
                self.emit_loop(len, |e, iv| format!("{} = {value:?};", e.dst_expr(dst, iv)));
            }
            Stmt::Gather { dst, src, indices } => {
                let table: Vec<String> = indices.iter().map(|i| i.to_string()).collect();
                self.line(&format!(
                    "static const int idx_{idx}[{}] = {{{}}};",
                    indices.len(),
                    table.join(", ")
                ));
                let sb = self.buf_expr(*src);
                let n = indices.len();
                self.emit_loop(n, |e, iv| {
                    format!("{} = {sb}[idx_{idx}[{iv}]];", e.dst_expr(*dst, iv))
                });
            }
            &Stmt::DynGather {
                dst,
                src,
                src_len,
                idx: ix,
                len,
            } => {
                let sb = self.buf_expr(src);
                let ib = self.buf_expr(ix.buf);
                let off = ix.off;
                self.emit_loop(len, |e, iv| {
                    format!(
                        "{{ int j = (int){ib}[{off} + {iv}]; if (j < 0) j = 0; \
                         if (j >= {src_len}) j = {src_len} - 1; {} = {sb}[j]; }}",
                        e.dst_expr(dst, iv)
                    )
                });
            }
            &Stmt::Reduce {
                op: op @ (ReduceOp::Min | ReduceOp::Max),
                dst,
                src,
                len,
            } => {
                let (cmp, init, fold) = if op == ReduceOp::Max {
                    (">", "-INFINITY", "fmax")
                } else {
                    ("<", "INFINITY", "fmin")
                };
                let code = library::REDUCE_EXTREMUM
                    .render(&[
                        ("Cmp", cmp.to_string()),
                        ("Init", init.to_string()),
                        ("Fold", fold.to_string()),
                        ("Blocked", (len / 8 * 8).to_string()),
                        ("Len", len.to_string()),
                        ("Off", src.off.to_string()),
                        ("Input", self.buf_expr(src.buf)),
                        ("Output", self.dst_expr(dst, "0").replace(" + 0", "")),
                    ])
                    .expect("extremum template complete");
                self.block_text(&code);
            }
            &Stmt::Reduce { op, dst, src, len } => {
                // a sum or mean stays serial: reassociating it changes bits
                let d = self.dst_expr(dst, "0").replace(" + 0", ""); // cosmetic
                let sb = self.buf_expr(src.buf);
                let off = src.off;
                self.line("{");
                self.indent += 1;
                self.line("double acc = 0.0;");
                self.line(&format!(
                    "for (int i = 0; i < {len}; ++i) {{ acc += {sb}[{off} + i]; }}"
                ));
                if op == ReduceOp::Mean {
                    self.line(&format!("acc /= (double){len};"));
                }
                self.line(&format!("{d} = acc;"));
                self.indent -= 1;
                self.line("}");
            }
            &Stmt::Dot { dst, a, b, len } => {
                let d = self.dst_expr(dst, "0").replace(" + 0", "");
                let ab = self.buf_expr(a.buf);
                let bb = self.buf_expr(b.buf);
                self.line("{");
                self.indent += 1;
                self.line("double acc = 0.0;");
                self.line(&format!(
                    "for (int i = 0; i < {len}; ++i) {{ acc += {ab}[{} + i] * {bb}[{} + i]; }}",
                    a.off, b.off
                ));
                self.line(&format!("{d} = acc;"));
                self.indent -= 1;
                self.line("}");
            }
            &Stmt::Conv {
                dst,
                u,
                u_len,
                v,
                v_len,
                k0,
                k1,
                style,
            } => {
                if style == ConvStyle::Tight && self.uses_conv_helper() {
                    let call = format!(
                        "frodo_conv_range({}, {u_len}, {}, {v_len}, {}, {k0}, {k1});",
                        self.buf_expr(u),
                        self.buf_expr(v),
                        self.buf_expr(dst)
                    );
                    self.line(&call);
                    return;
                }
                let (ub, vb, out) = (self.buf_expr(u), self.buf_expr(v), self.buf_expr(dst));
                let subs = |a: usize, b: usize| {
                    [
                        ("k0", a.to_string()),
                        ("k1", b.to_string()),
                        ("k", a.to_string()),
                        ("Input1", ub.clone()),
                        ("Input1_size", u_len.to_string()),
                        ("Input2", vb.clone()),
                        ("Input2_size", v_len.to_string()),
                        ("Output", out.clone()),
                    ]
                };
                let batched = (style == ConvStyle::Tight && k1 - k0 > 1)
                    .then(|| self.conv_batch_width())
                    .flatten();
                let code = match (style, batched) {
                    (ConvStyle::Tight, Some(w)) => library::render_text(
                        &library::conv_batched_template(w, &self.style_tag()),
                        &subs(k0, k1),
                    ),
                    (ConvStyle::Tight, None) if k1 - k0 == 1 => {
                        library::CONV_SINGLE.render(&subs(k0, k1))
                    }
                    (ConvStyle::Tight, None) => {
                        // steady outputs sum min(u_len, v_len) terms: the
                        // kernel slides along u, or u along the kernel
                        let window = if v_len <= u_len {
                            Window {
                                steady: (v_len - 1, u_len),
                                len: v_len,
                                term: format!(
                                    "{ub}[{} + t] * {vb}[{} - t]",
                                    minus("k", v_len - 1),
                                    v_len - 1
                                ),
                                scale: String::new(),
                            }
                        } else {
                            Window {
                                steady: (u_len - 1, v_len),
                                len: u_len,
                                term: format!("{ub}[t] * {vb}[k - t]"),
                                scale: String::new(),
                            }
                        };
                        self.emit_window(k0, k1, &out, &window, |a, b| {
                            library::CONV_RUN.render(&subs(a, b))
                        });
                        return;
                    }
                    (ConvStyle::Branchy, _) => library::CONV_BRANCHY.render(&subs(k0, k1)),
                }
                .expect("conv template complete");
                self.block_text(&code);
            }
            &Stmt::Fir {
                dst,
                src,
                coeffs,
                taps,
                k0,
                k1,
            } => {
                let (cb, sb, out) = (
                    self.buf_expr(coeffs),
                    self.buf_expr(src),
                    self.buf_expr(dst),
                );
                let window = Window {
                    steady: (taps - 1, k1),
                    len: taps,
                    term: format!("{cb}[t] * {sb}[k - t]"),
                    scale: String::new(),
                };
                self.emit_window(k0, k1, &out, &window, |a, b| {
                    library::FIR_RUN.render(&[
                        ("k0", a.to_string()),
                        ("k1", b.to_string()),
                        ("Taps", taps.to_string()),
                        ("Coeffs", cb.clone()),
                        ("Input", sb.clone()),
                        ("Output", out.clone()),
                    ])
                });
            }
            &Stmt::MovingAvg {
                dst,
                src,
                window,
                k0,
                k1,
            } => {
                let (sb, out) = (self.buf_expr(src), self.buf_expr(dst));
                let shape = Window {
                    steady: (window - 1, k1),
                    len: window,
                    term: format!("{sb}[{} + t]", minus("k", window - 1)),
                    scale: format!(" / (double){window}"),
                };
                self.emit_window(k0, k1, &out, &shape, |a, b| {
                    library::MOVAVG_RUN.render(&[
                        ("k0", a.to_string()),
                        ("k1", b.to_string()),
                        ("Window", window.to_string()),
                        ("Input", sb.clone()),
                        ("Output", out.clone()),
                    ])
                });
            }
            &Stmt::CumSum { dst, src, k_end } => {
                let code = library::CUMSUM_RUN
                    .render(&[
                        ("k_end", k_end.to_string()),
                        ("Input", self.buf_expr(src)),
                        ("Output", self.buf_expr(dst)),
                    ])
                    .expect("cumsum template complete");
                self.block_text(&code);
            }
            &Stmt::Diff { dst, src, k0, k1 } => {
                let d = self.buf_expr(dst);
                let sb = self.buf_expr(src);
                let mut start = k0;
                if k0 == 0 {
                    self.line(&format!("{d}[0] = {sb}[0];"));
                    start = 1;
                }
                if start < k1 {
                    let code = library::DIFF_RUN
                        .render(&[
                            ("k0", start.to_string()),
                            ("k1", k1.to_string()),
                            ("Input", sb),
                            ("Output", d),
                        ])
                        .expect("diff template complete");
                    self.block_text(&code);
                }
            }
            &Stmt::MatMul {
                dst,
                a,
                b,
                k,
                n,
                r0,
                r1,
                ..
            } => {
                let code = library::MATMUL_RUN
                    .render(&[
                        ("r0", r0.to_string()),
                        ("r1", r1.to_string()),
                        ("N", n.to_string()),
                        ("K", k.to_string()),
                        ("A", self.buf_expr(a)),
                        ("B", self.buf_expr(b)),
                        ("Output", self.buf_expr(dst)),
                    ])
                    .expect("matmul template complete");
                self.block_text(&code);
            }
            &Stmt::Transpose {
                dst,
                src,
                rows,
                cols,
            } => {
                let d = self.buf_expr(dst);
                let sb = self.buf_expr(src);
                self.line(&format!("for (int r = 0; r < {rows}; ++r) {{"));
                self.indent += 1;
                self.line(&format!(
                    "for (int c = 0; c < {cols}; ++c) {{ {d}[c * {rows} + r] = {sb}[r * {cols} + c]; }}"
                ));
                self.indent -= 1;
                self.line("}");
            }
            &Stmt::StateLoad { dst, state, len } => {
                let d = self.buf_expr(dst);
                let sb = self.buf_expr(state);
                self.line(&format!("memcpy({d}, {sb}, {len} * sizeof(double));"));
            }
            &Stmt::StateStore { state, src, len } => {
                let d = self.buf_expr(state);
                let sb = self.buf_expr(src);
                self.line(&format!("memcpy({d}, {sb}, {len} * sizeof(double));"));
            }
        }
    }
}

/// A window statement's steady range and the sum each steady output
/// computes there (see [`library::WINDOW_STEADY`]).
struct Window {
    /// Outputs `[start, end)` whose window lies inside the input(s).
    steady: (usize, usize),
    /// Terms per steady output: the window loop's trip count.
    len: usize,
    /// The term of output `k` at window position `t`.
    term: String,
    /// Appended to the accumulator on the store.
    scale: String,
}

/// `v - d`, or `v` when `d` is 0.
fn minus(v: &str, d: usize) -> String {
    if d == 0 {
        v.to_string()
    } else {
        format!("{v} - {d}")
    }
}

/// Writes the values of a buffer's `{…}` initializer as shortest
/// round-trip literals separated by `, `, then closes it with `};`.
fn write_initializer(head: &mut String, values: &[f64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            head.push_str(", ");
        }
        let _ = write!(head, "{v:?}");
    }
    head.push_str("};\n");
}

fn unop_expr(op: UnOp, x: &str) -> String {
    match op {
        UnOp::Gain(g) => format!("{x} * {g:?}"),
        UnOp::Bias(b) => format!("{x} + {b:?}"),
        UnOp::Abs => format!("fabs({x})"),
        UnOp::Sqrt => format!("sqrt({x})"),
        UnOp::Square => format!("{x} * {x}"),
        UnOp::Exp => format!("exp({x})"),
        UnOp::Log => format!("log({x})"),
        UnOp::Sin => format!("sin({x})"),
        UnOp::Cos => format!("cos({x})"),
        UnOp::Tanh => format!("tanh({x})"),
        UnOp::Neg => format!("-({x})"),
        UnOp::Recip => format!("1.0 / ({x})"),
        UnOp::Sat(lo, hi) => format!("frodo_min(frodo_max({x}, {lo:?}), {hi:?})"),
        UnOp::Floor => format!("floor({x})"),
        UnOp::Ceil => format!("ceil({x})"),
        UnOp::Round => format!("round({x})"),
        UnOp::Trunc => format!("trunc({x})"),
        UnOp::Not => format!("(({x}) == 0.0) ? 1.0 : 0.0"),
        UnOp::Id => x.to_string(),
    }
}

fn binop_expr(op: BinOp, a: &str, b: &str) -> String {
    match op {
        BinOp::Add => format!("{a} + {b}"),
        BinOp::Sub => format!("{a} - {b}"),
        BinOp::Mul => format!("{a} * {b}"),
        BinOp::Div => format!("{a} / {b}"),
        BinOp::Min => format!("frodo_min({a}, {b})"),
        BinOp::Max => format!("frodo_max({a}, {b})"),
        BinOp::Mod => format!("fmod({a}, {b})"),
        BinOp::Lt => format!("({a} < {b}) ? 1.0 : 0.0"),
        BinOp::Le => format!("({a} <= {b}) ? 1.0 : 0.0"),
        BinOp::Gt => format!("({a} > {b}) ? 1.0 : 0.0"),
        BinOp::Ge => format!("({a} >= {b}) ? 1.0 : 0.0"),
        BinOp::EqOp => format!("({a} == {b}) ? 1.0 : 0.0"),
        BinOp::Ne => format!("({a} != {b}) ? 1.0 : 0.0"),
        BinOp::And => format!("(({a}) != 0.0 && ({b}) != 0.0) ? 1.0 : 0.0"),
        BinOp::Or => format!("(({a}) != 0.0 || ({b}) != 0.0) ? 1.0 : 0.0"),
        BinOp::Xor => format!("((({a}) != 0.0) != (({b}) != 0.0)) ? 1.0 : 0.0"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use frodo_core::Analysis;
    use frodo_model::{Block, BlockKind, Model, SelectorMode, Tensor};
    use frodo_ranges::Shape;

    fn figure1() -> Analysis {
        let mut m = Model::new("conv");
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
        Analysis::run(m).unwrap()
    }

    #[test]
    fn frodo_c_has_tight_restricted_loop() {
        let p = generate(&figure1(), GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let c = emit_c(&p);
        assert!(c.contains("void conv_step(const double *in0, double *out0)"));
        // the selected outputs [5, 55), peeled at the kernel's edges: the
        // 11-term window lies inside the 50-element input for k in [10, 50)
        let loops = top_level_loops(&c);
        let heads: Vec<&str> = loops.iter().map(|l| l.lines().next().unwrap()).collect();
        assert_eq!(
            heads,
            [
                "for (int k = 5; k < 10; ++k) {",
                "for (int k = 10; k < 50; ++k) {",
                "for (int k = 50; k < 55; ++k) {",
            ]
        );
        assert!(loops[1].contains("for (int t = 0; t < 11; ++t)"));
        assert!(loops[1].contains("acc += in0[k - 10 + t] * g_k[10 - t];"));
        assert!(!c.contains("if (k - j >= 0"));
    }

    /// The step function's top-level `for` loops, each with its body.
    fn top_level_loops(c: &str) -> Vec<String> {
        let mut loops: Vec<String> = Vec::new();
        let mut open = false;
        for line in c.lines() {
            if line.starts_with("    for (") {
                loops.push(String::new());
                open = true;
            } else if !line.starts_with("        ") && line != "    }" {
                open = false;
            }
            if open {
                let last = loops.last_mut().unwrap();
                last.push_str(&line[4..]);
                last.push('\n');
            }
        }
        loops
    }

    /// A one-statement program over an input of `u_len` and a constant of
    /// `v_len` elements, writing an output of `out_len`.
    fn window_program(stmt: Stmt, u_len: usize, v_len: usize, out_len: usize) -> Program {
        use crate::lir::{Buffer, BufferRole};
        Program {
            name: "win".into(),
            style: GeneratorStyle::Frodo,
            buffers: vec![
                Buffer {
                    name: "u".into(),
                    len: u_len,
                    role: BufferRole::Input(0),
                },
                Buffer {
                    name: "y".into(),
                    len: out_len,
                    role: BufferRole::Output(0),
                },
                Buffer {
                    name: "v".into(),
                    len: v_len,
                    role: BufferRole::Const(vec![0.5; v_len]),
                },
            ],
            stmts: vec![stmt],
        }
    }

    fn conv(u_len: usize, v_len: usize, k0: usize, k1: usize) -> Program {
        let stmt = Stmt::Conv {
            dst: BufId(1),
            u: BufId(0),
            u_len,
            v: BufId(2),
            v_len,
            k0,
            k1,
            style: ConvStyle::Tight,
        };
        window_program(stmt, u_len, v_len, u_len + v_len - 1)
    }

    fn moving_avg(window: usize, k0: usize, k1: usize) -> Program {
        let stmt = Stmt::MovingAvg {
            dst: BufId(1),
            src: BufId(0),
            window,
            k0,
            k1,
        };
        window_program(stmt, k1, 1, k1)
    }

    fn fir(taps: usize, k0: usize, k1: usize) -> Program {
        let stmt = Stmt::Fir {
            dst: BufId(1),
            src: BufId(0),
            coeffs: BufId(2),
            taps,
            k0,
            k1,
        };
        window_program(stmt, k1, taps, k1)
    }

    /// The first line of each top-level loop, and whether its body holds
    /// a `?:` clamp.
    fn loop_shapes(p: &Program) -> Vec<(String, bool)> {
        top_level_loops(&emit_c(p))
            .iter()
            .map(|l| (l.lines().next().unwrap().to_string(), l.contains('?')))
            .collect()
    }

    #[test]
    fn window_steady_ranges_carry_no_clamp() {
        let steady = |k0, k1| (format!("for (int k = {k0}; k < {k1}; ++k) {{"), false);
        let head = |k0, k1| (format!("for (int k = {k0}; k < {k1}; ++k) {{"), true);
        // head only, head + steady, steady only
        assert_eq!(loop_shapes(&moving_avg(8, 0, 5)), [head(0, 5)]);
        assert_eq!(
            loop_shapes(&moving_avg(8, 2, 30)),
            [head(2, 7), steady(7, 30)]
        );
        assert_eq!(loop_shapes(&moving_avg(8, 10, 30)), [steady(10, 30)]);
        assert_eq!(loop_shapes(&fir(9, 0, 40)), [head(0, 8), steady(8, 40)]);
        // a convolution is peeled at both ends: kernel shorter than u, and
        // longer (the steady sum then runs over all of u)
        assert_eq!(
            loop_shapes(&conv(40, 11, 0, 50)),
            [head(0, 10), steady(10, 40), head(40, 50)]
        );
        assert_eq!(
            loop_shapes(&conv(6, 15, 2, 18)),
            [head(2, 5), steady(5, 15), head(15, 18)]
        );
        let c = emit_c(&conv(6, 15, 2, 18));
        assert!(c.contains("for (int t = 0; t < 6; ++t)"));
        assert!(c.contains("acc += in0[t] * g_v[k - t];"));
        // the steady sums keep the clamped loop's terms and order
        assert!(emit_c(&moving_avg(8, 2, 30)).contains("acc += in0[k - 7 + t];"));
        assert!(emit_c(&fir(9, 0, 40)).contains("acc += g_v[t] * in0[k - t];"));
    }

    #[test]
    fn long_windows_run_in_blocks_of_32_with_the_window_loop_outside() {
        use library::{UNROLLED_WINDOW_MAX, WINDOW_BLOCK};
        let at = UNROLLED_WINDOW_MAX;
        // at the threshold the steady range is one loop
        let c = emit_c(&moving_avg(at, at - 1, at + 99));
        assert!(!c.contains("kb"));
        // one term longer, it is blocked; remainders 0, 1 and 31 each get
        // one block of their own width
        for rem in [0, 1, WINDOW_BLOCK - 1] {
            let (s0, n) = (at, 2 * WINDOW_BLOCK + rem);
            let p = moving_avg(at + 1, s0, s0 + n);
            let full = s0 + 2 * WINDOW_BLOCK;
            let mut expected = vec![(
                format!("for (int kb = {s0}; kb < {full}; kb += {WINDOW_BLOCK}) {{"),
                false,
            )];
            if rem > 0 {
                expected.push((
                    format!("for (int kb = {full}; kb < {}; kb += {rem}) {{", full + rem),
                    false,
                ));
            }
            assert_eq!(loop_shapes(&p), expected, "remainder {rem}");
        }
        let c = emit_c(&fir(at + 4, 0, 100));
        let loops = top_level_loops(&c);
        assert_eq!(loops.len(), 3);
        assert!(loops[0].contains('?'));
        assert!(loops[1].contains("double acc[32] = {0.0};"));
        assert!(loops[1].contains(&format!(
            "    for (int t = 0; t < {}; ++t) {{\n        for (int l = 0; l < 32; ++l) {{",
            at + 4
        )));
        assert!(loops[1].contains("acc[l] += g_v[t] * in0[k - t];"));
        assert!(loops[1].contains("out0[kb + l] = acc[l];"));
        assert!(!loops[1].contains('?') && !loops[2].contains('?'));
    }

    #[test]
    fn batched_and_branchy_convolutions_keep_their_templates() {
        let p = generate(&figure1(), GeneratorStyle::Hcg, &frodo_obs::Trace::noop());
        let c = emit_c(&p);
        assert!(c.contains("for (int k = 0; k < 60; ++k)"));
        assert!(!c.contains("for (int t = 0;"));
        let p = generate(
            &figure1(),
            GeneratorStyle::SimulinkCoder,
            &frodo_obs::Trace::noop(),
        );
        assert!(!emit_c(&p).contains("for (int t = 0;"));
    }

    #[test]
    fn simulink_c_has_boundary_judgments() {
        let p = generate(
            &figure1(),
            GeneratorStyle::SimulinkCoder,
            &frodo_obs::Trace::noop(),
        );
        let c = emit_c(&p);
        assert!(c.contains("for (int k = 0; k < 60; ++k)"));
        assert!(c.contains("if (k - j >= 0 && k - j < 50)"));
    }

    #[test]
    fn hcg_c_has_simd_batches() {
        let p = generate(&figure1(), GeneratorStyle::Hcg, &frodo_obs::Trace::noop());
        let c = emit_c(&p);
        assert!(c.contains("hcg: explicit simd batch"));
    }

    #[test]
    fn vectorize_hints_adds_restrict_alignment_and_pragmas() {
        let p = generate(&figure1(), GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let c = emit_c_with(
            &p,
            CEmitOptions {
                vectorize: VectorMode::Hints,
                ..CEmitOptions::default()
            },
        );
        assert!(c.contains("const double *restrict in0"));
        assert!(c.contains("double *restrict out0"));
        assert!(c.contains("__builtin_assume_aligned(in0, 64)"));
        assert!(c.contains("_Alignas(64) const double g_k[11]"));
        // bodies stay scalar under hints
        assert!(!c.contains("explicit simd batch"));
    }

    #[test]
    fn vectorize_batch_batches_frodo_convolution_at_requested_width() {
        let p = generate(&figure1(), GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let c = emit_c_with(
            &p,
            CEmitOptions {
                vectorize: VectorMode::Batch(8),
                ..CEmitOptions::default()
            },
        );
        assert!(c.contains("/* frodo: explicit simd batch (width 8) */"));
        assert!(c.contains("for (; j + 7 <= hi; j += 8)"));
        assert!(c.contains("const double *restrict in0"));
        // deterministic: two renders agree byte-for-byte
        let again = emit_c_with(
            &p,
            CEmitOptions {
                vectorize: VectorMode::Batch(8),
                ..CEmitOptions::default()
            },
        );
        assert_eq!(c, again);
    }

    #[test]
    fn auto_mode_is_byte_identical_to_the_pre_vectormode_output() {
        // the Auto default must keep HCG's historical width-4 batching and
        // everyone else scalar — pinned by the exact comment text
        let p = generate(&figure1(), GeneratorStyle::Hcg, &frodo_obs::Trace::noop());
        let c = emit_c(&p);
        assert!(c.contains("/* hcg: explicit simd batch (width 4) */"));
        assert!(!c.contains("restrict"));
        let p = generate(&figure1(), GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        assert!(!emit_c(&p).contains("explicit simd batch"));
    }

    #[test]
    fn vector_mode_parse_covers_the_cli_grammar() {
        assert_eq!(VectorMode::parse("auto", 8), Ok(VectorMode::Auto));
        assert!(VectorMode::parse("off", 8).is_err());
        assert_eq!(VectorMode::parse("hints", 8), Ok(VectorMode::Hints));
        assert_eq!(VectorMode::parse("batch", 8), Ok(VectorMode::Batch(8)));
        assert_eq!(VectorMode::parse("batch:2", 8), Ok(VectorMode::Batch(2)));
        assert!(VectorMode::parse("batch:1", 8).is_err());
        assert!(VectorMode::parse("batch:99", 8).is_err());
        assert!(VectorMode::parse("wide", 8).is_err());
    }

    #[test]
    fn const_kernel_is_embedded() {
        let p = generate(&figure1(), GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let c = emit_c(&p);
        assert!(c.contains("static const double g_k[11]"));
    }

    #[test]
    fn harness_contains_timing_main() {
        let p = generate(&figure1(), GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let c = emit_c_harness(&p, 10_000);
        assert!(c.contains("int main(void)"));
        assert!(c.contains("clock_gettime"));
        assert!(c.contains("for (int rep = 0; rep < 10000; ++rep)"));
        assert!(c.contains("conv_step(in0, out0);"));
    }

    #[test]
    fn shared_conv_helper_replaces_inline_loops() {
        let p = generate(&figure1(), GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let c = emit_c_with(
            &p,
            CEmitOptions {
                shared_conv_helper: true,
                ..Default::default()
            },
        );
        assert!(c.contains("static void frodo_conv_range"));
        assert!(c.contains("frodo_conv_range(in0, 50, g_k, 11, g_conv, 5, 55);"));
        // the inline loop nest is gone
        assert!(!c.contains("for (int k = 5; k < 55; ++k)"));
        // helper appears exactly once
        assert_eq!(c.matches("static void frodo_conv_range").count(), 1);
    }

    #[test]
    fn shared_conv_helper_is_skipped_without_tight_convs() {
        let p = generate(
            &figure1(),
            GeneratorStyle::SimulinkCoder,
            &frodo_obs::Trace::noop(),
        );
        let c = emit_c_with(
            &p,
            CEmitOptions {
                shared_conv_helper: true,
                ..Default::default()
            },
        );
        // Simulink style is branchy, so the helper is unnecessary
        assert!(!c.contains("frodo_conv_range"));
    }

    /// Emits one statement in a minimal two-buffer program.
    fn emit_single(stmt: Stmt) -> String {
        use crate::lir::{Buffer, BufferRole};
        let p = Program {
            name: "single".into(),
            style: GeneratorStyle::DfSynth,
            buffers: vec![
                Buffer {
                    name: "a".into(),
                    len: 8,
                    role: BufferRole::Input(0),
                },
                Buffer {
                    name: "b".into(),
                    len: 8,
                    role: BufferRole::Output(0),
                },
                Buffer {
                    name: "t".into(),
                    len: 8,
                    role: BufferRole::Temp,
                },
            ],
            stmts: vec![stmt],
        };
        emit_c(&p)
    }

    #[test]
    fn reduce_emits_accumulator_loop() {
        use crate::lir::{BufId, Slice};
        let c = emit_single(Stmt::Reduce {
            op: ReduceOp::Mean,
            dst: Slice::new(BufId(1), 0),
            src: Slice::new(BufId(0), 0),
            len: 8,
        });
        assert!(c.contains("double acc = 0.0;"));
        assert!(c.contains("acc /= (double)8;"));
        assert!(c.contains("out0[0] = acc;"));
    }

    /// One inport of 20 elements through each of saturation, elementwise
    /// min and max (against a gain of the same inport), and the min and
    /// max of its elements, each to an outport.
    fn minmax_model() -> Analysis {
        let mut m = Model::new("minmax");
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(20),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: -2.0 }));
        m.connect(i, 0, g, 0).unwrap();
        let kinds = [
            BlockKind::Saturation {
                lower: -0.25,
                upper: 0.25,
            },
            BlockKind::Min,
            BlockKind::Max,
            BlockKind::MinOfElements,
            BlockKind::MaxOfElements,
        ];
        for (k, kind) in kinds.into_iter().enumerate() {
            let binary = matches!(kind, BlockKind::Min | BlockKind::Max);
            let b = m.add(Block::new(format!("b{k}"), kind));
            m.connect(i, 0, b, 0).unwrap();
            if binary {
                m.connect(g, 0, b, 1).unwrap();
            }
            let o = m.add(Block::new(format!("o{k}"), BlockKind::Outport { index: k }));
            m.connect(b, 0, o, 0).unwrap();
        }
        Analysis::run(m).unwrap()
    }

    #[test]
    fn min_max_and_saturation_call_no_libm_outside_the_all_nan_fallback() {
        let a = minmax_model();
        for style in GeneratorStyle::ALL {
            let c = emit_c(&generate(&a, style, &frodo_obs::Trace::noop()));
            let libm: Vec<&str> = c
                .lines()
                .map(str::trim)
                .filter(|l| l.contains("fmax(") || l.contains("fmin("))
                .collect();
            assert_eq!(libm.len(), 2, "{style}: {libm:?}");
            assert!(
                libm[0].starts_with("if (acc == INFINITY) { acc = "),
                "{style}"
            );
            assert!(
                libm[1].starts_with("if (acc == -INFINITY) { acc = "),
                "{style}"
            );
            for helper in ["frodo_max", "frodo_min"] {
                let def = format!("static inline double {helper}(double a, double b)");
                assert_eq!(c.matches(&def).count(), 1, "{style}: {helper}");
            }
            assert!(c.contains("= frodo_min(frodo_max(in0[0 + "), "{style}");
            assert!(c.contains("m[j] = x > m[j] ? x : m[j];"));
            assert!(c.contains("m[0] = x < m[0] ? x : m[0];"));
        }
        // no helpers without a statement that calls them
        let c = emit_c(&generate(
            &figure1(),
            GeneratorStyle::Frodo,
            &frodo_obs::Trace::noop(),
        ));
        assert!(!c.contains("frodo_max") && !c.contains("frodo_min"));
    }

    #[test]
    fn extremum_reductions_run_eight_lanes_and_a_tail() {
        use crate::lir::{BufId, Slice};
        let reduce = |op, len| {
            emit_single(Stmt::Reduce {
                op,
                dst: Slice::new(BufId(1), 0),
                src: Slice::new(BufId(0), 0),
                len,
            })
        };
        let c = reduce(ReduceOp::Max, 8);
        assert!(c.contains("double m[8] = {-INFINITY, -INFINITY,"));
        assert!(c.contains("for (int i = 0; i < 8; i += 8) {"));
        assert!(c.contains("for (int i = 8; i < 8; ++i) {"));
        let c = reduce(ReduceOp::Min, 7);
        assert!(c.contains("double m[8] = {INFINITY, INFINITY,"));
        assert!(c.contains("for (int i = 0; i < 0; i += 8) {"));
        assert!(c.contains("for (int i = 0; i < 7; ++i) {"));
        assert!(c.contains(
            "if (acc == INFINITY) { acc = in0[0]; \
             for (int i = 0; i < 7; ++i) { acc = fmin(acc, in0[0 + i]); } }"
        ));
        assert!(c.contains("out0[0] = acc;"));
    }

    #[test]
    fn steps_name_every_input_they_never_read() {
        use crate::lir::{Buffer, BufferRole};
        let p = Program {
            name: "unread".into(),
            style: GeneratorStyle::Frodo,
            buffers: vec![
                Buffer {
                    name: "a".into(),
                    len: 4,
                    role: BufferRole::Input(0),
                },
                Buffer {
                    name: "b".into(),
                    len: 4,
                    role: BufferRole::Input(1),
                },
                Buffer {
                    name: "y".into(),
                    len: 4,
                    role: BufferRole::Output(0),
                },
            ],
            stmts: vec![Stmt::Copy {
                dst: Slice::new(BufId(2), 0),
                src: Slice::new(BufId(1), 0),
                len: 4,
            }],
        };
        let c = emit_c(&p);
        assert!(c.contains("void unread_step(const double *in0, const double *in1, double *out0)"));
        assert!(c.contains("    (void)in0;\n"));
        assert!(!c.contains("(void)in1;"));
    }

    #[test]
    fn profiled_and_harness_c_define_posix_first() {
        let p = generate(&figure1(), GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let posix = "#define _POSIX_C_SOURCE 199309L\n/* Generated by";
        for profile in [false, true] {
            let opts = CEmitOptions {
                profile,
                ..CEmitOptions::default()
            };
            let harness = emit_c_harness_with(&p, 5, opts);
            assert!(harness.starts_with(posix), "profile {profile}");
            assert_eq!(harness.matches("_POSIX_C_SOURCE").count(), 1);
            assert_eq!(emit_c_with(&p, opts).starts_with(posix), profile);
        }
    }

    #[test]
    fn dot_emits_fma_loop() {
        use crate::lir::{BufId, Slice};
        let c = emit_single(Stmt::Dot {
            dst: Slice::new(BufId(1), 0),
            a: Slice::new(BufId(0), 0),
            b: Slice::new(BufId(2), 0),
            len: 8,
        });
        assert!(c.contains("acc += in0[0 + i] * g_t[0 + i];"));
    }

    #[test]
    fn select_emits_ternary() {
        use crate::lir::{BufId, Slice, Src};
        let c = emit_single(Stmt::Select {
            dst: Slice::new(BufId(1), 0),
            ctrl: Src::Run(Slice::new(BufId(0), 0)),
            threshold: 0.5,
            a: Src::Run(Slice::new(BufId(2), 0)),
            b: Src::Const(0.0),
            len: 8,
        });
        assert!(c.contains(">= 0.5) ?"));
    }

    #[test]
    fn dyn_gather_emits_clamped_index() {
        use crate::lir::{BufId, Slice};
        let c = emit_single(Stmt::DynGather {
            dst: Slice::new(BufId(1), 0),
            src: BufId(2),
            src_len: 8,
            idx: Slice::new(BufId(0), 0),
            len: 4,
        });
        assert!(c.contains("int j = (int)in0[0 + i];"));
        assert!(c.contains("if (j < 0) j = 0;"));
        assert!(c.contains("if (j >= 8) j = 8 - 1;"));
    }

    #[test]
    fn transpose_emits_double_loop() {
        use crate::lir::BufId;
        let c = emit_single(Stmt::Transpose {
            dst: BufId(1),
            src: BufId(0),
            rows: 2,
            cols: 4,
        });
        assert!(c.contains("out0[c * 2 + r] = in0[r * 4 + c];"));
    }

    #[test]
    fn fused_unary_nests_expressions() {
        use crate::lir::{BufId, Slice, Src, UnOp};
        let c = emit_single(Stmt::FusedUnary {
            ops: vec![UnOp::Gain(2.0), UnOp::Abs, UnOp::Bias(1.0)],
            dst: Slice::new(BufId(1), 0),
            src: Src::Run(Slice::new(BufId(0), 0)),
            len: 8,
        });
        assert!(c.contains("(fabs(((in0[0 + i]) * 2.0))) + 1.0"), "{c}");
    }

    #[test]
    fn state_buffers_carry_initializers() {
        use crate::lir::{BufId, Buffer, BufferRole};
        let p = Program {
            name: "st".into(),
            style: GeneratorStyle::Frodo,
            buffers: vec![
                Buffer {
                    name: "s".into(),
                    len: 2,
                    role: BufferRole::State(vec![1.5, -2.0]),
                },
                Buffer {
                    name: "w".into(),
                    len: 2,
                    role: BufferRole::Temp,
                },
            ],
            stmts: vec![Stmt::StateLoad {
                dst: BufId(1),
                state: BufId(0),
                len: 2,
            }],
        };
        let c = emit_c(&p);
        assert!(c.contains("static double g_s[2] = {1.5, -2.0};"));
        assert!(c.contains("memcpy(g_w, g_s, 2 * sizeof(double));"));
    }

    #[test]
    fn generated_c_is_brace_balanced() {
        for style in GeneratorStyle::ALL {
            let p = generate(&figure1(), style, &frodo_obs::Trace::noop());
            let c = emit_c_harness(&p, 10);
            let open = c.matches('{').count();
            let close = c.matches('}').count();
            assert_eq!(open, close, "style {style}");
        }
    }

    #[test]
    fn profiled_emission_carries_hooks_tables_and_dump() {
        let p = generate(&figure1(), GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let c = emit_c_with(
            &p,
            CEmitOptions {
                profile: true,
                ..CEmitOptions::default()
            },
        );
        assert!(c.contains(&format!("#define FRODO_PROF_N {}", p.stmts.len())));
        assert!(c.contains("static unsigned long long frodo_prof_now(void)"));
        assert!(c.contains("static void frodo_prof_dump(FILE *out)"));
        assert!(c.contains("\"name\\\":\\\"prof:conv\\\""));
        // every statement is bracketed by exactly one timing hook pair
        assert_eq!(
            c.matches("unsigned long long frodo_prof_t0 = frodo_prof_now();")
                .count(),
            p.stmts.len()
        );
        for i in 0..p.stmts.len() {
            assert!(c.contains(&format!("frodo_prof_record({i}, frodo_prof_t0);")));
        }
        assert_eq!(c.matches('{').count(), c.matches('}').count());
        // deterministic
        let again = emit_c_with(
            &p,
            CEmitOptions {
                profile: true,
                ..CEmitOptions::default()
            },
        );
        assert_eq!(c, again);
    }

    #[test]
    fn profiled_emission_is_off_by_default_and_byte_invisible_when_off() {
        let p = generate(&figure1(), GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let plain = emit_c(&p);
        assert!(!plain.contains("frodo_prof"));
        let explicit_off = emit_c_with(
            &p,
            CEmitOptions {
                profile: false,
                ..CEmitOptions::default()
            },
        );
        assert_eq!(plain, explicit_off);
    }

    #[test]
    fn profiled_harness_dumps_to_stderr() {
        let p = generate(&figure1(), GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let opts = CEmitOptions {
            profile: true,
            ..CEmitOptions::default()
        };
        let c = emit_c_harness_with(&p, 100, opts);
        assert!(c.contains("frodo_prof_dump(stderr);"));
        assert_eq!(c.matches('{').count(), c.matches('}').count());
        // the profiled conv helper path keeps the record hook after the
        // early-returning helper call
        let shared = emit_c_with(
            &p,
            CEmitOptions {
                shared_conv_helper: true,
                profile: true,
                ..CEmitOptions::default()
            },
        );
        assert!(shared.contains("frodo_conv_range("));
        assert!(shared.contains("frodo_prof_record("));
        assert_eq!(shared.matches('{').count(), shared.matches('}').count());
    }
}
