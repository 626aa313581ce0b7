//! Element-level read/write sets of [`Stmt`]s — the single source of
//! truth shared by the soundness checker and the dataflow analyses in
//! `frodo-verify`.
//!
//! [`stmt_access`] mirrors the exact element accesses of the reference VM
//! in `frodo-sim`: for every statement it returns which buffer elements
//! are read and which are written, as [`IndexSet`]s. Degenerate
//! statements (zero-length runs, clamp bounds outside their source
//! extent) are rejected with a [`Malformed`] reason instead of a set.
//!
//! The sets are **emission-invariant**: every [`VectorMode`]
//! (`auto`/`hints`/`batch:W`) changes only the loop *shape* of the
//! emitted C, never the set of elements a statement touches, so one
//! accessor serves all vector modes. State crosses invocations only
//! through the unit-delay statements (`StateLoad` reads the state buffer,
//! `StateStore` writes it), whose sets here are plain runs.
//!
//! [`VectorMode`]: crate::VectorMode

use crate::lir::{BufId, Program, Slice, Src, Stmt};
use frodo_ranges::IndexSet;

/// One element access: which buffer, which elements, and a short operand
/// label ("src", "coeffs", …) for diagnostics.
#[derive(Debug, Clone)]
pub struct Access {
    /// The accessed buffer.
    pub buf: BufId,
    /// The accessed elements.
    pub set: IndexSet,
    /// Operand label for diagnostics ("src", "lhs", "state", …).
    pub what: &'static str,
}

/// The full element-access footprint of one statement.
#[derive(Debug, Clone, Default)]
pub struct StmtAccess {
    /// Elements read, in operand order.
    pub reads: Vec<Access>,
    /// Elements written, in operand order.
    pub writes: Vec<Access>,
}

impl StmtAccess {
    /// Union of read elements of `buf` across all read accesses.
    pub fn reads_of(&self, buf: BufId) -> IndexSet {
        union_of(&self.reads, buf)
    }

    /// Union of written elements of `buf` across all write accesses.
    pub fn writes_of(&self, buf: BufId) -> IndexSet {
        union_of(&self.writes, buf)
    }
}

/// A degenerate statement the VM would reject: which buffer the problem
/// is about and why (the F105 diagnostic reason).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed {
    /// The buffer the defect is about.
    pub buf: BufId,
    /// Stable human-readable reason.
    pub reason: &'static str,
}

fn union_of(accesses: &[Access], buf: BufId) -> IndexSet {
    let mut out = IndexSet::new();
    for a in accesses {
        if a.buf == buf {
            out = out.union(&a.set);
        }
    }
    out
}

fn run(buf: BufId, off: usize, len: usize, what: &'static str) -> Access {
    Access {
        buf,
        set: IndexSet::from_range(off, off + len),
        what,
    }
}

fn slice(s: Slice, len: usize, what: &'static str) -> Access {
    run(s.buf, s.off, len, what)
}

fn src(s: &Src, len: usize, what: &'static str) -> Option<Access> {
    match s {
        Src::Run(sl) => Some(slice(*sl, len, what)),
        Src::Broadcast(sl) => Some(run(sl.buf, sl.off, 1, what)),
        Src::Const(_) => None,
    }
}

/// Derives the exact element read/write sets of one statement, mirroring
/// the reference VM's accesses. Returns [`Malformed`] for degenerate
/// statements.
///
/// # Errors
///
/// A [`Malformed`] value naming the offending buffer and the reason, for
/// statements the VM would reject (empty runs, clamp bounds outside the
/// source extent).
pub fn stmt_access(program: &Program, stmt: &Stmt) -> Result<StmtAccess, Malformed> {
    let mut acc = StmtAccess::default();
    let malformed = |buf: BufId, reason: &'static str| Err(Malformed { buf, reason });
    match stmt {
        Stmt::Unary {
            dst, src: s, len, ..
        }
        | Stmt::FusedUnary {
            dst, src: s, len, ..
        } => {
            if *len == 0 {
                return malformed(dst.buf, "zero-length run");
            }
            acc.reads.extend(src(s, *len, "src"));
            acc.writes.push(slice(*dst, *len, "dst"));
        }
        Stmt::Binary { dst, a, b, len, .. } => {
            if *len == 0 {
                return malformed(dst.buf, "zero-length run");
            }
            acc.reads.extend(src(a, *len, "lhs"));
            acc.reads.extend(src(b, *len, "rhs"));
            acc.writes.push(slice(*dst, *len, "dst"));
        }
        Stmt::Select {
            dst,
            ctrl,
            a,
            b,
            len,
            ..
        } => {
            if *len == 0 {
                return malformed(dst.buf, "zero-length run");
            }
            acc.reads.extend(src(ctrl, *len, "ctrl"));
            acc.reads.extend(src(a, *len, "then"));
            acc.reads.extend(src(b, *len, "else"));
            acc.writes.push(slice(*dst, *len, "dst"));
        }
        Stmt::Copy { dst, src: s, len } => {
            if *len == 0 {
                return malformed(dst.buf, "zero-length run");
            }
            acc.reads.push(slice(*s, *len, "src"));
            acc.writes.push(slice(*dst, *len, "dst"));
        }
        Stmt::Fill { dst, len, .. } => {
            if *len == 0 {
                return malformed(dst.buf, "zero-length run");
            }
            acc.writes.push(slice(*dst, *len, "dst"));
        }
        Stmt::Gather {
            dst,
            src: s,
            indices,
        } => {
            if indices.is_empty() {
                return malformed(dst.buf, "empty gather index vector");
            }
            acc.reads.push(Access {
                buf: *s,
                set: IndexSet::from_indices(indices.iter().copied()),
                what: "gather",
            });
            acc.writes.push(slice(*dst, indices.len(), "dst"));
        }
        Stmt::DynGather {
            dst,
            src: s,
            src_len,
            idx,
            len,
        } => {
            if *len == 0 {
                return malformed(dst.buf, "zero-length run");
            }
            if *src_len == 0 || *src_len > program.buffer(*s).len {
                return malformed(*s, "dynamic gather clamp bound outside the source extent");
            }
            // runtime indices clamp into [0, src_len): the whole prefix
            // is conservatively readable
            acc.reads.push(run(*s, 0, *src_len, "gather"));
            acc.reads.push(slice(*idx, *len, "indices"));
            acc.writes.push(slice(*dst, *len, "dst"));
        }
        Stmt::Reduce {
            dst, src: s, len, ..
        } => {
            if *len == 0 {
                return malformed(dst.buf, "zero-length reduction");
            }
            acc.reads.push(slice(*s, *len, "src"));
            acc.writes.push(slice(*dst, 1, "dst"));
        }
        Stmt::Dot { dst, a, b, len } => {
            if *len == 0 {
                return malformed(dst.buf, "zero-length dot product");
            }
            acc.reads.push(slice(*a, *len, "lhs"));
            acc.reads.push(slice(*b, *len, "rhs"));
            acc.writes.push(slice(*dst, 1, "dst"));
        }
        Stmt::Conv {
            dst,
            u,
            u_len,
            v,
            v_len,
            k0,
            k1,
            ..
        } => {
            if *k0 >= *k1 || *u_len == 0 || *v_len == 0 {
                return malformed(*dst, "empty convolution run");
            }
            let kmax = (*k1 - 1).min(*u_len + *v_len - 2);
            acc.reads.push(Access {
                buf: *u,
                set: IndexSet::from_range(k0.saturating_sub(*v_len - 1), kmax.min(*u_len - 1) + 1),
                what: "u",
            });
            acc.reads.push(Access {
                buf: *v,
                set: IndexSet::from_range(k0.saturating_sub(*u_len - 1), kmax.min(*v_len - 1) + 1),
                what: "v",
            });
            acc.writes.push(run(*dst, *k0, *k1 - *k0, "dst"));
        }
        Stmt::Fir {
            dst,
            src: s,
            coeffs,
            taps,
            k0,
            k1,
        } => {
            if *k0 >= *k1 || *taps == 0 {
                return malformed(*dst, "empty FIR run");
            }
            acc.reads.push(Access {
                buf: *s,
                set: IndexSet::from_range(k0.saturating_sub(*taps - 1), *k1),
                what: "src",
            });
            acc.reads
                .push(run(*coeffs, 0, (*k1 - 1).min(*taps - 1) + 1, "coeffs"));
            acc.writes.push(run(*dst, *k0, *k1 - *k0, "dst"));
        }
        Stmt::MovingAvg {
            dst,
            src: s,
            window,
            k0,
            k1,
        } => {
            if *k0 >= *k1 || *window == 0 {
                return malformed(*dst, "empty moving-average run");
            }
            acc.reads.push(Access {
                buf: *s,
                set: IndexSet::from_range(k0.saturating_sub(*window - 1), *k1),
                what: "src",
            });
            acc.writes.push(run(*dst, *k0, *k1 - *k0, "dst"));
        }
        Stmt::CumSum { dst, src: s, k_end } => {
            if *k_end == 0 {
                return malformed(*dst, "empty cumulative-sum prefix");
            }
            acc.reads.push(run(*s, 0, *k_end, "src"));
            acc.writes.push(run(*dst, 0, *k_end, "dst"));
        }
        Stmt::Diff {
            dst,
            src: s,
            k0,
            k1,
        } => {
            if *k0 >= *k1 {
                return malformed(*dst, "empty difference run");
            }
            let lo = if *k0 == 0 { 0 } else { *k0 - 1 };
            acc.reads.push(run(*s, lo, *k1 - lo, "src"));
            acc.writes.push(run(*dst, *k0, *k1 - *k0, "dst"));
        }
        Stmt::MatMul {
            dst,
            a,
            b,
            m,
            k,
            n,
            r0,
            r1,
        } => {
            if *r0 >= *r1 || *r1 > *m || *k == 0 || *n == 0 {
                return malformed(*dst, "empty or out-of-shape matmul row run");
            }
            acc.reads.push(run(*a, r0 * k, (*r1 - *r0) * k, "lhs rows"));
            acc.reads.push(run(*b, 0, k * n, "rhs"));
            acc.writes
                .push(run(*dst, r0 * n, (*r1 - *r0) * n, "dst rows"));
        }
        Stmt::Transpose {
            dst,
            src: s,
            rows,
            cols,
        } => {
            if *rows == 0 || *cols == 0 {
                return malformed(*dst, "empty transpose");
            }
            acc.reads.push(run(*s, 0, rows * cols, "src"));
            acc.writes.push(run(*dst, 0, rows * cols, "dst"));
        }
        Stmt::StateLoad { dst, state, len } => {
            if *len == 0 {
                return malformed(*dst, "zero-length state load");
            }
            acc.reads.push(run(*state, 0, *len, "state"));
            acc.writes.push(run(*dst, 0, *len, "dst"));
        }
        Stmt::StateStore { state, src: s, len } => {
            if *len == 0 {
                return malformed(*state, "zero-length state store");
            }
            acc.reads.push(run(*s, 0, *len, "src"));
            acc.writes.push(run(*state, 0, *len, "state"));
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lir::{Buffer, BufferRole, ConvStyle, UnOp};
    use crate::GeneratorStyle;

    fn program(stmts: Vec<Stmt>) -> Program {
        Program {
            name: "t".into(),
            style: GeneratorStyle::Frodo,
            buffers: vec![
                Buffer {
                    name: "in0".into(),
                    len: 16,
                    role: BufferRole::Input(0),
                },
                Buffer {
                    name: "t0".into(),
                    len: 16,
                    role: BufferRole::Temp,
                },
                Buffer {
                    name: "out0".into(),
                    len: 16,
                    role: BufferRole::Output(0),
                },
            ],
            stmts,
        }
    }

    #[test]
    fn unary_run_reads_and_writes_match() {
        let p = program(vec![]);
        let s = Stmt::Unary {
            op: UnOp::Abs,
            dst: Slice::new(BufId(1), 2),
            src: Src::Run(Slice::new(BufId(0), 4)),
            len: 5,
        };
        let a = stmt_access(&p, &s).unwrap();
        assert_eq!(a.reads_of(BufId(0)), IndexSet::from_range(4, 9));
        assert_eq!(a.writes_of(BufId(1)), IndexSet::from_range(2, 7));
        assert!(a.reads_of(BufId(1)).is_empty());
    }

    #[test]
    fn conv_reads_mirror_the_vm_window() {
        // u(8) * v(3): outputs [4, 9) read u[2..8] and v[0..3]
        let p = Program {
            name: "c".into(),
            style: GeneratorStyle::Frodo,
            buffers: vec![
                Buffer {
                    name: "u".into(),
                    len: 8,
                    role: BufferRole::Input(0),
                },
                Buffer {
                    name: "v".into(),
                    len: 3,
                    role: BufferRole::Const(vec![1.0; 3]),
                },
                Buffer {
                    name: "out0".into(),
                    len: 10,
                    role: BufferRole::Output(0),
                },
            ],
            stmts: vec![],
        };
        let s = Stmt::Conv {
            dst: BufId(2),
            u: BufId(0),
            u_len: 8,
            v: BufId(1),
            v_len: 3,
            k0: 4,
            k1: 9,
            style: ConvStyle::Tight,
        };
        let a = stmt_access(&p, &s).unwrap();
        assert_eq!(a.reads_of(BufId(0)), IndexSet::from_range(2, 8));
        assert_eq!(a.reads_of(BufId(1)), IndexSet::from_range(0, 3));
        assert_eq!(a.writes_of(BufId(2)), IndexSet::from_range(4, 9));
    }

    #[test]
    fn zero_length_run_is_malformed() {
        let p = program(vec![]);
        let s = Stmt::Copy {
            dst: Slice::new(BufId(2), 0),
            src: Slice::new(BufId(0), 0),
            len: 0,
        };
        let m = stmt_access(&p, &s).unwrap_err();
        assert_eq!(m.buf, BufId(2));
        assert_eq!(m.reason, "zero-length run");
    }
}
