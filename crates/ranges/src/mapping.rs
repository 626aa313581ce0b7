//! Per-port I/O mappings from the block property library.
//!
//! An I/O mapping answers: *given that a block must produce the output
//! elements in some [`IndexSet`], which elements of one particular input does
//! it need to read?* Every mapping here is **pointwise** — the requirement of
//! a set of output elements is the union of the requirements of its members —
//! which is what makes calculation-range determination exact and monotone.

use crate::{IndexSet, Interval};

/// The I/O mapping of one (output port → input port) dependency of a block.
///
/// Instances are produced by the block property library
/// (`frodo_model::proplib`) from a block's type and parameters; the paper's
/// Figure 3 corresponds to [`PortMap::Shift`] for the `Selector` block.
///
/// # Example
///
/// ```
/// use frodo_ranges::{IndexSet, PortMap};
///
/// // A same-convolution consumer needs a window of the producer's output:
/// let conv = PortMap::window(4, 5, 60);
/// let need = conv.apply(&IndexSet::from_range(10, 12));
/// assert_eq!(need, IndexSet::from_range(6, 17));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PortMap {
    /// Output element `i` reads exactly input element `i`
    /// (elementwise math: `Add`, `Gain`, `Abs`, …).
    Elementwise,
    /// Any non-empty output request needs the *entire* input
    /// (reductions, `MatrixMultiply`, `DotProduct`, scalar broadcast).
    All {
        /// Number of elements of the input signal.
        input_len: usize,
    },
    /// No output element ever reads this input (unused port).
    None,
    /// Output element `i` reads input element `i + offset`
    /// (`Selector` Start–End, `Pad` with `offset = -pad_left`).
    Shift {
        /// Signed displacement from output index to input index.
        offset: isize,
        /// Number of elements of the input signal (for clamping).
        input_len: usize,
    },
    /// Output element `k` reads the input window `[k - left, k + right]`,
    /// clipped to the input (convolution, FIR filtering, moving averages).
    Window {
        /// Window extent below the output index.
        left: usize,
        /// Window extent above the output index.
        right: usize,
        /// Number of elements of the input signal (for clamping).
        input_len: usize,
    },
    /// Output element `i` reads input element `i * stride + phase`
    /// (downsampling / decimation).
    Stride {
        /// Decimation factor (≥ 1).
        stride: usize,
        /// Offset of the first sample.
        phase: usize,
        /// Number of elements of the input signal (for clamping).
        input_len: usize,
    },
    /// 2-D transpose: output `(i, j)` of an `out_rows × out_cols` result reads
    /// input `(j, i)` of the `out_cols × out_rows` operand.
    Transpose {
        /// Rows of the *output* matrix.
        out_rows: usize,
        /// Columns of the *output* matrix.
        out_cols: usize,
    },
    /// This input occupies the contiguous output segment
    /// `[start_in_output, start_in_output + len)` (`Mux` / `Concatenate`).
    Segment {
        /// First output index produced from this input.
        start_in_output: usize,
        /// Number of output elements produced from this input (= input length).
        len: usize,
    },
    /// Pass-through except for a replaced segment: output element `i` reads
    /// input element `i` unless `i ∈ [start, end)` (the `Assignment` block's
    /// base operand, whose segment is overwritten by the other input).
    ExceptSegment {
        /// First replaced output index.
        start: usize,
        /// One past the last replaced output index.
        end: usize,
    },
    /// Row-granular dependency: output element `(r, c)` of an
    /// `out_rows × out_cols` result reads the whole row `r` of an
    /// `out_rows × in_cols` operand — the left operand of a matrix multiply.
    RowsOf {
        /// Columns of the output matrix.
        out_cols: usize,
        /// Columns of the input operand (its rows align with output rows).
        in_cols: usize,
    },
    /// Arbitrary table lookup: output `i` reads input `table[i]`
    /// (`Selector` with an index vector, permutations).
    Gather(Vec<usize>),
    /// The mapping depends on a runtime value (`Selector` in IndexPort mode,
    /// `Switch` data ports); statically we must assume the whole input.
    Dynamic {
        /// Number of elements of the input signal.
        input_len: usize,
    },
}

impl PortMap {
    /// Convenience constructor for [`PortMap::Shift`].
    pub fn shift(offset: isize, input_len: usize) -> Self {
        PortMap::Shift { offset, input_len }
    }

    /// Convenience constructor for [`PortMap::Window`].
    pub fn window(left: usize, right: usize, input_len: usize) -> Self {
        PortMap::Window {
            left,
            right,
            input_len,
        }
    }

    /// Convenience constructor for [`PortMap::All`].
    pub fn all(input_len: usize) -> Self {
        PortMap::All { input_len }
    }

    /// Derives the input elements needed to produce the requested output
    /// elements.
    ///
    /// The result is always clamped to the valid input index range, and an
    /// empty request always yields an empty requirement.
    pub fn apply(&self, request: &IndexSet) -> IndexSet {
        if request.is_empty() {
            return IndexSet::new();
        }
        match self {
            PortMap::Elementwise => request.clone(),
            PortMap::All { input_len } | PortMap::Dynamic { input_len } => {
                IndexSet::full(*input_len)
            }
            PortMap::None => IndexSet::new(),
            PortMap::Shift { offset, input_len } => request.shift(*offset).clamp_to(*input_len),
            PortMap::Window {
                left,
                right,
                input_len,
            } => request.dilate(*left, *right).clamp_to(*input_len),
            PortMap::Stride {
                stride,
                phase,
                input_len,
            } => {
                let s = (*stride).max(1);
                IndexSet::from_indices(
                    request
                        .iter()
                        .map(|i| i * s + phase)
                        .filter(|&i| i < *input_len),
                )
            }
            PortMap::Transpose { out_rows, out_cols } => {
                let (r, c) = (*out_rows, *out_cols);
                let mut ivs = Vec::new();
                for iv in request.intervals() {
                    for out_idx in iv.start..iv.end {
                        let (i, j) = (out_idx / c, out_idx % c);
                        // input is c × r, element (j, i)
                        ivs.push(Interval::point(j * r + i));
                    }
                }
                IndexSet::from_intervals(ivs)
            }
            PortMap::Segment {
                start_in_output,
                len,
            } => {
                let seg = IndexSet::from_range(*start_in_output, start_in_output + len);
                request.intersect(&seg).shift(-(*start_in_output as isize))
            }
            PortMap::ExceptSegment { start, end } => {
                request.difference(&IndexSet::from_range(*start, *end))
            }
            PortMap::RowsOf { out_cols, in_cols } => {
                let mut rows = IndexSet::new();
                for iv in request.intervals() {
                    let r0 = iv.start / out_cols;
                    let r1 = (iv.end - 1) / out_cols + 1;
                    rows = rows.union(&IndexSet::from_range(r0, r1));
                }
                IndexSet::from_intervals(
                    rows.intervals()
                        .iter()
                        .map(|iv| Interval::new(iv.start * in_cols, iv.end * in_cols)),
                )
            }
            PortMap::Gather(table) => {
                IndexSet::from_indices(request.iter().filter_map(|i| table.get(i).copied()))
            }
        }
    }

    /// Whether this mapping can ever shrink a request (i.e. whether a block
    /// behind it is a candidate for redundancy elimination).
    ///
    /// [`PortMap::All`] and [`PortMap::Dynamic`] always demand the full
    /// input, so upstream ranges cannot be reduced through them.
    pub fn is_range_transparent(&self) -> bool {
        !matches!(self, PortMap::All { .. } | PortMap::Dynamic { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_is_identity() {
        let req = IndexSet::from_range(3, 9);
        assert_eq!(PortMap::Elementwise.apply(&req), req);
    }

    #[test]
    fn all_needs_everything_for_any_request() {
        let m = PortMap::all(40);
        assert_eq!(m.apply(&IndexSet::point(0)), IndexSet::full(40));
        assert_eq!(m.apply(&IndexSet::new()), IndexSet::new());
    }

    #[test]
    fn none_needs_nothing() {
        assert_eq!(PortMap::None.apply(&IndexSet::full(10)), IndexSet::new());
    }

    #[test]
    fn shift_models_selector_start_end() {
        // Paper Figure 3: Selector picks U[5..55]; O[0]=U[5], O[49]=U[54].
        let sel = PortMap::shift(5, 60);
        assert_eq!(sel.apply(&IndexSet::point(0)), IndexSet::point(5));
        assert_eq!(sel.apply(&IndexSet::point(49)), IndexSet::point(54));
        assert_eq!(
            sel.apply(&IndexSet::from_range(0, 50)),
            IndexSet::from_range(5, 55)
        );
    }

    #[test]
    fn shift_models_pad_left() {
        // Pad with 3 zeros on the left: out[i] = in[i-3].
        let pad = PortMap::shift(-3, 10);
        // Outputs 0..3 are padding; they need no input.
        assert_eq!(pad.apply(&IndexSet::from_range(0, 3)), IndexSet::new());
        assert_eq!(
            pad.apply(&IndexSet::from_range(3, 13)),
            IndexSet::from_range(0, 10)
        );
    }

    #[test]
    fn shift_clamps_to_input() {
        let m = PortMap::shift(5, 8);
        assert_eq!(
            m.apply(&IndexSet::from_range(0, 10)),
            IndexSet::from_range(5, 8)
        );
    }

    #[test]
    fn window_models_full_convolution() {
        // Full conv of n=60 input with m=11 kernel: out[k] uses in[k-10 .. k].
        let conv = PortMap::window(10, 0, 60);
        assert_eq!(conv.apply(&IndexSet::point(0)), IndexSet::point(0));
        assert_eq!(
            conv.apply(&IndexSet::from_range(5, 55)),
            IndexSet::from_range(0, 55)
        );
        assert_eq!(
            conv.apply(&IndexSet::point(69)),
            IndexSet::from_range(59, 60)
        );
    }

    #[test]
    fn stride_models_downsample() {
        let ds = PortMap::Stride {
            stride: 3,
            phase: 1,
            input_len: 20,
        };
        assert_eq!(
            ds.apply(&IndexSet::from_range(0, 4)),
            IndexSet::from_indices([1, 4, 7, 10])
        );
        // requests past the input are dropped
        assert_eq!(ds.apply(&IndexSet::point(7)), IndexSet::new());
    }

    #[test]
    fn transpose_maps_rows_to_columns() {
        // output 2x3 ← input 3x2; out (0,1) (flat 1) ← in (1,0) (flat 2)
        let t = PortMap::Transpose {
            out_rows: 2,
            out_cols: 3,
        };
        assert_eq!(t.apply(&IndexSet::point(1)), IndexSet::point(2));
        // full output needs full input
        assert_eq!(t.apply(&IndexSet::full(6)), IndexSet::full(6));
        // one output row needs one input column (strided points)
        assert_eq!(
            t.apply(&IndexSet::from_range(0, 3)),
            IndexSet::from_indices([0, 2, 4])
        );
    }

    #[test]
    fn segment_models_concatenate() {
        // second input of a concat occupies outputs [10, 25)
        let seg = PortMap::Segment {
            start_in_output: 10,
            len: 15,
        };
        assert_eq!(seg.apply(&IndexSet::from_range(0, 10)), IndexSet::new());
        assert_eq!(
            seg.apply(&IndexSet::from_range(12, 18)),
            IndexSet::from_range(2, 8)
        );
        assert_eq!(
            seg.apply(&IndexSet::from_range(0, 100)),
            IndexSet::from_range(0, 15)
        );
    }

    #[test]
    fn except_segment_models_assignment_base() {
        let m = PortMap::ExceptSegment { start: 3, end: 6 };
        // requests inside the replaced zone need nothing from the base
        assert_eq!(m.apply(&IndexSet::from_range(3, 6)), IndexSet::new());
        // requests spanning it need only the outside parts
        assert_eq!(
            m.apply(&IndexSet::from_range(0, 10)),
            IndexSet::from_range(0, 3).union(&IndexSet::from_range(6, 10))
        );
    }

    #[test]
    fn rows_of_models_matmul_left_operand() {
        // C(4x3) = A(4x5)·B(5x3): requesting C row 1 needs A row 1 only
        let m = PortMap::RowsOf {
            out_cols: 3,
            in_cols: 5,
        };
        assert_eq!(
            m.apply(&IndexSet::from_range(3, 6)),
            IndexSet::from_range(5, 10)
        );
        // a request spanning rows 1-2 needs A rows 1-2
        assert_eq!(
            m.apply(&IndexSet::from_range(5, 7)),
            IndexSet::from_range(5, 15)
        );
        // the full output needs the full operand
        assert_eq!(m.apply(&IndexSet::full(12)), IndexSet::full(20));
    }

    #[test]
    fn gather_follows_table() {
        let g = PortMap::Gather(vec![4, 2, 0, 2]);
        assert_eq!(
            g.apply(&IndexSet::from_range(0, 4)),
            IndexSet::from_indices([0, 2, 4])
        );
        assert_eq!(g.apply(&IndexSet::point(3)), IndexSet::point(2));
        // out-of-table requests map to nothing
        assert_eq!(g.apply(&IndexSet::point(9)), IndexSet::new());
    }

    #[test]
    fn dynamic_is_conservative() {
        let d = PortMap::Dynamic { input_len: 12 };
        assert_eq!(d.apply(&IndexSet::point(3)), IndexSet::full(12));
        assert!(!d.is_range_transparent());
        assert!(PortMap::Elementwise.is_range_transparent());
    }

    /// Property tests (gated: the `proptest` crate is not vendored, so the
    /// default offline build compiles these out; re-add the dev-dependency
    /// and run `cargo test --features proptest` to enable them).
    #[cfg(feature = "proptest")]
    mod props {
        use super::*;
        use proptest::prelude::*;
        fn arb_request(max: usize) -> impl Strategy<Value = IndexSet> {
            prop::collection::vec((0..max, 0..max), 0..6).prop_map(|pairs| {
                IndexSet::from_intervals(
                    pairs
                        .into_iter()
                        .map(|(a, b)| Interval::new(a.min(b), a.max(b))),
                )
            })
        }

        fn arb_map() -> impl Strategy<Value = PortMap> {
            prop_oneof![
                Just(PortMap::Elementwise),
                (1usize..64).prop_map(|n| PortMap::all(n)),
                Just(PortMap::None),
                (-20isize..20, 1usize..64).prop_map(|(o, n)| PortMap::shift(o, n)),
                (0usize..8, 0usize..8, 1usize..64).prop_map(|(l, r, n)| PortMap::window(l, r, n)),
                (1usize..5, 0usize..4, 1usize..64).prop_map(|(s, p, n)| PortMap::Stride {
                    stride: s,
                    phase: p,
                    input_len: n
                }),
                (1usize..8, 1usize..8).prop_map(|(r, c)| PortMap::Transpose {
                    out_rows: r,
                    out_cols: c
                }),
                (0usize..32, 1usize..32).prop_map(|(s, l)| PortMap::Segment {
                    start_in_output: s,
                    len: l
                }),
                (1usize..8, 1usize..8).prop_map(|(oc, ic)| PortMap::RowsOf {
                    out_cols: oc,
                    in_cols: ic
                }),
                (0usize..24, 0usize..24).prop_map(|(a, b)| PortMap::ExceptSegment {
                    start: a.min(b),
                    end: a.max(b)
                }),
                prop::collection::vec(0usize..48, 0..32).prop_map(PortMap::Gather),
            ]
        }

        proptest! {
            #[test]
            fn prop_empty_request_empty_need(m in arb_map()) {
                prop_assert!(m.apply(&IndexSet::new()).is_empty());
            }

            #[test]
            fn prop_monotone(m in arb_map(), a in arb_request(64), b in arb_request(64)) {
                // a ⊆ a∪b  ⇒  apply(a) ⊆ apply(a∪b)
                let u = a.union(&b);
                prop_assert!(m.apply(&a).is_subset(&m.apply(&u)));
            }

            #[test]
            fn prop_union_distributes(m in arb_map(), a in arb_request(64), b in arb_request(64)) {
                // pointwise mappings: need(a ∪ b) = need(a) ∪ need(b)
                // (All/Dynamic satisfy this too since both sides are the full set
                //  whenever either request is non-empty.)
                let lhs = m.apply(&a.union(&b));
                let rhs = m.apply(&a).union(&m.apply(&b));
                prop_assert_eq!(lhs, rhs);
            }

            #[test]
            fn prop_transpose_involution(r in 1usize..8, c in 1usize..8, a in arb_request(64)) {
                // transposing a request twice through matching maps is identity
                // on requests limited to the matrix
                let fwd = PortMap::Transpose { out_rows: r, out_cols: c };
                let bwd = PortMap::Transpose { out_rows: c, out_cols: r };
                let req = a.clamp_to(r * c);
                prop_assert_eq!(bwd.apply(&fwd.apply(&req)), req);
            }
        }
    }
}
