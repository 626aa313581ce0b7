//! Half-open index intervals.

use std::fmt;

/// A half-open interval `[start, end)` over flattened element indices.
///
/// Intervals are the building blocks of [`IndexSet`](crate::IndexSet); an
/// empty interval (`start >= end`) is permitted as a transient value but is
/// never stored inside a canonical `IndexSet`.
///
/// # Example
///
/// ```
/// use frodo_ranges::Interval;
///
/// let iv = Interval::new(5, 55);
/// assert_eq!(iv.len(), 50);
/// assert!(iv.contains(5));
/// assert!(!iv.contains(55));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// Inclusive lower bound.
    pub start: usize,
    /// Exclusive upper bound.
    pub end: usize,
}

impl Interval {
    /// Creates the interval `[start, end)`.
    ///
    /// `start > end` is normalized to the canonical empty interval at `start`.
    pub fn new(start: usize, end: usize) -> Self {
        Interval {
            start,
            end: end.max(start),
        }
    }

    /// The interval covering a single index.
    pub fn point(idx: usize) -> Self {
        Interval::new(idx, idx + 1)
    }

    /// Number of indices contained.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the interval contains no indices.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Whether `idx` lies inside the interval.
    pub fn contains(&self, idx: usize) -> bool {
        self.start <= idx && idx < self.end
    }

    /// Intersection of two intervals (possibly empty).
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval::new(self.start.max(other.start), self.end.min(other.end))
    }

    /// Whether the two intervals overlap or touch (so their union is one interval).
    pub fn touches(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Translates by a signed offset, saturating at zero.
    ///
    /// Indices that would become negative are dropped (the interval is clipped
    /// at zero), matching the clamping behaviour of boundary-sensitive blocks
    /// such as `Pad`.
    pub fn shift(&self, offset: isize) -> Interval {
        if offset >= 0 {
            let off = offset as usize;
            Interval::new(self.start + off, self.end + off)
        } else {
            let off = (-offset) as usize;
            Interval::new(self.start.saturating_sub(off), self.end.saturating_sub(off))
        }
    }

    /// Clamps the interval into `[0, len)`.
    pub fn clamp_to(&self, len: usize) -> Interval {
        Interval::new(self.start.min(len), self.end.min(len))
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl From<std::ops::Range<usize>> for Interval {
    fn from(r: std::ops::Range<usize>) -> Self {
        Interval::new(r.start, r.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_inverted_bounds() {
        let iv = Interval::new(10, 3);
        assert!(iv.is_empty());
        assert_eq!(iv.len(), 0);
    }

    #[test]
    fn point_has_len_one() {
        let iv = Interval::point(7);
        assert_eq!(iv.len(), 1);
        assert!(iv.contains(7));
        assert!(!iv.contains(8));
    }

    #[test]
    fn contains_is_half_open() {
        let iv = Interval::new(2, 5);
        assert!(!iv.contains(1));
        assert!(iv.contains(2));
        assert!(iv.contains(4));
        assert!(!iv.contains(5));
    }

    #[test]
    fn intersect_overlapping() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 15);
        assert_eq!(a.intersect(&b), Interval::new(5, 10));
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = Interval::new(0, 3);
        let b = Interval::new(5, 9);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn touching_but_not_overlapping() {
        let a = Interval::new(0, 5);
        let b = Interval::new(5, 9);
        assert!(a.touches(&b));
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn shift_positive_and_negative() {
        let iv = Interval::new(3, 8);
        assert_eq!(iv.shift(4), Interval::new(7, 12));
        assert_eq!(iv.shift(-2), Interval::new(1, 6));
    }

    #[test]
    fn shift_negative_clips_at_zero() {
        let iv = Interval::new(2, 6);
        assert_eq!(iv.shift(-4), Interval::new(0, 2));
        assert!(iv.shift(-10).is_empty());
    }

    #[test]
    fn clamp_to_truncates() {
        let iv = Interval::new(3, 20);
        assert_eq!(iv.clamp_to(10), Interval::new(3, 10));
        assert!(iv.clamp_to(2).is_empty());
    }

    #[test]
    fn display_formats_half_open() {
        assert_eq!(Interval::new(1, 4).to_string(), "[1, 4)");
    }

    #[test]
    fn from_range() {
        let iv: Interval = (3..9).into();
        assert_eq!(iv, Interval::new(3, 9));
    }
}
