//! Dense `f64` tensors carried by Simulink signals.

use frodo_ranges::Shape;
use std::fmt;

/// A dense, row-major tensor of `f64` values with a [`Shape`].
///
/// Tensors are the runtime values of every signal in the reference simulator
/// and the constant payloads of `Constant` blocks.
///
/// # Example
///
/// ```
/// use frodo_model::Tensor;
/// use frodo_ranges::Shape;
///
/// let t = Tensor::matrix(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// assert_eq!(t.shape(), Shape::Matrix(2, 3));
/// assert_eq!(t.at(1, 2), 6.0);
/// assert_eq!(t.transposed().at(2, 1), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f64>,
}

impl Tensor {
    /// Creates a tensor, checking that `data.len()` matches the shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.numel()`.
    pub fn new(shape: Shape, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            shape.numel(),
            "tensor data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// A scalar tensor.
    pub fn scalar(v: f64) -> Self {
        Tensor::new(Shape::Scalar, vec![v])
    }

    /// A vector tensor.
    pub fn vector(data: Vec<f64>) -> Self {
        let n = data.len();
        Tensor::new(Shape::Vector(n), data)
    }

    /// A `rows × cols` matrix tensor from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn matrix(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        Tensor::new(Shape::Matrix(rows, cols), data)
    }

    /// An all-zero tensor of the given shape.
    pub fn zeros(shape: Shape) -> Self {
        Tensor::new(shape, vec![0.0; shape.numel()])
    }

    /// An all-`v` tensor of the given shape.
    pub fn fill(shape: Shape, v: f64) -> Self {
        Tensor::new(shape, vec![v; shape.numel()])
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// The flattened row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the flattened data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flattened data.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Element at flattened index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> f64 {
        self.data[i]
    }

    /// Element at `(row, col)` in the 2-D view.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn at(&self, row: usize, col: usize) -> f64 {
        self.data[self.shape.flatten(row, col)]
    }

    /// Reinterprets the data under a new shape with the same element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(&self, shape: Shape) -> Tensor {
        assert!(
            self.shape.same_numel(&shape),
            "cannot reshape {} to {shape}",
            self.shape
        );
        Tensor::new(shape, self.data.clone())
    }

    /// The matrix transpose (vectors become column matrices).
    pub fn transposed(&self) -> Tensor {
        let (r, c) = (self.shape.rows(), self.shape.cols());
        let mut out = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::new(self.shape.transposed(), out)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shape {
            Shape::Scalar => write!(f, "{}", self.data[0]),
            Shape::Vector(_) => write!(f, "{:?}", self.data),
            Shape::Matrix(r, c) => {
                writeln!(f, "[{r}x{c}]")?;
                for i in 0..r {
                    writeln!(f, "  {:?}", &self.data[i * c..(i + 1) * c])?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_shape() {
        assert_eq!(Tensor::scalar(2.5).shape(), Shape::Scalar);
        assert_eq!(Tensor::vector(vec![1.0, 2.0]).shape(), Shape::Vector(2));
        assert_eq!(
            Tensor::matrix(2, 2, vec![0.0; 4]).shape(),
            Shape::Matrix(2, 2)
        );
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn new_rejects_wrong_length() {
        Tensor::new(Shape::Vector(3), vec![1.0]);
    }

    #[test]
    fn zeros_and_fill() {
        assert_eq!(Tensor::zeros(Shape::Vector(3)).data(), &[0.0, 0.0, 0.0]);
        assert_eq!(Tensor::fill(Shape::Vector(2), 7.0).data(), &[7.0, 7.0]);
    }

    #[test]
    fn at_uses_row_major() {
        let t = Tensor::matrix(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.at(0, 0), 1.0);
        assert_eq!(t.at(0, 2), 3.0);
        assert_eq!(t.at(1, 0), 4.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::matrix(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let tt = t.transposed();
        assert_eq!(tt.shape(), Shape::Matrix(3, 2));
        assert_eq!(tt.at(0, 1), 4.0);
        assert_eq!(tt.transposed(), t);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::vector(vec![1.0, 2.0, 3.0, 4.0]);
        let m = t.reshaped(Shape::Matrix(2, 2));
        assert_eq!(m.at(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_numel_mismatch() {
        Tensor::vector(vec![1.0, 2.0]).reshaped(Shape::Matrix(2, 2));
    }
}
