use std::fmt;

/// Shape of a 4-D NCHW tensor: `(batch, channels, height, width)`.
///
/// The NVC pipeline always runs with `n == 1`, but the batch dimension is
/// kept so operator code reads like its textbook definition.
///
/// # Example
///
/// ```
/// use nvc_tensor::Shape;
/// let s = Shape::new(1, 36, 540, 960);
/// assert_eq!(s.volume(), 36 * 540 * 960);
/// assert_eq!(s.dims(), (1, 36, 540, 960));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
}

impl Shape {
    /// Creates a new shape. All dimensions may be zero (producing an empty
    /// tensor), which is occasionally useful in tests.
    pub fn new(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape { n, c, h, w }
    }

    /// Batch size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Channel count.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Height in rows.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Width in columns.
    pub fn w(&self) -> usize {
        self.w
    }

    /// All four dimensions as a tuple `(n, c, h, w)`.
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.n * self.c * self.h * self.w
    }

    /// Linear index of element `(n, c, h, w)` in row-major NCHW order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any coordinate is out of range.
    #[inline]
    pub fn index(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(
            n < self.n && c < self.c && h < self.h && w < self.w,
            "index ({n},{c},{h},{w}) out of bounds for shape {self}"
        );
        ((n * self.c + c) * self.h + h) * self.w + w
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}, {}, {}]", self.n, self.c, self.h, self.w)
    }
}

impl From<(usize, usize, usize, usize)> for Shape {
    fn from((n, c, h, w): (usize, usize, usize, usize)) -> Self {
        Shape::new(n, c, h, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_row_major() {
        let s = Shape::new(2, 3, 4, 5);
        assert_eq!(s.index(0, 0, 0, 0), 0);
        assert_eq!(s.index(0, 0, 0, 1), 1);
        assert_eq!(s.index(0, 0, 1, 0), 5);
        assert_eq!(s.index(0, 1, 0, 0), 20);
        assert_eq!(s.index(1, 0, 0, 0), 60);
        assert_eq!(s.index(1, 2, 3, 4), 2 * 60 - 1);
    }

    #[test]
    fn volume_and_accessors() {
        let s = Shape::new(1, 36, 8, 16);
        assert_eq!(s.volume(), 36 * 128);
        assert_eq!(s.n(), 1);
        assert_eq!(s.c(), 36);
        assert_eq!(s.h(), 8);
        assert_eq!(s.w(), 16);
    }

    #[test]
    fn display_and_from_tuple() {
        let s: Shape = (1, 2, 3, 4).into();
        assert_eq!(s.to_string(), "[1, 2, 3, 4]");
    }
}
