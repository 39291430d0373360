use nvc_tensor::{Shape, Tensor, TensorError};
use std::error::Error;
use std::fmt;

/// Error type for frame and sequence operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VideoError {
    /// Frame dimensions are invalid or inconsistent.
    BadDimensions {
        /// Human-readable description.
        reason: String,
    },
    /// An underlying tensor operation failed.
    Tensor(TensorError),
}

impl fmt::Display for VideoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VideoError::BadDimensions { reason } => write!(f, "bad dimensions: {reason}"),
            VideoError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl Error for VideoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VideoError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for VideoError {
    fn from(e: TensorError) -> Self {
        VideoError::Tensor(e)
    }
}

/// A single RGB video frame: a `1 × 3 × h × w` tensor with values
/// nominally in `[0, 1]`.
///
/// # Example
///
/// ```
/// use nvc_video::Frame;
/// # fn main() -> Result<(), nvc_video::VideoError> {
/// let f = Frame::filled(32, 18, [0.5, 0.25, 0.75])?;
/// assert_eq!((f.width(), f.height()), (32, 18));
/// let y = f.luma();
/// assert_eq!(y.shape().dims(), (1, 1, 18, 32));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    rgb: Tensor,
}

impl Frame {
    /// Creates a frame from an RGB tensor.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::BadDimensions`] unless the tensor is
    /// `1 × 3 × h × w` with non-zero spatial size.
    pub fn from_tensor(rgb: Tensor) -> Result<Self, VideoError> {
        let (n, c, h, w) = rgb.shape().dims();
        if n != 1 || c != 3 || h == 0 || w == 0 {
            return Err(VideoError::BadDimensions {
                reason: format!("expected 1x3xHxW, got {:?}", rgb.shape().dims()),
            });
        }
        Ok(Frame { rgb })
    }

    /// Creates a constant-colour frame.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::BadDimensions`] if `width` or `height` is 0.
    pub fn filled(width: usize, height: usize, rgb: [f32; 3]) -> Result<Self, VideoError> {
        if width == 0 || height == 0 {
            return Err(VideoError::BadDimensions {
                reason: "zero spatial size".into(),
            });
        }
        let t = Tensor::from_fn(Shape::new(1, 3, height, width), |_, c, _, _| rgb[c]);
        Frame::from_tensor(t)
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.rgb.shape().w()
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.rgb.shape().h()
    }

    /// The underlying `1 × 3 × h × w` tensor.
    pub fn tensor(&self) -> &Tensor {
        &self.rgb
    }

    /// BT.601 luma plane as a `1 × 1 × h × w` tensor.
    pub fn luma(&self) -> Tensor {
        let (_, _, h, w) = self.rgb.shape().dims();
        Tensor::from_fn(Shape::new(1, 1, h, w), |_, _, y, x| {
            0.299 * self.rgb.at(0, 0, y, x)
                + 0.587 * self.rgb.at(0, 1, y, x)
                + 0.114 * self.rgb.at(0, 2, y, x)
        })
    }

    /// Returns a copy with all samples clamped to `[0, 1]`.
    pub fn clamped(&self) -> Frame {
        Frame {
            rgb: self.rgb.map(|v| v.clamp(0.0, 1.0)),
        }
    }

    /// Number of pixels (`h · w`).
    pub fn pixels(&self) -> usize {
        self.width() * self.height()
    }
}

/// An ordered sequence of equally-sized frames with a frame rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequence {
    name: String,
    frames: Vec<Frame>,
    fps: f64,
}

impl Sequence {
    /// Creates a sequence.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::BadDimensions`] if frames disagree in size,
    /// the list is empty, or `fps` is not positive.
    pub fn new(name: impl Into<String>, frames: Vec<Frame>, fps: f64) -> Result<Self, VideoError> {
        if frames.is_empty() {
            return Err(VideoError::BadDimensions {
                reason: "empty sequence".into(),
            });
        }
        if !(fps.is_finite() && fps > 0.0) {
            return Err(VideoError::BadDimensions {
                reason: format!("bad fps {fps}"),
            });
        }
        let (w, h) = (frames[0].width(), frames[0].height());
        for (i, f) in frames.iter().enumerate() {
            if f.width() != w || f.height() != h {
                return Err(VideoError::BadDimensions {
                    reason: format!(
                        "frame {i} is {}x{}, expected {w}x{h}",
                        f.width(),
                        f.height()
                    ),
                });
            }
        }
        Ok(Sequence {
            name: name.into(),
            frames,
            fps,
        })
    }

    /// Sequence name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The frames, in display order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Frames per second.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.frames[0].width()
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.frames[0].height()
    }

    /// Pixels per frame.
    pub fn pixels_per_frame(&self) -> usize {
        self.frames[0].pixels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_validation() {
        assert!(Frame::filled(0, 4, [0.0; 3]).is_err());
        let t = Tensor::zeros(Shape::new(1, 4, 4, 4));
        assert!(Frame::from_tensor(t).is_err());
        let t = Tensor::zeros(Shape::new(2, 3, 4, 4));
        assert!(Frame::from_tensor(t).is_err());
        assert!(Frame::filled(8, 8, [0.1, 0.2, 0.3]).is_ok());
    }

    #[test]
    fn luma_weights_sum_to_one() {
        let f = Frame::filled(4, 4, [1.0, 1.0, 1.0]).unwrap();
        let y = f.luma();
        assert!((y.at(0, 0, 2, 2) - 1.0).abs() < 1e-5);
        let red = Frame::filled(4, 4, [1.0, 0.0, 0.0]).unwrap();
        assert!((red.luma().at(0, 0, 0, 0) - 0.299).abs() < 1e-5);
    }

    #[test]
    fn clamped_restricts_range() {
        let t = Tensor::from_fn(Shape::new(1, 3, 2, 2), |_, c, _, _| c as f32 * 2.0 - 1.5);
        let f = Frame::from_tensor(t).unwrap().clamped();
        for v in f.tensor().as_slice() {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn sequence_validation() {
        let a = Frame::filled(8, 4, [0.0; 3]).unwrap();
        let b = Frame::filled(8, 4, [1.0; 3]).unwrap();
        let seq = Sequence::new("t", vec![a.clone(), b], 30.0).unwrap();
        assert_eq!(seq.frames().len(), 2);
        assert_eq!(seq.width(), 8);
        assert_eq!(seq.pixels_per_frame(), 32);
        let c = Frame::filled(4, 4, [0.5; 3]).unwrap();
        assert!(Sequence::new("bad", vec![a.clone(), c], 30.0).is_err());
        assert!(Sequence::new("bad", vec![], 30.0).is_err());
        assert!(Sequence::new("bad", vec![a], 0.0).is_err());
    }
}
