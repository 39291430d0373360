//! Workload description consumed by the simulator.

/// One operator instance with concrete shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimOp {
    /// 3×3 convolution, Winograd-eligible when `stride == 1`.
    Conv3x3 {
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Output height.
        h_out: usize,
        /// Output width.
        w_out: usize,
        /// Stride.
        stride: usize,
    },
    /// 1×1 convolution (runs on the array in plain MAC mode).
    Conv1x1 {
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Output height.
        h_out: usize,
        /// Output width.
        w_out: usize,
    },
    /// 4×4 stride-2 transposed convolution, FTA-eligible.
    Deconv4x4 {
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Output height (2× input).
        h_out: usize,
        /// Output width (2× input).
        w_out: usize,
    },
    /// Deformable 3×3 convolution (runs on the DCC).
    DfConv3x3 {
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Output height.
        h_out: usize,
        /// Output width.
        w_out: usize,
        /// Deformable groups.
        groups: usize,
    },
    /// Windowed self-attention (plain MAC mode).
    Attention {
        /// Channels.
        c: usize,
        /// Spatial height.
        h: usize,
        /// Spatial width.
        w: usize,
        /// Window size.
        window: usize,
        /// Heads.
        heads: usize,
    },
    /// Max pooling (element traffic, negligible compute).
    Pool {
        /// Channels.
        c: usize,
        /// Output height.
        h_out: usize,
        /// Output width.
        w_out: usize,
        /// Window.
        k: usize,
    },
}

impl SimOp {
    /// Direct-algorithm multiply–accumulates of the operator.
    pub fn macs(&self) -> u64 {
        match *self {
            SimOp::Conv3x3 {
                c_in,
                c_out,
                h_out,
                w_out,
                ..
            } => (c_in * c_out * 9) as u64 * (h_out * w_out) as u64,
            SimOp::Conv1x1 {
                c_in,
                c_out,
                h_out,
                w_out,
            } => (c_in * c_out) as u64 * (h_out * w_out) as u64,
            SimOp::Deconv4x4 {
                c_in,
                c_out,
                h_out,
                w_out,
            } => (c_in * c_out * 16) as u64 * ((h_out / 2) * (w_out / 2)) as u64,
            SimOp::DfConv3x3 {
                c_in,
                c_out,
                h_out,
                w_out,
                ..
            } => (c_in * c_out * 9) as u64 * (h_out * w_out) as u64,
            SimOp::Attention {
                c,
                h,
                w,
                window,
                heads,
            } => {
                let t = (window * window) as u64;
                let windows = (h.div_ceil(window) * w.div_ceil(window)) as u64;
                let d = (c / heads.max(1)) as u64;
                windows * (2 * t * (c * c) as u64 + heads as u64 * 2 * t * t * d)
            }
            SimOp::Pool { .. } => 0,
        }
    }

    /// Input activation elements.
    pub fn input_elems(&self) -> u64 {
        match *self {
            SimOp::Conv3x3 {
                c_in,
                h_out,
                w_out,
                stride,
                ..
            } => (c_in * h_out * stride * w_out * stride) as u64,
            SimOp::Conv1x1 {
                c_in, h_out, w_out, ..
            } => (c_in * h_out * w_out) as u64,
            SimOp::Deconv4x4 {
                c_in, h_out, w_out, ..
            } => (c_in * (h_out / 2) * (w_out / 2)) as u64,
            SimOp::DfConv3x3 {
                c_in, h_out, w_out, ..
            } => {
                // Input features plus the offset field (2·G·9 channels).
                (c_in * h_out * w_out) as u64 + (36 * h_out * w_out) as u64
            }
            SimOp::Attention { c, h, w, .. } => (c * h * w) as u64,
            SimOp::Pool { c, h_out, w_out, k } => (c * h_out * k * w_out * k) as u64,
        }
    }

    /// Output activation dimensions `(channels, height, width)`.
    pub fn output_dims(&self) -> (usize, usize, usize) {
        match *self {
            SimOp::Conv3x3 {
                c_out,
                h_out,
                w_out,
                ..
            }
            | SimOp::Conv1x1 {
                c_out,
                h_out,
                w_out,
                ..
            }
            | SimOp::Deconv4x4 {
                c_out,
                h_out,
                w_out,
                ..
            }
            | SimOp::DfConv3x3 {
                c_out,
                h_out,
                w_out,
                ..
            } => (c_out, h_out, w_out),
            SimOp::Attention { c, h, w, .. } => (c, h, w),
            SimOp::Pool {
                c, h_out, w_out, ..
            } => (c, h_out, w_out),
        }
    }

    /// Output activation elements.
    pub fn output_elems(&self) -> u64 {
        let (c, h, w) = self.output_dims();
        (c * h * w) as u64
    }

    /// Weight elements (dense).
    pub fn weight_elems(&self) -> u64 {
        match *self {
            SimOp::Conv3x3 { c_in, c_out, .. } | SimOp::DfConv3x3 { c_in, c_out, .. } => {
                (c_in * c_out * 9) as u64
            }
            SimOp::Conv1x1 { c_in, c_out, .. } => (c_in * c_out) as u64,
            SimOp::Deconv4x4 { c_in, c_out, .. } => (c_in * c_out * 16) as u64,
            SimOp::Attention { c, .. } => (2 * c * c) as u64,
            SimOp::Pool { .. } => 0,
        }
    }

    /// Whether the SFTC has a fast-transform mode for this operator.
    pub fn fast_transform(&self) -> Option<&'static str> {
        match self {
            SimOp::Conv3x3 { stride: 1, .. } => Some("winograd"),
            SimOp::Deconv4x4 { .. } => Some("fta"),
            _ => None,
        }
    }

    /// Whether adjacent layers of this kind may be fused into a
    /// heterogeneous chain. Convs preserve resolution and DeConvs
    /// terminate a chain (Fig. 7); pooling is a row-streaming reduction
    /// that fuses with its producer for free. DfConv (separate core) and
    /// attention (global window reshuffling) break chains.
    pub fn chainable(&self) -> bool {
        matches!(
            self,
            SimOp::Conv3x3 { stride: 1, .. }
                | SimOp::Conv1x1 { .. }
                | SimOp::Deconv4x4 { .. }
                | SimOp::Pool { .. }
        )
    }
}

/// One named layer of the workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimLayer {
    /// Layer name.
    pub name: String,
    /// Module name (Fig. 9(b) granularity).
    pub module: &'static str,
    /// The operator.
    pub op: SimOp,
}

impl SimLayer {
    /// Creates a layer.
    pub fn new(name: impl Into<String>, module: &'static str, op: SimOp) -> Self {
        SimLayer {
            name: name.into(),
            module,
            op,
        }
    }
}

/// A full per-frame workload (ordered layer list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    layers: Vec<SimLayer>,
}

impl Workload {
    /// Creates a workload from ordered layers.
    pub fn new(layers: Vec<SimLayer>) -> Self {
        Workload { layers }
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[SimLayer] {
        &self.layers
    }

    /// Total direct-equivalent MACs.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.op.macs()).sum()
    }

    /// Module names in first-appearance order.
    pub fn modules(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for l in &self.layers {
            if !seen.contains(&l.module) {
                seen.push(l.module);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_counts_match_formulae() {
        let conv = SimOp::Conv3x3 {
            c_in: 4,
            c_out: 8,
            h_out: 10,
            w_out: 10,
            stride: 1,
        };
        assert_eq!(conv.macs(), 4 * 8 * 9 * 100);
        let deconv = SimOp::Deconv4x4 {
            c_in: 4,
            c_out: 8,
            h_out: 20,
            w_out: 20,
        };
        assert_eq!(deconv.macs(), 4 * 8 * 16 * 100);
        assert_eq!(
            SimOp::Pool {
                c: 3,
                h_out: 5,
                w_out: 5,
                k: 2
            }
            .macs(),
            0
        );
    }

    #[test]
    fn fast_transform_classification() {
        assert_eq!(
            SimOp::Conv3x3 {
                c_in: 1,
                c_out: 1,
                h_out: 1,
                w_out: 1,
                stride: 1
            }
            .fast_transform(),
            Some("winograd")
        );
        assert_eq!(
            SimOp::Conv3x3 {
                c_in: 1,
                c_out: 1,
                h_out: 1,
                w_out: 1,
                stride: 2
            }
            .fast_transform(),
            None
        );
        assert_eq!(
            SimOp::Deconv4x4 {
                c_in: 1,
                c_out: 1,
                h_out: 2,
                w_out: 2
            }
            .fast_transform(),
            Some("fta")
        );
        assert_eq!(
            SimOp::DfConv3x3 {
                c_in: 1,
                c_out: 1,
                h_out: 1,
                w_out: 1,
                groups: 2
            }
            .fast_transform(),
            None
        );
    }

    #[test]
    fn workload_aggregation() {
        let wl = Workload::new(vec![
            SimLayer::new(
                "a",
                "m1",
                SimOp::Conv3x3 {
                    c_in: 2,
                    c_out: 2,
                    h_out: 4,
                    w_out: 4,
                    stride: 1,
                },
            ),
            SimLayer::new(
                "b",
                "m2",
                SimOp::Conv1x1 {
                    c_in: 2,
                    c_out: 2,
                    h_out: 4,
                    w_out: 4,
                },
            ),
            SimLayer::new(
                "c",
                "m1",
                SimOp::Pool {
                    c: 2,
                    h_out: 2,
                    w_out: 2,
                    k: 2,
                },
            ),
        ]);
        assert_eq!(wl.total_macs(), 2 * 2 * 9 * 16 + 2 * 2 * 16);
        assert_eq!(wl.modules(), vec!["m1", "m2"]);
    }
}
