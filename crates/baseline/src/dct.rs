//! 8×8 DCT-II / DCT-III transform pair, dead-zone quantization and zig-zag
//! scanning — the transform toolbox of the classical hybrid codec.
//!
//! The basis and the scan order are tables built once per process, on
//! first use, by `dct_basis` and `scan_order`; the tests hold every
//! entry, and every transform, to those expressions bit for bit.

use std::sync::OnceLock;

/// Transform block size.
pub const BS: usize = 8;

fn dct_basis(u: usize, x: usize) -> f32 {
    let n = BS as f32;
    let scale = if u == 0 {
        (1.0 / n).sqrt()
    } else {
        (2.0 / n).sqrt()
    };
    scale * ((std::f32::consts::PI * (x as f32 + 0.5) * u as f32) / n).cos()
}

/// `dct_basis(u, x)` at `[u * BS + x]`. The `f32::cos` of `dct_basis`
/// comes from the host's libm, so the table (and every coded stream) is
/// libm-dependent.
fn basis() -> &'static [f32; BS * BS] {
    static BASIS: OnceLock<[f32; BS * BS]> = OnceLock::new();
    BASIS.get_or_init(|| std::array::from_fn(|i| dct_basis(i / BS, i % BS)))
}

/// Forward 8×8 DCT-II (orthonormal) of a row-major block.
pub fn forward(block: &[f32; BS * BS]) -> [f32; BS * BS] {
    let b = basis();
    let mut tmp = [0.0_f32; BS * BS];
    // Rows.
    for y in 0..BS {
        for u in 0..BS {
            let mut acc = 0.0;
            for x in 0..BS {
                acc += block[y * BS + x] * b[u * BS + x];
            }
            tmp[y * BS + u] = acc;
        }
    }
    // Columns.
    let mut out = [0.0_f32; BS * BS];
    for v in 0..BS {
        for u in 0..BS {
            let mut acc = 0.0;
            for y in 0..BS {
                acc += tmp[y * BS + u] * b[v * BS + y];
            }
            out[v * BS + u] = acc;
        }
    }
    out
}

/// Inverse 8×8 DCT (DCT-III, orthonormal).
pub fn inverse(coef: &[f32; BS * BS]) -> [f32; BS * BS] {
    let b = basis();
    let mut tmp = [0.0_f32; BS * BS];
    // Columns.
    for u in 0..BS {
        for y in 0..BS {
            let mut acc = 0.0;
            for v in 0..BS {
                acc += coef[v * BS + u] * b[v * BS + y];
            }
            tmp[y * BS + u] = acc;
        }
    }
    // Rows.
    let mut out = [0.0_f32; BS * BS];
    for y in 0..BS {
        for x in 0..BS {
            let mut acc = 0.0;
            for u in 0..BS {
                acc += tmp[y * BS + u] * b[u * BS + x];
            }
            out[y * BS + x] = acc;
        }
    }
    out
}

/// Maps a quality parameter (0 = finest) to a quantizer step, H.26x-style:
/// the step doubles every 6 QP.
pub fn qp_to_step(qp: u8) -> f32 {
    0.002 * (2.0_f32).powf(qp as f32 / 6.0)
}

/// Dead-zone quantization: `sign(c) · floor(|c|/step + bias)` with
/// `bias = 1/3` (encoder-side rounding typical of hybrid codecs).
pub fn quantize(coef: &[f32; BS * BS], step: f32) -> [i32; BS * BS] {
    let mut out = [0_i32; BS * BS];
    for (o, &c) in out.iter_mut().zip(coef) {
        let mag = (c.abs() / step + 1.0 / 3.0).floor() as i32;
        *o = if c < 0.0 { -mag } else { mag };
    }
    out
}

/// Reconstruction: `q · step`.
pub fn dequantize(q: &[i32; BS * BS], step: f32) -> [f32; BS * BS] {
    let mut out = [0.0_f32; BS * BS];
    for (o, &v) in out.iter_mut().zip(q) {
        *o = v as f32 * step;
    }
    out
}

/// The standard 8×8 zig-zag scan order (JPEG/H.26x).
pub fn zigzag_order() -> &'static [usize; BS * BS] {
    static ORDER: OnceLock<[usize; BS * BS]> = OnceLock::new();
    ORDER.get_or_init(scan_order)
}

fn scan_order() -> [usize; BS * BS] {
    let mut order = [0usize; BS * BS];
    let mut idx = 0;
    for s in 0..(2 * BS - 1) {
        let coords: Vec<(usize, usize)> = (0..=s)
            .filter_map(|i| {
                let (y, x) = (i, s - i);
                (y < BS && x < BS).then_some((y, x))
            })
            .collect();
        let iter: Box<dyn Iterator<Item = &(usize, usize)>> = if s % 2 == 0 {
            Box::new(coords.iter().rev())
        } else {
            Box::new(coords.iter())
        };
        for &(y, x) in iter {
            order[idx] = y * BS + x;
            idx += 1;
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The transform pair with `dct_basis` evaluated on the spot at every
    /// multiply-add: the reference the basis table answers to.
    fn forward_on_the_spot(block: &[f32; BS * BS]) -> [f32; BS * BS] {
        let mut tmp = [0.0_f32; BS * BS];
        for y in 0..BS {
            for u in 0..BS {
                let mut acc = 0.0;
                for x in 0..BS {
                    acc += block[y * BS + x] * dct_basis(u, x);
                }
                tmp[y * BS + u] = acc;
            }
        }
        let mut out = [0.0_f32; BS * BS];
        for v in 0..BS {
            for u in 0..BS {
                let mut acc = 0.0;
                for y in 0..BS {
                    acc += tmp[y * BS + u] * dct_basis(v, y);
                }
                out[v * BS + u] = acc;
            }
        }
        out
    }

    fn inverse_on_the_spot(coef: &[f32; BS * BS]) -> [f32; BS * BS] {
        let mut tmp = [0.0_f32; BS * BS];
        for u in 0..BS {
            for y in 0..BS {
                let mut acc = 0.0;
                for v in 0..BS {
                    acc += coef[v * BS + u] * dct_basis(v, y);
                }
                tmp[y * BS + u] = acc;
            }
        }
        let mut out = [0.0_f32; BS * BS];
        for y in 0..BS {
            for x in 0..BS {
                let mut acc = 0.0;
                for u in 0..BS {
                    acc += tmp[y * BS + u] * dct_basis(u, x);
                }
                out[y * BS + x] = acc;
            }
        }
        out
    }

    fn bits(block: &[f32; BS * BS]) -> Vec<u32> {
        block.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn cached_tables_match_the_on_the_spot_expressions() {
        for (i, &v) in basis().iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                dct_basis(i / BS, i % BS).to_bits(),
                "basis[{i}]"
            );
        }
        // Smooth and rough blocks, signed zeros and quantized levels.
        let mut blocks: Vec<[f32; BS * BS]> = (0..16).map(|s| sample_block(s as f32)).collect();
        blocks.push(std::array::from_fn(|i| if i % 3 == 0 { -0.0 } else { 0.0 }));
        blocks.push(std::array::from_fn(|i| (i as f32 * 1.37).sin() * 300.0));
        blocks.push(dequantize(
            &quantize(&forward(&sample_block(9.0)), 0.03),
            0.03,
        ));
        for block in &blocks {
            assert_eq!(bits(&forward(block)), bits(&forward_on_the_spot(block)));
            assert_eq!(bits(&inverse(block)), bits(&inverse_on_the_spot(block)));
        }
        assert_eq!(zigzag_order(), &scan_order());
    }

    fn sample_block(seed: f32) -> [f32; 64] {
        let mut b = [0.0_f32; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = ((i as f32 * 0.7 + seed).sin() * 0.4 + 0.5).clamp(0.0, 1.0);
        }
        b
    }

    #[test]
    fn dct_roundtrips() {
        let b = sample_block(1.0);
        let rec = inverse(&forward(&b));
        for (a, r) in b.iter().zip(&rec) {
            assert!((a - r).abs() < 1e-5);
        }
    }

    #[test]
    fn dct_is_orthonormal() {
        // Energy preservation (Parseval).
        let b = sample_block(2.0);
        let c = forward(&b);
        let eb: f32 = b.iter().map(|v| v * v).sum();
        let ec: f32 = c.iter().map(|v| v * v).sum();
        assert!((eb - ec).abs() < 1e-4);
    }

    #[test]
    fn dc_coefficient_is_scaled_mean() {
        let b = [0.5_f32; 64];
        let c = forward(&b);
        // DC = 8 * mean for an orthonormal 8x8 DCT.
        assert!((c[0] - 4.0).abs() < 1e-5);
        for &ac in &c[1..] {
            assert!(ac.abs() < 1e-5);
        }
    }

    #[test]
    fn quantization_roundtrip_error_is_bounded() {
        let b = sample_block(3.0);
        let c = forward(&b);
        let step = 0.05;
        let q = quantize(&c, step);
        let dq = dequantize(&q, step);
        for (orig, rec) in c.iter().zip(&dq) {
            assert!((orig - rec).abs() <= step, "{orig} vs {rec}");
        }
    }

    #[test]
    fn dead_zone_zeroes_small_coefficients() {
        let mut c = [0.0_f32; 64];
        c[5] = 0.03;
        c[6] = -0.03;
        let q = quantize(&c, 0.05); // |c|/step = 0.6 < 1 - 1/3 ... floor(0.6+0.333)=0
        assert_eq!(q[5], 0);
        assert_eq!(q[6], 0);
    }

    #[test]
    fn qp_doubles_every_six() {
        let s0 = qp_to_step(10);
        let s6 = qp_to_step(16);
        assert!((s6 / s0 - 2.0).abs() < 1e-5);
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let order = zigzag_order();
        let mut seen = [false; 64];
        for &i in order {
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        // First entries follow the canonical pattern.
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 1);
        assert_eq!(order[2], 8);
        assert_eq!(order[3], 16);
        assert_eq!(order[4], 9);
        assert_eq!(order[5], 2);
    }
}
