//! Latent quantization and entropy coding.
//!
//! Latents are quantized with a uniform step, optionally modulated by the
//! Swin-AM attention mask (backward-adaptive gain, see crate docs), and
//! range-coded under per-channel Laplace models whose scales travel as
//! one side-info byte per channel.

use nvc_entropy::{CodingError, LaplaceModel, RangeDecoder, RangeEncoder};
use nvc_tensor::{Shape, Tensor, TensorError};
use std::sync::OnceLock;

/// Mask evaluator: reconstructs the Swin-AM attention mask from a latent
/// (the decoder-reproducible half of the backward-adaptive gain).
pub type MaskFn<'a> = dyn Fn(&Tensor) -> Result<Tensor, TensorError> + 'a;

/// Largest coded symbol magnitude; finer values saturate (adds a little
/// distortion at extreme rate points instead of failing).
pub const MAX_SYM: i32 = 1023;

/// Gain applied when no mask is available: the mask midpoint `1 + 0.5`.
pub const NEUTRAL_GAIN: f32 = 1.5;

fn scale_to_byte(b: f64) -> u8 {
    let idx = (b.max(1e-4).log2() * 16.0 + 128.0).round();
    idx.clamp(0.0, 255.0) as u8
}

fn byte_to_scale(idx: u8) -> f64 {
    2.0_f64.powf((idx as f64 - 128.0) / 16.0)
}

/// Quantizes a latent to integer symbols: `round(z · gain / step)` where
/// `gain = 1 + mask` (or [`NEUTRAL_GAIN`] without a mask).
///
/// # Errors
///
/// Returns an error if the mask shape differs from the latent shape.
pub fn quantize(z: &Tensor, step: f32, mask: Option<&Tensor>) -> Result<Vec<i32>, TensorError> {
    if let Some(m) = mask {
        if m.shape() != z.shape() {
            return Err(TensorError::ShapeMismatch {
                left: z.shape().dims(),
                right: m.shape().dims(),
            });
        }
    }
    let symbols = z
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let gain = match mask {
                Some(m) => 1.0 + m.as_slice()[i],
                None => NEUTRAL_GAIN,
            };
            let s = (v * gain / step).round() as i32;
            s.clamp(-MAX_SYM, MAX_SYM)
        })
        .collect();
    Ok(symbols)
}

/// Reconstructs a latent from symbols. With a `mask_fn`, performs the
/// backward-adaptive iteration: provisional reconstruction at the neutral
/// gain, mask evaluation, final reconstruction at `1 + mask`.
///
/// # Errors
///
/// Propagates errors from `mask_fn`.
pub fn dequantize(
    symbols: &[i32],
    shape: Shape,
    step: f32,
    mask_fn: Option<&MaskFn<'_>>,
) -> Result<Tensor, TensorError> {
    let raw: Vec<f32> = symbols.iter().map(|&s| s as f32 * step).collect();
    match mask_fn {
        None => Tensor::from_vec(shape, raw.iter().map(|v| v / NEUTRAL_GAIN).collect()),
        Some(f) => {
            let z0 = Tensor::from_vec(shape, raw.iter().map(|v| v / NEUTRAL_GAIN).collect())?;
            let mask = f(&z0)?;
            let data = raw
                .iter()
                .zip(mask.as_slice())
                .map(|(&v, &m)| v / (1.0 + m))
                .collect();
            Tensor::from_vec(shape, data)
        }
    }
}

/// The Laplace models of one alphabet, one per scale byte, each built on
/// first use and kept for the life of the process. A model depends on
/// nothing but its byte, and building one costs one `exp` per symbol of
/// the alphabet where coding a symbol costs a table read, so it is built
/// once instead of per channel per payload. Only the bytes streams use
/// are ever built; all 2 × 256 compact models together are ≈ 0.6 MiB.
struct Models {
    max_sym: i32,
    cells: [OnceLock<LaplaceModel>; 256],
}

impl Models {
    const fn new(max_sym: i32) -> Self {
        Models {
            max_sym,
            cells: [const { OnceLock::new() }; 256],
        }
    }

    /// The model for scale byte `idx`. Threads racing a first touch may
    /// each build it; all get the one that was stored.
    fn get(&self, idx: u8) -> Result<&LaplaceModel, CodingError> {
        let cell = &self.cells[usize::from(idx)];
        if let Some(model) = cell.get() {
            return Ok(model);
        }
        let model = LaplaceModel::new(byte_to_scale(idx), self.max_sym)?;
        Ok(cell.get_or_init(|| model))
    }

    /// The scale bytes whose model has been built.
    #[cfg(test)]
    fn initialised(&self) -> Vec<u8> {
        (0..=255u8)
            .filter(|&idx| self.cells[usize::from(idx)].get().is_some())
            .collect()
    }
}

/// P-frame latents: symbols in `±MAX_SYM`.
static LATENT: Models = Models::new(MAX_SYM);

/// Intra features after [`intra_transform`]: pair sums reach `±2·MAX_SYM`
/// and MED residuals of those `±4·MAX_SYM`.
static INTRA: Models = Models::new(4 * MAX_SYM);

/// Entropy-encodes symbols of an `N × h × w` latent: per-channel Laplace
/// scale bytes followed by the range-coded payload.
///
/// # Errors
///
/// Returns an error if a Laplace model cannot be built (never happens for
/// in-range scales).
pub fn encode_payload(symbols: &[i32], shape: Shape) -> Result<Vec<u8>, CodingError> {
    encode(symbols, shape, &LATENT)
}

/// Decodes a payload produced by [`encode_payload`] back into symbols.
///
/// # Errors
///
/// Returns an error on truncated input.
pub fn decode_payload(bytes: &[u8], shape: Shape) -> Result<Vec<i32>, CodingError> {
    decode(bytes, shape, &LATENT)
}

/// Entropy-encodes *intra feature* symbols with two reversible predictive
/// transforms before the Laplace coder: channels `3..6` are summed with
/// their `±` partners `0..3` (the pair `max + (−min)` difference is small
/// on smooth content), then every channel is horizontally DPCM-coded.
/// Cuts intra rate by several× relative to raw coding.
///
/// # Errors
///
/// Returns an error if a model cannot be built.
pub fn encode_intra_payload(symbols: &[i32], shape: Shape) -> Result<Vec<u8>, CodingError> {
    encode(&intra_transform(symbols, shape, true), shape, &INTRA)
}

/// Inverse of [`encode_intra_payload`].
///
/// # Errors
///
/// Returns an error on truncated input.
pub fn decode_intra_payload(bytes: &[u8], shape: Shape) -> Result<Vec<i32>, CodingError> {
    let transformed = decode(bytes, shape, &INTRA)?;
    Ok(intra_transform(&transformed, shape, false))
}

/// LOCO-I / JPEG-LS median-edge-detection predictor from the left (`a`),
/// above (`b`) and above-left (`c`) reconstructed neighbours.
fn med_predict(a: i32, b: i32, c: i32) -> i32 {
    if c >= a.max(b) {
        a.min(b)
    } else if c <= a.min(b) {
        a.max(b)
    } else {
        a + b - c
    }
}

/// Pair-prediction + 2-D MED-predictive coding, forward (`true`) or
/// inverse.
fn intra_transform(symbols: &[i32], shape: Shape, forward: bool) -> Vec<i32> {
    let (_, c, h, w) = shape.dims();
    let plane = h * w;
    let mut out = symbols.to_vec();
    if forward {
        // Pair prediction first, then the spatial predictor.
        for ch in 3..c.min(6) {
            for i in 0..plane {
                out[ch * plane + i] += symbols[(ch - 3) * plane + i];
            }
        }
        let paired = out.clone();
        for ch in 0..c {
            let base = ch * plane;
            for y in 0..h {
                for x in 0..w {
                    let a = if x > 0 {
                        paired[base + y * w + x - 1]
                    } else {
                        0
                    };
                    let b = if y > 0 {
                        paired[base + (y - 1) * w + x]
                    } else {
                        0
                    };
                    let cc = if x > 0 && y > 0 {
                        paired[base + (y - 1) * w + x - 1]
                    } else {
                        0
                    };
                    out[base + y * w + x] = paired[base + y * w + x] - med_predict(a, b, cc);
                }
            }
        }
    } else {
        // Undo the spatial predictor in raster order, then pairs.
        for ch in 0..c {
            let base = ch * plane;
            for y in 0..h {
                for x in 0..w {
                    let a = if x > 0 { out[base + y * w + x - 1] } else { 0 };
                    let b = if y > 0 {
                        out[base + (y - 1) * w + x]
                    } else {
                        0
                    };
                    let cc = if x > 0 && y > 0 {
                        out[base + (y - 1) * w + x - 1]
                    } else {
                        0
                    };
                    out[base + y * w + x] += med_predict(a, b, cc);
                }
            }
        }
        for ch in 3..c.min(6) {
            for i in 0..plane {
                out[ch * plane + i] -= out[(ch - 3) * plane + i];
            }
        }
    }
    out
}

/// Per-channel scale bytes, then every channel range-coded under its
/// byte's model from `models`.
fn encode(symbols: &[i32], shape: Shape, models: &Models) -> Result<Vec<u8>, CodingError> {
    let (_, c, h, w) = shape.dims();
    let plane = h * w;
    let mut bytes = Vec::with_capacity(c + symbols.len() / 4);
    for ch in 0..c {
        let s = &symbols[ch * plane..(ch + 1) * plane];
        let mean_abs =
            s.iter().map(|&v| v.unsigned_abs() as f64).sum::<f64>() / plane.max(1) as f64;
        bytes.push(scale_to_byte(mean_abs.max(0.05)));
    }
    let mut rc = RangeEncoder::new();
    for ch in 0..c {
        let model = models.get(bytes[ch])?;
        for &s in &symbols[ch * plane..(ch + 1) * plane] {
            debug_assert!(s.abs() <= models.max_sym, "symbol {s} exceeds the alphabet");
            rc.encode(&model.interval(s), model.total());
        }
    }
    bytes.extend_from_slice(&rc.finish());
    Ok(bytes)
}

/// Inverse of [`encode`] under the same `models`.
fn decode(bytes: &[u8], shape: Shape, models: &Models) -> Result<Vec<i32>, CodingError> {
    let (_, c, h, w) = shape.dims();
    let plane = h * w;
    let Some((scales, body)) = bytes.split_at_checked(c) else {
        return Err(CodingError::UnexpectedEof);
    };
    let mut rc = RangeDecoder::new(body);
    let mut symbols = Vec::with_capacity(c * plane);
    for &idx in scales {
        let model = models.get(idx)?;
        for _ in 0..plane {
            let f = rc.decode_freq(model.total());
            let (v, iv) = model.lookup(f);
            rc.decode_update(&iv, model.total());
            symbols.push(v);
        }
    }
    Ok(symbols)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latent(c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn(Shape::new(1, c, h, w), |_, ch, y, x| {
            0.4 * ((ch as f32 + 1.0) * (y as f32 * 0.7 + x as f32 * 0.3)).sin()
        })
    }

    #[test]
    fn symbols_roundtrip_through_payload() {
        let z = latent(4, 6, 5);
        let shape = z.shape();
        let symbols = quantize(&z, 0.05, None).unwrap();
        let bytes = encode_payload(&symbols, shape).unwrap();
        let back = decode_payload(&bytes, shape).unwrap();
        assert_eq!(symbols, back);
    }

    #[test]
    fn quantization_error_bounded_without_mask() {
        let z = latent(3, 4, 4);
        let step = 0.02;
        let symbols = quantize(&z, step, None).unwrap();
        let rec = dequantize(&symbols, z.shape(), step, None).unwrap();
        let err = rec.sub(&z).unwrap().max_abs();
        assert!(err <= step / NEUTRAL_GAIN / 2.0 + 1e-6, "err {err}");
    }

    #[test]
    fn finer_steps_cost_more_bits() {
        let z = latent(4, 8, 8);
        let coarse = encode_payload(&quantize(&z, 0.2, None).unwrap(), z.shape()).unwrap();
        let fine = encode_payload(&quantize(&z, 0.01, None).unwrap(), z.shape()).unwrap();
        assert!(
            fine.len() > coarse.len(),
            "{} vs {}",
            fine.len(),
            coarse.len()
        );
    }

    #[test]
    fn mask_roundtrip_error_is_second_order() {
        // A deterministic, smooth "mask function" standing in for the
        // Swin-AM mask: the decoder recomputes it from the provisional
        // reconstruction and the final error must stay close to the
        // no-mask bound.
        let z = latent(2, 6, 6);
        let step = 0.05;
        let mask_fn = |t: &Tensor| -> Result<Tensor, TensorError> {
            Ok(t.map(|v| 0.5 + 0.2 * (3.0 * v).tanh()))
        };
        let enc_mask = mask_fn(&z).unwrap();
        let symbols = quantize(&z, step, Some(&enc_mask)).unwrap();
        let rec = dequantize(&symbols, z.shape(), step, Some(&mask_fn)).unwrap();
        let err = rec.sub(&z).unwrap().max_abs();
        assert!(err < step, "masked roundtrip error {err} vs step {step}");
    }

    #[test]
    fn saturation_clamps_not_fails() {
        let z = Tensor::filled(Shape::new(1, 1, 2, 2), 100.0);
        let symbols = quantize(&z, 0.001, None).unwrap();
        assert!(symbols.iter().all(|&s| s == MAX_SYM));
    }

    #[test]
    fn scale_byte_roundtrip_is_monotone() {
        let mut prev = 0.0;
        for idx in (0..=255u8).step_by(16) {
            let b = byte_to_scale(idx);
            assert!(b > prev);
            prev = b;
            assert_eq!(scale_to_byte(b), idx);
        }
    }

    #[test]
    fn intra_payload_roundtrips_and_compresses() {
        // Smooth feature-like content with correlated ± channel pairs.
        let z = Tensor::from_fn(Shape::new(1, 8, 12, 16), |_, c, y, x| {
            let base = 0.5 + 0.3 * ((y as f32 * 0.2 + x as f32 * 0.15).sin());
            match c {
                0..=2 => base,
                3..=5 => -base + 0.02, // ≈ −pair with a small offset
                _ => 0.05 * ((c + y + x) as f32).sin(),
            }
        });
        let symbols = quantize(&z, 0.02, None).unwrap();
        let raw = encode_payload(&symbols, z.shape()).unwrap();
        let intra = encode_intra_payload(&symbols, z.shape()).unwrap();
        let back = decode_intra_payload(&intra, z.shape()).unwrap();
        assert_eq!(symbols, back, "intra coding must be lossless");
        assert!(
            intra.len() * 2 < raw.len() * 3,
            "predictive intra must compress: {} vs {} bytes",
            intra.len(),
            raw.len()
        );
    }

    #[test]
    fn intra_transform_is_involutive() {
        let shape = Shape::new(1, 7, 3, 5);
        let symbols: Vec<i32> = (0..7 * 15).map(|i| ((i * 37) % 200) - 100).collect();
        let fwd = intra_transform(&symbols, shape, true);
        let back = intra_transform(&fwd, shape, false);
        assert_eq!(symbols, back);
    }

    #[test]
    fn truncated_payload_is_detected() {
        let z = latent(3, 4, 4);
        let symbols = quantize(&z, 0.05, None).unwrap();
        let bytes = encode_payload(&symbols, z.shape()).unwrap();
        assert!(decode_payload(&bytes[..2], z.shape()).is_err());
    }

    #[test]
    fn intra_coding_is_lossless_at_the_edge_of_the_wide_alphabet() {
        // A ±MAX_SYM checkerboard on every channel: pair sums reach
        // ±2·MAX_SYM, and the MED residual of a checkerboard is the full
        // swing between neighbours, ±4·MAX_SYM.
        let shape = Shape::new(1, 7, 5, 6);
        let symbols: Vec<i32> = (0..7 * 5 * 6)
            .map(|i| {
                let (y, x) = ((i / 6) % 5, i % 6);
                if (x + y) % 2 == 0 {
                    MAX_SYM
                } else {
                    -MAX_SYM
                }
            })
            .collect();
        let transformed = intra_transform(&symbols, shape, true);
        let widest = transformed.iter().map(|v| v.abs()).max();
        assert_eq!(widest, Some(4 * MAX_SYM));
        let payload = encode_intra_payload(&symbols, shape).unwrap();
        assert_eq!(decode_intra_payload(&payload, shape).unwrap(), symbols);
    }

    /// FNV-1a 64 of `x`'s little-endian bytes, folded into `h`.
    fn fnv1a(h: &mut u64, x: u32) {
        for byte in x.to_le_bytes() {
            *h = (*h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Every table the format can select, hashed: for each alphabet and
    /// scale byte, the total and then every symbol's interval in symbol
    /// order. The constant was recorded on the full-table `LaplaceModel`
    /// these compact models replaced, which built the golden fixtures.
    ///
    /// The tables come from `f64::exp`/`powf`, which Rust takes from the
    /// platform libm. If this test fails after a toolchain or platform
    /// change, a decoder built there would desync from every existing
    /// stream at its first symbol. Changing the constant is a format
    /// decision — generating the tables from integers belongs to a new
    /// named config — not a test fix.
    #[test]
    fn laplace_tables_are_frozen() {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for models in [&LATENT, &INTRA] {
            for idx in 0..=255u8 {
                let m = models.get(idx).unwrap();
                fnv1a(&mut h, m.total());
                for v in -models.max_sym..=models.max_sym {
                    let iv = m.interval(v);
                    fnv1a(&mut h, iv.low);
                    fnv1a(&mut h, iv.high);
                }
            }
        }
        assert_eq!(h, 0xc92b_fc02_bdb4_8d25);
    }

    /// The full frequency table the compact model must reproduce, built
    /// as the format defines it.
    fn reference_table(b: f64, max_sym: i32) -> nvc_entropy::Histogram {
        let weights: Vec<f64> = (-max_sym..=max_sym)
            .map(|k| (-(k.abs() as f64) / b).exp())
            .collect();
        let wsum: f64 = weights.iter().sum();
        let mut freqs: Vec<u32> = weights
            .iter()
            .map(|w| ((w / wsum) * f64::from(1u32 << 18)).round().max(1.0) as u32)
            .collect();
        let centre = max_sym as usize;
        freqs[centre] = freqs[centre].max(2);
        nvc_entropy::Histogram::from_freqs(&freqs).unwrap()
    }

    #[test]
    fn cached_models_match_the_full_tables() {
        for models in [&LATENT, &INTRA] {
            let max_sym = models.max_sym;
            for idx in 0..=255u8 {
                let b = byte_to_scale(idx);
                assert!(b.is_finite() && b > 0.0, "byte {idx} → scale {b}");
                let m = models.get(idx).unwrap();
                let full = reference_table(b, max_sym);
                assert_eq!(m.total(), full.total(), "byte {idx}");
                for v in -max_sym - 1..=max_sym + 1 {
                    let iv = full.interval((v.clamp(-max_sym, max_sym) + max_sym) as u32);
                    assert_eq!(m.interval(v), iv, "byte {idx}, symbol {v}");
                    if v.abs() <= max_sym {
                        assert_eq!(m.lookup(iv.low), (v, iv), "byte {idx}, low of {v}");
                        assert_eq!(m.lookup(iv.high - 1), (v, iv), "byte {idx}, high of {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_scale_byte_survives_hostile_bodies() {
        let mut rng = nvc_tensor::init::SplitMix64::new(0x5CA1_E0B7);
        let shape = Shape::new(1, 3, 4, 5);
        for idx in 0..=255u8 {
            for _ in 0..4 {
                let len = (rng.next_u64() % 64) as usize;
                let mut bytes = vec![idx; 3];
                bytes.extend((0..len).map(|_| rng.next_u64() as u8));
                // Ok or Err, never a panic; a decoded latent has its shape.
                if let Ok(s) = decode_payload(&bytes, shape) {
                    assert_eq!(s.len(), 60);
                }
                if let Ok(s) = decode_intra_payload(&bytes, shape) {
                    assert_eq!(s.len(), 60);
                }
            }
        }
    }

    #[test]
    fn racing_first_touches_share_one_model() {
        static RACE: Models = Models::new(MAX_SYM);
        let start = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|s| {
            let touch = || {
                start.wait();
                RACE.get(131).unwrap()
            };
            let threads = [s.spawn(touch), s.spawn(touch)];
            threads.map(|t| t.join().unwrap())
        });
        assert!(std::ptr::eq(a, b));
        assert_eq!(RACE.initialised(), [131]);
    }

    #[test]
    fn a_decode_builds_only_the_models_it_touches() {
        let models = Models::new(MAX_SYM);
        let shape = Shape::new(1, 4, 3, 3);
        let mut bytes = vec![200, 7, 200, 96];
        bytes.extend_from_slice(&[0x3C; 12]);
        decode(&bytes, shape, &models).unwrap();
        assert_eq!(models.initialised(), [7, 96, 200]);
    }
}
