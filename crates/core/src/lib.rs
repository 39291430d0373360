//! **NVCA** — the algorithm/hardware co-design API (the paper's primary
//! contribution, assembled).
//!
//! This crate glues the two halves of the reproduction together:
//!
//! * the **CTVC-Net codec** from [`nvc_model`] (sparse CNN-Transformer
//!   hybrid video codec producing real bitstreams), and
//! * the **NVCA cycle-level simulator** from [`nvc_sim`] (SFTC + DCC +
//!   heterogeneous layer chaining dataflow + 28 nm energy model).
//!
//! [`Nvca`] deploys a CTVC configuration onto the accelerator: it charges
//! the simulator with the layers the built decoder modules describe,
//! decodes bitstreams functionally, and reports hardware performance
//! (cycles, fps, GOPS, power, off-chip traffic) for any resolution —
//! including the paper's 1080p operating point, which the functional
//! software path never has to execute. The simulator charges the paper's
//! five decoder modules, while the software P-frame decode runs four and
//! reuses `F̂_{t−1}`.
//!
//! # Example
//!
//! ```no_run
//! use nvca::Nvca;
//! use nvc_model::{CtvcConfig, RatePoint};
//! use nvc_sim::Dataflow;
//! use nvc_video::codec::{decode_bitstream, encode_sequence};
//! use nvc_video::synthetic::{SceneConfig, Synthesizer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nvca = Nvca::paper_design(CtvcConfig::ctvc_sparse(36))?;
//! // Hardware performance of decoding 1080p, per frame:
//! let report = nvca.simulate_decode(1088, 1920, Dataflow::Chained);
//! println!("{:.1} fps at {:.2} W", report.fps, report.power_w);
//! // Functional encode/decode on a small sequence:
//! let seq = Synthesizer::new(SceneConfig::uvg_like(64, 48, 3)).generate();
//! let coded = encode_sequence(nvca.codec(), &seq, RatePoint::new(1))?;
//! let _decoded = decode_bitstream(nvca.codec(), &coded.to_bytes())?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod report;

pub use nvc_entropy::container::FrameKind;
pub use report::{offchip_comparison, OffchipRow};

use nvc_entropy::container::{split_packets, Packet};
use nvc_model::{CtvcCodec, CtvcConfig, CtvcError};
use nvc_sim::comparators::{PlatformRow, Provenance};
use nvc_sim::{Dataflow, NvcaConfig, SimReport, Simulator, Workload};
use nvc_video::codec::DecoderSession;

/// A CTVC-Net instance deployed on the NVCA accelerator.
#[derive(Debug, Clone)]
pub struct Nvca {
    codec: CtvcCodec,
    simulator: Simulator,
}

impl Nvca {
    /// Deploys a CTVC configuration on an explicit accelerator
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CtvcError::Config`] for invalid model configurations.
    pub fn new(model: CtvcConfig, hw: NvcaConfig) -> Result<Self, CtvcError> {
        Ok(Nvca {
            codec: CtvcCodec::new(model)?,
            simulator: Simulator::new(hw),
        })
    }

    /// Deploys on the paper's design point (12×12 SCUs, ρ from the model
    /// configuration, 400 MHz, 373 KB SRAM).
    ///
    /// # Errors
    ///
    /// Returns [`CtvcError::Config`] for invalid model configurations.
    pub fn paper_design(model: CtvcConfig) -> Result<Self, CtvcError> {
        let mut hw = NvcaConfig::paper();
        hw.rho = model.sparsity.unwrap_or(0.0);
        Self::new(model, hw)
    }

    /// The functional codec.
    pub fn codec(&self) -> &CtvcCodec {
        &self.codec
    }

    /// The hardware simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.simulator
    }

    /// The simulator workload of decoding one P frame at `h × w`
    /// ([`CtvcCodec::decoder_workload`]).
    ///
    /// # Panics
    ///
    /// Panics if `h` or `w` is not a positive multiple of 16.
    pub fn decoder_workload(&self, h: usize, w: usize) -> Workload {
        self.codec.decoder_workload(h, w)
    }

    /// The simulator workload of decoding an intra frame at `h × w`
    /// ([`CtvcCodec::intra_workload`]).
    ///
    /// # Panics
    ///
    /// Panics if `h` or `w` is not a positive multiple of 16.
    pub fn intra_workload(&self, h: usize, w: usize) -> Workload {
        self.codec.intra_workload(h, w)
    }

    /// Simulates decoding one P frame at `h × w` under a dataflow.
    pub fn simulate_decode(&self, h: usize, w: usize, dataflow: Dataflow) -> SimReport {
        self.simulator.run(&self.decoder_workload(h, w), dataflow)
    }

    /// Maps a packetized CTVC bitstream onto the accelerator, packet by
    /// packet: each packet is functionally decoded through a streaming
    /// [`DecoderSession`] (validating framing, CRCs and prediction
    /// structure) and simultaneously charged to the simulator with the
    /// workload matching its frame type — intra packets run only frame
    /// reconstruction. For predicted packets the simulator charges the
    /// paper's five decoder modules, while the software P-frame decode
    /// runs four and reuses `F̂_{t−1}`.
    ///
    /// # Errors
    ///
    /// Returns [`CtvcError`] on any malformed packet (the stream is
    /// validated exactly as a real decode would).
    pub fn simulate_decode_stream(
        &self,
        bitstream: &[u8],
        dataflow: Dataflow,
    ) -> Result<StreamSimReport, CtvcError> {
        let chunks = split_packets(bitstream)?;
        if chunks.is_empty() {
            return Err(CtvcError::BadInput("empty bitstream".into()));
        }
        let mut session = self.codec.start_decode();
        let mut frames = Vec::with_capacity(chunks.len());
        let (mut w, mut h) = (0usize, 0usize);
        // The session enforces constant geometry, so the two workloads
        // (intra / predicted) are built once, after the first decode.
        let mut workloads: Option<(Workload, Workload)> = None;
        for chunk in chunks {
            let (frame_index, kind, payload_bytes) = Packet::peek_header(chunk)?;
            let frame = session.push_packet(chunk)?;
            (w, h) = (frame.width(), frame.height());
            let (intra_wl, predicted_wl) = workloads
                .get_or_insert_with(|| (self.intra_workload(h, w), self.decoder_workload(h, w)));
            let workload = match kind {
                FrameKind::Intra => &*intra_wl,
                FrameKind::Predicted => &*predicted_wl,
            };
            frames.push(FrameSimReport {
                frame_index,
                kind,
                payload_bytes,
                report: self.simulator.run(workload, dataflow),
            });
        }
        let total_cycles: u64 = frames.iter().map(|f| f.report.total_cycles).sum();
        let dram_bytes: u64 = frames.iter().map(|f| f.report.dram_bytes).sum();
        let fps = frames.len() as f64 * self.simulator.config().freq_mhz * 1e6
            / total_cycles.max(1) as f64;
        Ok(StreamSimReport {
            width: w,
            height: h,
            frames,
            total_cycles,
            dram_bytes,
            fps,
        })
    }

    /// Produces this design's Table II row from the simulator at the
    /// paper's 1080p operating point.
    pub fn table2_row(&self) -> PlatformRow {
        let report = self.simulate_decode(1088, 1920, Dataflow::Chained);
        let hw = self.simulator.config();
        PlatformRow {
            name: "NVCA (this repo)",
            benchmark: "CTVC-Net",
            technology_nm: 28,
            freq_mhz: hw.freq_mhz,
            precision: "FXP 12-16",
            gate_count_m: Some(hw.gate_count_m()),
            sram_kb: Some(hw.total_sram_bytes() as f64 / 1024.0),
            power_w: report.power_w,
            throughput_gops: report.physical_gops,
            provenance: Provenance::Reproduced,
        }
    }
}

/// Hardware cost of decoding one packet of a stream.
#[derive(Debug, Clone)]
pub struct FrameSimReport {
    /// Frame index from the packet header.
    pub frame_index: u32,
    /// Frame type from the packet header.
    pub kind: FrameKind,
    /// Coded payload bytes of the packet.
    pub payload_bytes: usize,
    /// Simulator report for this frame's workload.
    pub report: SimReport,
}

/// Aggregate hardware cost of decoding a packetized stream (see
/// [`Nvca::simulate_decode_stream`]).
#[derive(Debug, Clone)]
pub struct StreamSimReport {
    /// Stream width in pixels.
    pub width: usize,
    /// Stream height in pixels.
    pub height: usize,
    /// Per-packet breakdown, in decode order.
    pub frames: Vec<FrameSimReport>,
    /// Total cycles across all packets.
    pub total_cycles: u64,
    /// Total DRAM traffic across all packets.
    pub dram_bytes: u64,
    /// Sustained decode rate over the stream.
    pub fps: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_model::RatePoint;
    use nvc_video::codec::encode_sequence;
    use nvc_video::synthetic::{SceneConfig, Synthesizer};

    #[test]
    fn stream_simulation_tracks_frame_types() {
        let nvca = Nvca::paper_design(CtvcConfig::ctvc_sparse(8)).unwrap();
        let seq = Synthesizer::new(SceneConfig::uvg_like(48, 32, 3)).generate();
        let coded = encode_sequence(nvca.codec(), &seq, RatePoint::new(1)).unwrap();
        let rep = nvca
            .simulate_decode_stream(&coded.to_bytes(), Dataflow::Chained)
            .unwrap();
        assert_eq!((rep.width, rep.height), (48, 32));
        assert_eq!(rep.frames.len(), 3);
        assert_eq!(rep.frames[0].kind, FrameKind::Intra);
        assert!(rep.frames[1..]
            .iter()
            .all(|f| f.kind == FrameKind::Predicted));
        // Intra decode exercises only frame reconstruction: strictly
        // cheaper than a predicted frame.
        assert!(rep.frames[0].report.total_cycles < rep.frames[1].report.total_cycles);
        assert_eq!(
            rep.total_cycles,
            rep.frames
                .iter()
                .map(|f| f.report.total_cycles)
                .sum::<u64>()
        );
        assert!(rep.fps > 0.0);
        // Malformed streams are rejected, never panic.
        assert!(nvca.simulate_decode_stream(&[], Dataflow::Chained).is_err());
        let mut bad = coded.to_bytes();
        bad.truncate(bad.len() - 3);
        assert!(nvca
            .simulate_decode_stream(&bad, Dataflow::Chained)
            .is_err());
    }

    #[test]
    fn table2_row_is_reproduced_provenance() {
        let nvca = Nvca::paper_design(CtvcConfig::ctvc_sparse(36)).unwrap();
        let row = nvca.table2_row();
        assert_eq!(row.provenance, Provenance::Reproduced);
        assert!(row.throughput_gops > 100.0);
        assert!(row.gops_per_watt() > 100.0);
        // Same SRAM budget as the paper's design point.
        assert_eq!(row.sram_kb, Some(373.0));
    }
}
