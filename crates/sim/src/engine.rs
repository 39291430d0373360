//! The simulation engine: per-layer compute cycles, memory traffic under
//! both dataflows, and aggregate performance/energy reporting.

use crate::workload::{SimLayer, SimOp, Workload};
use crate::{EnergyModel, NvcaConfig};
use std::collections::BTreeMap;

/// Dataflow policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataflow {
    /// Every layer reads its input from and writes its output to DRAM —
    /// the baseline of paper Fig. 9(b).
    LayerByLayer,
    /// Heterogeneous layer chaining (§IV-B-2): intra-chain intermediates
    /// stay in the banked input buffer.
    Chained,
}

/// Per-layer simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Module name.
    pub module: &'static str,
    /// Compute cycles on the assigned core.
    pub compute_cycles: u64,
    /// DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Cycles after overlapping compute with DRAM transfers.
    pub cycles: u64,
    /// Physical multiplications executed (transform-domain for fast ops).
    pub physical_muls: u64,
    /// Direct-equivalent MACs.
    pub effective_macs: u64,
}

/// Aggregate simulation outcome for one frame workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Dataflow the report was produced under.
    pub dataflow: Dataflow,
    /// Per-layer breakdown.
    pub layers: Vec<LayerReport>,
    /// Total cycles per frame.
    pub total_cycles: u64,
    /// Frame time in milliseconds.
    pub frame_ms: f64,
    /// Frames per second.
    pub fps: f64,
    /// Total DRAM traffic in bytes per frame.
    pub dram_bytes: u64,
    /// Per-module DRAM traffic in bytes.
    pub module_dram_bytes: BTreeMap<&'static str, u64>,
    /// Physical throughput in GOPS (2 × physical muls / time).
    pub physical_gops: f64,
    /// Effective (direct-equivalent) throughput in GOPS.
    pub effective_gops: f64,
    /// Chip power in watts (compute + on-chip SRAM + static) — the
    /// quantity ASIC papers report from synthesis, used for Table II.
    pub power_w: f64,
    /// System power including DRAM access energy.
    pub system_power_w: f64,
    /// Energy efficiency in GOPS/W (physical ops over chip power).
    pub gops_per_watt: f64,
    /// Compute-array utilization in `[0, 1]` (physical muls over peak).
    pub utilization: f64,
}

/// The NVCA simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: NvcaConfig,
    energy: EnergyModel,
}

impl Simulator {
    /// Creates a simulator with the default 28 nm energy model.
    pub fn new(cfg: NvcaConfig) -> Self {
        Simulator {
            cfg,
            energy: EnergyModel::default(),
        }
    }

    /// Creates a simulator with an explicit energy model.
    pub fn with_energy(cfg: NvcaConfig, energy: EnergyModel) -> Self {
        Simulator { cfg, energy }
    }

    /// The configuration.
    pub fn config(&self) -> &NvcaConfig {
        &self.cfg
    }

    fn act_bytes(&self, elems: u64) -> u64 {
        (elems * self.cfg.act_bits as u64).div_ceil(8)
    }

    fn weight_bytes(&self, op: &SimOp) -> u64 {
        let dense = op.weight_elems() * self.cfg.weight_bits as u64;
        match op.fast_transform() {
            // Sparse transform-domain weights: (1−ρ) of µ² positions plus
            // one index byte per kept weight (Weight + Index Buffers).
            Some(_) => {
                let mu2 = match op {
                    SimOp::Conv3x3 { .. } => 16.0 / 9.0, // µ²/k² expansion
                    SimOp::Deconv4x4 { .. } => 64.0 / 16.0,
                    _ => 1.0,
                };
                let kept = (dense as f64 * mu2 * (1.0 - self.cfg.rho)) as u64;
                kept.div_ceil(8) + kept / self.cfg.weight_bits as u64 // values + indices
            }
            None => dense.div_ceil(8),
        }
    }

    /// Compute cycles and physical multiplications for one operator.
    fn compute(&self, op: &SimOp) -> (u64, u64) {
        let pif = self.cfg.pif as u64;
        let pof = self.cfg.pof as u64;
        let keep = 1.0 - self.cfg.rho;
        match *op {
            SimOp::Conv3x3 {
                c_in,
                c_out,
                h_out,
                w_out,
                stride,
            } => {
                if stride == 1 {
                    // Winograd F(2x2,3x3): 2×2 output tiles, 4 tiles per
                    // SCU pass, 16·(1−ρ) muls per kernel-tile.
                    let tiles = (h_out.div_ceil(2) * w_out.div_ceil(2)) as u64;
                    let passes = (c_in as u64).div_ceil(pif) * (c_out as u64).div_ceil(pof);
                    let cycles = passes * tiles.div_ceil(4) + self.cfg.layer_overhead_cycles;
                    let muls = (tiles as f64 * (c_in * c_out) as f64 * 16.0 * keep) as u64;
                    (cycles, muls)
                } else {
                    // Strided convs run in plain MAC mode.
                    let macs = op.macs();
                    let per_cycle = self.cfg.array_multipliers();
                    (
                        macs.div_ceil(per_cycle) + self.cfg.layer_overhead_cycles,
                        macs,
                    )
                }
            }
            SimOp::Deconv4x4 {
                c_in,
                c_out,
                h_out,
                w_out,
            } => {
                // FTA T3(6x6,4x4): one 6×6 tile per SCU pass, 64·(1−ρ)
                // muls per kernel-tile.
                let tiles = (h_out.div_ceil(6) * w_out.div_ceil(6)) as u64;
                let passes = (c_in as u64).div_ceil(pif) * (c_out as u64).div_ceil(pof);
                let cycles = passes * tiles + self.cfg.layer_overhead_cycles;
                let muls = (tiles as f64 * (c_in * c_out) as f64 * 64.0 * keep) as u64;
                (cycles, muls)
            }
            SimOp::Conv1x1 { .. } | SimOp::Attention { .. } => {
                let macs = op.macs();
                let per_cycle = self.cfg.array_multipliers();
                (
                    macs.div_ceil(per_cycle) + self.cfg.layer_overhead_cycles,
                    macs,
                )
            }
            SimOp::DfConv3x3 { .. } => {
                let macs = op.macs();
                (
                    macs.div_ceil(self.cfg.dcc_macs_per_cycle) + self.cfg.layer_overhead_cycles,
                    macs,
                )
            }
            SimOp::Pool { c, h_out, w_out, k } => {
                let elems = (c * h_out * w_out * k * k) as u64;
                (
                    elems.div_ceil(self.cfg.array_multipliers()) + self.cfg.layer_overhead_cycles,
                    0,
                )
            }
        }
    }

    /// Splits the workload into fusable chains: maximal runs of chainable
    /// layers within one module, each ending at (and including) the first
    /// DeConv — the Conv…Conv-DeConv chains of paper Fig. 7.
    fn chains<'a>(&self, wl: &'a Workload) -> Vec<&'a [SimLayer]> {
        let layers = wl.layers();
        let mut out = Vec::new();
        let mut start = 0usize;
        let mut i = 0usize;
        while i < layers.len() {
            let l = &layers[i];
            let same_module = l.module == layers[start].module;
            if !l.op.chainable() || !same_module {
                if start < i {
                    out.push(&layers[start..i]);
                }
                out.push(&layers[i..i + 1]);
                start = i + 1;
            } else if matches!(l.op, SimOp::Deconv4x4 { .. }) {
                out.push(&layers[start..=i]);
                start = i + 1;
            }
            i += 1;
        }
        if start < layers.len() {
            out.push(&layers[start..]);
        }
        out
    }

    /// Whether a chain's rolling row working set fits the banked input
    /// buffer, and the stripe count needed when it does not.
    fn stripes_needed(&self, chain: &[SimLayer]) -> u64 {
        // Widest intermediate row in the chain (bytes): c · w · act_bits.
        let mut worst = 0u64;
        for l in chain {
            let (c, w) = match l.op {
                SimOp::Conv3x3 {
                    c_out,
                    w_out,
                    stride,
                    ..
                } => (c_out as u64, (w_out * stride) as u64),
                SimOp::Conv1x1 { c_out, w_out, .. } => (c_out as u64, w_out as u64),
                SimOp::Deconv4x4 { c_in, w_out, .. } => (c_in as u64, (w_out / 2) as u64),
                _ => (0, 0),
            };
            worst = worst.max(self.act_bytes(c * w));
        }
        worst.div_ceil(self.cfg.bank_bytes as u64).max(1)
    }

    /// Runs the workload under a dataflow.
    pub fn run(&self, wl: &Workload, dataflow: Dataflow) -> SimReport {
        let mut layer_reports = Vec::with_capacity(wl.layers().len());
        // SRAM traffic for the energy model: activations staged twice,
        // weights once (transform-domain overhead is folded into the MAC
        // energy).
        let mut sram_bits = 0.0;
        let chains = self.chains(wl);

        for chain in &chains {
            let stripes = self.stripes_needed(chain);
            // A chain ending in a fast deconvolution needs the full Fig. 7
            // row footprint (10 banked rows); conv-only chains need the
            // Winograd footprint (4 rows).
            let required_banks = if chain
                .iter()
                .any(|l| matches!(l.op, SimOp::Deconv4x4 { .. }))
            {
                10
            } else {
                4
            };
            let chained = dataflow == Dataflow::Chained
                && chain.len() > 1
                && self.cfg.input_banks >= required_banks;
            for (idx, layer) in chain.iter().enumerate() {
                let (compute_cycles, muls) = self.compute(&layer.op);
                let in_bytes = self.act_bytes(layer.op.input_elems());
                let out_bytes = self.act_bytes(layer.op.output_elems());
                let w_bytes = self.weight_bytes(&layer.op);
                sram_bits += ((in_bytes + out_bytes) * 2 + w_bytes) as f64 * 8.0;
                let dram = if chained {
                    // Chain interior stays on chip; striping re-reads a
                    // 2-row halo per stripe boundary per fused layer.
                    let first = idx == 0;
                    let last = idx == chain.len() - 1;
                    let halo = if stripes > 1 {
                        let (c, _, w) = layer.op.output_dims();
                        2 * (stripes - 1) * self.act_bytes((c * w) as u64)
                    } else {
                        0
                    };
                    (if first { in_bytes } else { 0 })
                        + (if last { out_bytes } else { 0 })
                        + w_bytes
                        + halo
                } else {
                    in_bytes + out_bytes + w_bytes
                };
                let mem_cycles = (dram as f64 / self.cfg.dram_bytes_per_cycle).ceil() as u64;
                let cycles = compute_cycles.max(mem_cycles);
                layer_reports.push(LayerReport {
                    name: layer.name.clone(),
                    module: layer.module,
                    compute_cycles,
                    dram_bytes: dram,
                    cycles,
                    physical_muls: muls,
                    effective_macs: layer.op.macs(),
                });
            }
        }

        let total_cycles: u64 = layer_reports.iter().map(|l| l.cycles).sum();
        let dram_bytes: u64 = layer_reports.iter().map(|l| l.dram_bytes).sum();
        let physical: u64 = layer_reports.iter().map(|l| l.physical_muls).sum();
        let effective: u64 = layer_reports.iter().map(|l| l.effective_macs).sum();
        let mut module_dram_bytes = BTreeMap::new();
        for l in &layer_reports {
            *module_dram_bytes.entry(l.module).or_insert(0) += l.dram_bytes;
        }

        let secs = total_cycles as f64 / (self.cfg.freq_mhz * 1e6);
        let frame_ms = secs * 1e3;
        let fps = if secs > 0.0 {
            1.0 / secs
        } else {
            f64::INFINITY
        };
        let physical_gops = 2.0 * physical as f64 / secs.max(1e-12) / 1e9;
        let effective_gops = 2.0 * effective as f64 / secs.max(1e-12) / 1e9;

        // Energy: compute + SRAM + DRAM + static.
        let chip_energy_j = physical as f64 * self.energy.pj_per_mac * 1e-12
            + sram_bits * self.energy.pj_per_sram_bit * 1e-12
            + self.energy.static_watts * secs;
        let dram_energy_j = dram_bytes as f64 * 8.0 * self.energy.pj_per_dram_bit * 1e-12;
        let power_w = chip_energy_j / secs.max(1e-12);
        let system_power_w = (chip_energy_j + dram_energy_j) / secs.max(1e-12);
        let gops_per_watt = physical_gops / power_w.max(1e-12);
        let peak_muls_per_cycle = self.cfg.array_multipliers() as f64;
        let utilization = (physical as f64 / (total_cycles as f64 * peak_muls_per_cycle)).min(1.0);

        SimReport {
            dataflow,
            layers: layer_reports,
            total_cycles,
            frame_ms,
            fps,
            dram_bytes,
            module_dram_bytes,
            physical_gops,
            effective_gops,
            power_w,
            system_power_w,
            gops_per_watt,
            utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(module: &'static str, name: &str, c: usize, hw: usize) -> SimLayer {
        SimLayer::new(
            name,
            module,
            SimOp::Conv3x3 {
                c_in: c,
                c_out: c,
                h_out: hw,
                w_out: hw,
                stride: 1,
            },
        )
    }

    fn deconv(module: &'static str, name: &str, c: usize, hw_out: usize) -> SimLayer {
        SimLayer::new(
            name,
            module,
            SimOp::Deconv4x4 {
                c_in: c,
                c_out: c,
                h_out: hw_out,
                w_out: hw_out,
            },
        )
    }

    #[test]
    fn chained_dataflow_reduces_traffic() {
        let wl = Workload::new(vec![
            conv("m", "c1", 36, 64),
            conv("m", "c2", 36, 64),
            deconv("m", "d1", 36, 128),
        ]);
        let sim = Simulator::new(NvcaConfig::paper());
        let lbl = sim.run(&wl, Dataflow::LayerByLayer);
        let ch = sim.run(&wl, Dataflow::Chained);
        assert!(
            ch.dram_bytes < lbl.dram_bytes,
            "chaining must cut traffic: {} vs {}",
            ch.dram_bytes,
            lbl.dram_bytes
        );
        let reduction = 1.0 - ch.dram_bytes as f64 / lbl.dram_bytes as f64;
        assert!(reduction > 0.2, "reduction only {:.1}%", reduction * 100.0);
        // Compute work is identical; only memory changes.
        let lbl_compute: u64 = lbl.layers.iter().map(|l| l.compute_cycles).sum();
        let ch_compute: u64 = ch.layers.iter().map(|l| l.compute_cycles).sum();
        assert_eq!(lbl_compute, ch_compute);
        assert!(ch.total_cycles <= lbl.total_cycles);
    }

    #[test]
    fn winograd_speedup_over_plain_mac_mode() {
        // The same 3×3 conv with stride 1 (Winograd) vs stride-emulated
        // plain mode: transform execution needs ~2.25× fewer cycles at
        // dense, ~4.5× at ρ=0.5... verified via physical muls.
        let sim = Simulator::new(NvcaConfig::paper());
        let fast = SimOp::Conv3x3 {
            c_in: 36,
            c_out: 36,
            h_out: 96,
            w_out: 96,
            stride: 1,
        };
        let (cycles, muls) = sim.compute(&fast);
        let direct_macs = fast.macs();
        // Physical muls at ρ=0.5 are 16/9·0.5 ≈ 0.89× the direct MACs...
        assert!(muls < direct_macs, "{muls} vs {direct_macs}");
        // Cycle count beats plain MAC mode (direct_macs / 4608).
        let plain_cycles = direct_macs.div_ceil(sim.config().array_multipliers());
        assert!(
            cycles < plain_cycles,
            "winograd {cycles} should beat plain {plain_cycles}"
        );
    }

    #[test]
    fn dfconv_runs_on_dcc() {
        let sim = Simulator::new(NvcaConfig::paper());
        let df = SimOp::DfConv3x3 {
            c_in: 36,
            c_out: 36,
            h_out: 64,
            w_out: 64,
            groups: 2,
        };
        let (cycles, muls) = sim.compute(&df);
        assert_eq!(muls, df.macs());
        assert!(cycles >= df.macs() / sim.config().dcc_macs_per_cycle);
    }

    #[test]
    fn memory_bound_layers_hide_compute() {
        // A pool layer moves data but computes almost nothing: its cycle
        // count must be dominated by DRAM under layer-by-layer.
        let wl = Workload::new(vec![SimLayer::new(
            "pool",
            "m",
            SimOp::Pool {
                c: 36,
                h_out: 256,
                w_out: 256,
                k: 2,
            },
        )]);
        let sim = Simulator::new(NvcaConfig::paper());
        let rep = sim.run(&wl, Dataflow::LayerByLayer);
        let l = &rep.layers[0];
        assert!(
            l.cycles > l.compute_cycles,
            "{} vs {}",
            l.cycles,
            l.compute_cycles
        );
    }

    #[test]
    fn utilization_and_rates_are_sane() {
        let wl = Workload::new(vec![
            conv("m", "c1", 36, 128),
            conv("m", "c2", 36, 128),
            deconv("m", "d", 36, 256),
        ]);
        let sim = Simulator::new(NvcaConfig::paper());
        let rep = sim.run(&wl, Dataflow::Chained);
        assert!(rep.utilization > 0.0 && rep.utilization <= 1.0);
        assert!(rep.physical_gops > 0.0 && rep.physical_gops <= sim.config().peak_gops() * 1.01);
        assert!(
            rep.power_w > 0.0 && rep.power_w < 10.0,
            "power {}",
            rep.power_w
        );
        assert!(
            rep.gops_per_watt > 100.0,
            "efficiency {}",
            rep.gops_per_watt
        );
        assert!(rep.fps.is_finite());
    }

    #[test]
    fn per_module_traffic_accounts_everything() {
        let wl = Workload::new(vec![conv("m1", "a", 12, 32), conv("m2", "b", 12, 32)]);
        let sim = Simulator::new(NvcaConfig::paper());
        let rep = sim.run(&wl, Dataflow::LayerByLayer);
        let sum: u64 = rep.module_dram_bytes.values().sum();
        assert_eq!(sum, rep.dram_bytes);
        assert_eq!(rep.module_dram_bytes.len(), 2);
    }

    #[test]
    fn repeated_layer_names_are_each_charged_their_own_traffic() {
        let layers =
            |second: &str| Workload::new(vec![conv("m", "x", 12, 32), deconv("m", second, 24, 64)]);
        let sim = Simulator::new(NvcaConfig::paper());
        for dataflow in [Dataflow::LayerByLayer, Dataflow::Chained] {
            let shared = sim.run(&layers("x"), dataflow);
            let distinct = sim.run(&layers("y"), dataflow);
            assert_eq!(shared.power_w, distinct.power_w, "{dataflow:?}");
        }
    }

    #[test]
    fn chains_split_on_module_and_nonchainable() {
        let wl = Workload::new(vec![
            conv("m1", "a", 4, 8),
            conv("m1", "b", 4, 8),
            SimLayer::new(
                "df",
                "m1",
                SimOp::DfConv3x3 {
                    c_in: 4,
                    c_out: 4,
                    h_out: 8,
                    w_out: 8,
                    groups: 2,
                },
            ),
            conv("m2", "c", 4, 8),
            deconv("m2", "d", 4, 16),
            conv("m2", "e", 4, 16),
        ]);
        let sim = Simulator::new(NvcaConfig::paper());
        let chains = sim.chains(&wl);
        let lens: Vec<usize> = chains.iter().map(|c| c.len()).collect();
        // [a,b], [df], [c,d], [e]
        assert_eq!(lens, vec![2, 1, 2, 1]);
    }
}
