//! Off-chip traffic comparison (paper Fig. 9(b)).

use crate::Nvca;
use nvc_sim::Dataflow;

/// Per-module off-chip traffic under both dataflows.
#[derive(Debug, Clone, PartialEq)]
pub struct OffchipRow {
    /// Decoder module name.
    pub module: &'static str,
    /// Bytes per frame with layer-by-layer processing (baseline).
    pub baseline_bytes: u64,
    /// Bytes per frame with heterogeneous layer chaining (NVCA).
    pub chained_bytes: u64,
}

impl OffchipRow {
    /// Traffic reduction in percent.
    pub fn reduction_pct(&self) -> f64 {
        if self.baseline_bytes == 0 {
            0.0
        } else {
            (1.0 - self.chained_bytes as f64 / self.baseline_bytes as f64) * 100.0
        }
    }
}

/// Computes the per-module off-chip comparison of Fig. 9(b) at `h × w`.
pub fn offchip_comparison(nvca: &Nvca, h: usize, w: usize) -> Vec<OffchipRow> {
    let wl = nvca.decoder_workload(h, w);
    let baseline = nvca.simulator().run(&wl, Dataflow::LayerByLayer);
    let chained = nvca.simulator().run(&wl, Dataflow::Chained);
    wl.modules()
        .into_iter()
        .map(|module| OffchipRow {
            module,
            baseline_bytes: baseline.module_dram_bytes[module],
            chained_bytes: chained.module_dram_bytes[module],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_model::CtvcConfig;

    #[test]
    fn every_module_appears_and_chaining_never_hurts() {
        let nvca = Nvca::paper_design(CtvcConfig::ctvc_sparse(36)).unwrap();
        let rows = offchip_comparison(&nvca, 1088, 1920);
        assert_eq!(rows.len(), 5, "all five Fig. 9(b) modules");
        for row in &rows {
            assert!(
                row.chained_bytes <= row.baseline_bytes,
                "{}: chaining increased traffic",
                row.module
            );
            assert!(row.reduction_pct() >= 0.0);
        }
        // At least some modules benefit substantially, as in Fig. 9(b).
        let best = rows.iter().map(|r| r.reduction_pct()).fold(0.0, f64::max);
        assert!(best > 20.0, "best module reduction only {best:.1}%");
    }

    #[test]
    fn reduction_pct_handles_zero_baseline() {
        let row = OffchipRow {
            module: "x",
            baseline_bytes: 0,
            chained_bytes: 0,
        };
        assert_eq!(row.reduction_pct(), 0.0);
    }
}
