//! Reference platforms for the paper's Table II.
//!
//! The GPU, CPU and prior-accelerator rows of Table II are **published
//! reference constants** (the paper's own measurements/citations), not
//! simulated here; each row is tagged with its [`Provenance`] so the
//! Table II harness can print measured and cited values side by side
//! without conflating them.

/// Where a row's numbers come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Reproduced by this repository (simulator or local measurement).
    Reproduced,
    /// Carried verbatim from the paper / cited work.
    Cited,
}

/// One Table II row.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformRow {
    /// Platform name.
    pub name: &'static str,
    /// Task / benchmark the row was evaluated on.
    pub benchmark: &'static str,
    /// Process node in nm (0 = not applicable).
    pub technology_nm: u32,
    /// Clock in MHz.
    pub freq_mhz: f64,
    /// Precision description (activations–weights).
    pub precision: &'static str,
    /// Gate count in millions (None = unreported).
    pub gate_count_m: Option<f64>,
    /// On-chip memory in KB (None = unreported).
    pub sram_kb: Option<f64>,
    /// Power in watts.
    pub power_w: f64,
    /// Throughput in GOPS.
    pub throughput_gops: f64,
    /// Provenance tag.
    pub provenance: Provenance,
}

impl PlatformRow {
    /// Energy efficiency in GOPS/W.
    pub fn gops_per_watt(&self) -> f64 {
        self.throughput_gops / self.power_w.max(1e-9)
    }
}

/// Intel i9-9900X row (paper Table II, CPU column).
pub fn cpu_i9_9900x() -> PlatformRow {
    PlatformRow {
        name: "CPU (i9-9900X)",
        benchmark: "CTVC-Net",
        technology_nm: 14,
        freq_mhz: 3500.0,
        precision: "FP 32-32",
        gate_count_m: None,
        sram_kb: None,
        power_w: 121.2,
        throughput_gops: 317.0,
        provenance: Provenance::Cited,
    }
}

/// NVIDIA RTX 3090 row (paper Table II, GPU column).
pub fn gpu_rtx3090() -> PlatformRow {
    PlatformRow {
        name: "GPU (RTX 3090)",
        benchmark: "CTVC-Net",
        technology_nm: 8,
        freq_mhz: 1700.0,
        precision: "FP 32-32",
        gate_count_m: None,
        sram_kb: None,
        power_w: 257.1,
        throughput_gops: 1493.0,
        provenance: Provenance::Cited,
    }
}

/// Shao et al. TCAS-I 2022 \[25\] (interlayer feature-map-compression CNN
/// accelerator).
pub fn shao_tcas2022() -> PlatformRow {
    PlatformRow {
        name: "[25] TCAS-I'22",
        benchmark: "VGG16",
        technology_nm: 28,
        freq_mhz: 700.0,
        precision: "FXP 16-16",
        gate_count_m: Some(1.12),
        sram_kb: Some(480.0),
        power_w: 0.19,
        throughput_gops: 403.0,
        provenance: Provenance::Cited,
    }
}

/// Alchemist \[26\] (compressed-video-analysis accelerator, scaled from
/// 65 nm as in the paper).
pub fn alchemist() -> PlatformRow {
    PlatformRow {
        name: "Alchemist [26]",
        benchmark: "VGG16",
        technology_nm: 65,
        freq_mhz: 800.0,
        precision: "FXP 16-16",
        gate_count_m: Some(3.03),
        sram_kb: Some(512.0),
        power_w: 0.33,
        throughput_gops: 833.0,
        provenance: Provenance::Cited,
    }
}

/// The paper's own NVCA row, for cross-checking the simulator against the
/// published design point.
pub fn nvca_published() -> PlatformRow {
    PlatformRow {
        name: "NVCA (paper)",
        benchmark: "CTVC-Net",
        technology_nm: 28,
        freq_mhz: 400.0,
        precision: "FXP 12-16",
        gate_count_m: Some(5.01),
        sram_kb: Some(373.0),
        power_w: 0.76,
        throughput_gops: 3525.0,
        provenance: Provenance::Cited,
    }
}

/// All cited comparator rows in the paper's column order.
pub fn cited_rows() -> Vec<PlatformRow> {
    vec![
        cpu_i9_9900x(),
        gpu_rtx3090(),
        shao_tcas2022(),
        alchemist(),
        nvca_published(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_matches_paper_arithmetic() {
        // Table II reports 2.6, 5.8, 2121.1, 2524.2, 4638.2 GOPS/W.
        assert!((cpu_i9_9900x().gops_per_watt() - 2.6).abs() < 0.1);
        assert!((gpu_rtx3090().gops_per_watt() - 5.8).abs() < 0.1);
        assert!((shao_tcas2022().gops_per_watt() - 2121.1).abs() < 2.0);
        assert!((alchemist().gops_per_watt() - 2524.2).abs() < 2.0);
        assert!((nvca_published().gops_per_watt() - 4638.2).abs() < 2.0);
    }

    #[test]
    fn paper_speedup_claims_hold_on_the_rows() {
        // "2.4× higher throughput ... than the GPU", "11.1× ... than CPU",
        // "up to 8.7× higher throughput and 2.2× better energy efficiency"
        // vs [25]/[26].
        let nvca = nvca_published();
        assert!(nvca.throughput_gops / gpu_rtx3090().throughput_gops > 2.3);
        assert!(nvca.throughput_gops / cpu_i9_9900x().throughput_gops > 11.0);
        assert!(nvca.throughput_gops / shao_tcas2022().throughput_gops > 8.5);
        assert!(nvca.gops_per_watt() / shao_tcas2022().gops_per_watt() > 2.1);
    }

    #[test]
    fn provenance_is_explicit() {
        for row in cited_rows() {
            assert_eq!(row.provenance, Provenance::Cited, "{}", row.name);
        }
    }
}
