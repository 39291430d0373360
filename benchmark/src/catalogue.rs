//! Every name the benchmark prints: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is this table printed by `--manifest`; a test holds the two
//! equal, and another holds a run's printed names equal to the table.

use crate::json::Json;

/// How long one run measures, as the driver passes it in `--seconds`.
pub const RUN_SECONDS: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "decode_sparse",
        why: "The paper's decoder in-process: sparse Winograd/FTA kernels, Swin-AM mask and range decoder do all the work; nvc-serve does none.",
    },
    Workload {
        name: "encode_sparse",
        why: "The same layers the other way: analysis, motion search, range encoder plus the embedded decode loop; shows a decode gain that taxes the encoder.",
    },
    Workload {
        name: "serve_sessions",
        why: "C loopback decode connections on small dense kernels: socket, MsgDecoder, scheduler, ExecPool lease and the 73 KB frame write are a large share.",
    },
    Workload {
        name: "relay_live",
        why: "One hybrid publisher fanned out to C-1 subscribers: poller wake-ups, segment cache and ring writes dominate; CTVC kernels do nothing here.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Bounds are three times the quartile spread seen over ten seeds on the
/// 2-core reference host, capped at the contract's 0.25; the README has
/// the measurements. `frame_ms_p90` could not hold that and is the
/// per-layer `loadgen.frame_ms_p90`.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("fps", "frames/s", Better::Higher, 0.25),
    e2e("frame_ms_p50", "ms", Better::Lower, 0.25),
    e2e("cpu_ms_per_frame", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("bpp", "bits/pixel", Better::Lower, 0.12),
    e2e("psnr_db", "dB", Better::Higher, 0.12),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Per-layer metrics, prefixed with the crate that owns the layer. A
/// metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: [Layer; 87] = [
    // nvc-tensor: direct kernels at the perf_hotpath shape.
    lo("tensor.conv3x3_direct_ms", "ms"),
    lo("tensor.deconv_direct_ms", "ms"),
    hi("tensor.matmul_gflops", "GFLOP/s"),
    // nvc-fastalg: probes, exact operation counts, in-run kernel time.
    lo("fastalg.winograd_dense_ms", "ms"),
    lo("fastalg.winograd_sparse50_ms", "ms"),
    lo("fastalg.fta_dense_ms", "ms"),
    lo("fastalg.fta_sparse50_ms", "ms"),
    hi("fastalg.sparse_speedup", "ratio"),
    lo("fastalg.hadamard_mults_dense", "count"),
    lo("fastalg.hadamard_mults_sparse50", "count"),
    lo("fastalg.winograd_sparse_ms_per_frame", "ms"),
    lo("fastalg.fta_sparse_ms_per_frame", "ms"),
    lo("fastalg.winograd_dense_ms_per_frame", "ms"),
    lo("fastalg.fta_dense_ms_per_frame", "ms"),
    // nvc-model: public modules on workload-shaped tensors.
    lo("model.synthesis_ms", "ms"),
    lo("model.compensation_ms", "ms"),
    lo("model.reconstruction_ms", "ms"),
    lo("model.latent_mask_ms", "ms"),
    lo("model.attention_swin_ms", "ms"),
    lo("model.feature_extract_ms", "ms"),
    lo("model.analysis_ms", "ms"),
    lo("model.motion_search_ms", "ms"),
    hi("model.decode_probe_coverage", "ratio"),
    hi("model.encode_probe_coverage", "ratio"),
    lo("model.decode_p_ms_p50", "ms"),
    lo("model.decode_intra_ms_p50", "ms"),
    lo("model.encode_p_ms_p50", "ms"),
    // nvc-entropy.
    hi("entropy.range_decode_msym_s", "Msym/s"),
    hi("entropy.range_encode_msym_s", "Msym/s"),
    lo("entropy.packet_parse_us", "us"),
    hi("entropy.crc32_mb_s", "MB/s"),
    // nvc-core (crates/exec).
    hi("exec.thread_scaling_decode", "ratio"),
    hi("exec.thread_scaling_encode", "ratio"),
    lo("exec.pool_lease_wait_us_p50", "us"),
    lo("exec.pool_lease_wait_us_p90", "us"),
    lo("exec.pool_lease_hold_us_p50", "us"),
    // nvc-baseline.
    lo("baseline.encode_ms_p50", "ms"),
    lo("baseline.decode_ms_p50", "ms"),
    // nvc-serve.
    lo("serve.handshake_ms_p50", "ms"),
    lo("serve.join_ms_p50", "ms"),
    lo("serve.msg_decode_us_per_msg", "us"),
    lo("serve.msg_encode_us_per_msg", "us"),
    lo("serve.overhead_ms_p50", "ms"),
    hi("serve.capacity_efficiency", "ratio"),
    lo("serve.poll_wakeups_per_frame", "count"),
    lo("serve.spurious_poll_share", "ratio"),
    lo("serve.poll_wake_latency_us_p50", "us"),
    lo("serve.poll_park_us_p50", "us"),
    lo("serve.ring_occupancy_max", "count"),
    lo("serve.ring_overflow_total", "count"),
    lo("serve.evicted", "count"),
    lo("serve.rejected", "count"),
    lo("serve.wire_bytes_in_per_frame", "bytes"),
    lo("serve.wire_bytes_out_per_frame", "bytes"),
    lo("serve.os_threads", "count"),
    // nvc-sim + nvca: simulated time repeats exactly; host time does not.
    lo("sim.decode_cycles_per_frame", "cycles"),
    lo("sim.intra_cycles_per_frame", "cycles"),
    lo("sim.offchip_bytes_chained", "bytes"),
    lo("sim.offchip_bytes_layerwise", "bytes"),
    hi("sim.offchip_reduction_pct", "%"),
    hi("sim.utilization", "ratio"),
    hi("sim.simulated_fps", "frames/s"),
    lo("sim.cycles_share.feature_extraction", "ratio"),
    lo("sim.cycles_share.motion_synthesis", "ratio"),
    lo("sim.cycles_share.deformable_compensation", "ratio"),
    lo("sim.cycles_share.residual_synthesis", "ratio"),
    lo("sim.cycles_share.frame_reconstruction", "ratio"),
    lo("sim.host_us_per_frame", "us"),
    // nvc-telemetry, nvc-quant, nvc-video.
    lo("telemetry.span_overhead_ratio", "ratio"),
    lo("quant.actq_ms", "ms"),
    lo("video.synth_ms_per_frame", "ms"),
    lo("video.psnr_ms_per_frame", "ms"),
    // The load generator and the benchmark itself.
    lo("loadgen.late_ms_p90", "ms"),
    hi("loadgen.on_time_share", "ratio"),
    lo("loadgen.frame_ms_p90", "ms"),
    lo("loadgen.frame_ms_p99", "ms"),
    lo("loadgen.frame_samples", "count"),
    lo("bench.fps_iqr_pct", "%"),
    lo("bench.trace_overhead_ratio", "ratio"),
    lo("bench.spans", "count"),
    lo("bench.passes", "count"),
    lo("bench.cores", "count"),
    lo("bench.clients", "count"),
    // Exact but zero on a clean tree, so not an end-to-end metric.
    lo("bench.failed_share", "ratio"),
    // Phase split of the two served workloads.
    hi("loadgen.capacity_fps", "frames/s"),
    hi("loadgen.paced_fps", "frames/s"),
    lo("loadgen.paced_rate_fps", "frames/s"),
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ])
    });
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let list = |items: Vec<Json>| {
        let lines: Vec<String> = items.iter().map(|i| format!("    {i}")).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Json::Arr(command.into_iter().map(Json::str).collect()),
        list(workloads.collect()),
        list(end_to_end.collect()),
        list(per_layer.collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn manifest_on_disk_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `--manifest`");
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let text = manifest();
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "set-up time gets the largest bound");
    }
}
