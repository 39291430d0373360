//! Pins every number the simulator derives from the decoder description:
//! the layer lists of the P-frame and intra workloads (FNV-1a 64 of their
//! `Debug` form) and each report's cycles, off-chip bytes, per-module
//! bytes, power and utilization under both dataflows. A failure here means
//! a `sim.*` count moved — a change to the modelled hardware, not a test
//! to update.

use nvc_model::CtvcConfig;
use nvc_sim::{Dataflow, SimReport, Workload};
use nvca::Nvca;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn report_line(r: &SimReport) -> String {
    format!(
        "{:?} cycles {} dram {} modules {:#018x} power {:#018x} util {:#018x}",
        r.dataflow,
        r.total_cycles,
        r.dram_bytes,
        fnv1a(&format!("{:?}", r.module_dram_bytes)),
        r.power_w.to_bits(),
        r.utilization.to_bits(),
    )
}

fn assert_pinned(cfg: CtvcConfig, h: usize, w: usize, want: [&str; 6]) {
    let nvca = Nvca::paper_design(cfg).expect("valid config");
    let workloads: [(&str, Workload); 2] = [
        ("decoder", nvca.decoder_workload(h, w)),
        ("intra", nvca.intra_workload(h, w)),
    ];
    let mut out = String::new();
    for (name, wl) in &workloads {
        out += &format!(
            "{name} layers {:#018x}\n",
            fnv1a(&format!("{:?}", wl.layers()))
        );
        for dataflow in [Dataflow::LayerByLayer, Dataflow::Chained] {
            out += &format!(
                "{name} {}\n",
                report_line(&nvca.simulator().run(wl, dataflow))
            );
        }
    }
    assert_eq!(out.lines().collect::<Vec<_>>(), want);
}

#[test]
fn ctvc_sparse_1080p_is_pinned() {
    assert_pinned(
        CtvcConfig::ctvc_sparse(36), 1088, 1920,
        [
            "decoder layers 0x76c9457dcf13a25a",
            "decoder LayerByLayer cycles 30088206 dram 962822592 modules 0xb5d85af8684cd953 power 0x3fc095c01ddda660 util 0x3fc2a674dbcfcb28",
            "decoder Chained cycles 12570445 dram 373470912 modules 0xcd8abbdb07a368d3 power 0x3fccfe9fe863956c util 0x3fd651fdce8eeda3",
            "intra layers 0xf094873c6c639015",
            "intra LayerByLayer cycles 4702428 dram 150477696 modules 0x20b2972f103c75a6 power 0x3fbfdf0bf19666cc util 0x3fc12e66863e0ec1",
            "intra Chained cycles 1473940 dram 37898496 modules 0x73d8ab59840d88cf power 0x3fd1026216e47dc6 util 0x3fdb68488eebd40d",
        ],
    );
}

#[test]
fn ctvc_fp_1080p_is_pinned() {
    assert_pinned(
        CtvcConfig::ctvc_fp(36), 1088, 1920,
        [
            "decoder layers 0x76c9457dcf13a25a",
            "decoder LayerByLayer cycles 30145959 dram 964670688 modules 0x0d60836a1a26d2d0 power 0x3fc634f143fdbcc7 util 0x3fbf5c336852bf65",
            "decoder Chained cycles 12594777 dram 375319008 modules 0xf584bb02112480f4 power 0x3fd539a44dff20e0 util 0x3fd2c3ee9c02af0a",
            "intra layers 0xf094873c6c639015",
            "intra LayerByLayer cycles 4704696 dram 150550272 modules 0x2062dbee2e128b14 power 0x3fc787518f18b172 util 0x3fc12c47b76699af",
            "intra Chained cycles 1475236 dram 37971072 modules 0x83499cdbacd2c207 power 0x3fdd1c89dad25b06 util 0x3fdb621e9e2f368c",
        ],
    );
}

#[test]
fn fvc_like_small_is_pinned() {
    assert_pinned(
        CtvcConfig::fvc_like(12), 64, 96,
        [
            "decoder layers 0xd5b419c456d7e56d",
            "decoder LayerByLayer cycles 43687 dram 1397952 modules 0xe04f17f405c81eb9 power 0x3fb82956132c95d8 util 0x3fa1465f030a90ba",
            "decoder Chained cycles 25993 dram 829440 modules 0x1150cedaf86ee515 power 0x3fbe271f4c471c1e util 0x3fad08c6791ee042",
            "intra layers 0x024bcef4cce1b62f",
            "intra LayerByLayer cycles 5832 dram 186624 modules 0x0721447b4881cd20 power 0x3fb9c363400197a0 util 0x3fa4b802cf301c18",
            "intra Chained cycles 2376 dram 76032 modules 0x12ded6986324eb63 power 0x3fc4729633175d76 util 0x3fb96d77cfbb0b35",
        ],
    );
}

#[test]
fn dvc_like_small_is_pinned() {
    assert_pinned(
        CtvcConfig::dvc_like(12), 64, 96,
        [
            "decoder layers 0xd5b419c456d7e56d",
            "decoder LayerByLayer cycles 43687 dram 1397952 modules 0xe04f17f405c81eb9 power 0x3fb82956132c95d8 util 0x3fa1465f030a90ba",
            "decoder Chained cycles 25993 dram 829440 modules 0x1150cedaf86ee515 power 0x3fbe271f4c471c1e util 0x3fad08c6791ee042",
            "intra layers 0x024bcef4cce1b62f",
            "intra LayerByLayer cycles 5832 dram 186624 modules 0x0721447b4881cd20 power 0x3fb9c363400197a0 util 0x3fa4b802cf301c18",
            "intra Chained cycles 2376 dram 76032 modules 0x12ded6986324eb63 power 0x3fc4729633175d76 util 0x3fb96d77cfbb0b35",
        ],
    );
}
