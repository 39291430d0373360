//! What the two served workloads share: the loopback server, the
//! instruments it already publishes, and the wire-codec probes.

use super::{Layers, Window};
use crate::probes::best_ms;
use nvc::serve::proto::{MsgDecoder, VERSION};
use nvc::serve::{scrape_metrics, Role, ServeConfig, ServeReport, Server, ServerHandle};
use std::hint::black_box;

/// A default-configured server on an ephemeral loopback port. A traced
/// run also opens the live metrics endpoint, the only way to the
/// poller's own series.
pub fn spawn_server(trace: bool) -> Result<ServerHandle, String> {
    let config = ServeConfig {
        metrics_addr: trace.then(|| "127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    };
    Server::spawn("127.0.0.1:0", config).map_err(|e| format!("spawn server: {e}"))
}

/// The server's counters at one instant, plus the process-global ring
/// series (every broadcast in the process reports there).
pub struct ServedSnapshot {
    report: ServeReport,
    ring_overflows: u64,
}

impl ServedSnapshot {
    pub fn take(server: &ServerHandle) -> Self {
        ServedSnapshot {
            report: server.report(),
            ring_overflows: nvc::telemetry::counter("nvc_ring_overflow_total").get(),
        }
    }

    /// Ends a traced window: stores on `window` what the instruments saw
    /// since `self`. Call while the window's threads still exist, so the
    /// thread count is the run's.
    pub fn finish(self, server: &ServerHandle, window: &mut Window) {
        match ServedStats::since(&self, server) {
            Ok(stats) => window.served = Some(stats),
            Err(why) => window.fail(0, why),
        }
    }
}

/// What the server's instruments saw over a traced window.
#[derive(Debug, Default)]
pub struct ServedStats {
    pub poll_wakeups: u64,
    pub spurious_polls: u64,
    pub evicted: u64,
    pub rejected: u64,
    pub ring_overflows: u64,
    pub ring_occupancy_max: u64,
    pub os_threads: u64,
    /// The live scrape, taken while the server still runs.
    pub scrape: String,
}

impl ServedStats {
    /// The change since `before`, read while the window's threads and
    /// the server are still alive.
    fn since(before: &ServedSnapshot, server: &ServerHandle) -> Result<Self, String> {
        let now = ServedSnapshot::take(server);
        let scrape = match server.metrics_addr() {
            Some(addr) => scrape_metrics(addr).map_err(|e| format!("scrape: {e}"))?,
            None => String::new(),
        };
        Ok(ServedStats {
            poll_wakeups: now.report.poll_wakeups - before.report.poll_wakeups,
            spurious_polls: now.report.spurious_polls - before.report.spurious_polls,
            evicted: now.report.evicted - before.report.evicted,
            rejected: (now.report.rejected - before.report.rejected) as u64,
            ring_overflows: now.ring_overflows - before.ring_overflows,
            ring_occupancy_max: nvc::telemetry::histogram("nvc_ring_occupancy").max(),
            os_threads: crate::procfs::os_threads()?,
            scrape,
        })
    }

    pub fn report(&self, frames: u64, layers: &mut Layers) {
        layers.set(
            "serve.poll_wakeups_per_frame",
            self.poll_wakeups as f64 / frames.max(1) as f64,
        );
        layers.set(
            "serve.spurious_poll_share",
            self.spurious_polls as f64 / self.poll_wakeups.max(1) as f64,
        );
        for (series, metric) in [
            ("nvc_poll_wake_latency_us", "serve.poll_wake_latency_us_p50"),
            ("nvc_poll_park_us", "serve.poll_park_us_p50"),
        ] {
            if let Some(p50) = scrape_quantile(&self.scrape, series, "p50") {
                layers.set(metric, p50);
            }
        }
        layers.set("serve.ring_occupancy_max", self.ring_occupancy_max as f64);
        layers.set("serve.ring_overflow_total", self.ring_overflows as f64);
        layers.set("serve.evicted", self.evicted as f64);
        layers.set("serve.rejected", self.rejected as f64);
        layers.set("serve.os_threads", self.os_threads as f64);
    }
}

/// One quantile off a histogram's summary comment in the scrape text:
/// `# <series>: p50=.. p90=.. p99=.. max=..`.
pub fn scrape_quantile(scrape: &str, series: &str, quantile: &str) -> Option<f64> {
    let prefix = format!("# {series}: ");
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(prefix.as_str()))?
        .split_whitespace()
        .find_map(|field| field.strip_prefix(quantile)?.strip_prefix('='))?
        .parse()
        .ok()
}

/// The wire codec, on the workload's own bytes: the server's resumable
/// `MsgDecoder` over `inbound` (what clients send it), and `encode`
/// writing what the server sends back into a `Vec`. Also gives the
/// exact wire bytes per frame in each direction.
pub fn wire_codec(
    role: Role,
    (width, height): (usize, usize),
    inbound: &[u8],
    frames: usize,
    out_copies: usize,
    encode: &dyn Fn(&mut Vec<u8>),
    layers: &mut Layers,
) -> Result<(), String> {
    let decode = || -> Result<usize, String> {
        let mut decoder = MsgDecoder::new(role, VERSION, width, height);
        decoder.feed(black_box(inbound));
        let mut messages = 0;
        while let Some(message) = decoder.next_msg()? {
            black_box(message);
            messages += 1;
        }
        Ok(messages)
    };
    let messages = decode()?;
    if messages != frames {
        return Err(format!(
            "wire probe parsed {messages} messages, sent {frames}"
        ));
    }
    let decode_ms = best_ms(5, || {
        black_box(decode().expect("parsed once already"));
    });
    layers.set(
        "serve.msg_decode_us_per_msg",
        decode_ms * 1e3 / frames as f64,
    );
    let mut outbound = Vec::new();
    let encode_ms = best_ms(5, || {
        outbound.clear();
        encode(&mut outbound);
        black_box(&outbound);
    });
    layers.set(
        "serve.msg_encode_us_per_msg",
        encode_ms * 1e3 / frames as f64,
    );
    layers.set(
        "serve.wire_bytes_in_per_frame",
        inbound.len() as f64 / frames as f64,
    );
    layers.set(
        "serve.wire_bytes_out_per_frame",
        (outbound.len() * out_copies) as f64 / frames as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_quantiles_parse_from_the_summary_comment() {
        let scrape = "# TYPE nvc_poll_park_us histogram\n\
                      # nvc_poll_park_us: p50=1023 p90=16383 p99=32767 max=25011\n\
                      nvc_poll_park_us_bucket{le=\"1023\"} 9\n\
                      # nvc_poll_wake_latency_us: p50=63 p90=255 p99=511 max=402\n";
        assert_eq!(
            scrape_quantile(scrape, "nvc_poll_park_us", "p50"),
            Some(1023.0)
        );
        assert_eq!(
            scrape_quantile(scrape, "nvc_poll_park_us", "max"),
            Some(25011.0)
        );
        assert_eq!(
            scrape_quantile(scrape, "nvc_poll_wake_latency_us", "p90"),
            Some(255.0)
        );
        assert_eq!(scrape_quantile(scrape, "nvc_poll_park", "p50"), None);
        assert_eq!(scrape_quantile(scrape, "nvc_poll_park_us", "p75"), None);
    }
}
