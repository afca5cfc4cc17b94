//! Lock-free counters for the net plane.

use std::sync::atomic::{AtomicU64, Ordering};

use rqfa_telemetry::{MetricSource, Sample};

/// Net-plane counters: frames and bytes in each direction, the
/// retry/timeout tallies that make a flaky link visible, and the
/// connections drawn — which read against the frames shows a client's
/// connections being reused. All relaxed atomics — increments sit on the
/// request path.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Frames successfully written.
    pub frames_sent: AtomicU64,
    /// Frames successfully received and decoded.
    pub frames_received: AtomicU64,
    /// Bytes written as frames.
    pub bytes_sent: AtomicU64,
    /// Bytes received as frames.
    pub bytes_received: AtomicU64,
    /// Reconnect-and-resend attempts beyond the first.
    pub retries: AtomicU64,
    /// Receive attempts that timed out.
    pub timeouts: AtomicU64,
    /// Connections established (stream-factory draws that succeeded). A
    /// client keeps its connections, so this tracks its concurrent
    /// callers plus its retries — not its calls.
    pub connects: AtomicU64,
}

impl NetStats {
    /// Fresh zeroed counters.
    pub fn new() -> NetStats {
        NetStats::default()
    }

    /// Records a sent frame of `bytes` bytes.
    pub fn on_sent(&self, bytes: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records a received frame of `bytes` bytes.
    pub fn on_received(&self, bytes: usize) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one retry.
    pub fn on_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one receive timeout.
    pub fn on_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one established connection.
    pub fn on_connect(&self) {
        self.connects.fetch_add(1, Ordering::Relaxed);
    }
}

impl MetricSource for NetStats {
    fn collect(&self, out: &mut Vec<Sample>) {
        out.push(Sample::count(
            "frames_sent",
            self.frames_sent.load(Ordering::Relaxed),
        ));
        out.push(Sample::count(
            "frames_received",
            self.frames_received.load(Ordering::Relaxed),
        ));
        out.push(Sample::new(
            "bytes_sent",
            "bytes",
            #[allow(clippy::cast_precision_loss)]
            {
                self.bytes_sent.load(Ordering::Relaxed) as f64
            },
        ));
        out.push(Sample::new(
            "bytes_received",
            "bytes",
            #[allow(clippy::cast_precision_loss)]
            {
                self.bytes_received.load(Ordering::Relaxed) as f64
            },
        ));
        out.push(Sample::count("retries", self.retries.load(Ordering::Relaxed)));
        out.push(Sample::count(
            "timeouts",
            self.timeouts.load(Ordering::Relaxed),
        ));
        out.push(Sample::count(
            "connects",
            self.connects.load(Ordering::Relaxed),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_all_seven_counters() {
        let stats = NetStats::new();
        stats.on_sent(64);
        stats.on_sent(16);
        stats.on_received(64);
        stats.on_retry();
        stats.on_timeout();
        stats.on_connect();
        let mut out = Vec::new();
        stats.collect(&mut out);
        assert_eq!(out.len(), 7);
        let get = |name: &str| {
            out.iter()
                .find(|s| s.name == name)
                .map(|s| s.value)
                .unwrap()
        };
        assert_eq!(get("frames_sent"), 2.0);
        assert_eq!(get("bytes_sent"), 80.0);
        assert_eq!(get("frames_received"), 1.0);
        assert_eq!(get("retries"), 1.0);
        assert_eq!(get("timeouts"), 1.0);
        assert_eq!(get("connects"), 1.0);
    }
}
