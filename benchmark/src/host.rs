//! Host-side instruments: the span recorder around calls into the crates,
//! peak memory, and the calibration loop that says whether the box was
//! quiet enough for a host number to mean anything.

use std::time::Instant;

/// One host-time span around a call the harness made into a crate.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Traced iteration the call belonged to.
    pub iter: u32,
}

/// Keeps spans in memory; they are written out when the benchmark ends.
/// Off during the timed iterations, so end-to-end host metrics are
/// measured with tracing off.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub on: bool,
    pub iter: u32,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            on: false,
            iter: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f`, recording a span named `name` around it when recording
    /// is on. Returns `f`'s value and its wall time in seconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                iter: self.iter,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let t = Instant::now();
        let r = f(self);
        let dt = t.elapsed().as_secs_f64();
        if let Some(i) = slot {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
            self.open.pop();
        }
        (r, dt)
    }

    /// [`Recorder::timed`] without the wall time.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.timed(name, f).0
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Times a fixed `1 << log2_steps`-step xorshift loop: pure register
/// arithmetic, so two readings differ only by what else the host was
/// doing (or by frequency scaling).
pub fn calibrate(log2_steps: u32) -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..1u64 << log2_steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_only_record_when_on() {
        let mut r = Recorder::new(Instant::now());
        r.scope("off", |_| ());
        assert!(r.spans.is_empty());
        r.on = true;
        r.iter = 4;
        let v = r.scope("outer", |r| r.scope("inner", |_| 5) + 1);
        assert_eq!(v, 6);
        r.scope("next", |_| ());
        let shape: Vec<_> = r.spans.iter().map(|s| (s.name, s.parent, s.iter)).collect();
        assert_eq!(
            shape,
            [("outer", None, 4), ("inner", Some(0), 4), ("next", None, 4)]
        );
        assert!(r.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(
            r.spans[1].start_ns >= r.spans[0].start_ns && r.spans[1].end_ns <= r.spans[0].end_ns
        );
    }

    #[test]
    fn reads_a_positive_peak_rss() {
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
    }
}
