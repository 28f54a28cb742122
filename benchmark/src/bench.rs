//! One workload's measurement procedure.
//!
//! 1. Set up several times (schedule generation, cluster + runtime build,
//!    one warm-up iteration) — `setup_s` is the median.
//! 2. Timed iterations with the obs bus off until `--seconds` have passed:
//!    `host_iter_s` is the median wall time of the `run(..)` call,
//!    `peak_rss_mb` is read after the tenth.
//! 3. Simulated metrics: kernels read them off the same iterations (their
//!    inputs are fixed, every iteration is the same simulation); the
//!    service runs several seed-derived replicas with the bus on and pools
//!    their request spans, then (open loop) scans for capacity.
//! 4. With `--trace 1`: traced iterations, the window-clipped stall and
//!    layer profile, context runs, probes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use obs::Layer;
use traffic::schedule;

use crate::host::{calibrate, peak_rss_mib, Recorder, Span};
use crate::run::{
    closed_zipf, counts, open_uniform, run, take_request_latencies, Input, Kernel, KernelInput,
    Metrics, RunOut,
};
use crate::scan::{capacity, SCAN};
use crate::stats::{median, percentile, tail_percentile};
use crate::{probes, spec, window};

/// Offered rate of the timed and reference runs of `svc_open_uniform`:
/// about three quarters of today's capacity.
const REF_RATE: u64 = 4_000;
/// Context rates whose p99 is reported beside the reference rate's.
const CONTEXT_RATES: [(u64, &str); 2] = [
    (3_000, "apps.svc_p99_ns_r3000"),
    (5_000, "apps.svc_p99_ns_r5000"),
];
/// A capacity step passes only with the exact p99 at or below this.
const P99_LIMIT_NS: u64 = 3_000_000;
/// ... and with the serving window within this factor of the schedule's
/// horizon: beyond it the backlog is growing.
const BACKLOG_FACTOR: f64 = 1.02;

/// How much work a run does around its `--seconds` of timed iterations.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Timed iterations made even when `--seconds` is already over.
    pub min_iters: usize,
    /// Iterations with the obs bus on (`--trace 1`).
    pub traced_iters: usize,
    /// Requests per service run.
    pub requests: u32,
    /// Seed-derived traffic replicas pooled for the service's latency
    /// percentiles and window.
    pub ref_replicas: usize,
    /// Replicas pooled at each step of a capacity scan.
    pub scan_replicas: usize,
    /// Divisor of the probes' call counts.
    pub probe_div: u64,
    /// log2 of the calibration loop's step count.
    pub calib_log2: u32,
}

/// Problem sizes never change; only how often things are repeated does.
pub const FULL: Sizes = Sizes {
    setups: 5,
    min_iters: 10,
    traced_iters: 10,
    requests: 10_000,
    ref_replicas: 8,
    scan_replicas: 3,
    probe_div: 1,
    calib_log2: 27,
};

/// `--check` / `--smoke`: N = 3, a tenth of the requests, one replica per
/// scan step. Enough to compare two runs bit for bit, not to read a
/// number off.
pub const SMOKE: Sizes = Sizes {
    setups: 1,
    min_iters: 3,
    traced_iters: 2,
    requests: 1_000,
    ref_replicas: 2,
    scan_replicas: 1,
    probe_div: 50,
    calib_log2: 22,
};

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// What one workload's run reports.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub e2e: Metrics,
    /// Empty without `--trace 1`.
    pub layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check, in words. Empty on a correct run.
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Kernel(KernelInput),
    Open,
    Closed,
}

/// Nodes of the service deployment (2-way SMPs).
const SVC_NODES: usize = 4;

fn shape(workload: &str) -> Option<Shape> {
    let kernel = |kernel, nodes| {
        Shape::Kernel(KernelInput {
            kernel,
            nodes,
            procs: nodes * 2,
            verify: false,
            base: false,
        })
    };
    Some(match workload {
        "fft_fetch" => kernel(Kernel::Fft, 4),
        "radix_diff" => kernel(Kernel::Radix, 4),
        "lu_sync" => kernel(Kernel::Lu, 8),
        "svc_open_uniform" => Shape::Open,
        "svc_closed_zipf" => Shape::Closed,
        _ => return None,
    })
}

/// Seed of traffic replica `k`. Replica 0 is `--seed` itself (uniform
/// traffic takes it as is, zipfian adds one); the others are
/// splitmix64-derived, so consecutive `--seed` values share no replica.
fn replica_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((k as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Failures counted against attempts, and failed checks in words.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, what: &str, out: &RunOut) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        if out.failed > 0 {
            self.problems.push(format!("{what}: {}", out.why));
        }
    }

    /// A run whose simulated outcome differs from an identical earlier
    /// run fails whole.
    fn must_repeat(&mut self, what: &str, out: &RunOut, same: bool) {
        if !same {
            self.failed += out.attempted;
            self.problems
                .push(format!("{what}: simulated outcome differs between repeats"));
        }
    }
}

type QuickSig = (u64, u64, u64, Option<apps::service::ServiceOutcome>);

fn quick_sig(o: &RunOut) -> QuickSig {
    (o.total_ns, o.window_ns, o.digest, o.svc)
}

struct Ctx<'a> {
    o: &'a Opts,
    rec: Recorder,
    tally: Tally,
    /// Host seconds per generated request, one sample per schedule built.
    schedule_ns_per_req: Vec<f64>,
}

impl Ctx<'_> {
    /// Builds the input of one run of `shape`: nothing to prepare for a
    /// kernel (its inputs are fixed inside `apps`), a generated schedule
    /// for the service.
    fn input(&mut self, shape: Shape, replica: usize, rate: u64, nodes: usize) -> Input {
        let seed = replica_seed(self.o.seed, replica);
        let requests = self.o.sizes.requests;
        let cfg = match shape {
            Shape::Kernel(k) => return Input::Kernel(k),
            Shape::Open => open_uniform(seed, requests, rate),
            Shape::Closed => closed_zipf(seed.wrapping_add(1), requests),
        };
        let (sched, dt) = self.rec.timed("traffic.schedule", |_| schedule(&cfg));
        self.schedule_ns_per_req
            .push(dt * 1e9 / f64::from(requests));
        Input::Service {
            nodes,
            sched: Arc::new(sched),
        }
    }
}

/// Request spans pooled over the replicas of one (shape, rate, nodes).
struct Pooled {
    /// Every replica's request latencies, ascending.
    lat: Vec<u64>,
    serve_ns: Vec<f64>,
    total_ns: Vec<f64>,
    /// Every request of every replica answered, one span each.
    answered: bool,
    /// Every replica's serving window within `BACKLOG_FACTOR` of its
    /// schedule's horizon (always true for a closed loop).
    no_backlog: bool,
    /// Replica 0: its outcome, its exact p99, and the p99 the obs
    /// service-layer log2 histogram interpolates.
    first: QuickSig,
    first_p99: u64,
    first_hist_p99: u64,
}

impl Pooled {
    fn p(&self, pct: f64) -> f64 {
        percentile(&self.lat, pct) as f64
    }

    fn passes(&self) -> bool {
        self.answered && self.no_backlog && percentile(&self.lat, 99.0) <= P99_LIMIT_NS
    }
}

/// Runs `replicas` seed-derived replicas of the service with the obs bus
/// on and pools their request spans. A `reference` run adds its requests
/// to the attempted/failed tally and reads the obs histogram's p99 beside
/// the exact one; a capacity step — which overloads the service on
/// purpose — does neither.
fn pooled(
    cx: &mut Ctx,
    shape: Shape,
    rate: u64,
    nodes: usize,
    replicas: usize,
    reference: bool,
) -> Result<Pooled, String> {
    let mut p = Pooled {
        lat: Vec::new(),
        serve_ns: Vec::new(),
        total_ns: Vec::new(),
        answered: true,
        no_backlog: true,
        first: (0, 0, 0, None),
        first_p99: 0,
        first_hist_p99: 0,
    };
    for k in 0..replicas {
        let input = cx.input(shape, k, rate, nodes);
        let Input::Service { sched, .. } = &input else {
            return Err("pooled latencies need a service workload".to_string());
        };
        let (requests, horizon) = (sched.requests.len(), sched.horizon_ns());
        let out = run(&input, true, &mut cx.rec)?;
        if reference {
            cx.tally.add(&format!("replica {k} at {rate} rps"), &out);
        }
        let rt = out.rt.as_ref().ok_or("service run without a runtime")?;
        if reference && k == 0 {
            let snap = cx.rec.scope("obs.snapshot", |_| rt.svm().obs().snapshot());
            p.first_hist_p99 = snap.hists[Layer::Service.index()].percentile(99.0);
        }
        let lat = cx.rec.scope("obs.events", |_| take_request_latencies(rt))?;
        if lat.is_empty() {
            return Err(format!("no request spans recorded at {rate} rps"));
        }
        if k == 0 {
            p.first = quick_sig(&out);
            p.first_p99 = percentile(&lat, 99.0);
        }
        p.answered &= out.failed == 0 && lat.len() == requests;
        if matches!(shape, Shape::Open) {
            p.no_backlog &= out.window_ns as f64 <= BACKLOG_FACTOR * horizon as f64;
        }
        p.serve_ns.push(out.window_ns as f64);
        p.total_ns.push(out.total_ns as f64);
        p.lat.extend(lat);
    }
    p.lat.sort_unstable();
    Ok(p)
}

/// The capacity scan on `nodes` nodes. Returns the last passing rate and
/// the pooled p99 of every rate it visited.
fn capacity_scan(cx: &mut Ctx, nodes: usize) -> Result<(u64, BTreeMap<u64, f64>), String> {
    let mut p99 = BTreeMap::new();
    let mut err = None;
    let replicas = cx.o.sizes.scan_replicas;
    let cap = capacity(&SCAN, |rate| {
        if err.is_some() {
            return false;
        }
        match pooled(cx, Shape::Open, rate, nodes, replicas, false) {
            Ok(p) => {
                p99.insert(rate, p.p(99.0));
                p.passes()
            }
            Err(e) => {
                err = Some(e);
                false
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok((cap, p99)),
    }
}

/// Runs one workload and reports its metrics. `origin` is the process's
/// start: the first set-up is timed from it.
pub fn run_workload(workload: &'static str, o: &Opts, origin: Instant) -> Result<Report, String> {
    let shape = shape(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let nodes = match shape {
        Shape::Kernel(k) => k.nodes,
        _ => SVC_NODES,
    };
    let mut cx = Ctx {
        o,
        rec: Recorder::new(origin),
        tally: Tally::default(),
        schedule_ns_per_req: Vec::new(),
    };
    let mut e2e = Metrics::new();
    let mut layer = Metrics::new();

    // ---- 1. Set-up, several times; the first from process start ----
    let mut setups = Vec::new();
    let mut warm = None;
    for k in 0..o.sizes.setups.max(1) {
        let t = if k == 0 { origin } else { Instant::now() };
        let input = cx.input(shape, 0, REF_RATE, nodes);
        let out = run(&input, false, &mut cx.rec)?;
        setups.push(t.elapsed().as_secs_f64());
        cx.tally.add("warm-up", &out);
        if let Some((_, first)) = &warm {
            cx.tally
                .must_repeat("warm-up", &out, quick_sig(&out) == *first);
        } else {
            warm = Some((input, quick_sig(&out)));
        }
    }
    let (input, reference) = warm.expect("at least one set-up");
    e2e.insert("setup_s", median(&mut setups));

    // ---- 2. Timed iterations, obs off ----
    let calib_before = o.trace.then(|| calibrate(o.sizes.calib_log2));
    let mut iters = Vec::new();
    let timed = Instant::now();
    let mut base_counts = None;
    let mut rss_at_min_iters = 0.0;
    while iters.len() < o.sizes.min_iters || timed.elapsed().as_secs_f64() < o.seconds {
        // `out` owns the run's cluster and dies with the loop body: one
        // simulated cluster resident at a time.
        let out = run(&input, false, &mut cx.rec)?;
        iters.push(out.host_s);
        cx.tally.add("timed iteration", &out);
        cx.tally
            .must_repeat("timed iteration", &out, quick_sig(&out) == reference);
        if base_counts.is_none() {
            let rt = out
                .rt
                .as_ref()
                .ok_or("workload ran without a CableS runtime")?;
            base_counts = Some(counts(rt, &out));
        }
        // Peak memory is read after a fixed number of iterations: the
        // resident set creeps up with the iteration count (allocator
        // fragmentation: 38 MiB after 15 RADIX iterations, 44-72 MiB after
        // 90), and how many fit in `--seconds` is the host's business.
        if iters.len() == o.sizes.min_iters {
            rss_at_min_iters = peak_rss_mib()?;
        }
    }
    let rss_growth = peak_rss_mib()? - rss_at_min_iters;
    let calib_after = o.trace.then(|| calibrate(o.sizes.calib_log2));
    let base_counts = base_counts.expect("at least one timed iteration");
    // Every timed iteration reproduced the warm-up's simulated outcome.
    let (total_ns, window_ns, ..) = reference;
    let iter_n = iters.len();
    let host_iter_s = median(&mut iters);
    e2e.insert("host_iter_s", host_iter_s);
    e2e.insert("peak_rss_mb", rss_at_min_iters);
    cx.rec.on = o.trace;

    // ---- 4a. Traced iterations (before anything else grows the heap) ----
    if o.trace {
        for m in &spec::PER_LAYER {
            layer.insert(m.name, 0.0);
        }
        layer.extend(base_counts.clone());
        traced(
            &mut cx,
            &input,
            reference,
            &base_counts,
            host_iter_s,
            &mut layer,
        )?;
    }

    // ---- 3. Simulated end-to-end metrics ----
    let mut scan_p99 = BTreeMap::new();
    match shape {
        Shape::Kernel(k) => {
            if k.kernel != Kernel::Radix {
                let mut check = k;
                check.verify = true;
                let out = cx
                    .rec
                    .scope("apps.verify", |rec| run(&Input::Kernel(check), false, rec))?;
                cx.tally.add("check iteration", &out);
            }
            let w = window_ns as f64;
            e2e.insert("sim_window_ns", w);
            e2e.insert("sim_total_ns", total_ns as f64);
            // One unit of work per run: its latency distribution is a
            // single point.
            e2e.insert("sim_lat_p50_ns", w);
            e2e.insert("sim_lat_p99_ns", w);
            e2e.insert("sim_rate_per_s", k.elements() as f64 * 1e9 / w);
        }
        Shape::Open | Shape::Closed => {
            let mut p = pooled(&mut cx, shape, REF_RATE, nodes, o.sizes.ref_replicas, true)?;
            if !p.answered {
                cx.tally
                    .problems
                    .push("reference run: a request has no span".to_string());
            }
            // Replica 0 is the timed iterations' input with the bus on.
            if p.first != reference {
                cx.tally.failed += u64::from(o.sizes.requests);
                cx.tally
                    .problems
                    .push("obs-on replica 0 differs from the obs-off iterations".to_string());
            }
            let serve = median(&mut p.serve_ns);
            e2e.insert("sim_window_ns", serve);
            e2e.insert("sim_total_ns", median(&mut p.total_ns));
            e2e.insert("sim_lat_p50_ns", p.p(50.0));
            e2e.insert("sim_lat_p99_ns", p.p(99.0));
            if o.trace {
                layer.insert("apps.svc_p999_ns", p.p(99.9));
                let err = (p.first_hist_p99 as f64 - p.first_p99 as f64) / p.first_p99 as f64;
                layer.insert("obs.hist_p99_err_pct", err * 100.0);
            }
            let rate = if matches!(shape, Shape::Open) {
                let (cap, p99) = capacity_scan(&mut cx, nodes)?;
                scan_p99 = p99;
                if cap == 0 {
                    cx.tally
                        .problems
                        .push(format!("capacity scan failed at {} rps", SCAN.start));
                }
                cap as f64
            } else {
                f64::from(o.sizes.requests) * 1e9 / serve
            };
            e2e.insert("sim_rate_per_s", rate);
        }
    }

    // ---- 4b. Context runs, probes, host health ----
    if o.trace {
        match shape {
            Shape::Kernel(k) => {
                let mut one = k;
                one.procs = 1;
                let w1 = run(&Input::Kernel(one), false, &mut cx.rec)?;
                cx.tally.add("1-proc run", &w1);
                let mut on_base = k;
                on_base.base = true;
                let wb = run(&Input::Kernel(on_base), false, &mut cx.rec)?;
                cx.tally.add("base-system run", &wb);
                let w = window_ns as f64;
                layer.insert("apps.speedup_vs_1p", w1.window_ns as f64 / w);
                layer.insert("apps.cables_over_base", w / wb.window_ns as f64);
            }
            Shape::Open => {
                for (rate, name) in CONTEXT_RATES {
                    let p99 = match scan_p99.get(&rate) {
                        Some(&v) => v,
                        None => pooled(&mut cx, shape, rate, nodes, o.sizes.scan_replicas, false)?
                            .p(99.0),
                    };
                    layer.insert(name, p99);
                }
                let (cap2, _) = capacity_scan(&mut cx, nodes / 2)?;
                layer.insert("apps.svc_capacity_rps_2n", cap2 as f64);
                if cap2 > 0 {
                    layer.insert(
                        "apps.svc_scaling_4n_over_2n",
                        e2e["sim_rate_per_s"] / cap2 as f64,
                    );
                }
            }
            Shape::Closed => {}
        }
        if !cx.schedule_ns_per_req.is_empty() {
            layer.insert(
                "traffic.schedule_ns_per_req",
                median(&mut cx.schedule_ns_per_req),
            );
            layer.insert("traffic.requests", f64::from(o.sizes.requests));
        }
        layer.extend(probes::all(o.sizes.probe_div)?);

        // `iters` is ascending: the median above sorted it.
        let tail = tail_percentile(iter_n);
        layer.insert("host.iter_tail_s", percentile(&iters, tail));
        layer.insert("host.iter_tail_pct", tail);
        layer.insert("host.iter_n", iter_n as f64);
        layer.insert("host.rss_growth_mb", rss_growth);
        let (a, b) = (
            calib_before.expect("calibrated"),
            calib_after.expect("calibrated"),
        );
        layer.insert("host.calib_s", a.min(b));
        layer.insert(
            "host.noisy",
            f64::from(u8::from((a - b).abs() / a.min(b) > 0.05)),
        );

        if layer["obs.dropped_events"] != 0.0 {
            cx.tally
                .problems
                .push("obs dropped events: raise OBS_CAP".to_string());
        }
        if layer["obs.sim_identical"] != 1.0 {
            cx.tally
                .problems
                .push("obs is not inert: traced run differs from untraced".to_string());
        }
    }

    // Every run reports every metric of its table, each a finite number
    // and, end to end, never zero.
    let tables = [
        (&spec::END_TO_END[..], &e2e, true),
        (&spec::PER_LAYER[..], &layer, o.trace),
    ];
    for (table, values, _) in tables.into_iter().filter(|t| t.2) {
        for m in table {
            match values.get(m.name) {
                None => cx
                    .tally
                    .problems
                    .push(format!("{} was not measured", m.name)),
                Some(v) if !v.is_finite() => cx
                    .tally
                    .problems
                    .push(format!("{} is not a finite number", m.name)),
                Some(&v) if v == 0.0 && m.bound > 0.0 => {
                    cx.tally.problems.push(format!("{} is zero", m.name))
                }
                Some(_) => {}
            }
        }
    }
    Ok(Report {
        workload,
        e2e,
        layer,
        attempted: cx.tally.attempted,
        failed: cx.tally.failed,
        problems: cx.tally.problems,
        spans: cx.rec.spans,
    })
}

/// Traced iterations of the timed input, then the analyses on the last
/// one's events: the window-clipped stall partition and per-layer span
/// time, and what obs itself costs the host.
fn traced(
    cx: &mut Ctx,
    input: &Input,
    base: QuickSig,
    base_counts: &Metrics,
    host_iter_s: f64,
    layer: &mut Metrics,
) -> Result<(), String> {
    let mut host = Vec::new();
    let mut identical = true;
    let mut last = None;
    let n = cx.o.sizes.traced_iters.max(1);
    for i in 0..n {
        cx.rec.iter = i as u32;
        let out = run(input, true, &mut cx.rec)?;
        host.push(out.host_s);
        cx.tally.add("traced iteration", &out);
        let rt = out
            .rt
            .as_ref()
            .ok_or("traced run without a CableS runtime")?;
        let stats = cx.rec.scope("svm.stats", |_| counts(rt, &out));
        identical &= quick_sig(&out) == base && stats == *base_counts;
        // Only the last run's event buffer outlives its iteration.
        if i + 1 == n {
            last = Some(out);
        }
    }
    let out = last.expect("at least one traced iteration");
    let rt = out.rt.as_ref().expect("checked above");
    layer.insert("obs.traced_peak_rss_mb", peak_rss_mib()?);
    layer.insert("obs.sim_identical", f64::from(u8::from(identical)));
    layer.insert(
        "obs.host_overhead_pct",
        (median(&mut host) / host_iter_s - 1.0) * 100.0,
    );

    let sink = rt.svm().obs();
    let dropped = sink.dropped_events();
    layer.insert("obs.dropped_events", dropped as f64);
    let (_snap, snapshot_s) = cx.rec.timed("obs.snapshot", |_| sink.snapshot());
    layer.insert("obs.snapshot_s", snapshot_s);
    let events = cx.rec.scope("obs.events", |_| sink.take_events());
    layer.insert("obs.events_recorded", events.len() as f64);

    let w0 = match out.window_start {
        Some(t) => t,
        None => window::service_window_start(&events, out.main_track)
            .ok_or("main thread's ready-barrier span not found: cannot place the serving window")?,
    };
    let w1 = w0 + out.window_ns;
    if w1 > out.total_ns {
        return Err(format!(
            "window {w0}..{w1} ends after the run ({})",
            out.total_ns
        ));
    }
    let clipped = window::clip(&events, w0, w1);
    let (stall, stall_s) = cx.rec.timed("obs.stall_analyze", |_| {
        obs::stall::analyze(&clipped, dropped, 0)
    });
    layer.insert("obs.stall_analyze_s", stall_s);
    let totals = stall.map_err(|e| format!("stall analysis: {e}"))?.totals();
    for (b, ns) in obs::stall::Bucket::ALL.iter().zip(totals) {
        let name = format!("stall.{}_ns", b.name());
        let m = spec::metric(&name).ok_or_else(|| format!("no metric for stall bucket {name}"))?;
        layer.insert(m.name, ns as f64);
    }
    let sums = window::layer_span_ns(&clipped);
    for (l, name) in [
        (Layer::San, "san.sim_layer_ns"),
        (Layer::Vmmc, "vmmc.sim_layer_ns"),
        (Layer::Proto, "svm.sim_proto_ns"),
        (Layer::Sync, "svm.sim_sync_ns"),
        (Layer::Rt, "cables.sim_rt_ns"),
    ] {
        layer.insert(name, sums[l.index()] as f64);
    }
    drop(clipped);
    let (crit, crit_s) = cx.rec.timed("obs.critpath_analyze", |_| {
        obs::critpath::analyze(&events, out.total_ns, dropped)
    });
    crit.map_err(|e| format!("critical-path analysis: {e}"))?;
    layer.insert("obs.critpath_analyze_s", crit_s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_seeds_do_not_collide_across_consecutive_seeds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            assert_eq!(replica_seed(seed, 0), seed);
            for k in 1..FULL.ref_replicas {
                assert!(
                    seen.insert(replica_seed(seed, k)),
                    "seed {seed} replica {k}"
                );
                // A derived seed is never a small number a user would pass.
                assert!(replica_seed(seed, k) > 1 << 32);
            }
        }
    }

    /// The whole procedure on every workload, repeated as little as it
    /// can be: every metric of both tables comes out, every check passes.
    #[test]
    fn every_workload_reports_every_metric_of_the_spec() {
        std::env::set_var("CABLES_ENGINE_MODE", spec::ENGINE_MODE);
        let sizes = Sizes {
            setups: 1,
            min_iters: 1,
            traced_iters: 1,
            requests: 1_000,
            ref_replicas: 2,
            scan_replicas: 1,
            probe_div: 2_000,
            calib_log2: 10,
        };
        let o = Opts {
            seed: spec::DEFAULT_SEED,
            seconds: 0.0,
            trace: true,
            sizes,
        };
        for w in &spec::WORKLOADS {
            let r = run_workload(w.name, &o, Instant::now()).expect(w.name);
            assert_eq!(r.problems, Vec::<String>::new(), "{}", w.name);
            assert_eq!(r.failed, 0, "{}", w.name);
            assert!(r.attempted >= 1, "{}", w.name);
            let names = |t: &[spec::Metric]| t.iter().map(|m| m.name).collect::<Vec<_>>();
            let mut got: Vec<_> = r.e2e.keys().copied().collect();
            let mut want = names(&spec::END_TO_END);
            want.sort_unstable();
            assert_eq!(got, want, "{}", w.name);
            got = r.layer.keys().copied().collect();
            want = names(&spec::PER_LAYER);
            want.sort_unstable();
            assert_eq!(got, want, "{}", w.name);
            for s in &r.spans {
                assert!(s.end_ns >= s.start_ns && s.parent.is_none_or(|p| p < r.spans.len()));
            }
            assert!(r.spans.iter().any(|s| s.name == "apps.run"), "{}", w.name);
        }
    }

    #[test]
    fn every_workload_of_the_spec_has_a_shape() {
        for w in &spec::WORKLOADS {
            assert!(shape(w.name).is_some(), "{}", w.name);
        }
        assert!(shape("nope").is_none());
    }
}
