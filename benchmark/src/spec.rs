//! What the benchmark measures: the five workloads and every metric by
//! name, unit, clock and direction. `BENCHMARK.json` at the repository
//! root is generated from these tables (`--emit-benchmark-json`) and a
//! unit test fails when the two disagree.

/// The engine backend every run uses: one green carrier thread. The
/// default OS-thread-per-simulated-thread carrier would put 8-17 OS
/// threads on a 2-core box and measure futex hand-offs instead of the
/// simulator. Passed through the environment so the crate never names the
/// engine's mode type.
pub const ENGINE_MODE: &str = "parallel";

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 11;
/// Default and `BENCHMARK.json` `--seconds`: the length of the timed
/// obs-off phase of one run.
pub const RUN_SECONDS: u64 = 8;

/// One workload: its name and why it is in the set.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fft_fetch",
        why: "SPLASH FFT m=16 on 8 procs: read-fault/page-fetch bound (2496 fetches, 0 diffs), exercises memsim bulk path, svm fetch, vmmc/san",
    },
    Workload {
        name: "radix_diff",
        why: "SPLASH RADIX 2^18 keys on 8 procs: scatter writes give 4119 write faults and 2309 diffs; twin/diff and TLB-miss path, fetch path bypassed",
    },
    Workload {
        name: "lu_sync",
        why: "SPLASH LU n=512 on 16 procs/8 nodes: hand-off bound (1 context switch per 10 clock charges), barriers and 8 node attaches",
    },
    Workload {
        name: "svc_open_uniform",
        why: "KV service, open loop, uniform keys, 4000 rps reference plus capacity scan: independent users, dispatch-queue lock queueing",
    },
    Workload {
        name: "svc_closed_zipf",
        why: "KV service, closed loop, 8 clients x 2 us think, zipfian keys: callers that wait for replies, hot keys on striped bucket locks",
    },
];

/// Which clock a metric is read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated nanoseconds (or a quantity derived from them only):
    /// bit-deterministic for a given seed, two commits compare exactly.
    Sim,
    /// Wall clock or memory of the simulator process: noisy.
    Host,
    /// A count or ratio of counts read from a public getter: repeats
    /// exactly for a given seed.
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
            Clock::Count => "count",
        }
    }

    /// Whether two runs with the same seed must agree on the value bit
    /// for bit.
    pub fn exact(self) -> bool {
        !matches!(self, Clock::Host)
    }
}

/// One metric. `bound` is the share of the parent's median by which an
/// end-to-end metric may get worse before a change counts as a
/// regression; per-layer metrics carry none.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        higher_is_better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        clock,
        higher_is_better: false,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        clock,
        higher_is_better: true,
        bound: 0.0,
    }
}

/// Unit of simulated time. Spelled out so no reader (or tool) takes a
/// bit-deterministic simulated duration for a wall-clock one.
pub const SIM_NS: &str = "sim_ns";

/// The end-to-end metrics. Every workload reports every one of them, so
/// each is defined on all five (see the README's table for the
/// per-workload definition).
///
/// Bounds sit at three times the spread measured over ten seeds on the
/// 2-core box this was written on (`repeat.sh 10`). Simulated metrics
/// spread only on the service, through the seed: window 0.35 %, p50
/// 0.25 %, p99 1.1 %, capacity one 100-rps step. Host metrics spread
/// 0.5-3 % when the box is quiet, but it has minutes-long episodes in which
/// every iteration runs 10-20 % slower (not steal time, not this process),
/// and the service's 8 MiB resident set moves by +-0.4 MiB with the
/// allocator's mood: hence 20-25 % there.
pub const END_TO_END: [Metric; 8] = [
    e2e("sim_window_ns", SIM_NS, Clock::Sim, false, 0.02),
    e2e("sim_total_ns", SIM_NS, Clock::Sim, false, 0.01),
    e2e("sim_lat_p50_ns", SIM_NS, Clock::Sim, false, 0.02),
    e2e("sim_lat_p99_ns", SIM_NS, Clock::Sim, false, 0.05),
    e2e("sim_rate_per_s", "1/sim_s", Clock::Sim, true, 0.06),
    e2e("host_iter_s", "s", Clock::Host, false, 0.20),
    e2e("setup_s", "s", Clock::Host, false, 0.25),
    e2e("peak_rss_mb", "MiB", Clock::Host, false, 0.25),
];

/// The per-layer metrics, prefix = crate. A metric that does not apply to
/// a workload (`apps.svc_*` on a kernel, `apps.speedup_vs_1p` on the
/// service) reads 0 there.
pub const PER_LAYER: [Metric; 92] = [
    // sim: engine counters and hand-off/advance probes.
    lower("sim.context_switches", "count", Clock::Count),
    lower("sim.sync_slow_path", "count", Clock::Count),
    higher("sim.sync_fast_ratio", "ratio", Clock::Count),
    lower("sim.lockless_advances", "count", Clock::Count),
    lower("sim.threads_spawned", "count", Clock::Count),
    higher("sim.window_admissible", "count", Clock::Count),
    lower("sim.ready_reallocs", "count", Clock::Count),
    lower("sim.probe_handoff_ns", "ns", Clock::Host),
    lower("sim.probe_advance_ns", "ns", Clock::Host),
    // memsim: software TLB and access probes.
    higher("memsim.tlb_hits", "count", Clock::Count),
    lower("memsim.tlb_misses", "count", Clock::Count),
    higher("memsim.tlb_hit_ratio", "ratio", Clock::Count),
    lower("memsim.probe_slice_ns_per_kib", "ns/KiB", Clock::Host),
    lower("memsim.probe_scalar_ns", "ns", Clock::Host),
    lower("memsim.probe_tlb_miss_ns", "ns", Clock::Host),
    // san: wire traffic, window span time, probes, Table 3 accuracy.
    lower("san.msgs", "count", Clock::Count),
    lower("san.bytes", "B", Clock::Count),
    lower("san.sim_layer_ns", SIM_NS, Clock::Sim),
    lower("san.probe_send_ns", "ns", Clock::Host),
    lower("san.probe_fetch_ns", "ns", Clock::Host),
    lower("san.table3_max_err_pct", "%", Clock::Sim),
    // vmmc: NIC registration pressure, window span time, probes.
    lower("vmmc.regions_max", "count", Clock::Count),
    lower("vmmc.registered_bytes_max", "B", Clock::Count),
    lower("vmmc.sim_layer_ns", SIM_NS, Clock::Sim),
    lower("vmmc.probe_write_ns", "ns", Clock::Host),
    lower("vmmc.probe_fetch_4k_ns", "ns", Clock::Host),
    // svm: protocol counters, placement (paper Fig. 6), span time, probes.
    lower("svm.read_faults", "count", Clock::Count),
    lower("svm.write_faults", "count", Clock::Count),
    lower("svm.remote_fetches", "count", Clock::Count),
    lower("svm.fetch_bytes", "B", Clock::Count),
    lower("svm.diffs_sent", "count", Clock::Count),
    lower("svm.diff_bytes", "B", Clock::Count),
    lower("svm.notices_applied", "count", Clock::Count),
    lower("svm.lock_acquires", "count", Clock::Count),
    lower("svm.barrier_waits", "count", Clock::Count),
    lower("svm.migrations", "count", Clock::Count),
    lower("svm.touched_pages", "count", Clock::Count),
    lower("svm.misplaced_pages", "count", Clock::Count),
    lower("svm.sim_proto_ns", SIM_NS, Clock::Sim),
    lower("svm.sim_sync_ns", SIM_NS, Clock::Sim),
    lower("svm.probe_read_fault_ns", "ns", Clock::Host),
    lower("svm.probe_write_release_ns", "ns", Clock::Host),
    lower("svm.probe_lock_pair_ns", "ns", Clock::Host),
    // cables: runtime counters, start-up cost, contention, probes.
    lower("cables.remote_creates", "count", Clock::Count),
    lower("cables.nodes_attached", "count", Clock::Count),
    lower("cables.startup_ns", SIM_NS, Clock::Sim),
    lower("cables.mutex_waits", "count", Clock::Count),
    lower("cables.mutex_wait_ns", SIM_NS, Clock::Sim),
    lower("cables.cond_waits", "count", Clock::Count),
    lower("cables.cond_wait_ns", SIM_NS, Clock::Sim),
    lower("cables.barrier_wait_ns", SIM_NS, Clock::Sim),
    lower("cables.sim_rt_ns", SIM_NS, Clock::Sim),
    lower("cables.probe_mutex_pair_ns", "ns", Clock::Host),
    lower("cables.probe_create_join_ns", "ns", Clock::Host),
    lower("cables.probe_cond_roundtrip_ns", "ns", Clock::Host),
    // stall: the window's thread-time partition (obs::stall on events
    // clipped to the window).
    higher("stall.compute_ns", SIM_NS, Clock::Sim),
    lower("stall.page_fault_ns", SIM_NS, Clock::Sim),
    lower("stall.prefetch_masked_ns", SIM_NS, Clock::Sim),
    lower("stall.mutex_wait_ns", SIM_NS, Clock::Sim),
    lower("stall.cond_wait_ns", SIM_NS, Clock::Sim),
    lower("stall.barrier_wait_ns", SIM_NS, Clock::Sim),
    lower("stall.rwlock_wait_ns", SIM_NS, Clock::Sim),
    lower("stall.join_wait_ns", SIM_NS, Clock::Sim),
    lower("stall.msg_latency_ns", SIM_NS, Clock::Sim),
    // traffic: generator cost and size.
    lower("traffic.schedule_ns_per_req", "ns", Clock::Host),
    higher("traffic.requests", "count", Clock::Count),
    // apps: context for the window and the capacity.
    higher("apps.speedup_vs_1p", "ratio", Clock::Sim),
    lower("apps.cables_over_base", "ratio", Clock::Sim),
    higher("apps.svc_served", "count", Clock::Count),
    lower("apps.svc_direct_served", "count", Clock::Count),
    lower("apps.svc_retries", "count", Clock::Count),
    lower("apps.svc_p999_ns", SIM_NS, Clock::Sim),
    lower("apps.svc_p99_ns_r3000", SIM_NS, Clock::Sim),
    lower("apps.svc_p99_ns_r5000", SIM_NS, Clock::Sim),
    higher("apps.svc_capacity_rps_2n", "1/sim_s", Clock::Sim),
    higher("apps.svc_scaling_4n_over_2n", "ratio", Clock::Sim),
    // obs: what the measuring instrument itself costs and whether it is
    // inert in simulated time.
    lower("obs.events_recorded", "count", Clock::Count),
    lower("obs.dropped_events", "count", Clock::Count),
    higher("obs.sim_identical", "bool", Clock::Count),
    lower("obs.host_overhead_pct", "%", Clock::Host),
    lower("obs.snapshot_s", "s", Clock::Host),
    lower("obs.stall_analyze_s", "s", Clock::Host),
    lower("obs.critpath_analyze_s", "s", Clock::Host),
    lower("obs.traced_peak_rss_mb", "MiB", Clock::Host),
    lower("obs.hist_p99_err_pct", "%", Clock::Sim),
    lower("obs.probe_span_ns", "ns", Clock::Host),
    // host: whether a host number can be believed at all.
    lower("host.iter_tail_s", "s", Clock::Host),
    higher("host.iter_tail_pct", "%", Clock::Host),
    higher("host.iter_n", "count", Clock::Host),
    lower("host.rss_growth_mb", "MiB", Clock::Host),
    lower("host.calib_s", "s", Clock::Host),
    lower("host.noisy", "bool", Clock::Host),
];

/// Looks a metric up by name in both tables.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            better(m),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            better(m)
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

pub fn better(m: &Metric) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str, max: usize) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_matches_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(n, 64), "bad name {n:?}");
            assert!(seen.insert(n), "name {n:?} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
    }

    #[test]
    fn bounds_respect_the_contract() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- --emit-benchmark-json > BENCHMARK.json`"
        );
    }
}
