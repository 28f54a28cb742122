//! Deterministic request-traffic generation for the CableS KV service.
//!
//! A [`TrafficConfig`] fully determines a [`Schedule`]: the same config
//! (including its seed) replays the exact same request stream,
//! bit-identically — [`schedule`] is a pure function with no hidden
//! state, clocks, or platform dependence, so a benchmark cell can be
//! reproduced from its config alone. The schedule carries *what* each
//! request is (op, key, scan length) and, for the open-loop driver,
//! *when* it arrives; the closed-loop driver paces itself by response +
//! think time, so its schedule pins only the per-client op/key sequence.
//!
//! Three arrival patterns are modeled:
//!
//! * **uniform** — jittered-constant inter-arrival times around a target
//!   rate (a deterministic stand-in for a Poisson process),
//! * **bursty** — an on/off phase machine with a rate per phase (the
//!   classic packet-train shape; `off` at rate 0 produces true silence),
//! * **hot-key zipfian** — arrival times stay uniform, but keys are
//!   drawn rank-skewed (Gray et al.'s bounded zipfian, the YCSB
//!   sampler) and scattered over the keyspace with a coprime stride so
//!   popularity rank and key adjacency are decoupled.
//!
//! All randomness flows from [`sim::DetRng`] (splitmix64) streams split
//! per concern (arrivals / ops / keys), so adding a request never shifts
//! an unrelated draw.

use sim::DetRng;

/// Operations the generated requests perform, mirroring the service's
/// API surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Point read.
    Get,
    /// Point write.
    Put,
    /// Point delete.
    Delete,
    /// Ordered range read of `scan_len` consecutive keys.
    Scan,
}

impl OpKind {
    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Delete => "delete",
            OpKind::Scan => "scan",
        }
    }

    const fn code(self) -> u8 {
        match self {
            OpKind::Get => 0,
            OpKind::Put => 1,
            OpKind::Delete => 2,
            OpKind::Scan => 3,
        }
    }
}

/// Relative operation weights (need not sum to anything particular; all
/// zero is rejected by [`schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Weight of point reads.
    pub get: u32,
    /// Weight of point writes.
    pub put: u32,
    /// Weight of deletes.
    pub delete: u32,
    /// Weight of scans.
    pub scan: u32,
    /// Keys per scan (applies to every scan request).
    pub scan_len: u32,
}

impl OpMix {
    /// A read-mostly mix in YCSB-B's spirit: 75% get, 20% put, 3%
    /// delete, 2% scan of 8 keys.
    pub const fn read_mostly() -> OpMix {
        OpMix {
            get: 75,
            put: 20,
            delete: 3,
            scan: 2,
            scan_len: 8,
        }
    }

    /// An update-heavy mix: 50% get, 50% put.
    pub const fn update_heavy() -> OpMix {
        OpMix {
            get: 50,
            put: 50,
            delete: 0,
            scan: 0,
            scan_len: 0,
        }
    }
}

/// When requests arrive (open loop only; the closed-loop driver paces by
/// completion + think time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Jittered-constant inter-arrival around `1e9 / rate_rps` ns: each
    /// gap is drawn uniformly from `[mean/2, 3*mean/2)`, preserving the
    /// mean rate while avoiding a metronome.
    Uniform {
        /// Target arrival rate, requests per simulated second.
        rate_rps: u64,
    },
    /// An on/off phase machine: `on_ns` of arrivals at `on_rate_rps`,
    /// then `off_ns` at `off_rate_rps` (0 = silence), repeating. Gaps
    /// are jittered like [`Arrival::Uniform`] within each phase.
    Bursty {
        /// Burst phase length, simulated ns.
        on_ns: u64,
        /// Quiet phase length, simulated ns.
        off_ns: u64,
        /// Arrival rate inside a burst, requests per simulated second.
        on_rate_rps: u64,
        /// Arrival rate between bursts (0 for true silence).
        off_rate_rps: u64,
    },
}

/// How keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Bounded zipfian over popularity ranks (Gray et al. / YCSB) with
    /// skew `theta` in `[0, 1)`; rank 0 is the hottest. Ranks are
    /// scattered over the keyspace with a stride coprime to `keys`, so
    /// hot keys are spread across shards and pages rather than
    /// clustered at the bottom of the space.
    Zipfian {
        /// Skew parameter; YCSB's default is 0.99, 0 degenerates to
        /// uniform.
        theta: f64,
    },
}

/// Who decides when the next request is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Arrivals follow the [`Arrival`] pattern regardless of service
    /// progress (load is exogenous; queues can grow).
    OpenLoop,
    /// `clients` concurrent clients each issue, wait for the response,
    /// think for `think_ns`, and repeat (load adapts to service speed).
    ClosedLoop {
        /// Concurrent closed-loop clients.
        clients: u32,
        /// Simulated think time between a response and the next issue.
        think_ns: u64,
    },
}

/// The full, replayable description of one traffic run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Root seed; all three RNG streams derive from it.
    pub seed: u64,
    /// Total requests to generate.
    pub requests: u32,
    /// Keyspace size (keys are `0..keys`).
    pub keys: u64,
    /// Words per value (the service writes/checks this many words).
    pub val_words: u32,
    /// Arrival pattern (meaningful under [`Driver::OpenLoop`]).
    pub arrival: Arrival,
    /// Key distribution.
    pub keydist: KeyDist,
    /// Operation mix.
    pub mix: OpMix,
    /// Open or closed loop.
    pub driver: Driver,
}

impl TrafficConfig {
    /// The `uniform` preset: open loop, uniform arrivals and keys.
    pub fn uniform(seed: u64, requests: u32, keys: u64, rate_rps: u64) -> TrafficConfig {
        TrafficConfig {
            seed,
            requests,
            keys,
            val_words: 8,
            arrival: Arrival::Uniform { rate_rps },
            keydist: KeyDist::Uniform,
            mix: OpMix::read_mostly(),
            driver: Driver::OpenLoop,
        }
    }

    /// The `bursty` preset: open loop, 4:1 on/off phases with a 4x rate
    /// swing, uniform keys.
    pub fn bursty(seed: u64, requests: u32, keys: u64, rate_rps: u64) -> TrafficConfig {
        TrafficConfig {
            seed,
            requests,
            keys,
            val_words: 8,
            arrival: Arrival::Bursty {
                on_ns: 2_000_000,
                off_ns: 500_000,
                on_rate_rps: rate_rps * 2,
                off_rate_rps: rate_rps / 2,
            },
            keydist: KeyDist::Uniform,
            mix: OpMix::read_mostly(),
            driver: Driver::OpenLoop,
        }
    }

    /// The `zipfian` preset: open loop, uniform arrivals, hot-key
    /// zipfian keys at YCSB's default skew.
    pub fn zipfian(seed: u64, requests: u32, keys: u64, rate_rps: u64) -> TrafficConfig {
        TrafficConfig {
            seed,
            requests,
            keys,
            val_words: 8,
            arrival: Arrival::Uniform { rate_rps },
            keydist: KeyDist::Zipfian { theta: 0.99 },
            mix: OpMix::read_mostly(),
            driver: Driver::OpenLoop,
        }
    }

    /// Switches any preset to the closed-loop driver.
    pub fn closed_loop(mut self, clients: u32, think_ns: u64) -> TrafficConfig {
        self.driver = Driver::ClosedLoop { clients, think_ns };
        self
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Dense id in generation order (also the response-slot index).
    pub id: u32,
    /// Scheduled arrival, simulated ns (0 under the closed-loop driver,
    /// which paces itself).
    pub arrival_ns: u64,
    /// Issuing client (always 0 under the open-loop driver; round-robin
    /// over `clients` under the closed loop).
    pub client: u32,
    /// What to do.
    pub op: OpKind,
    /// The key (for scans, the first key of the range).
    pub key: u64,
    /// Range length for scans, 0 otherwise.
    pub scan_len: u32,
}

/// A generated request stream plus the config that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The generating config (replay = call [`schedule`] on it again).
    pub config: TrafficConfig,
    /// Requests in arrival order (open loop: nondecreasing
    /// `arrival_ns`; closed loop: per-client issue order).
    pub requests: Vec<Request>,
}

impl Schedule {
    /// FNV-1a fingerprint over the canonical byte encoding of every
    /// request. Two schedules are byte-identical iff their fingerprints
    /// match (modulo hash collisions); the determinism proptests and the
    /// bench's replay check both compare this.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for r in &self.requests {
            eat(r.id as u64);
            eat(r.arrival_ns);
            eat(r.client as u64);
            eat(r.op.code() as u64);
            eat(r.key);
            eat(r.scan_len as u64);
        }
        h
    }

    /// Per-op request counts in [`OpKind`] declaration order
    /// (get/put/delete/scan).
    pub fn op_counts(&self) -> [u64; 4] {
        let mut c = [0u64; 4];
        for r in &self.requests {
            c[r.op.code() as usize] += 1;
        }
        c
    }

    /// Last scheduled arrival (0 for closed loop / empty schedules).
    pub fn horizon_ns(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| r.arrival_ns)
            .max()
            .unwrap_or(0)
    }

    /// This schedule with every key touched by at most one request: a
    /// request whose key an earlier one already took moves to the next
    /// free key (cyclically), and scans — which touch a key range —
    /// become gets. Ids, arrivals, clients and the other ops are kept.
    ///
    /// No two requests then share state, so each response is a function
    /// of the request alone and any *correct* execution — whatever its
    /// timing, worker count or protocol options — produces the same
    /// response table. That makes response digests comparable across
    /// different configurations, which a schedule with same-key
    /// conflicts does not (there only same-config replay is
    /// bit-identical). `config` still names the generating config;
    /// calling [`schedule`] on it reproduces the conflicting original.
    ///
    /// # Panics
    ///
    /// Panics unless `keys >= requests`.
    pub fn conflict_free(mut self) -> Schedule {
        let keys = self.config.keys;
        assert!(
            keys >= self.requests.len() as u64,
            "conflict-free schedule needs keys >= requests ({keys} < {})",
            self.requests.len()
        );
        let mut taken = std::collections::HashSet::with_capacity(self.requests.len());
        for r in &mut self.requests {
            while !taken.insert(r.key) {
                r.key = (r.key + 1) % keys;
            }
            if r.op == OpKind::Scan {
                r.op = OpKind::Get;
                r.scan_len = 0;
            }
        }
        self
    }
}

/// Bounded zipfian sampler over ranks `0..n` (Gray et al., "Quickly
/// generating billion-record synthetic databases"; the YCSB generator).
/// Rank 0 is the most popular; `P(rank) ∝ 1 / (rank+1)^theta`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    theta: f64,
}

impl Zipf {
    /// Builds a sampler for `n` ranks at skew `theta` (must satisfy
    /// `0 <= theta < 1` and `n > 0`).
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty rank space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        Zipf {
            n,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            theta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        let mut z = 0.0;
        for i in 1..=n {
            z += 1.0 / (i as f64).powf(theta);
        }
        z
    }

    /// Draws one rank in `[0, n)`.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5_f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The theoretical probability of `rank` (for the skew-tolerance
    /// proptest).
    pub fn probability(&self, rank: u64) -> f64 {
        1.0 / ((rank + 1) as f64).powf(self.theta) / self.zetan
    }
}

/// Greatest common divisor (for the rank-scatter stride).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The stride that scatters popularity ranks over the keyspace:
/// `key = (rank * stride) % keys`, with `stride` the first candidate
/// near `keys * φ` coprime to `keys`, so the map is a bijection (the
/// skew-tolerance proptest depends on rank→key being 1:1) and
/// consecutive ranks land far apart.
pub fn scatter_stride(keys: u64) -> u64 {
    if keys <= 2 {
        return 1;
    }
    let golden = ((keys as u128 * 2_654_435_769u128) >> 32) as u64; // keys * (φ-1)
    let mut s = golden.clamp(1, keys - 1);
    while gcd(s, keys) != 1 {
        s -= 1;
        if s == 0 {
            return 1;
        }
    }
    s
}

fn jittered_gap(rng: &mut DetRng, rate_rps: u64) -> u64 {
    let mean = 1_000_000_000 / rate_rps.max(1);
    mean / 2 + rng.next_below(mean.max(1))
}

/// Generates the request stream for `cfg`. Pure: identical configs give
/// byte-identical schedules. Panics on degenerate configs (no requests,
/// empty keyspace, all-zero op mix, zero-rate uniform arrivals,
/// zero-client closed loop).
pub fn schedule(cfg: &TrafficConfig) -> Schedule {
    assert!(cfg.requests > 0, "empty schedule");
    assert!(cfg.keys > 0, "empty keyspace");
    let weight = cfg.mix.get + cfg.mix.put + cfg.mix.delete + cfg.mix.scan;
    assert!(weight > 0, "all-zero op mix");

    // Independent streams per concern, split from the root seed: the
    // arrival draw for request i never perturbs its key draw.
    let mut arr_rng = DetRng::new(cfg.seed ^ 0xa11a_7e57_0000_0001);
    let mut op_rng = DetRng::new(cfg.seed ^ 0x0b5e_55ed_0000_0002);
    let mut key_rng = DetRng::new(cfg.seed ^ 0x5eed_f00d_0000_0003);

    let zipf = match cfg.keydist {
        KeyDist::Zipfian { theta } => Some(Zipf::new(cfg.keys, theta)),
        KeyDist::Uniform => None,
    };
    let stride = scatter_stride(cfg.keys);

    let clients = match cfg.driver {
        Driver::ClosedLoop { clients, .. } => {
            assert!(clients > 0, "closed loop with zero clients");
            clients
        }
        Driver::OpenLoop => 1,
    };

    let mut now = 0u64;
    // Bursty phase machine state: time already spent in the current
    // phase, and whether we are in the on phase.
    let mut phase_on = true;
    let mut phase_elapsed = 0u64;

    let mut requests = Vec::with_capacity(cfg.requests as usize);
    for id in 0..cfg.requests {
        let arrival_ns = match (cfg.driver, cfg.arrival) {
            (Driver::ClosedLoop { .. }, _) => 0,
            (Driver::OpenLoop, Arrival::Uniform { rate_rps }) => {
                assert!(rate_rps > 0, "uniform arrivals at rate 0");
                now += jittered_gap(&mut arr_rng, rate_rps);
                now
            }
            (
                Driver::OpenLoop,
                Arrival::Bursty {
                    on_ns,
                    off_ns,
                    on_rate_rps,
                    off_rate_rps,
                },
            ) => {
                assert!(on_rate_rps > 0, "bursty on-phase at rate 0");
                assert!(on_ns > 0, "bursty with no on phase");
                loop {
                    let (len, rate) = if phase_on {
                        (on_ns, on_rate_rps)
                    } else {
                        (off_ns, off_rate_rps)
                    };
                    if rate == 0 {
                        // Silent phase: skip it whole.
                        now += len - phase_elapsed;
                        phase_on = !phase_on;
                        phase_elapsed = 0;
                        continue;
                    }
                    let gap = jittered_gap(&mut arr_rng, rate);
                    if phase_elapsed + gap >= len && off_ns > 0 {
                        // The draw crosses the phase boundary: move to
                        // the phase start and redraw at its rate.
                        now += len - phase_elapsed;
                        phase_on = !phase_on;
                        phase_elapsed = 0;
                        continue;
                    }
                    now += gap;
                    phase_elapsed += gap;
                    break;
                }
                now
            }
        };

        let w = op_rng.next_below(weight as u64) as u32;
        let op = if w < cfg.mix.get {
            OpKind::Get
        } else if w < cfg.mix.get + cfg.mix.put {
            OpKind::Put
        } else if w < cfg.mix.get + cfg.mix.put + cfg.mix.delete {
            OpKind::Delete
        } else {
            OpKind::Scan
        };

        let key = match &zipf {
            Some(z) => {
                let rank = z.sample(&mut key_rng);
                ((rank as u128 * stride as u128) % cfg.keys as u128) as u64
            }
            None => key_rng.next_below(cfg.keys),
        };

        requests.push(Request {
            id,
            arrival_ns,
            client: id % clients,
            op,
            key,
            scan_len: if op == OpKind::Scan {
                cfg.mix.scan_len.max(1)
            } else {
                0
            },
        });
    }

    Schedule {
        config: cfg.clone(),
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_and_closed_share_the_op_key_sequence() {
        let open = schedule(&TrafficConfig::uniform(7, 500, 1 << 12, 1_000_000));
        let closed =
            schedule(&TrafficConfig::uniform(7, 500, 1 << 12, 1_000_000).closed_loop(8, 1_000));
        for (a, b) in open.requests.iter().zip(&closed.requests) {
            assert_eq!((a.op, a.key, a.scan_len), (b.op, b.key, b.scan_len));
        }
        assert!(closed.requests.iter().all(|r| r.arrival_ns == 0));
        assert_eq!(closed.requests[9].client, 1);
    }

    #[test]
    fn uniform_arrivals_are_monotone_and_near_rate() {
        let s = schedule(&TrafficConfig::uniform(3, 2_000, 256, 1_000_000));
        let mut prev = 0;
        for r in &s.requests {
            assert!(r.arrival_ns > prev, "arrivals must strictly advance");
            prev = r.arrival_ns;
        }
        // 2000 requests at 1M rps ≈ 2ms horizon; jitter keeps the mean.
        let horizon = s.horizon_ns() as f64;
        assert!((1.6e6..2.4e6).contains(&horizon), "horizon {horizon}");
    }

    #[test]
    fn silent_off_phase_has_no_arrivals() {
        let cfg = TrafficConfig {
            arrival: Arrival::Bursty {
                on_ns: 1_000_000,
                off_ns: 1_000_000,
                on_rate_rps: 1_000_000,
                off_rate_rps: 0,
            },
            ..TrafficConfig::bursty(11, 3_000, 256, 1_000_000)
        };
        let s = schedule(&cfg);
        for r in &s.requests {
            let in_phase = r.arrival_ns % 2_000_000;
            assert!(
                in_phase <= 1_000_000,
                "arrival {} in silent phase",
                r.arrival_ns
            );
        }
    }

    #[test]
    fn scatter_stride_is_coprime() {
        for keys in [2u64, 3, 64, 100, 4096, 10_000, 1 << 20] {
            let s = scatter_stride(keys);
            assert!(s >= 1 && s < keys.max(2));
            assert_eq!(gcd(s, keys), 1, "keys {keys} stride {s}");
        }
    }

    #[test]
    fn zipf_rank0_dominates() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = DetRng::new(42);
        let mut hits = 0;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) == 0 {
                hits += 1;
            }
        }
        let p = hits as f64 / n as f64;
        let want = z.probability(0);
        assert!((p - want).abs() / want < 0.15, "p {p} vs theory {want}");
    }

    #[test]
    fn conflict_free_touches_each_key_once() {
        // Zipfian at keys == requests: the worst case for remapping (hot
        // keys repeat, and every key ends up taken).
        let orig = schedule(&TrafficConfig::zipfian(5, 300, 300, 1_000_000));
        assert!(orig.op_counts()[3] > 0, "the original has scans to convert");
        let cf = orig.clone().conflict_free();
        let mut keys: Vec<u64> = cf.requests.iter().map(|r| r.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..300).collect::<Vec<u64>>());
        assert_eq!(cf.op_counts()[3], 0);
        for (a, b) in orig.requests.iter().zip(&cf.requests) {
            assert_eq!(
                (a.id, a.arrival_ns, a.client),
                (b.id, b.arrival_ns, b.client)
            );
            assert!(b.scan_len == 0 && (a.op == b.op || a.op == OpKind::Scan));
        }
        assert_eq!(cf.clone().conflict_free(), cf, "idempotent");
    }

    #[test]
    #[should_panic(expected = "keys >= requests")]
    fn conflict_free_rejects_a_too_small_keyspace() {
        let _ = schedule(&TrafficConfig::uniform(5, 65, 64, 1_000_000)).conflict_free();
    }

    #[test]
    fn fingerprint_changes_with_seed() {
        let a = schedule(&TrafficConfig::zipfian(1, 200, 1024, 500_000));
        let b = schedule(&TrafficConfig::zipfian(2, 200, 1024, 500_000));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
