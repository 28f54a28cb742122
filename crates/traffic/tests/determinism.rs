//! Property tests for the traffic generator: bit-identical replay from
//! a `TrafficConfig` across both drivers and all three patterns, and
//! zipfian hot-key frequencies that track the configured skew.

use proptest::prelude::*;

use cables_traffic::{
    scatter_stride, schedule, Arrival, Driver, KeyDist, OpMix, TrafficConfig, Zipf,
};
use sim::DetRng;

fn patterns(seed: u64, requests: u32, keys: u64, rate: u64) -> Vec<TrafficConfig> {
    vec![
        TrafficConfig::uniform(seed, requests, keys, rate),
        TrafficConfig::bursty(seed, requests, keys, rate),
        TrafficConfig::zipfian(seed, requests, keys, rate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same seed + config replays byte-identically: every request
    /// field equal, for every pattern, under both drivers.
    #[test]
    fn same_config_replays_bit_identically(
        seed in any::<u64>(),
        requests in 1u32..400,
        keys in 2u64..5000,
        rate in 1u64..2_000_000,
        clients in 1u32..16,
        think in 0u64..100_000,
    ) {
        for base in patterns(seed, requests, keys, rate.max(1)) {
            for cfg in [base.clone(), base.closed_loop(clients, think)] {
                let a = schedule(&cfg);
                let b = schedule(&cfg);
                prop_assert_eq!(&a.requests, &b.requests);
                prop_assert_eq!(a.fingerprint(), b.fingerprint());
            }
        }
    }

    /// Different seeds diverge (no hidden seed-independent state): with
    /// a few hundred requests the chance of colliding op+key+arrival
    /// streams is negligible.
    #[test]
    fn different_seeds_diverge(seed in any::<u64>()) {
        for cfg in patterns(seed, 300, 4096, 1_000_000) {
            let mut other = cfg.clone();
            other.seed = cfg.seed.wrapping_add(1);
            prop_assert_ne!(schedule(&cfg).fingerprint(), schedule(&other).fingerprint());
        }
    }

    /// Open and closed loop draw the same op/key stream: the driver
    /// changes pacing, never the workload content.
    #[test]
    fn driver_does_not_change_the_workload(
        seed in any::<u64>(),
        requests in 1u32..300,
        keys in 2u64..4096,
    ) {
        for cfg in patterns(seed, requests, keys, 500_000) {
            let open = schedule(&cfg);
            let closed = schedule(&cfg.closed_loop(4, 1_000));
            for (a, b) in open.requests.iter().zip(&closed.requests) {
                prop_assert_eq!(a.op, b.op);
                prop_assert_eq!(a.key, b.key);
                prop_assert_eq!(a.scan_len, b.scan_len);
            }
        }
    }

    /// The zipfian sampler's empirical top-rank frequencies match the
    /// configured skew's theory within tolerance, and the rank→key
    /// scatter preserves them exactly (it is a bijection).
    #[test]
    fn zipf_empirical_matches_theory(
        seed in any::<u64>(),
        theta_pct in 50u32..100,
    ) {
        let theta = theta_pct as f64 / 100.0;
        let n = 1000u64;
        let samples = 40_000u32;
        let z = Zipf::new(n, theta);
        let mut rng = DetRng::new(seed);
        let mut rank_hits = vec![0u32; n as usize];
        for _ in 0..samples {
            rank_hits[z.sample(&mut rng) as usize] += 1;
        }
        // The three hottest ranks carry enough mass for a tight check.
        for rank in 0..3u64 {
            let p = rank_hits[rank as usize] as f64 / samples as f64;
            let want = z.probability(rank);
            prop_assert!(
                (p - want).abs() / want < 0.25,
                "rank {} empirical {:.4} vs theory {:.4} (theta {})",
                rank, p, want, theta
            );
        }
        // And through the generator end-to-end: the hottest *key* is
        // rank 0's scattered image at the same frequency.
        let cfg = TrafficConfig {
            seed,
            requests: samples,
            keys: n,
            val_words: 1,
            arrival: Arrival::Uniform { rate_rps: 1_000_000 },
            keydist: KeyDist::Zipfian { theta },
            mix: OpMix { get: 1, put: 0, delete: 0, scan: 0, scan_len: 0 },
            driver: Driver::OpenLoop,
        };
        let s = schedule(&cfg);
        // Rank r scatters to key (r * stride) % n: rank 0 is key 0,
        // rank 1 is the stride itself.
        for (rank, hot_key) in [(0u64, 0u64), (1, scatter_stride(n) % n)] {
            let hot = s.requests.iter().filter(|r| r.key == hot_key).count() as f64;
            let p = hot / samples as f64;
            let want = z.probability(rank);
            prop_assert!(
                (p - want).abs() / want < 0.25,
                "rank {} key {} empirical {:.4} vs theory {:.4}", rank, hot_key, p, want
            );
        }
    }
}
