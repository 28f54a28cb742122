//! The open-loop capacity scan: the highest offered rate the service
//! sustains within its latency limit.

/// Scan parameters, in requests per simulated second.
#[derive(Debug, Clone, Copy)]
pub struct Scan {
    /// First rate tried.
    pub start: u64,
    /// Coarse step, used up to the first failing rate.
    pub coarse: u64,
    /// Fine step, used inside the last coarse interval.
    pub fine: u64,
    /// Highest rate tried (bounds the scan when nothing ever fails).
    pub max: u64,
}

/// The benchmark's scan: upward from 2000 rps in 500-rps steps to the
/// first failure, then 100-rps steps inside the last interval.
pub const SCAN: Scan = Scan {
    start: 2_000,
    coarse: 500,
    fine: 100,
    max: 20_000,
};

/// Walks upward from `start` in coarse steps until `passes` first says
/// no, then in fine steps from the last passing coarse rate until it says
/// no again, and returns the last rate that passed (0 when even `start`
/// fails). Both walks stop at the *first* failure: latency near the knee
/// is not monotone in the rate, and a rate that passes above one that
/// failed is luck, not capacity.
pub fn capacity(scan: &Scan, mut passes: impl FnMut(u64) -> bool) -> u64 {
    let mut last_ok = 0;
    let mut rate = scan.start;
    let first_fail = loop {
        if rate > scan.max {
            return last_ok;
        }
        if !passes(rate) {
            break rate;
        }
        last_ok = rate;
        rate += scan.coarse;
    };
    if last_ok == 0 {
        return 0;
    }
    let mut rate = last_ok + scan.fine;
    while rate < first_fail && passes(rate) {
        last_ok = rate;
        rate += scan.fine;
    }
    last_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the scan against an oracle and returns (capacity, rates tried).
    fn run(oracle: impl Fn(u64) -> bool) -> (u64, Vec<u64>) {
        let mut tried = Vec::new();
        let c = capacity(&SCAN, |r| {
            tried.push(r);
            oracle(r)
        });
        (c, tried)
    }

    #[test]
    fn coarse_then_fine_finds_a_monotone_knee() {
        let (c, tried) = run(|r| r <= 5_340);
        assert_eq!(c, 5_300);
        assert_eq!(
            tried,
            [2_000, 2_500, 3_000, 3_500, 4_000, 4_500, 5_000, 5_500, 5_100, 5_200, 5_300, 5_400]
        );
    }

    #[test]
    fn knee_on_a_coarse_boundary_and_last_fine_step() {
        // Passes everything below 5500: all four fine steps pass and the
        // scan must not re-try the coarse rate that failed.
        let (c, tried) = run(|r| r < 5_500);
        assert_eq!(c, 5_400);
        assert_eq!(tried.iter().filter(|&&r| r == 5_500).count(), 1);
        // Knee exactly on a coarse rate: first fine step fails.
        assert_eq!(run(|r| r <= 5_000).0, 5_000);
    }

    #[test]
    fn stops_at_the_first_failure_of_a_non_monotone_oracle() {
        // Today's service: p99 at 5000/5100/5200 rps is 2.13/2.00/2.16 ms —
        // not monotone. An oracle that fails 5100 but passes 5200 must
        // report 5000, not 5200.
        let (c, tried) = run(|r| r <= 5_000 || r == 5_200 || r == 5_300);
        assert_eq!(c, 5_000);
        assert_eq!(*tried.last().expect("tried"), 5_100);
        // Same in the coarse walk: a pass above the first coarse failure
        // is never looked at.
        let (c, tried) = run(|r| !(3_000..3_500).contains(&r));
        assert_eq!(c, 2_900);
        assert!(tried.iter().all(|&r| r <= 3_000));
    }

    #[test]
    fn degenerate_oracles() {
        assert_eq!(run(|_| false), (0, vec![2_000]));
        let (c, tried) = run(|_| true);
        assert_eq!(c, 20_000);
        assert_eq!(tried.len(), 37);
    }
}
