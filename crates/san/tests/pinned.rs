//! Golden values of the SAN timing model: a fixed mixed sequence of
//! single- and multi-segment sends and fetches on three contending nodes,
//! once clean and once under a seeded wire-fault plan. Every completion
//! time and traffic counter is pinned, so a change to the transfer paths
//! that shifts any term (occupancy chaining, receive serialisation,
//! framing, fault delays) fails here; the replay tests compare a tree with
//! itself and would pass it.

use cables_san::{San, SanConfig, SendTiming, TrafficStats};
use sim::{NodeId, SimTime};

/// Drives the fixed sequence and returns every observed time in ns, in
/// issue order: `local_done, arrival` per send, the completion time per
/// fetch.
fn drive(san: &San) -> Vec<u64> {
    let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
    let at = SimTime::from_nanos;
    let mut out = Vec::new();
    let send = |out: &mut Vec<u64>, t: SendTiming| {
        out.extend([t.local_done.as_nanos(), t.arrival.as_nanos()]);
    };
    let fetch = |out: &mut Vec<u64>, t: SimTime| out.push(t.as_nanos());
    // Two senders converge on b's receive path, then b's transmit path
    // serves fetches from both while it is still sending.
    send(&mut out, san.send(a, b, 4096, at(0)));
    send(&mut out, san.send(c, b, 4096, at(1_000)));
    send(&mut out, san.send_multi(a, b, &[64, 4096, 8], at(2_000)));
    send(&mut out, san.send(b, c, 128, at(2_500)));
    fetch(&mut out, san.fetch(a, b, 4096, at(3_000)));
    fetch(&mut out, san.fetch(c, a, 4, at(4_000)));
    // Mostly idle network: the one-segment batch still pays its framing.
    send(&mut out, san.send_multi(b, a, &[8], at(200_500)));
    send(&mut out, san.send(c, a, 4, at(201_000)));
    // A back-to-back burst queueing on one home's transmit path.
    for i in 0..3 {
        fetch(&mut out, san.fetch(a, b, 4096, at(400_000 + i)));
    }
    out
}

fn traffic(san: &San) -> [TrafficStats; 3] {
    [0, 1, 2].map(|n| san.traffic(NodeId(n)))
}

fn stats(messages_out: u64, bytes_out: u64, messages_in: u64, bytes_in: u64) -> TrafficStats {
    TrafficStats {
        messages_out,
        bytes_out,
        messages_in,
        bytes_in,
    }
}

#[test]
fn clean_sequence_matches_pinned_times_and_traffic() {
    let san = San::new(SanConfig::paper());
    assert_eq!(
        drive(&san),
        [
            32968, 51993, 33968, 84961, 67280, 119273, 3724, 11639, 148286, 67744, 201020, 208588,
            201232, 208820, 481006, 481238, 506704
        ]
    );
    assert_eq!(
        traffic(&san),
        [
            stats(7, 8380, 6, 16428),
            stats(6, 16552, 3, 12456),
            stats(3, 4104, 2, 132)
        ]
    );
}

#[test]
fn faulted_sequence_matches_pinned_times_and_traffic() {
    let san = San::new(SanConfig::paper());
    san.set_chaos(chaos::ChaosEngine::new(
        0xC0FFEE,
        chaos::FaultPlan::new().wire(chaos::WireFaults {
            drop_p: 0.4,
            dup_p: 0.6,
            reorder_p: 0.3,
            jitter_ns: 2_000,
            ..chaos::WireFaults::default()
        }),
    ));
    assert_eq!(
        drive(&san),
        [
            32968, 52333, 33968, 118269, 67280, 196230, 3724, 113325, 149596, 67744, 201020,
            209761, 201232, 210513, 481429, 482529, 506704
        ]
    );
    // Duplicated sends burn receive traffic; fetch replies are never
    // duplicated, so the transmit side matches the clean run.
    assert_eq!(
        traffic(&san),
        [
            stats(7, 8380, 7, 16468),
            stats(6, 16552, 5, 20648),
            stats(3, 4104, 2, 132)
        ]
    );
}
