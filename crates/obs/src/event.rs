//! The typed event taxonomy of the observability bus.
//!
//! Every record is stamped with [`SimTime`] (never a wall clock), the
//! [`NodeId`] it happened on, and a *track* — the Chrome-trace lane it is
//! drawn on. Thread-level events use the simulated thread id as their
//! track; NIC-level events (the `san`/`vmmc` layers run below the thread
//! abstraction) use [`NIC_TRACK`].

use std::fmt;

use sim::{NodeId, SimTime};

/// Track id used for events that belong to a node's NIC rather than to a
/// simulated thread (SAN sends/fetches, VMMC remote operations).
pub const NIC_TRACK: u64 = 1_000_000;

/// The runtime layer an event is attributed to.
///
/// Span durations are summed per `(node, layer)`; note that spans *include*
/// the time of nested lower-layer work they trigger (a protocol fault span
/// includes the VMMC fetch it performs, which includes the SAN time), so
/// layer sums are inclusive views, not a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// System-area network: message send/recv and wire occupancy.
    San,
    /// Virtual memory-mapped communication: remote write/fetch/notify,
    /// region registration.
    Vmmc,
    /// SVM protocol: faults, fetches, diffs, invalidations, migrations.
    Proto,
    /// System-level synchronization (SVM locks and native barriers).
    Sync,
    /// The CableS pthreads runtime: thread lifecycle, pthread-level
    /// waiting, GLOBAL allocation, node attach/detach.
    Rt,
    /// Engine scheduling points (spawn/exit/block/wake).
    Sched,
    /// Fault injection and recovery (the `chaos` subsystem): injected
    /// wire/resource/node faults and the recovery actions they trigger.
    Chaos,
    /// Request-serving applications (the KV service): whole-request
    /// lifecycle spans, enqueue to response. The *only* spans attributed
    /// here are [`Event::ServiceRequest`], so this layer's histogram is
    /// a pure request-latency distribution — p50/p95/p99 fall straight
    /// out of [`crate::MetricsSnapshot::hists`].
    Service,
}

impl Layer {
    /// Number of layers (array dimension for per-layer registries).
    pub const COUNT: usize = 8;

    /// All layers, in display order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::San,
        Layer::Vmmc,
        Layer::Proto,
        Layer::Sync,
        Layer::Rt,
        Layer::Sched,
        Layer::Chaos,
        Layer::Service,
    ];

    /// Dense index for per-layer arrays.
    pub const fn index(self) -> usize {
        match self {
            Layer::San => 0,
            Layer::Vmmc => 1,
            Layer::Proto => 2,
            Layer::Sync => 3,
            Layer::Rt => 4,
            Layer::Sched => 5,
            Layer::Chaos => 6,
            Layer::Service => 7,
        }
    }

    /// Lower-case display name (used in JSON and reports).
    pub const fn name(self) -> &'static str {
        match self {
            Layer::San => "san",
            Layer::Vmmc => "vmmc",
            Layer::Proto => "proto",
            Layer::Sync => "sync",
            Layer::Rt => "rt",
            Layer::Sched => "sched",
            Layer::Chaos => "chaos",
            Layer::Service => "service",
        }
    }
}

/// The kind of a causal [`Event::Edge`]: which cause→effect dependency
/// the edge records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// SAN message: send start → remote arrival (NIC lanes only; the
    /// critical-path walk never enters these, they are drawn as arrows).
    MsgSend,
    /// SAN fetch: remote serve start → data back at the requester.
    MsgFetch,
    /// SAN notification: send start → remote handler dispatch.
    MsgNotify,
    /// Mutex release → next holder's grant (cross-node lock handoff).
    LockHandoff,
    /// Barrier last arrival → one waiter's release (fan-out: one edge per
    /// released waiter).
    BarrierRelease,
    /// Condition signal/broadcast → one waiter's wakeup.
    CondSignal,
    /// Rwlock release → one woken reader/writer's grant.
    RwHandoff,
    /// Page fault → home fetch → reply → resume, collapsed onto the
    /// faulting thread's own lane (src = fetch issue, effect = data back).
    PageFetch,
    /// Thread create → the new thread's first run.
    ThreadStart,
    /// Thread exit → its joiner's resume.
    ThreadJoin,
    /// Batched release diff (all diffs bound for one home in one message)
    /// → the release fence observing its arrival, on the releaser's lane.
    BatchDiff,
    /// Generic scheduler wake: waker's wake call → wakee's resume
    /// (covers every block→wake the typed edges above don't).
    Wakeup,
    /// Fault → recovery completion: an injected fault (crash observed,
    /// fetch timeout, registration failure) to the action that restored
    /// progress (node detached, retry succeeded, region evicted).
    Recovery,
}

impl EdgeKind {
    /// Number of kinds (array dimension for breakdowns).
    pub const COUNT: usize = 13;

    /// All kinds, in display order.
    pub const ALL: [EdgeKind; EdgeKind::COUNT] = [
        EdgeKind::MsgSend,
        EdgeKind::MsgFetch,
        EdgeKind::MsgNotify,
        EdgeKind::LockHandoff,
        EdgeKind::BarrierRelease,
        EdgeKind::CondSignal,
        EdgeKind::RwHandoff,
        EdgeKind::PageFetch,
        EdgeKind::ThreadStart,
        EdgeKind::ThreadJoin,
        EdgeKind::BatchDiff,
        EdgeKind::Wakeup,
        EdgeKind::Recovery,
    ];

    /// The layer an edge of this kind is attributed to (message edges to
    /// the SAN, lock/barrier handoffs to Sync, pthread-level handoffs and
    /// thread lifecycle to Rt, page movement to Proto, generic scheduler
    /// wakes to Sched).
    pub const fn layer(self) -> Layer {
        match self {
            EdgeKind::MsgSend | EdgeKind::MsgFetch | EdgeKind::MsgNotify => Layer::San,
            EdgeKind::LockHandoff | EdgeKind::BarrierRelease => Layer::Sync,
            EdgeKind::CondSignal
            | EdgeKind::RwHandoff
            | EdgeKind::ThreadStart
            | EdgeKind::ThreadJoin => Layer::Rt,
            EdgeKind::PageFetch | EdgeKind::BatchDiff => Layer::Proto,
            EdgeKind::Wakeup => Layer::Sched,
            EdgeKind::Recovery => Layer::Chaos,
        }
    }

    /// Display name (last path segment of the dotted kind name).
    pub const fn name(self) -> &'static str {
        match self {
            EdgeKind::MsgSend => "msg_send",
            EdgeKind::MsgFetch => "msg_fetch",
            EdgeKind::MsgNotify => "msg_notify",
            EdgeKind::LockHandoff => "lock_handoff",
            EdgeKind::BarrierRelease => "barrier_release",
            EdgeKind::CondSignal => "cond_signal",
            EdgeKind::RwHandoff => "rw_handoff",
            EdgeKind::PageFetch => "page_fetch",
            EdgeKind::ThreadStart => "thread_start",
            EdgeKind::ThreadJoin => "thread_join",
            EdgeKind::BatchDiff => "batch_diff",
            EdgeKind::Wakeup => "wakeup",
            EdgeKind::Recovery => "recovery",
        }
    }
}

/// Engine scheduling-point kinds forwarded from `sim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// A simulated thread was spawned.
    Spawn,
    /// A simulated thread exited.
    Exit,
    /// A thread parked itself.
    Block,
    /// A thread was woken by another thread.
    Wake,
}

impl SchedKind {
    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            SchedKind::Spawn => "spawn",
            SchedKind::Exit => "exit",
            SchedKind::Block => "block",
            SchedKind::Wake => "wake",
        }
    }
}

/// Operation kinds of the request-serving KV service layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceOp {
    /// Point read.
    Get,
    /// Point write (insert or overwrite).
    Put,
    /// Point delete.
    Delete,
    /// Short ordered range read over consecutive keys.
    Scan,
}

impl ServiceOp {
    /// Number of ops (array dimension for per-op breakdowns).
    pub const COUNT: usize = 4;

    /// All ops, in display order.
    pub const ALL: [ServiceOp; ServiceOp::COUNT] = [
        ServiceOp::Get,
        ServiceOp::Put,
        ServiceOp::Delete,
        ServiceOp::Scan,
    ];

    /// Display name (last path segment of the dotted kind name).
    pub const fn name(self) -> &'static str {
        match self {
            ServiceOp::Get => "get",
            ServiceOp::Put => "put",
            ServiceOp::Delete => "delete",
            ServiceOp::Scan => "scan",
        }
    }
}

/// A typed observability event.
///
/// The first six variants are the SVM protocol's instants; the rest are
/// spans and instants emitted by the other layers.
/// Addresses and pages are carried as raw `u64` so this crate depends on
/// nothing above `sim`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    // ---- SVM protocol instants ----
    /// A read or write fault on `page`.
    Fault {
        /// Faulting page index.
        page: u64,
        /// True for a write fault.
        write: bool,
    },
    /// First-touch placement of the chunk starting at page `base`.
    Place {
        /// First page index of the placed chunk.
        base: u64,
    },
    /// A page fetch from its home node.
    Fetch {
        /// Fetched page index.
        page: u64,
        /// Home node the page was fetched from.
        home: u32,
    },
    /// A diff of `bytes` bytes sent home at release.
    Diff {
        /// Diffed page index.
        page: u64,
        /// Bytes shipped.
        bytes: u64,
    },
    /// An acquire-time invalidation of `page`.
    Invalidate {
        /// Invalidated page index.
        page: u64,
    },
    /// Home migration of the chunk starting at page `base`.
    Migrate {
        /// First page index of the migrated chunk.
        base: u64,
    },

    // ---- SVM protocol-optimization instants (batched traffic) ----
    /// A batched release diff: all of one release's diffs bound for one
    /// home shipped as a single multi-segment message.
    DiffBatch {
        /// Home node the batch was shipped to.
        home: u32,
        /// Pages whose diffs rode in the batch.
        pages: u64,
        /// Payload bytes (after cross-page run merging).
        bytes: u64,
    },

    // ---- SAN spans ----
    /// A message send (`dur` = send start to remote arrival).
    SanSend {
        /// Destination node.
        to: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// A remote fetch round trip.
    SanFetch {
        /// Node fetched from.
        to: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// A notification (interrupt-path message).
    SanNotify {
        /// Destination node.
        to: u32,
    },

    // ---- VMMC spans / instants ----
    /// A remote write into an imported region.
    VmmcWrite {
        /// Target region id.
        region: u64,
        /// Bytes written.
        bytes: u64,
    },
    /// A remote fetch from an exported region.
    VmmcFetch {
        /// Source region id.
        region: u64,
        /// Bytes fetched.
        bytes: u64,
    },
    /// A VMMC notification.
    VmmcNotify {
        /// Destination node.
        to: u32,
    },

    // ---- SVM protocol spans ----
    /// Full fault-handling window (includes nested fetch/placement work).
    FaultSpan {
        /// Faulting page index.
        page: u64,
        /// True for a write fault.
        write: bool,
    },
    /// A release operation (diff creation + write notices + fence).
    ReleaseSpan {
        /// Number of pages diffed.
        diffs: u64,
    },
    /// An acquire operation (write-notice scan + invalidations).
    AcquireSpan {
        /// Number of pages invalidated.
        invals: u64,
    },

    // ---- System synchronization spans ----
    /// Acquiring an SVM system lock (request + wait + grant).
    LockWait {
        /// Lock id.
        id: u64,
    },
    /// One thread's wait at a native SVM barrier.
    BarrierWait {
        /// Barrier id.
        id: u64,
    },

    // ---- CableS runtime spans / instants ----
    /// A pthread mutex acquisition at the CableS layer.
    PthMutexWait {
        /// Mutex id.
        id: u64,
    },
    /// A pthread condition wait (block to wakeup).
    PthCondWait {
        /// Condition-variable id.
        id: u64,
    },
    /// A pthread barrier wait at the CableS layer.
    PthBarrierWait {
        /// Barrier id.
        id: u64,
    },
    /// A pthread rwlock acquisition.
    PthRwWait {
        /// Rwlock id.
        id: u64,
        /// True when acquiring for writing.
        write: bool,
    },
    /// `pthread_create` (span covers placement + dispatch bookkeeping).
    ThreadCreate {
        /// New CableS thread id.
        ct: u64,
        /// Node the thread was placed on.
        on: u32,
    },
    /// `pthread_join` (span covers the wait for the target's exit).
    ThreadJoin {
        /// Joined CableS thread id.
        ct: u64,
    },
    /// `global_malloc` of `bytes` at address `base`.
    GlobalAlloc {
        /// Allocated base address (raw `GAddr`).
        base: u64,
        /// Allocation size.
        bytes: u64,
    },
    /// A node attach (span covers the multi-second handshake).
    NodeAttach {
        /// Attached node.
        node: u32,
    },
    /// A node detach.
    NodeDetach {
        /// Detached node.
        node: u32,
    },

    // ---- Engine scheduling instants ----
    /// A scheduling point forwarded from the engine.
    Sched {
        /// Which scheduling point.
        kind: SchedKind,
    },

    // ---- Chaos (fault injection / recovery) instants and spans ----
    /// An injected wire fault on a SAN message (jitter, reorder delay,
    /// retransmissions after drops, duplicate deliveries).
    ChaosWireFault {
        /// Destination node of the faulted message.
        to: u32,
        /// Total extra latency injected, ns.
        delay_ns: u64,
        /// Retransmissions the reliable transport performed (drops).
        retransmits: u64,
        /// Duplicate deliveries (extra receive occupancy).
        duplicates: u64,
    },
    /// An injected transient NIC resource failure (region/registered/
    /// pinned exhaustion pressure in `vmmc`).
    ChaosResourceFault {
        /// The faulted VMMC operation ("export", "import", "extend").
        op: &'static str,
    },
    /// One bounded-backoff retry of a faulted operation (span covers the
    /// backoff window before the re-issue).
    ChaosRetry {
        /// 1-based retry attempt number.
        attempt: u64,
        /// Backoff charged before this re-issue, ns.
        backoff_ns: u64,
    },
    /// Eviction of an imported region to free NIC resources (the
    /// deregister-and-retry fallback of the paper's §3.4 regime).
    ChaosEvict {
        /// Evicted region id.
        region: u64,
    },
    /// A node crash taking effect (all its threads are about to be torn
    /// down and the node detached).
    ChaosCrash {
        /// Crashed node.
        node: u32,
    },
    /// Completed crash recovery: locks released, joiners woken, node
    /// detached.
    ChaosRecovery {
        /// Recovered (detached) node.
        node: u32,
        /// Threads torn down by the recovery.
        threads: u64,
        /// Crash-to-recovery latency, ns.
        latency_ns: u64,
    },

    // ---- Service (request-serving application) spans ----
    /// One whole service request, submission to response (open loop: the
    /// scheduled arrival instant; closed loop: the client's enqueue).
    /// The span is recorded on the *client/dispatcher* lane so queueing
    /// delay is inside it — this is end-to-end latency, not service
    /// time. The only span kind attributed to [`Layer::Service`].
    ServiceRequest {
        /// The operation performed.
        op: ServiceOp,
        /// Shard that served the request.
        shard: u32,
        /// Request key (scan: first key of the range).
        key: u64,
    },

    // ---- Causal edges ----
    /// A cause→effect dependency. The record's `at`/`node`/`track` are the
    /// *effect* endpoint; the payload carries the *source* endpoint. An
    /// edge is an instant (`dur_ns == 0`) — the dependency's latency is
    /// `at - src_ns`, reconstructed by `critpath`.
    Edge {
        /// Which dependency this edge records.
        kind: EdgeKind,
        /// Node the cause happened on.
        src_node: u32,
        /// Track (thread id or [`NIC_TRACK`]) the cause happened on.
        src_track: u64,
        /// SimTime of the cause, in nanoseconds.
        src_ns: u64,
        /// The object the edge is about: page index, lock/barrier/cond/
        /// rwlock id, CableS thread id, or message bytes — keyed by `kind`.
        obj: u64,
    },
}

impl Event {
    /// Stable dotted kind name (`layer.kind`), used for aggregate keys,
    /// Chrome-trace event names and the paper-table reporter.
    pub const fn kind_name(&self) -> &'static str {
        match self {
            Event::Fault { .. } => "proto.fault",
            Event::Place { .. } => "proto.place",
            Event::Fetch { .. } => "proto.fetch",
            Event::Diff { .. } => "proto.diff",
            Event::Invalidate { .. } => "proto.inval",
            Event::Migrate { .. } => "proto.migrate",
            Event::DiffBatch { .. } => "proto.diff_batch",
            Event::SanSend { .. } => "san.send",
            Event::SanFetch { .. } => "san.fetch",
            Event::SanNotify { .. } => "san.notify",
            Event::VmmcWrite { .. } => "vmmc.write",
            Event::VmmcFetch { .. } => "vmmc.fetch",
            Event::VmmcNotify { .. } => "vmmc.notify",
            Event::FaultSpan { .. } => "proto.fault_handling",
            Event::ReleaseSpan { .. } => "proto.release",
            Event::AcquireSpan { .. } => "proto.acquire",
            Event::LockWait { .. } => "sync.lock",
            Event::BarrierWait { .. } => "sync.barrier",
            Event::PthMutexWait { .. } => "rt.mutex_wait",
            Event::PthCondWait { .. } => "rt.cond_wait",
            Event::PthBarrierWait { .. } => "rt.barrier_wait",
            Event::PthRwWait { .. } => "rt.rwlock_wait",
            Event::ThreadCreate { .. } => "rt.thread_create",
            Event::ThreadJoin { .. } => "rt.thread_join",
            Event::GlobalAlloc { .. } => "rt.global_alloc",
            Event::NodeAttach { .. } => "rt.node_attach",
            Event::NodeDetach { .. } => "rt.node_detach",
            Event::Sched {
                kind: SchedKind::Spawn,
            } => "sched.spawn",
            Event::Sched {
                kind: SchedKind::Exit,
            } => "sched.exit",
            Event::Sched {
                kind: SchedKind::Block,
            } => "sched.block",
            Event::Sched {
                kind: SchedKind::Wake,
            } => "sched.wake",
            Event::ChaosWireFault { .. } => "chaos.wire_fault",
            Event::ChaosResourceFault { .. } => "chaos.resource_fault",
            Event::ChaosRetry { .. } => "chaos.retry",
            Event::ChaosEvict { .. } => "chaos.evict",
            Event::ChaosCrash { .. } => "chaos.crash",
            Event::ChaosRecovery { .. } => "chaos.recovery",
            Event::ServiceRequest {
                op: ServiceOp::Get, ..
            } => "service.request.get",
            Event::ServiceRequest {
                op: ServiceOp::Put, ..
            } => "service.request.put",
            Event::ServiceRequest {
                op: ServiceOp::Delete,
                ..
            } => "service.request.delete",
            Event::ServiceRequest {
                op: ServiceOp::Scan,
                ..
            } => "service.request.scan",
            Event::Edge {
                kind: EdgeKind::MsgSend,
                ..
            } => "edge.msg_send",
            Event::Edge {
                kind: EdgeKind::MsgFetch,
                ..
            } => "edge.msg_fetch",
            Event::Edge {
                kind: EdgeKind::MsgNotify,
                ..
            } => "edge.msg_notify",
            Event::Edge {
                kind: EdgeKind::LockHandoff,
                ..
            } => "edge.lock_handoff",
            Event::Edge {
                kind: EdgeKind::BarrierRelease,
                ..
            } => "edge.barrier_release",
            Event::Edge {
                kind: EdgeKind::CondSignal,
                ..
            } => "edge.cond_signal",
            Event::Edge {
                kind: EdgeKind::RwHandoff,
                ..
            } => "edge.rw_handoff",
            Event::Edge {
                kind: EdgeKind::PageFetch,
                ..
            } => "edge.page_fetch",
            Event::Edge {
                kind: EdgeKind::ThreadStart,
                ..
            } => "edge.thread_start",
            Event::Edge {
                kind: EdgeKind::ThreadJoin,
                ..
            } => "edge.thread_join",
            Event::Edge {
                kind: EdgeKind::BatchDiff,
                ..
            } => "edge.batch_diff",
            Event::Edge {
                kind: EdgeKind::Wakeup,
                ..
            } => "edge.wakeup",
            Event::Edge {
                kind: EdgeKind::Recovery,
                ..
            } => "edge.recovery",
        }
    }

    /// True for causal [`Event::Edge`] records.
    pub const fn is_edge(&self) -> bool {
        matches!(self, Event::Edge { .. })
    }

    /// Writes the Chrome-trace `args` object body (without braces) for
    /// this event. Deterministic: fixed field order, integers only.
    pub fn write_args(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            Event::Fault { page, write } | Event::FaultSpan { page, write } => {
                let _ = write!(out, "\"page\":{page},\"write\":{write}");
            }
            Event::Place { base } | Event::Migrate { base } => {
                let _ = write!(out, "\"base\":{base}");
            }
            Event::Fetch { page, home } => {
                let _ = write!(out, "\"page\":{page},\"home\":{home}");
            }
            Event::Diff { page, bytes } => {
                let _ = write!(out, "\"page\":{page},\"bytes\":{bytes}");
            }
            Event::Invalidate { page } => {
                let _ = write!(out, "\"page\":{page}");
            }
            Event::DiffBatch { home, pages, bytes } => {
                let _ = write!(out, "\"home\":{home},\"pages\":{pages},\"bytes\":{bytes}");
            }
            Event::SanSend { to, bytes } | Event::SanFetch { to, bytes } => {
                let _ = write!(out, "\"to\":{to},\"bytes\":{bytes}");
            }
            Event::SanNotify { to } | Event::VmmcNotify { to } => {
                let _ = write!(out, "\"to\":{to}");
            }
            Event::VmmcWrite { region, bytes } | Event::VmmcFetch { region, bytes } => {
                let _ = write!(out, "\"region\":{region},\"bytes\":{bytes}");
            }
            Event::ReleaseSpan { diffs } => {
                let _ = write!(out, "\"diffs\":{diffs}");
            }
            Event::AcquireSpan { invals } => {
                let _ = write!(out, "\"invals\":{invals}");
            }
            Event::LockWait { id }
            | Event::BarrierWait { id }
            | Event::PthMutexWait { id }
            | Event::PthCondWait { id }
            | Event::PthBarrierWait { id } => {
                let _ = write!(out, "\"id\":{id}");
            }
            Event::PthRwWait { id, write } => {
                let _ = write!(out, "\"id\":{id},\"write\":{write}");
            }
            Event::ThreadCreate { ct, on } => {
                let _ = write!(out, "\"ct\":{ct},\"on\":{on}");
            }
            Event::ThreadJoin { ct } => {
                let _ = write!(out, "\"ct\":{ct}");
            }
            Event::GlobalAlloc { base, bytes } => {
                let _ = write!(out, "\"base\":{base},\"bytes\":{bytes}");
            }
            Event::NodeAttach { node } | Event::NodeDetach { node } => {
                let _ = write!(out, "\"node\":{node}");
            }
            Event::Sched { kind } => {
                let _ = write!(out, "\"kind\":\"{}\"", kind.name());
            }
            Event::ChaosWireFault {
                to,
                delay_ns,
                retransmits,
                duplicates,
            } => {
                let _ = write!(
                    out,
                    "\"to\":{to},\"delay_ns\":{delay_ns},\"retransmits\":{retransmits},\"duplicates\":{duplicates}"
                );
            }
            Event::ChaosResourceFault { op } => {
                let _ = write!(out, "\"op\":\"{op}\"");
            }
            Event::ChaosRetry {
                attempt,
                backoff_ns,
            } => {
                let _ = write!(out, "\"attempt\":{attempt},\"backoff_ns\":{backoff_ns}");
            }
            Event::ChaosEvict { region } => {
                let _ = write!(out, "\"region\":{region}");
            }
            Event::ChaosCrash { node } => {
                let _ = write!(out, "\"node\":{node}");
            }
            Event::ServiceRequest { op, shard, key } => {
                let _ = write!(
                    out,
                    "\"op\":\"{}\",\"shard\":{shard},\"key\":{key}",
                    op.name()
                );
            }
            Event::ChaosRecovery {
                node,
                threads,
                latency_ns,
            } => {
                let _ = write!(
                    out,
                    "\"node\":{node},\"threads\":{threads},\"latency_ns\":{latency_ns}"
                );
            }
            Event::Edge {
                src_node,
                src_track,
                src_ns,
                obj,
                ..
            } => {
                let _ = write!(
                    out,
                    "\"src_node\":{src_node},\"src_track\":{src_track},\"src_ns\":{src_ns},\"obj\":{obj}"
                );
            }
        }
    }
}

/// One recorded event: an instant (`dur_ns == 0`) or a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Start time (for spans) or occurrence time (for instants).
    pub at: SimTime,
    /// Span duration in simulated nanoseconds; `0` marks an instant.
    pub dur_ns: u64,
    /// Node the event is attributed to.
    pub node: NodeId,
    /// Chrome-trace lane: a simulated thread id, or [`NIC_TRACK`].
    pub track: u64,
    /// Layer the event is attributed to.
    pub layer: Layer,
    /// The event payload.
    pub event: Event,
}

impl EventRecord {
    /// A total, mode-independent ordering key: `(at, node, track, layer,
    /// kind, dur)`. Recording order is already identical across engine
    /// backends (every backend executes operations in the same global
    /// timestamp order), so sorting by this key is defense in depth for
    /// cross-backend comparisons — any reordering of same-instant records
    /// normalizes away, while a genuine divergence still differs.
    pub fn canonical_key(&self) -> (u64, u32, u64, usize, &'static str, u64) {
        (
            self.at.as_nanos(),
            self.node.0,
            self.track,
            self.layer.index(),
            self.event.kind_name(),
            self.dur_ns,
        )
    }
}

/// Sorts `events` into the canonical cross-backend comparison order (see
/// [`EventRecord::canonical_key`]). Stable, so records identical under the
/// key keep their recording order.
pub fn canonical_sort(events: &mut [EventRecord]) {
    events.sort_by(|a, b| a.canonical_key().cmp(&b.canonical_key()));
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}",
            self.at,
            self.node,
            self.event.kind_name(),
            self.dur_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_indices_are_dense_and_stable() {
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }

    #[test]
    fn kind_names_carry_their_layer() {
        assert_eq!(Event::SanSend { to: 1, bytes: 4 }.kind_name(), "san.send");
        assert_eq!(
            Event::Sched {
                kind: SchedKind::Wake
            }
            .kind_name(),
            "sched.wake"
        );
    }
}
