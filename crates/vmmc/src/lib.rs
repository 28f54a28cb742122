//! # cables-vmmc — Virtual Memory-Mapped Communication
//!
//! Models VMMC, the user-level communication layer the paper's cluster
//! uses on top of Myrinet: nodes *export* (register) memory regions with
//! their NIC, other nodes *import* them, and then perform **direct remote
//! operations** — writes and fetches that move data between physical
//! memories without remote processor intervention — plus **notifications**
//! that dispatch a handler on the remote host.
//!
//! The crate enforces the SAN resource limits of paper §2.1.1:
//!
//! - the number of regions that can be registered on a NIC
//!   (*"usually a few thousand"*),
//! - the total amount of registered memory (*"a few hundred MBytes"*),
//! - the total amount of pinned memory (an OS limit).
//!
//! These limits are what force CableS's double-mapping design, and what
//! make the base system unable to run OCEAN on 32 processors (paper §3.4).
//!
//! Timing comes from the [`san`] cost model; data movement is real byte
//! copies between [`memsim`] frames. Remote effects are applied at issue
//! time (callers order themselves with `Sim::sync_point` first), which is
//! indistinguishable for data-race-free programs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::sync::{Arc, OnceLock};

use chaos::{ChaosEngine, ResourceOp};
use obs::{EdgeKind, Event, Layer, ObsSink, NIC_TRACK};
use serde::{Deserialize, Serialize};

use memsim::{ClusterMem, FrameId, PAGE_SIZE};
use san::{San, SendTiming};
use sim::{IdMap, Local, NodeId, SimTime};

/// NIC and registration resource limits plus registration costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmmcConfig {
    /// Maximum regions registered per NIC (exports + imports).
    pub max_regions_per_nic: u64,
    /// Maximum bytes of memory registered per NIC (exported regions).
    pub max_registered_bytes: u64,
    /// Maximum bytes of pinned memory per node (OS limit).
    pub max_pinned_bytes: u64,
    /// Cost of registering a new region with the NIC, ns.
    pub register_op_ns: u64,
    /// Cost of extending an already-registered region, ns.
    pub extend_op_ns: u64,
    /// Cost of importing a remote region, ns (excluding the network
    /// round-trip, which callers charge separately).
    pub import_op_ns: u64,
}

impl Default for VmmcConfig {
    fn default() -> Self {
        VmmcConfig {
            max_regions_per_nic: 4096,
            max_registered_bytes: 256 << 20,
            max_pinned_bytes: 384 << 20,
            register_op_ns: 40_000,
            extend_op_ns: 5_000,
            import_op_ns: 25_000,
        }
    }
}

impl VmmcConfig {
    /// The configuration modelling the paper's Myrinet NICs.
    pub fn paper() -> Self {
        VmmcConfig::default()
    }
}

/// Identifier of an exported region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u64);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Errors from VMMC operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmmcError {
    /// The NIC cannot register more regions.
    RegionLimit {
        /// Node whose NIC is full.
        node: NodeId,
        /// The configured limit.
        limit: u64,
    },
    /// Registering would exceed the NIC's registered-memory limit.
    RegisteredBytesLimit {
        /// Node whose NIC is full.
        node: NodeId,
        /// The configured limit in bytes.
        limit: u64,
    },
    /// Pinning would exceed the OS pinned-memory limit.
    PinnedBytesLimit {
        /// Node that hit the limit.
        node: NodeId,
        /// The configured limit in bytes.
        limit: u64,
    },
    /// Operation referenced an unknown region.
    NoSuchRegion(RegionId),
    /// A remote operation targeted a region the issuing node never imported.
    NotImported {
        /// Issuing node.
        node: NodeId,
        /// Target region.
        region: RegionId,
    },
    /// Offset/length outside the region.
    OutOfBounds {
        /// Target region.
        region: RegionId,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
    },
}

impl fmt::Display for VmmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmmcError::RegionLimit { node, limit } => {
                write!(f, "NIC region limit ({limit}) exceeded on {node}")
            }
            VmmcError::RegisteredBytesLimit { node, limit } => {
                write!(
                    f,
                    "NIC registered-memory limit ({limit} bytes) exceeded on {node}"
                )
            }
            VmmcError::PinnedBytesLimit { node, limit } => {
                write!(
                    f,
                    "OS pinned-memory limit ({limit} bytes) exceeded on {node}"
                )
            }
            VmmcError::NoSuchRegion(r) => write!(f, "no such region {r}"),
            VmmcError::NotImported { node, region } => {
                write!(f, "{node} has not imported {region}")
            }
            VmmcError::OutOfBounds {
                region,
                offset,
                len,
            } => write!(f, "access [{offset}, +{len}) out of bounds of {region}"),
        }
    }
}

impl std::error::Error for VmmcError {}

#[derive(Debug)]
struct Region {
    owner: NodeId,
    frames: Vec<FrameId>,
    importers: Vec<NodeId>,
}

impl Region {
    fn bytes(&self) -> u64 {
        self.frames.len() as u64 * PAGE_SIZE
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct NicState {
    regions: u64,
    registered_bytes: u64,
}

/// Per-node NIC registration usage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NicStats {
    /// Regions registered on this NIC (exports + imports).
    pub regions: u64,
    /// Bytes of exported memory registered on this NIC.
    pub registered_bytes: u64,
}

struct State {
    regions: IdMap<u64, Region>,
    nics: Vec<NicState>,
    next_region: u64,
}

/// The VMMC communication layer.
pub struct Vmmc {
    cfg: VmmcConfig,
    san: Arc<San>,
    mem: Arc<ClusterMem>,
    state: Local<State>,
    obs: OnceLock<Arc<ObsSink>>,
    chaos: OnceLock<Arc<ChaosEngine>>,
}

impl fmt::Debug for Vmmc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(s) = self.state.try_lock() else {
            return f.write_str("Vmmc { <borrowed> }");
        };
        f.debug_struct("Vmmc")
            .field("regions", &s.regions.len())
            .field("nodes", &s.nics.len())
            .finish()
    }
}

impl Vmmc {
    /// Creates the layer over a network and cluster memory.
    pub fn new(cfg: VmmcConfig, san: Arc<San>, mem: Arc<ClusterMem>) -> Self {
        Vmmc {
            cfg,
            san,
            mem,
            state: Local::new(State {
                regions: IdMap::default(),
                nics: Vec::new(),
                next_region: 0,
            }),
            obs: OnceLock::new(),
            chaos: OnceLock::new(),
        }
    }

    /// Attaches the cluster's observability sink, forwarding it to the
    /// underlying [`San`] (done once by `Cluster::build`).
    pub fn set_obs(&self, sink: Arc<ObsSink>) {
        self.san.set_obs(Arc::clone(&sink));
        let _ = self.obs.set(sink);
    }

    /// Attaches the cluster's chaos engine, forwarding it to the
    /// underlying [`San`] (done once by `Cluster::set_chaos`; later calls
    /// are ignored).
    pub fn set_chaos(&self, chaos: Arc<ChaosEngine>) {
        self.san.set_chaos(Arc::clone(&chaos));
        let _ = self.chaos.set(chaos);
    }

    /// The chaos engine, if attached and armed for resource pressure.
    #[inline]
    fn chaos_resource(&self) -> Option<&ChaosEngine> {
        match self.chaos.get() {
            Some(c) if c.resource_armed() => Some(c),
            _ => None,
        }
    }

    /// The chaos engine, if attached and armed for wire faults.
    #[inline]
    fn chaos_wire(&self) -> Option<&ChaosEngine> {
        match self.chaos.get() {
            Some(c) if c.wire_armed() => Some(c),
            _ => None,
        }
    }

    /// The sink, if attached and enabled (hot-path check).
    #[inline]
    fn obs_on(&self) -> Option<&ObsSink> {
        match self.obs.get() {
            Some(o) if o.on() => Some(o),
            _ => None,
        }
    }

    /// Configuration in effect.
    pub fn config(&self) -> &VmmcConfig {
        &self.cfg
    }

    /// The underlying network model.
    pub fn san(&self) -> &Arc<San> {
        &self.san
    }

    /// The underlying cluster memory.
    pub fn mem(&self) -> &Arc<ClusterMem> {
        &self.mem
    }

    /// Ensures NIC state exists for `node`.
    pub fn ensure_node(&self, node: NodeId) {
        self.san.ensure_node(node);
        self.mem.ensure_node(node);
        let mut s = self.state.lock();
        while s.nics.len() <= node.0 as usize {
            s.nics.push(NicState::default());
        }
    }

    /// Registration usage of `node`'s NIC.
    pub fn nic_stats(&self, node: NodeId) -> NicStats {
        let s = self.state.lock();
        s.nics
            .get(node.0 as usize)
            .map(|n| NicStats {
                regions: n.regions,
                registered_bytes: n.registered_bytes,
            })
            .unwrap_or_default()
    }

    /// Exports (registers) a region of `owner`'s frames with its NIC,
    /// pinning them.
    ///
    /// # Errors
    ///
    /// Fails if the NIC's region count, registered-byte, or the OS
    /// pinned-byte limit would be exceeded.
    pub fn export_region(
        &self,
        owner: NodeId,
        frames: Vec<FrameId>,
    ) -> Result<RegionId, VmmcError> {
        self.ensure_node(owner);
        // Chaos: transient NIC pressure makes the registration fail as if
        // the region table were full; callers retry (paper §3.4 regime).
        if let Some(c) = self.chaos_resource() {
            if c.resource_inject(ResourceOp::Export, owner.0) {
                return Err(VmmcError::RegionLimit {
                    node: owner,
                    limit: self.cfg.max_regions_per_nic,
                });
            }
        }
        let bytes = frames.len() as u64 * PAGE_SIZE;
        let mut s = self.state.lock();
        let nic = &s.nics[owner.0 as usize];
        if nic.regions + 1 > self.cfg.max_regions_per_nic {
            return Err(VmmcError::RegionLimit {
                node: owner,
                limit: self.cfg.max_regions_per_nic,
            });
        }
        if nic.registered_bytes + bytes > self.cfg.max_registered_bytes {
            return Err(VmmcError::RegisteredBytesLimit {
                node: owner,
                limit: self.cfg.max_registered_bytes,
            });
        }
        let newly_pinned: u64 =
            frames.iter().filter(|f| !self.mem.is_pinned(**f)).count() as u64 * PAGE_SIZE;
        if self.mem.stats(owner).pinned_bytes + newly_pinned > self.cfg.max_pinned_bytes {
            return Err(VmmcError::PinnedBytesLimit {
                node: owner,
                limit: self.cfg.max_pinned_bytes,
            });
        }
        for f in &frames {
            debug_assert_eq!(f.node, owner, "exporting a foreign frame");
            self.mem.pin_frame(*f);
        }
        let id = RegionId(s.next_region);
        s.next_region += 1;
        s.nics[owner.0 as usize].regions += 1;
        s.nics[owner.0 as usize].registered_bytes += bytes;
        let nic_now = s.nics[owner.0 as usize];
        s.regions.insert(
            id.0,
            Region {
                owner,
                frames,
                importers: Vec::new(),
            },
        );
        drop(s);
        if let Some(o) = self.obs_on() {
            o.gauge_max("vmmc.max_nic_regions", nic_now.regions);
            o.gauge_max("vmmc.max_registered_bytes", nic_now.registered_bytes);
        }
        Ok(id)
    }

    /// Extends an already-exported region with more frames (the
    /// double-mapping trick: the home-pages region grows but stays a
    /// *single* NIC registration).
    ///
    /// # Errors
    ///
    /// Fails on the registered-byte or pinned-byte limits, or if the
    /// region does not exist.
    pub fn extend_region(&self, region: RegionId, frames: Vec<FrameId>) -> Result<(), VmmcError> {
        let bytes = frames.len() as u64 * PAGE_SIZE;
        let mut s = self.state.lock();
        let owner = s
            .regions
            .get(&region.0)
            .ok_or(VmmcError::NoSuchRegion(region))?
            .owner;
        // Chaos: transient registered-memory pressure on the grow path.
        if let Some(c) = self.chaos_resource() {
            if c.resource_inject(ResourceOp::Extend, owner.0) {
                return Err(VmmcError::RegisteredBytesLimit {
                    node: owner,
                    limit: self.cfg.max_registered_bytes,
                });
            }
        }
        if s.nics[owner.0 as usize].registered_bytes + bytes > self.cfg.max_registered_bytes {
            return Err(VmmcError::RegisteredBytesLimit {
                node: owner,
                limit: self.cfg.max_registered_bytes,
            });
        }
        let newly_pinned: u64 =
            frames.iter().filter(|f| !self.mem.is_pinned(**f)).count() as u64 * PAGE_SIZE;
        if self.mem.stats(owner).pinned_bytes + newly_pinned > self.cfg.max_pinned_bytes {
            return Err(VmmcError::PinnedBytesLimit {
                node: owner,
                limit: self.cfg.max_pinned_bytes,
            });
        }
        for f in &frames {
            self.mem.pin_frame(*f);
        }
        s.nics[owner.0 as usize].registered_bytes += bytes;
        let registered = s.nics[owner.0 as usize].registered_bytes;
        s.regions.get_mut(&region.0).unwrap().frames.extend(frames);
        drop(s);
        if let Some(o) = self.obs_on() {
            o.gauge_max("vmmc.max_registered_bytes", registered);
        }
        Ok(())
    }

    /// Imports a remote region into `importer`'s NIC so it may issue
    /// direct remote operations on it.
    ///
    /// # Errors
    ///
    /// Fails if the importer's NIC region limit would be exceeded or the
    /// region does not exist. Importing twice is idempotent.
    pub fn import_region(&self, importer: NodeId, region: RegionId) -> Result<(), VmmcError> {
        self.ensure_node(importer);
        let mut s = self.state.lock();
        let r = s
            .regions
            .get(&region.0)
            .ok_or(VmmcError::NoSuchRegion(region))?;
        if r.importers.contains(&importer) {
            return Ok(());
        }
        // Chaos: transient import-table pressure on the importer's NIC.
        if let Some(c) = self.chaos_resource() {
            if c.resource_inject(ResourceOp::Import, importer.0) {
                return Err(VmmcError::RegionLimit {
                    node: importer,
                    limit: self.cfg.max_regions_per_nic,
                });
            }
        }
        if s.nics[importer.0 as usize].regions + 1 > self.cfg.max_regions_per_nic {
            return Err(VmmcError::RegionLimit {
                node: importer,
                limit: self.cfg.max_regions_per_nic,
            });
        }
        s.nics[importer.0 as usize].regions += 1;
        s.regions
            .get_mut(&region.0)
            .unwrap()
            .importers
            .push(importer);
        Ok(())
    }

    /// Releases `importer`'s import of `region`, freeing one slot in its
    /// NIC region table. Used by the SVM layer to evict cold imports when
    /// the NIC runs out of resources (degraded-but-alive recovery).
    ///
    /// # Errors
    ///
    /// Fails if the region does not exist or was never imported by
    /// `importer`.
    pub fn unimport_region(&self, importer: NodeId, region: RegionId) -> Result<(), VmmcError> {
        let mut s = self.state.lock();
        let r = s
            .regions
            .get_mut(&region.0)
            .ok_or(VmmcError::NoSuchRegion(region))?;
        let Some(pos) = r.importers.iter().position(|&n| n == importer) else {
            return Err(VmmcError::NotImported {
                node: importer,
                region,
            });
        };
        r.importers.remove(pos);
        s.nics[importer.0 as usize].regions -= 1;
        Ok(())
    }

    /// Number of frames (pages) in a region.
    pub fn region_pages(&self, region: RegionId) -> Result<usize, VmmcError> {
        let s = self.state.lock();
        s.regions
            .get(&region.0)
            .map(|r| r.frames.len())
            .ok_or(VmmcError::NoSuchRegion(region))
    }

    /// The frame backing byte `offset` of `region`.
    pub fn region_frame(&self, region: RegionId, offset: u64) -> Result<FrameId, VmmcError> {
        let s = self.state.lock();
        let r = s
            .regions
            .get(&region.0)
            .ok_or(VmmcError::NoSuchRegion(region))?;
        let idx = (offset / PAGE_SIZE) as usize;
        r.frames.get(idx).copied().ok_or(VmmcError::OutOfBounds {
            region,
            offset,
            len: 0,
        })
    }

    /// Validates one message's segments `(offset, len)` against `region`
    /// and splits them into per-frame pieces, in segment order. Returns the
    /// region's owner; nothing has been touched on error.
    fn check_remote(
        &self,
        from: NodeId,
        region: RegionId,
        segs: impl Iterator<Item = (u64, u64)>,
    ) -> Result<(NodeId, Vec<(FrameId, usize, usize)>), VmmcError> {
        let s = self.state.lock();
        let r = s
            .regions
            .get(&region.0)
            .ok_or(VmmcError::NoSuchRegion(region))?;
        if r.owner != from && !r.importers.contains(&from) {
            return Err(VmmcError::NotImported { node: from, region });
        }
        let mut pieces = Vec::new();
        for (offset, len) in segs {
            if offset + len > r.bytes() {
                return Err(VmmcError::OutOfBounds {
                    region,
                    offset,
                    len,
                });
            }
            // Split [offset, offset+len) into per-frame pieces.
            let mut cur = offset;
            let end = offset + len;
            while cur < end {
                let frame_idx = (cur / PAGE_SIZE) as usize;
                let in_frame = (cur % PAGE_SIZE) as usize;
                let take = ((PAGE_SIZE - cur % PAGE_SIZE) as usize).min((end - cur) as usize);
                pieces.push((r.frames[frame_idx], in_frame, take));
                cur += take as u64;
            }
        }
        Ok((r.owner, pieces))
    }

    /// The one remote write: deposits the `(offset, data)` segments of one
    /// message into `region` on its owner. `wire` prices the message on
    /// the SAN (skipped for an owner-local deposit, which is a memory copy);
    /// everything else — validation before any effect, the frame copies,
    /// the obs span and delivery edge — is the same for every write.
    fn write_segs<D: AsRef<[u8]>>(
        &self,
        from: NodeId,
        region: RegionId,
        segs: &[(u64, D)],
        now: SimTime,
        wire: impl FnOnce(NodeId) -> SendTiming,
    ) -> Result<SendTiming, VmmcError> {
        let lens = segs.iter().map(|(off, d)| (*off, d.as_ref().len() as u64));
        let (owner, pieces) = self.check_remote(from, region, lens)?;
        let timing = if owner == from {
            SendTiming {
                local_done: now,
                arrival: now,
            }
        } else {
            wire(owner)
        };
        let mut pieces = pieces.into_iter();
        for (_, data) in segs {
            let data = data.as_ref();
            let mut cursor = 0usize;
            while cursor < data.len() {
                let (frame, in_frame, take) = pieces.next().expect("pieces cover the segment");
                self.mem
                    .frame_write(frame, in_frame, &data[cursor..cursor + take]);
                cursor += take;
            }
        }
        if let Some(o) = self.obs_on() {
            o.span(
                Layer::Vmmc,
                from,
                NIC_TRACK,
                now,
                timing.arrival.saturating_since(now),
                Event::VmmcWrite {
                    region: region.0,
                    bytes: segs.iter().map(|(_, d)| d.as_ref().len() as u64).sum(),
                },
            );
            if owner != from {
                // Region-level delivery arrow (the SAN layer draws the
                // wire-level one with byte counts; this one names the
                // region).
                o.edge(
                    EdgeKind::MsgSend,
                    from,
                    NIC_TRACK,
                    now,
                    owner,
                    NIC_TRACK,
                    timing.arrival,
                    region.0,
                );
            }
        }
        Ok(timing)
    }

    /// Direct remote write: deposits `data` at `offset` within `region` on
    /// its owner, without remote processor intervention — the unframed
    /// single-segment message.
    ///
    /// Returns the SAN timing; the sender's CPU is busy until
    /// `local_done`, the data is remotely visible at `arrival`.
    ///
    /// # Errors
    ///
    /// Fails if the region is unknown, not imported by `from`, or the
    /// range is out of bounds.
    pub fn remote_write(
        &self,
        from: NodeId,
        region: RegionId,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<SendTiming, VmmcError> {
        self.write_segs(from, region, &[(offset, data)], now, |owner| {
            self.san.send(from, owner, data.len() as u64, now)
        })
    }

    /// Direct remote fetch: synchronously reads `len` bytes at `offset`
    /// from `region` on its owner — one round trip on the SAN (none for an
    /// owner-local read). Returns the data and the completion time at the
    /// requester.
    ///
    /// # Errors
    ///
    /// Fails if the region is unknown, not imported by `from`, or the
    /// range is out of bounds.
    pub fn remote_fetch(
        &self,
        from: NodeId,
        region: RegionId,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<(Vec<u8>, SimTime), VmmcError> {
        let (owner, pieces) = self.check_remote(from, region, [(offset, len)].into_iter())?;
        let mut done = now;
        if owner != from {
            // Chaos: a dropped fetch request or reply costs the requester
            // a timeout, after which the (idempotent) fetch is re-issued
            // with exponential backoff. Data is read exactly once, after
            // the final successful round-trip.
            let mut issue = now;
            if let Some(c) = self.chaos_wire() {
                let (r, timeout) = c.fetch_retries(from.0, owner.0);
                for i in 0..r {
                    let backoff = timeout << i;
                    if let Some(o) = self.obs_on() {
                        o.span(
                            Layer::Chaos,
                            from,
                            NIC_TRACK,
                            issue,
                            backoff,
                            Event::ChaosRetry {
                                attempt: (i + 1) as u64,
                                backoff_ns: backoff,
                            },
                        );
                    }
                    c.note_retry();
                    issue += backoff;
                }
                if r > 0 {
                    // Recovery arrow: first (lost) issue to the re-issue
                    // that went through.
                    if let Some(o) = self.obs_on() {
                        o.edge(
                            EdgeKind::Recovery,
                            from,
                            NIC_TRACK,
                            now,
                            from,
                            NIC_TRACK,
                            issue,
                            region.0,
                        );
                    }
                }
            }
            done = self.san.fetch(from, owner, len, issue);
        }
        let mut data = vec![0u8; len as usize];
        let mut cursor = 0usize;
        for (frame, in_frame, take) in pieces {
            self.mem
                .frame_read(frame, in_frame, &mut data[cursor..cursor + take]);
            cursor += take;
        }
        if let Some(o) = self.obs_on() {
            o.span(
                Layer::Vmmc,
                from,
                NIC_TRACK,
                now,
                done.saturating_since(now),
                Event::VmmcFetch {
                    region: region.0,
                    bytes: len,
                },
            );
            if owner != from {
                o.edge(
                    EdgeKind::MsgFetch,
                    owner,
                    NIC_TRACK,
                    now,
                    from,
                    NIC_TRACK,
                    done,
                    region.0,
                );
            }
        }
        Ok((data, done))
    }

    /// Batched remote write: deposits several discontiguous segments of
    /// `region` on its owner in **one** SAN transaction (one base latency
    /// and one header per segment instead of one message per segment).
    ///
    /// `segs` is a list of `(offset, data)` pairs. Chaos faults apply to
    /// the batch as a whole — it is a single message, so a drop costs one
    /// retransmit of the whole batch and a duplicate redelivers the whole
    /// batch, keeping replays bit-identical with the unbatched protocol's
    /// fault handling.
    ///
    /// # Errors
    ///
    /// Fails if the region is unknown, not imported by `from`, or any
    /// segment is out of bounds; nothing is written on error.
    pub fn remote_write_multi(
        &self,
        from: NodeId,
        region: RegionId,
        segs: &[(u64, Vec<u8>)],
        now: SimTime,
    ) -> Result<SendTiming, VmmcError> {
        assert!(!segs.is_empty(), "empty batched write");
        self.write_segs(from, region, segs, now, |owner| {
            let lens: Vec<u64> = segs.iter().map(|(_, d)| d.len() as u64).collect();
            self.san.send_multi(from, owner, &lens, now)
        })
    }

    /// Notification: a small message that dispatches a handler on the
    /// remote host. Returns the SAN timing (`arrival` = handler start).
    pub fn notify(&self, from: NodeId, to: NodeId, now: SimTime) -> SendTiming {
        self.ensure_node(from);
        self.ensure_node(to);
        let timing = self.san.notify(from, to, now);
        if let Some(o) = self.obs_on() {
            o.span(
                Layer::Vmmc,
                from,
                NIC_TRACK,
                now,
                timing.arrival.saturating_since(now),
                Event::VmmcNotify { to: to.0 },
            );
        }
        timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::OsVmConfig;
    use san::SanConfig;

    fn setup() -> (Vmmc, Arc<ClusterMem>) {
        let san = Arc::new(San::new(SanConfig::paper()));
        let mem = Arc::new(ClusterMem::new(OsVmConfig::windows_nt()));
        let v = Vmmc::new(VmmcConfig::paper(), san, Arc::clone(&mem));
        for i in 0..4 {
            v.ensure_node(NodeId(i));
        }
        (v, mem)
    }

    fn frames(mem: &ClusterMem, node: NodeId, n: usize) -> Vec<FrameId> {
        (0..n).map(|_| mem.alloc_frame(node).unwrap()).collect()
    }

    #[test]
    fn export_pins_and_counts() {
        let (v, mem) = setup();
        let fs = frames(&mem, NodeId(0), 2);
        let r = v.export_region(NodeId(0), fs.clone()).unwrap();
        assert!(mem.is_pinned(fs[0]));
        let s = v.nic_stats(NodeId(0));
        assert_eq!(s.regions, 1);
        assert_eq!(s.registered_bytes, 2 * PAGE_SIZE);
        assert_eq!(v.region_pages(r).unwrap(), 2);
    }

    #[test]
    fn region_limit_enforced() {
        let san = Arc::new(San::new(SanConfig::paper()));
        let mem = Arc::new(ClusterMem::new(OsVmConfig::windows_nt()));
        let v = Vmmc::new(
            VmmcConfig {
                max_regions_per_nic: 2,
                ..VmmcConfig::paper()
            },
            san,
            Arc::clone(&mem),
        );
        v.ensure_node(NodeId(0));
        for _ in 0..2 {
            let fs = frames(&mem, NodeId(0), 1);
            v.export_region(NodeId(0), fs).unwrap();
        }
        let fs = frames(&mem, NodeId(0), 1);
        assert!(matches!(
            v.export_region(NodeId(0), fs),
            Err(VmmcError::RegionLimit { .. })
        ));
    }

    #[test]
    fn registered_bytes_limit_enforced() {
        let san = Arc::new(San::new(SanConfig::paper()));
        let mem = Arc::new(ClusterMem::new(OsVmConfig::windows_nt()));
        let v = Vmmc::new(
            VmmcConfig {
                max_registered_bytes: 3 * PAGE_SIZE,
                ..VmmcConfig::paper()
            },
            san,
            Arc::clone(&mem),
        );
        v.ensure_node(NodeId(0));
        let fs = frames(&mem, NodeId(0), 4);
        assert!(matches!(
            v.export_region(NodeId(0), fs),
            Err(VmmcError::RegisteredBytesLimit { .. })
        ));
    }

    #[test]
    fn pinned_limit_enforced() {
        let san = Arc::new(San::new(SanConfig::paper()));
        let mem = Arc::new(ClusterMem::new(OsVmConfig::windows_nt()));
        let v = Vmmc::new(
            VmmcConfig {
                max_pinned_bytes: 2 * PAGE_SIZE,
                ..VmmcConfig::paper()
            },
            san,
            Arc::clone(&mem),
        );
        v.ensure_node(NodeId(0));
        let fs = frames(&mem, NodeId(0), 3);
        assert!(matches!(
            v.export_region(NodeId(0), fs),
            Err(VmmcError::PinnedBytesLimit { .. })
        ));
    }

    #[test]
    fn remote_write_moves_bytes() {
        let (v, mem) = setup();
        let fs = frames(&mem, NodeId(1), 1);
        let r = v.export_region(NodeId(1), fs.clone()).unwrap();
        v.import_region(NodeId(0), r).unwrap();
        let t = v
            .remote_write(NodeId(0), r, 100, &[9, 8, 7], SimTime::ZERO)
            .unwrap();
        assert!(t.arrival.as_nanos() >= 7_800);
        let mut buf = [0u8; 3];
        mem.frame_read(fs[0], 100, &mut buf);
        assert_eq!(buf, [9, 8, 7]);
    }

    #[test]
    fn remote_fetch_reads_bytes() {
        let (v, mem) = setup();
        let fs = frames(&mem, NodeId(1), 2);
        mem.frame_write(fs[1], 0, &[1, 2, 3, 4]);
        let r = v.export_region(NodeId(1), fs).unwrap();
        v.import_region(NodeId(0), r).unwrap();
        // Fetch across the frame boundary.
        let (data, done) = v
            .remote_fetch(NodeId(0), r, PAGE_SIZE - 2, 6, SimTime::ZERO)
            .unwrap();
        assert_eq!(&data[2..], &[1, 2, 3, 4]);
        assert!(done.as_nanos() >= 22_000);
    }

    #[test]
    fn unimported_access_rejected() {
        let (v, mem) = setup();
        let fs = frames(&mem, NodeId(1), 1);
        let r = v.export_region(NodeId(1), fs).unwrap();
        assert!(matches!(
            v.remote_write(NodeId(0), r, 0, &[1], SimTime::ZERO),
            Err(VmmcError::NotImported { .. })
        ));
    }

    #[test]
    fn owner_access_is_local_and_free() {
        let (v, mem) = setup();
        let fs = frames(&mem, NodeId(1), 1);
        let r = v.export_region(NodeId(1), fs).unwrap();
        let t = v
            .remote_write(NodeId(1), r, 0, &[5], SimTime::from_micros(3))
            .unwrap();
        assert_eq!(t.arrival, SimTime::from_micros(3));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (v, mem) = setup();
        let fs = frames(&mem, NodeId(1), 1);
        let r = v.export_region(NodeId(1), fs).unwrap();
        v.import_region(NodeId(0), r).unwrap();
        assert!(matches!(
            v.remote_fetch(NodeId(0), r, PAGE_SIZE - 1, 2, SimTime::ZERO),
            Err(VmmcError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn extend_region_keeps_single_registration() {
        let (v, mem) = setup();
        let fs = frames(&mem, NodeId(0), 1);
        let r = v.export_region(NodeId(0), fs).unwrap();
        let more = frames(&mem, NodeId(0), 3);
        v.extend_region(r, more).unwrap();
        let s = v.nic_stats(NodeId(0));
        assert_eq!(s.regions, 1, "double mapping: still one region");
        assert_eq!(s.registered_bytes, 4 * PAGE_SIZE);
        assert_eq!(v.region_pages(r).unwrap(), 4);
    }

    #[test]
    fn import_is_idempotent() {
        let (v, mem) = setup();
        let fs = frames(&mem, NodeId(1), 1);
        let r = v.export_region(NodeId(1), fs).unwrap();
        v.import_region(NodeId(0), r).unwrap();
        v.import_region(NodeId(0), r).unwrap();
        assert_eq!(v.nic_stats(NodeId(0)).regions, 1);
    }

    #[test]
    fn notify_timing() {
        let (v, _) = setup();
        let t = v.notify(NodeId(0), NodeId(1), SimTime::ZERO);
        assert_eq!(t.arrival.as_nanos(), 18_000);
    }

    #[test]
    fn unimport_frees_nic_region_slot() {
        let (v, mem) = setup();
        let fs = frames(&mem, NodeId(1), 1);
        let r = v.export_region(NodeId(1), fs).unwrap();
        v.import_region(NodeId(0), r).unwrap();
        assert_eq!(v.nic_stats(NodeId(0)).regions, 1);
        v.unimport_region(NodeId(0), r).unwrap();
        assert_eq!(v.nic_stats(NodeId(0)).regions, 0);
        // After unimport, remote access is rejected again...
        assert!(matches!(
            v.remote_write(NodeId(0), r, 0, &[1], SimTime::ZERO),
            Err(VmmcError::NotImported { .. })
        ));
        // ...and a second unimport is an error, not a double decrement.
        assert!(matches!(
            v.unimport_region(NodeId(0), r),
            Err(VmmcError::NotImported { .. })
        ));
    }

    #[test]
    fn batched_write_moves_all_segments_in_one_message() {
        let (v, mem) = setup();
        let fs = frames(&mem, NodeId(1), 2);
        let r = v.export_region(NodeId(1), fs.clone()).unwrap();
        v.import_region(NodeId(0), r).unwrap();
        let segs = vec![(8u64, vec![1, 2, 3]), (PAGE_SIZE + 16, vec![9, 9])];
        let t_batch = v
            .remote_write_multi(NodeId(0), r, &segs, SimTime::ZERO)
            .unwrap();
        let mut buf = [0u8; 3];
        mem.frame_read(fs[0], 8, &mut buf);
        assert_eq!(buf, [1, 2, 3]);
        let mut buf2 = [0u8; 2];
        mem.frame_read(fs[1], 16, &mut buf2);
        assert_eq!(buf2, [9, 9]);
        assert_eq!(v.san().traffic(NodeId(0)).messages_out, 1);
        // Cheaper than two per-page writes each awaiting its own fence
        // (the unbatched release pattern: one arrival wait per page).
        let (v2, mem2) = setup();
        let fs2 = frames(&mem2, NodeId(1), 2);
        let r2 = v2.export_region(NodeId(1), fs2).unwrap();
        v2.import_region(NodeId(0), r2).unwrap();
        let a = v2
            .remote_write(NodeId(0), r2, 8, &[1, 2, 3], SimTime::ZERO)
            .unwrap();
        let b = v2
            .remote_write(NodeId(0), r2, PAGE_SIZE + 16, &[9, 9], a.arrival)
            .unwrap();
        assert!(t_batch.arrival < b.arrival);
    }

    #[test]
    fn batched_write_out_of_bounds_writes_nothing() {
        let (v, mem) = setup();
        let fs = frames(&mem, NodeId(1), 1);
        let r = v.export_region(NodeId(1), fs.clone()).unwrap();
        v.import_region(NodeId(0), r).unwrap();
        let segs = vec![(0u64, vec![1]), (PAGE_SIZE, vec![2])];
        assert!(matches!(
            v.remote_write_multi(NodeId(0), r, &segs, SimTime::ZERO),
            Err(VmmcError::OutOfBounds { .. })
        ));
        let mut buf = [9u8; 1];
        mem.frame_read(fs[0], 0, &mut buf);
        assert_eq!(buf, [0], "failed batch must not partially apply");
    }

    #[test]
    fn chaos_resource_pressure_is_transient() {
        let (v, mem) = setup();
        v.set_chaos(chaos::ChaosEngine::new(
            11,
            chaos::FaultPlan::new().resources(chaos::ResourceFaults {
                export_fail_p: 1.0,
                max_consecutive: 2,
                ..chaos::ResourceFaults::default()
            }),
        ));
        let fs = frames(&mem, NodeId(0), 1);
        // Two injected failures, then the bounded injector lets the
        // operation through: a 3-attempt retry loop always succeeds.
        let mut attempts = 0;
        let mut fs = Some(fs);
        let id = loop {
            attempts += 1;
            match v.export_region(NodeId(0), fs.take().unwrap()) {
                Ok(id) => break id,
                Err(VmmcError::RegionLimit { .. }) if attempts <= 3 => {
                    fs = Some(frames(&mem, NodeId(0), 1));
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(attempts, 3);
        assert_eq!(v.region_pages(id).unwrap(), 1);
    }

    #[test]
    fn chaos_fetch_retries_delay_but_return_correct_data() {
        let (v, mem) = setup();
        v.set_chaos(chaos::ChaosEngine::new(
            3,
            chaos::FaultPlan::new().wire(chaos::WireFaults {
                drop_p: 1.0,
                max_retransmits: 2,
                retransmit_timeout_ns: 10_000,
                ..chaos::WireFaults::default()
            }),
        ));
        let fs = frames(&mem, NodeId(1), 1);
        mem.frame_write(fs[0], 0, &[42, 43]);
        let r = v.export_region(NodeId(1), fs).unwrap();
        v.import_region(NodeId(0), r).unwrap();
        let (data, done) = v.remote_fetch(NodeId(0), r, 0, 2, SimTime::ZERO).unwrap();
        assert_eq!(data, vec![42, 43], "retried fetch must not corrupt data");
        // Two forced timeouts with exponential backoff (10us + 20us) plus
        // the nominal round trip.
        assert!(
            done.as_nanos() >= 30_000 + 22_000,
            "got {}",
            done.as_nanos()
        );
    }
}
