//! Feature-gated access tracing for the simulated GPU.
//!
//! The functional kernel implementations (in the `distmsm` crate) *meter*
//! atomics, barriers and bytes for the cost model — but metering proves
//! nothing about correctness. When the `telemetry` cargo feature is enabled,
//! kernels additionally *emit* every simulated global/shared read, write
//! and atomic, tagged with the issuing [`SimThread`] (device, block, warp,
//! thread) and its synchronisation **phase**, plus the block-barrier and
//! grid-sync structure of the launch. The `distmsm-analyze` crate replays
//! these [`LaunchTrace`]s through a vector-clock happens-before checker to
//! detect data races, barrier divergence and atomic hotspots.
//!
//! # Phase encoding
//!
//! Instead of interleaving per-thread barrier events with accesses (which
//! would make traces quadratically larger), every access carries the
//! number of synchronisation points — block barriers *and* grid syncs —
//! its thread has already passed. Within a block, an access at phase `p`
//! happens-before every access at phase `> p` by another thread of the
//! same block; across blocks, ordering exists only through a grid sync
//! (recorded via `LaunchRecorder::grid_sync_at`). This is exactly the
//! information a vector clock needs for barrier-only synchronisation.
//!
//! # Cost
//!
//! With the feature **off**, `LaunchRecorder` does not exist and the
//! instrumented kernels compile their trace emission out. With the
//! feature **on**, `LaunchRecorder::start` opens a recorder only while
//! its thread records into a `distmsm_telemetry::capture` that collects
//! launch traces (`capture::collect::<LaunchTrace>()`, read back with
//! `Capture::take::<LaunchTrace>()`).

#[cfg(feature = "telemetry")]
use distmsm_telemetry::capture;

/// Identity of one simulated GPU thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SimThread {
    /// Device (GPU) index within the simulated system.
    pub device: u16,
    /// Thread-block index within the launch.
    pub block: u32,
    /// Thread index *within its block*.
    pub thread: u32,
}

impl SimThread {
    /// The warp this thread belongs to (32 threads per warp).
    pub fn warp(&self) -> u32 {
        self.thread / 32
    }
}

impl core::fmt::Display for SimThread {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "gpu{}/b{}/w{}/t{}",
            self.device,
            self.block,
            self.warp(),
            self.thread
        )
    }
}

/// Address space of a traced access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device (global) memory — shared by every block of the launch.
    Global,
    /// Shared memory — private to one thread block.
    Shared,
}

/// Flavour of a traced access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain load.
    Read,
    /// Plain store.
    Write,
    /// Atomic read-modify-write.
    Atomic,
}

/// One traced memory access.
#[derive(Clone, Copy, Debug)]
pub struct Access {
    /// Issuing thread.
    pub thread: SimThread,
    /// Synchronisation points (block barriers + grid syncs) the thread
    /// passed before this access.
    pub phase: u32,
    /// Address space.
    pub space: Space,
    /// Access flavour.
    pub kind: AccessKind,
    /// Simulated address. Shared-memory addresses are block-local: two
    /// blocks using the same shared address do **not** alias.
    pub addr: u64,
}

/// Declared barrier participation of one block.
#[derive(Clone, Copy, Debug)]
pub struct BlockBarriers {
    /// Block index.
    pub block: u32,
    /// Threads launched in the block.
    pub threads: u32,
    /// Block barriers each thread of the block arrives at.
    pub count: u32,
}

/// The full access trace of one kernel launch.
#[derive(Clone, Debug, Default)]
pub struct LaunchTrace {
    /// Kernel name (matches the launch's `KernelProfile::name`).
    pub kernel: String,
    /// Launch number within its capture: commit order, counting from 0.
    pub launch: u64,
    /// Every traced access, in emission order.
    pub accesses: Vec<Access>,
    /// Per-block barrier declarations (uniform arrival).
    pub barriers: Vec<BlockBarriers>,
    /// Per-thread overrides of the block declaration — used to model
    /// divergent kernels where threads arrive at different barrier counts.
    pub thread_barriers: Vec<(SimThread, u32)>,
    /// Phases `p` whose `p → p+1` transition is a grid-wide sync.
    pub grid_sync_phases: Vec<u32>,
    /// `LaunchStats::distinct_atomic_addrs` as metered by the kernel, for
    /// cross-checking against the traced atomic footprint.
    pub metered_atomic_addrs: Option<u64>,
}

/// Per-launch trace emitter held by an instrumented kernel.
///
/// Buffers events locally (kernels run on concurrent host threads) and
/// publishes the finished [`LaunchTrace`] to the calling thread's capture
/// on [`commit`](Self::commit).
#[cfg(feature = "telemetry")]
#[derive(Debug)]
pub struct LaunchRecorder {
    trace: LaunchTrace,
    device: u16,
}

#[cfg(feature = "telemetry")]
impl LaunchRecorder {
    /// Opens a recorder for one kernel launch on `device`, or `None`
    /// unless the thread's capture collects [`LaunchTrace`]s — so an
    /// instrumented kernel skips its address computation.
    #[inline]
    pub fn start(kernel: &str, device: u16) -> Option<Self> {
        capture::collecting::<LaunchTrace>().then(|| Self {
            trace: LaunchTrace {
                kernel: kernel.to_owned(),
                ..LaunchTrace::default()
            },
            device,
        })
    }

    /// Records one access by `(block, thread)` at `phase`.
    #[inline]
    pub fn access(
        &mut self,
        block: u32,
        thread: u32,
        phase: u32,
        space: Space,
        kind: AccessKind,
        addr: u64,
    ) {
        self.trace.accesses.push(Access {
            thread: SimThread {
                device: self.device,
                block,
                thread,
            },
            phase,
            space,
            kind,
            addr,
        });
    }

    /// Declares that all `threads` threads of `block` arrive at `count`
    /// block barriers.
    #[inline]
    pub fn block_barriers(&mut self, block: u32, threads: u32, count: u32) {
        self.trace.barriers.push(BlockBarriers {
            block,
            threads,
            count,
        });
    }

    /// Overrides the barrier count of a single thread (for modelling
    /// divergent kernels in fixtures).
    #[inline]
    pub fn thread_barriers(&mut self, block: u32, thread: u32, count: u32) {
        let thread = SimThread {
            device: self.device,
            block,
            thread,
        };
        self.trace.thread_barriers.push((thread, count));
    }

    /// Declares the `phase → phase+1` transition as a grid-wide sync.
    #[inline]
    pub fn grid_sync_at(&mut self, phase: u32) {
        self.trace.grid_sync_phases.push(phase);
    }

    /// Attaches the kernel's metered `distinct_atomic_addrs` for the
    /// hotspot cross-check.
    #[inline]
    pub fn note_metered_atomics(&mut self, distinct: u64) {
        self.trace.metered_atomic_addrs = Some(distinct);
    }

    /// Publishes the trace to the capture.
    #[inline]
    pub fn commit(self) {
        let trace = self.trace;
        capture::submit(|launch| LaunchTrace { launch, ..trace });
    }
}

#[cfg(all(test, feature = "telemetry"))]
mod tests {
    use super::*;

    #[test]
    fn capture_round_trip() {
        assert!(LaunchRecorder::start("toy", 0).is_none(), "no capture");
        let ((), mut cap) = capture::record(|| {
            assert!(LaunchRecorder::start("toy", 0).is_none(), "not collected");
            capture::collect::<LaunchTrace>();
            let mut rec = LaunchRecorder::start("toy", 1).expect("collecting");
            rec.access(0, 0, 0, Space::Global, AccessKind::Write, 42);
            rec.block_barriers(0, 32, 1);
            rec.grid_sync_at(0);
            rec.note_metered_atomics(7);
            rec.commit();
            LaunchRecorder::start("toy2", 0)
                .expect("collecting")
                .commit();
        });
        let traces = cap.take::<LaunchTrace>();
        assert_eq!(traces.len(), 2);
        let t = &traces[0];
        assert_eq!(t.kernel, "toy");
        assert_eq!((t.launch, traces[1].launch), (0, 1));
        assert_eq!(t.accesses.len(), 1);
        assert_eq!(t.accesses[0].thread.device, 1);
        assert_eq!(t.metered_atomic_addrs, Some(7));
        assert_eq!(t.grid_sync_phases, vec![0]);
    }

    #[test]
    fn warp_derivation() {
        let t = SimThread {
            device: 0,
            block: 2,
            thread: 97,
        };
        assert_eq!(t.warp(), 3);
        assert_eq!(t.to_string(), "gpu0/b2/w3/t97");
    }
}
