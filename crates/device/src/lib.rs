//! Storage device models for the `mobistore` reproduction of *Storage
//! Alternatives for Mobile Computers* (Douglis et al., OSDI '94).
//!
//! The paper compares three storage architectures (§2):
//!
//! * [`disk::MagneticDisk`] — a spinning hard disk with spin-down power
//!   management (Western Digital Caviar Ultralite CU140, HP Kittyhawk);
//! * [`flashdisk::FlashDisk`] — a flash memory card behind a disk block
//!   interface with per-sector erasure (SunDisk SDP5/SDP5A/SDP10);
//! * the byte-accessible flash memory card (Intel Series 2) — its raw
//!   parameters are here ([`params::FlashCardParams`]), while the segment
//!   management and cleaning machinery lives in `mobistore-flash`.
//!
//! [`params`] is the parameter database: every scalar from the paper's
//! Table 2 plus the measured rates of §3, keyed by the same
//! *(device, source)* labels as the rows of Table 4.
//!
//! All devices account energy with per-state [`mobistore_sim::EnergyMeter`]s
//! and model request queueing internally (a request issued while the device
//! is busy waits), which is what produces the paper's maximum-response
//! columns.
//!
//! Every backend — the three above plus [`array::ArrayDevice`] — speaks one
//! interface, the [`Device`] trait: the host submits [`Request`]s, trims,
//! fails the power, and settles trailing idle time the same way whatever
//! the storage alternative, so a trace replays unchanged against each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod disk;
pub mod flashdisk;
pub mod params;

pub use array::ArrayDevice;
pub use disk::MagneticDisk;
pub use flashdisk::FlashDisk;

use mobistore_sim::obs::Observer;
use mobistore_sim::time::{SimDuration, SimTime};

/// A typed, recoverable device failure.
///
/// [`Device::submit`] returns these instead of panicking: callers that can
/// degrade gracefully (the simulator's drain mode, the `repro` binary's
/// exit-code mapping) match on the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// The flash card has exhausted its cleanable capacity (spare guard
    /// spent, nothing reclaimable) and is in read-only end-of-life mode.
    /// Reads and trims still succeed; writes fail with this error.
    ReadOnly {
        /// Live blocks at the end-of-life transition.
        live: u64,
        /// Usable (non-retired) block capacity.
        usable: u64,
        /// Retired (bad-segment) blocks.
        retired: u64,
    },
    /// A flash card was configured with too few segments to hold a
    /// frontier plus an erased reserve.
    TooFewSegments {
        /// Segments the configuration would create.
        segments: u64,
    },
    /// A flash card segment cannot hold even one logical block.
    SegmentTooSmall {
        /// Configured segment size in bytes.
        segment_bytes: u64,
        /// Configured block size in bytes.
        block_bytes: u64,
    },
    /// A read saw more raw bit errors than the ECC budget and the
    /// bounded read-retry could recover; the block's data is lost. The
    /// device stays usable — callers degrade per-block, not per-run.
    Uncorrectable {
        /// The logical block whose data could not be recovered.
        lbn: u64,
        /// Raw bit errors the read saw.
        errors: u32,
    },
    /// An erasure-coded array could not reconstruct one stripe: more
    /// shards are missing than the survivors can decode around (extra
    /// uncorrectable shards on top of dead children). The array stays
    /// usable — other stripes still decode; callers degrade per-block.
    ArrayDegraded {
        /// The logical block whose stripe could not be reconstructed.
        lbn: u64,
        /// Shards missing from the stripe.
        lost: u32,
    },
    /// An erasure-coded array has lost more children than its parity can
    /// tolerate and has degraded to read-only: writes are rejected, and
    /// reads whose stripes span the dead children fail.
    ArrayFailed {
        /// Children currently dead (not yet rebuilt).
        lost: u32,
        /// Concurrent losses the geometry tolerates (`m`).
        tolerated: u32,
    },
    /// A flash card write reached past the largest logical block number
    /// its block table can map (`mobistore_flash::store::LBN_LIMIT`).
    /// Nothing was written.
    LbnLimit {
        /// First block of the refused write.
        lbn: u64,
        /// Its block count.
        blocks: u32,
        /// The exclusive lbn limit.
        limit: u64,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DeviceError::ReadOnly {
                live,
                usable,
                retired,
            } => write!(
                f,
                "flash card is read-only at end of life: {live} live of {usable} usable \
                 blocks ({retired} retired) and nothing cleanable"
            ),
            DeviceError::TooFewSegments { segments } => {
                write!(f, "flash card needs at least 2 segments, got {segments}")
            }
            DeviceError::SegmentTooSmall {
                segment_bytes,
                block_bytes,
            } => write!(
                f,
                "flash segment of {segment_bytes} bytes cannot hold one {block_bytes}-byte block"
            ),
            DeviceError::Uncorrectable { lbn, errors } => write!(
                f,
                "uncorrectable read of block {lbn}: {errors} raw bit errors exceed the ECC \
                 budget and read-retry"
            ),
            DeviceError::ArrayDegraded { lbn, lost } => write!(
                f,
                "array cannot reconstruct block {lbn}: {lost} shards of its stripe are \
                 missing, more than the parity can decode around"
            ),
            DeviceError::ArrayFailed { lost, tolerated } => write!(
                f,
                "array failed: {lost} children dead, geometry tolerates {tolerated}; \
                 degraded to read-only"
            ),
            DeviceError::LbnLimit { lbn, blocks, limit } => write!(
                f,
                "write of {blocks} blocks at lbn {lbn} reaches the card's lbn limit {limit}"
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

/// How a device treats a request that arrives while it is busy.
///
/// The paper's simulator evaluates each operation independently ("all
/// operations and state transitions are assumed to take the average or
/// 'typical' time", §4.2) — its reported maxima are single-operation worst
/// cases such as wind-down + spin-up. [`QueueDiscipline::OpenLoop`]
/// reproduces that: a request starts at its arrival time regardless of
/// earlier requests, while device *state* (spin status, erased-pool level,
/// cleaning progress) still evolves in time. [`QueueDiscipline::Fifo`]
/// models a real single-server queue and is used by the micro-benchmark
/// testbeds (which issue requests back-to-back) and by the queueing
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// Requests wait for earlier requests to finish.
    #[default]
    Fifo,
    /// Requests are served at arrival; busy periods may overlap (the
    /// paper's model).
    OpenLoop,
}

/// The direction of a storage access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Data flows from the device.
    Read,
    /// Data flows to the device.
    Write,
}

/// The interval during which a device served a request.
///
/// A request issued at `t` with `Service { start, end }` waited
/// `start - t` (queueing, spin-up, on-demand cleaning) and experienced a
/// response time of `end - t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Service {
    /// When the device began working on the request.
    pub start: SimTime,
    /// When the request completed.
    pub end: SimTime,
}

impl Service {
    /// The time spent servicing (excluding queueing).
    pub fn service_time(&self) -> SimDuration {
        self.end - self.start
    }

    /// The response time experienced by a request issued at `issued`.
    ///
    /// # Panics
    ///
    /// Panics if `issued` is after `end`.
    pub fn response(&self, issued: SimTime) -> SimDuration {
        self.end - issued
    }
}

/// One host request: `blocks` logical blocks from `lbn` on, `bytes` long.
///
/// Block-mapped devices (flash card, array) address `lbn..lbn + blocks`;
/// the disks stream `bytes` and use `lbn` only as the seek target of the
/// distance model and `file` for the same-file seek heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Read or write.
    pub dir: Dir,
    /// First logical block.
    pub lbn: u64,
    /// Logical blocks covered.
    pub blocks: u32,
    /// Bytes transferred.
    pub bytes: u64,
    /// The file the request belongs to; `None` for requests that
    /// interleave many files (cache flushes).
    pub file: Option<disk::FileTag>,
}

impl Request {
    /// A request for `blocks` blocks of `block_bytes` each from `lbn` on,
    /// tied to no file.
    pub fn new(dir: Dir, lbn: u64, blocks: u32, block_bytes: u64) -> Self {
        Request {
            dir,
            lbn,
            blocks,
            bytes: u64::from(blocks) * block_bytes,
            file: None,
        }
    }

    /// The same request, tagged with `file`.
    pub fn with_file(self, file: disk::FileTag) -> Self {
        Request {
            file: Some(file),
            ..self
        }
    }
}

/// The interface every storage alternative implements.
///
/// Observed and unobserved runs share one code path: pass
/// [`NoopObserver`](mobistore_sim::obs::NoopObserver) and the event and
/// span calls compile away.
pub trait Device {
    /// Serves `req`, issued at `now`. A failed read still accounts time
    /// and energy and returns the interval the device worked; a refused
    /// write returns an empty interval at `now` that callers drop.
    fn submit<O: Observer>(
        &mut self,
        now: SimTime,
        req: Request,
        obs: &mut O,
    ) -> (Service, Result<(), DeviceError>);

    /// Discards `lbn..lbn + blocks` (file deletion); takes no device time.
    /// `now` stamps any background work the trim triggers. Devices without
    /// a block map ignore trims.
    fn trim<O: Observer>(&mut self, now: SimTime, lbn: u64, blocks: u32, obs: &mut O) {
        let _ = (now, lbn, blocks, obs);
    }

    /// Loses power at `now`, runs the device's recovery, and returns the
    /// recovery interval.
    fn power_fail<O: Observer>(&mut self, now: SimTime, obs: &mut O) -> Service;

    /// Accounts for the idle period up to `end` (and any background work
    /// it allows) without serving a request: the end of a run, or the
    /// warm-up boundary.
    fn settle_to<O: Observer>(&mut self, end: SimTime, obs: &mut O);

    /// Zeroes energy and counters while keeping device state (the warm-up
    /// boundary, §4.2). `reset_wear` also zeroes per-segment wear on
    /// devices that track it.
    fn clear_metrics(&mut self, reset_wear: bool);

    /// True if the device places each logical block individually (flash
    /// card, array), so a flush of scattered blocks costs one request per
    /// run; false if it streams a flush as one burst (the disks).
    fn maps_blocks(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_sim::time::{SimDuration, SimTime};

    #[test]
    fn service_and_response() {
        let svc = Service {
            start: SimTime::from_nanos(100),
            end: SimTime::from_nanos(250),
        };
        assert_eq!(svc.service_time(), SimDuration::from_nanos(150));
        assert_eq!(
            svc.response(SimTime::from_nanos(50)),
            SimDuration::from_nanos(200)
        );
    }
}
