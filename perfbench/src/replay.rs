//! Traced replays. Each drives a workload's op stream through the layers'
//! public functions in the order `Simulator` calls them, taking host time
//! around every call, so the per-layer numbers describe the same work as
//! the untraced `simulate` run. The caller proves that by comparing the
//! replay's layer counters with `simulate`'s.
//!
//! Timings stay in memory (accumulators and per-call samples) and are
//! reduced to metrics once the run ends.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mobistore_cache::dram::{BufferCache, CacheStats, WritePolicy};
use mobistore_cache::sram::{SramStats, SramWriteBuffer};
use mobistore_core::config::{BackendConfig, SystemConfig};
use mobistore_core::{Metrics, RunOptions};
use mobistore_device::disk::{DiskCounters, MagneticDisk};
use mobistore_device::flashdisk::{FlashDisk, FlashDiskCounters};
use mobistore_device::Dir;
use mobistore_experiments::fleet::{simulate_shard, CHUNK};
use mobistore_experiments::Scale;
use mobistore_flash::store::{FlashCardConfig, FlashCardCounters, FlashCardStore};
use mobistore_sim::exec::panic_cause;
use mobistore_sim::fleet::FleetPlan;
use mobistore_sim::obs::NoopObserver;
use mobistore_sim::time::SimTime;
use mobistore_trace::record::{DiskOp, DiskOpKind, Trace};

/// Host time and call count accumulated around one layer function.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timer {
    /// Total host nanoseconds inside the calls.
    pub ns: u64,
    /// Number of calls.
    pub calls: u64,
}

impl Timer {
    /// Runs `f`, adding its host time to this timer.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.sample(f).0
    }

    /// Runs `f`, adding its host time to this timer and also returning it.
    #[inline]
    pub fn sample<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64) {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.ns += ns;
        self.calls += 1;
        (out, ns)
    }

    /// Mean host nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

fn warm_count(trace: &Trace) -> usize {
    trace.ops.len() * RunOptions::default().warm_percent as usize / 100
}

fn block_range(op: &DiskOp) -> std::ops::Range<u64> {
    op.lbn..op.lbn + u64::from(op.blocks)
}

/// The flash card layer's share of one card replay.
#[derive(Debug, Default, Clone)]
pub struct CardLayer {
    /// `FlashCardStore::preload_aged`.
    pub preload: Timer,
    /// `FlashCardStore::try_read`, with one sample per call.
    pub read: Timer,
    /// `FlashCardStore::try_write`.
    pub write: Timer,
    /// `FlashCardStore::trim_obs`.
    pub trim: Timer,
    /// Per-call `try_read` nanoseconds.
    pub read_samples: Vec<u64>,
    /// Per-call `try_write` nanoseconds.
    pub write_samples: Vec<u64>,
}

impl CardLayer {
    /// All host time spent inside the card.
    pub fn total_ns(&self) -> u64 {
        self.preload.ns + self.read.ns + self.write.ns + self.trim.ns
    }
}

/// Replays `trace` onto a bare flash card (no DRAM, no SRAM, no power
/// failures), as `Simulator` drives one: aged preload, then per op
/// `try_read`/`try_write`/`trim_obs`, with `finish` + `reset_metrics` at
/// the 10% warm-up boundary. Returns the card's counters; `layer` gains
/// the host time.
///
/// # Errors
///
/// Rejects configurations the replay does not model, and reports a
/// failed `check_invariants` after the replay.
pub fn replay_card(
    config: &SystemConfig,
    trace: &Trace,
    layer: &mut CardLayer,
) -> Result<FlashCardCounters, String> {
    let BackendConfig::FlashCard {
        params,
        capacity_bytes,
        utilization,
        mode,
        victim_policy,
    } = &config.backend
    else {
        return Err("card replay needs a flash-card backend".into());
    };
    let bs = trace.block_size;
    if config.dram_bytes >= bs || config.sram_bytes >= bs || config.fault.power_fail_mean.is_some()
    {
        return Err("card replay models a bare card without caches or power failures".into());
    }
    let mut card = FlashCardStore::new(FlashCardConfig {
        params: params.clone(),
        block_size: bs,
        capacity_bytes: *capacity_bytes,
        mode: *mode,
        victim_policy: *victim_policy,
        queueing: config.queueing,
    })
    .with_faults(config.fault)
    .with_integrity(config.integrity);

    // The simulator's preload: the working set, then filler blocks past
    // it up to the target utilization.
    let mut lbns: Vec<u64> = trace
        .ops
        .iter()
        .filter(|op| op.kind != DiskOpKind::Trim)
        .flat_map(block_range)
        .collect();
    lbns.sort_unstable();
    lbns.dedup();
    let working = lbns.len() as u64;
    let target = utilization.map_or(working, |f| {
        (card.capacity_blocks() as f64 * f).round() as u64
    });
    let filler_base = trace.blocks_spanned().max(lbns.last().map_or(0, |l| l + 1));
    lbns.extend(filler_base..filler_base + target.saturating_sub(working));
    layer.preload.time(|| card.preload_aged(lbns));

    let warm = warm_count(trace);
    let mut last_completion = SimTime::ZERO;
    for (i, op) in trace.ops.iter().enumerate() {
        if i == warm {
            card.finish(op.time);
            card.reset_metrics(RunOptions::default().reset_wear_at_warm);
        }
        match op.kind {
            DiskOpKind::Read if op.blocks > 0 => {
                let ((svc, _), ns) = layer
                    .read
                    .sample(|| card.try_read(op.time, op.lbn, op.blocks));
                layer.read_samples.push(ns);
                last_completion = last_completion.max(svc.end);
            }
            DiskOpKind::Read => {}
            DiskOpKind::Write => {
                let (res, ns) = layer
                    .write
                    .sample(|| card.try_write(op.time, op.lbn, op.blocks));
                layer.write_samples.push(ns);
                if let Ok(svc) = res {
                    last_completion = last_completion.max(svc.end);
                }
            }
            DiskOpKind::Trim => {
                for lbn in block_range(op) {
                    layer
                        .trim
                        .time(|| card.trim_obs(op.time, lbn, 1, &mut NoopObserver));
                }
            }
        }
    }
    let end = trace
        .ops
        .last()
        .map_or(SimTime::ZERO, |op| op.time)
        .max(last_completion);
    card.finish(end);
    catch_unwind(AssertUnwindSafe(|| card.check_invariants()))
        .map_err(|p| format!("card invariants broken after replay: {}", panic_cause(&*p)))?;
    Ok(card.counters())
}

/// The cache and device layers' share of one cached replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct CachedLayers {
    /// `BufferCache::read_probe`.
    pub dram_probe: Timer,
    /// `BufferCache::write`.
    pub dram_write: Timer,
    /// `BufferCache::insert` (read-miss fills).
    pub dram_insert: Timer,
    /// `SramWriteBuffer::contains`/`fits`/`absorb`/`drain_blocks`.
    pub sram: Timer,
    /// `MagneticDisk::access_at`/`access`.
    pub disk: Timer,
    /// `FlashDisk::try_read`/`access`.
    pub flashdisk: Timer,
}

impl CachedLayers {
    /// All host time spent inside the cache and device layers.
    pub fn total_ns(&self) -> u64 {
        [
            self.dram_probe,
            self.dram_write,
            self.dram_insert,
            self.sram,
            self.disk,
            self.flashdisk,
        ]
        .iter()
        .map(|t| t.ns)
        .sum()
    }
}

/// The layer counters a cached replay must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedCounters {
    /// DRAM buffer-cache statistics.
    pub cache: Option<CacheStats>,
    /// SRAM write-buffer statistics.
    pub sram: Option<SramStats>,
    /// Magnetic-disk counters.
    pub disk: Option<DiskCounters>,
    /// Flash-disk counters.
    pub flash_disk: Option<FlashDiskCounters>,
}

impl CachedCounters {
    /// The same counters as `simulate` reported them.
    pub fn of(m: &Metrics) -> Self {
        CachedCounters {
            cache: m.cache,
            sram: m.sram,
            disk: m.disk,
            flash_disk: m.flash_disk,
        }
    }
}

enum Device {
    Disk(MagneticDisk),
    FlashDisk(FlashDisk),
}

impl Device {
    fn finish(&mut self, at: SimTime) {
        match self {
            Device::Disk(d) => d.finish(at),
            Device::FlashDisk(fd) => fd.finish(at),
        }
    }
}

/// Replays `trace` through a write-through DRAM cache, an optional SRAM
/// write buffer, and a magnetic disk or flash disk, as `Simulator` drives
/// them. A read probes the DRAM, checks the SRAM for each miss, sends the
/// rest to the device and fills the DRAM; a write goes to the DRAM, then
/// through the SRAM (flushing it when full) or straight to the device.
///
/// # Errors
///
/// Rejects configurations the replay does not model.
pub fn replay_cached(
    config: &SystemConfig,
    trace: &Trace,
    t: &mut CachedLayers,
) -> Result<CachedCounters, String> {
    let bs = trace.block_size;
    if config.write_policy != WritePolicy::WriteThrough || config.fault.power_fail_mean.is_some() {
        return Err("cached replay models write-through caches without power failures".into());
    }
    let mut dev = match &config.backend {
        BackendConfig::Disk {
            params,
            spin_down,
            seek_model,
        } => Device::Disk(
            MagneticDisk::with_policy(params.clone(), *spin_down)
                .with_queueing(config.queueing)
                .with_seek_model(*seek_model),
        ),
        BackendConfig::FlashDisk { params } => Device::FlashDisk(
            FlashDisk::new(params.clone())
                .with_queueing(config.queueing)
                .with_integrity(config.integrity),
        ),
        other => return Err(format!("cached replay cannot drive a {}", other.kind())),
    };
    let mut dram = (config.dram_bytes >= bs).then(|| {
        BufferCache::new(
            config.dram_params.clone(),
            config.dram_bytes,
            bs,
            config.write_policy,
        )
    });
    let mut sram = (config.sram_bytes >= bs)
        .then(|| SramWriteBuffer::new(config.sram_params.clone(), config.sram_bytes, bs));

    let warm = warm_count(trace);
    let mut last_completion = SimTime::ZERO;
    for (i, op) in trace.ops.iter().enumerate() {
        let now = op.time;
        if i == warm {
            dev.finish(now);
            match &mut dev {
                Device::Disk(d) => d.reset_metrics(),
                Device::FlashDisk(fd) => fd.reset_metrics(),
            }
            if let Some(buf) = sram.as_mut() {
                buf.reset_metrics();
            }
            if let Some(c) = dram.as_mut() {
                c.reset_metrics();
            }
        }
        let lbns: Vec<u64> = block_range(op).collect();
        let bytes = op.bytes(bs);
        match op.kind {
            DiskOpKind::Read => {
                let misses = match dram.as_mut() {
                    Some(c) => {
                        let misses = t.dram_probe.time(|| c.read_probe(&lbns));
                        c.charge_access(bytes);
                        misses
                    }
                    None => lbns,
                };
                if misses.is_empty() {
                    continue;
                }
                let mut device_blocks = 0u64;
                let mut sram_blocks = 0u64;
                for &lbn in &misses {
                    match sram.as_mut() {
                        Some(buf) if t.sram.time(|| buf.contains(lbn)) => {
                            buf.note_read_hit();
                            sram_blocks += 1;
                        }
                        _ => device_blocks += 1,
                    }
                }
                if let (Some(buf), true) = (sram.as_mut(), sram_blocks > 0) {
                    buf.charge_access(sram_blocks * bs);
                }
                let mut fill_ok = true;
                if device_blocks > 0 {
                    let bytes = device_blocks * bs;
                    let svc = match &mut dev {
                        Device::Disk(d) => t.disk.time(|| {
                            d.access_at(now, Dir::Read, bytes, Some(op.file.0), Some(op.lbn))
                        }),
                        Device::FlashDisk(fd) => {
                            let (svc, res) = t.flashdisk.time(|| fd.try_read(now, op.lbn, bytes));
                            fill_ok = res.is_ok();
                            svc
                        }
                    };
                    last_completion = last_completion.max(svc.end);
                }
                if let Some(c) = dram.as_mut() {
                    if fill_ok {
                        // Write-through: evictions are never dirty, so
                        // there is nothing to write back.
                        for &lbn in &misses {
                            t.dram_insert.time(|| c.insert(lbn, false));
                        }
                    } else {
                        c.note_fill_rejects(misses.len() as u64);
                    }
                }
            }
            DiskOpKind::Write => {
                if let Some(c) = dram.as_mut() {
                    t.dram_write.time(|| c.write(&lbns));
                    c.charge_access(bytes);
                }
                let bytes = lbns.len() as u64 * bs;
                match sram.as_mut() {
                    Some(buf) if lbns.len() <= buf.capacity_blocks() => {
                        if !t.sram.time(|| buf.fits(&lbns)) {
                            let blocks = t.sram.time(|| buf.drain_blocks());
                            let flush = blocks.len() as u64 * bs;
                            let svc = match &mut dev {
                                Device::Disk(d) => {
                                    t.disk.time(|| d.access(now, Dir::Write, flush, None))
                                }
                                Device::FlashDisk(fd) => {
                                    t.flashdisk.time(|| fd.access(now, Dir::Write, flush))
                                }
                            };
                            last_completion = last_completion.max(svc.end);
                        }
                        t.sram.time(|| buf.absorb(&lbns));
                        buf.charge_access(bytes);
                    }
                    _ => {
                        let svc = match &mut dev {
                            Device::Disk(d) => t.disk.time(|| {
                                d.access_at(now, Dir::Write, bytes, Some(op.file.0), Some(op.lbn))
                            }),
                            Device::FlashDisk(fd) => {
                                t.flashdisk.time(|| fd.access(now, Dir::Write, bytes))
                            }
                        };
                        last_completion = last_completion.max(svc.end);
                    }
                }
            }
            DiskOpKind::Trim => {
                for lbn in lbns {
                    if let Some(c) = dram.as_mut() {
                        c.invalidate(lbn);
                    }
                    if let Some(buf) = sram.as_mut() {
                        buf.invalidate(lbn);
                    }
                }
            }
        }
    }
    let end = trace
        .ops
        .last()
        .map_or(SimTime::ZERO, |op| op.time)
        .max(last_completion);
    dev.finish(end);
    let (disk, flash_disk) = match &dev {
        Device::Disk(d) => (Some(d.counters()), None),
        Device::FlashDisk(fd) => (None, Some(fd.counters())),
    };
    Ok(CachedCounters {
        cache: dram.as_ref().map(BufferCache::stats),
        sram: sram.as_ref().map(SramWriteBuffer::stats),
        disk,
        flash_disk,
    })
}

/// One traced fleet pass: host time per shard and per device class, and
/// the merge layer.
#[derive(Debug, Default, Clone)]
pub struct FleetLayers {
    /// Per-shard `simulate_shard` nanoseconds, in shard order.
    pub shard_ns: Vec<u64>,
    /// `simulate_shard` nanoseconds summed per device class.
    pub class_ns: Vec<(&'static str, u64)>,
    /// `Metrics::merge`.
    pub merge: Timer,
}

/// Runs every shard of `plan` serially through `simulate_shard`, folding
/// with `Metrics::merge` in the executor's grouping (chunks of
/// [`CHUNK`] shards, each chunk's partial folded into the total), so the
/// result is bit-identical to `fleet::run`'s `fleet/all` row.
///
/// # Errors
///
/// Reports the first shard that panics.
pub fn replay_fleet(
    plan: &FleetPlan,
    scale: Scale,
    layers: &mut FleetLayers,
) -> Result<Metrics, String> {
    let mut total = Metrics::empty("fleet/all");
    for chunk in plan.shards.chunks(CHUNK) {
        let mut partial = Metrics::empty("fleet/all");
        for shard in chunk {
            let start = Instant::now();
            let m = catch_unwind(AssertUnwindSafe(|| simulate_shard(shard, scale)))
                .map_err(|p| format!("shard {} panicked: {}", shard.index, panic_cause(&*p)))?;
            let ns = start.elapsed().as_nanos() as u64;
            layers.shard_ns.push(ns);
            match layers.class_ns.iter_mut().find(|(c, _)| *c == shard.device) {
                Some((_, sum)) => *sum += ns,
                None => layers.class_ns.push((shard.device, ns)),
            }
            layers.merge.time(|| partial.merge(&m));
        }
        layers.merge.time(|| total.merge(&partial));
    }
    Ok(total)
}
