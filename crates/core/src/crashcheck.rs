//! The crash-consistency torture driver.
//!
//! [`torture`] replays a trace prefix against a backend and injects a
//! power failure at every selected operation boundary — plus torn
//! mid-operation crashes on odd boundaries — then runs the device's
//! recovery and checks the recovered state:
//!
//! * on the block-mapped **flash card** and **erasure-coded array**, one
//!   stateful driver runs a differential [`ShadowModel`] that mirrors
//!   every write and trim; after each crash the recovered
//!   `(lbn, generation)` mapping must be a legal post-crash state
//!   (acknowledged writes survive, the in-flight write is old/new/absent,
//!   nothing is resurrected). Per-device hooks add the card's checks (the
//!   block census still partitions capacity, retired segments stay
//!   retired, an interrupted cleaning pass leaves no block mapped into its
//!   victim segment) and the array's (it never fails under tolerated
//!   losses, and no unreadable block goes unreported);
//! * on the **magnetic disk** and **flash disk**, which recover behind
//!   their controllers, one accounting sweep checks the story: every
//!   crash is counted, recovery time accrues monotonically, and the
//!   device serves requests again after the scan.
//!
//! Crash instants are drawn deterministically from the torture seed, one
//! RNG stream per crash point, so a boundary crash lands anywhere in the
//! inter-op gap — including mid-cleaning and mid-erase, because the
//! card's `settle` truncates the background job at the crash instant.
//! The whole sweep is pure simulation: same seed, same report.

use std::collections::BTreeSet;

use mobistore_device::array::ArrayDevice;
use mobistore_device::disk::MagneticDisk;
use mobistore_device::flashdisk::FlashDisk;
use mobistore_device::{Device, Dir, Request};
use mobistore_flash::store::{FlashCardConfig, FlashCardStore};
use mobistore_sim::crashcheck::{ShadowModel, Violation};
use mobistore_sim::fault::DeathSchedule;
use mobistore_sim::obs::{Event, NoopObserver, Observer};
use mobistore_sim::rng::SimRng;
use mobistore_sim::time::{SimDuration, SimTime};
use mobistore_trace::record::{DiskOp, DiskOpKind, Trace};

use crate::config::{BackendConfig, SystemConfig};
use crate::simulator::working_set;

/// How many operation boundaries receive an injected crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoints {
    /// Crash at every op boundary in the (capped) trace prefix.
    Exhaustive,
    /// Crash at this many boundaries, spread evenly across the prefix.
    Sampled(usize),
}

/// Options controlling a torture sweep.
#[derive(Debug, Clone, Copy)]
pub struct TortureOptions {
    /// Cap on trace operations replayed per crash point (the flash-card
    /// sweep rebuilds the device for every crash point, so the sweep is
    /// O(crash points × ops)). Truncation is reported, never silent.
    pub max_ops: usize,
    /// Crash-point sweep density.
    pub crash_points: CrashPoints,
    /// Seed for the crash-instant jitter streams.
    pub seed: u64,
    /// Test-only: silently drop this logical block from the flash card's
    /// map after every recovery — a deliberately broken recovery that the
    /// device's own invariants cannot see. Exists to prove the shadow
    /// model has teeth; leave `None` for real checking.
    pub sabotage_lbn: Option<u64>,
}

impl Default for TortureOptions {
    fn default() -> Self {
        TortureOptions {
            max_ops: 192,
            crash_points: CrashPoints::Sampled(24),
            seed: 0x1994,
            sabotage_lbn: None,
        }
    }
}

/// The outcome of one torture sweep on one configuration.
#[derive(Debug, Clone)]
pub struct TortureReport {
    /// The configuration's label.
    pub name: String,
    /// Which backend kind was tortured.
    pub device: &'static str,
    /// Crash points actually injected.
    pub crashes: u64,
    /// Crashes injected mid-write (the op was torn, never acknowledged).
    pub mid_op_crashes: u64,
    /// Crashes that struck while a cleaning job was in flight.
    pub mid_cleaning_crashes: u64,
    /// Recovery scans that completed.
    pub recoveries: u64,
    /// Total operations replayed across all crash points.
    pub ops_replayed: u64,
    /// Trace operations dropped by the `max_ops` cap.
    pub truncated_ops: u64,
    /// Blocks the device reported uncorrectable during the sweep (the
    /// integrity model's one permitted loss: typed, never silent). The
    /// shadow excuses exactly these blocks and no others.
    pub uncorrectable_blocks: u64,
    /// Every check failure, rendered with its crash-point context. Empty
    /// means the device survived the sweep.
    pub violations: Vec<String>,
}

impl TortureReport {
    /// True if no check failed anywhere in the sweep.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the torture sweep appropriate for `config`'s backend.
pub fn torture(config: &SystemConfig, trace: &Trace, opts: &TortureOptions) -> TortureReport {
    match &config.backend {
        BackendConfig::Disk {
            params,
            spin_down,
            seek_model,
        } => {
            let fat_bytes = config.fault.fat_scan_bytes;
            let disk = MagneticDisk::with_policy(params.clone(), *spin_down)
                .with_queueing(config.queueing)
                .with_seek_model(*seek_model)
                .with_fat_scan_bytes(fat_bytes);
            let recovery =
                |d: &MagneticDisk| (d.counters().power_failures, d.counters().recovery_time);
            let scan = (fat_bytes > 0).then_some("FAT replay");
            accounting_sweep(config, trace, opts, "magnetic disk", disk, recovery, scan)
        }
        BackendConfig::FlashDisk { params } => {
            let fd = FlashDisk::new(params.clone()).with_queueing(config.queueing);
            let recovery =
                |d: &FlashDisk| (d.counters().power_failures, d.counters().recovery_time);
            accounting_sweep(
                config,
                trace,
                opts,
                "flash disk",
                fd,
                recovery,
                Some("remap rescan"),
            )
        }
        BackendConfig::FlashCard {
            params,
            capacity_bytes,
            mode,
            victim_policy,
            ..
        } => {
            let card_config = FlashCardConfig {
                params: params.clone(),
                block_size: trace.block_size,
                capacity_bytes: *capacity_bytes,
                mode: *mode,
                victim_policy: *victim_policy,
                queueing: config.queueing,
            };
            stateful_sweep(config, trace, opts, |working| {
                let card = FlashCardStore::try_new(card_config.clone())
                    .map_err(|e| format!("cannot build card: {e}"))?
                    .with_faults(config.fault)
                    .with_integrity(config.integrity);
                if working.len() as u64 > card.capacity_blocks() {
                    return Err(format!(
                        "working set ({} blocks) exceeds card capacity ({} blocks)",
                        working.len(),
                        card.capacity_blocks()
                    ));
                }
                Ok(card)
            })
        }
        BackendConfig::Array {
            k,
            m,
            children,
            spares,
            rebuild_rate,
        } => {
            // Exactly `m` children die, spread across both the child set
            // and the replayed window — the worst loss pattern the
            // geometry claims to tolerate.
            let n = trace.ops.len().min(opts.max_ops);
            let span_ns = trace.ops[..n]
                .last()
                .map_or(0, |op| op.time.saturating_since(SimTime::ZERO).as_nanos());
            let mut deaths: Vec<Option<SimTime>> = vec![None; children.len()];
            for d in 0..*m {
                let child = d * children.len() / *m;
                let at = span_ns * (d as u64 + 1) / (*m as u64 + 1);
                deaths[child] = Some(SimTime::from_nanos(at));
            }
            stateful_sweep(config, trace, opts, |_| {
                Ok(ArrayDevice::new(*k, *m, children, trace.block_size)
                    .with_queueing(config.queueing)
                    .with_deaths(DeathSchedule::explicit(deaths.clone()))
                    .with_spares(*spares)
                    .with_rebuild_rate(*rebuild_rate))
            })
        }
    }
}

/// The op-boundary indices to crash at, in ascending order.
fn select_points(n: usize, density: CrashPoints) -> Vec<usize> {
    match density {
        CrashPoints::Exhaustive => (0..n).collect(),
        CrashPoints::Sampled(c) if c >= n => (0..n).collect(),
        CrashPoints::Sampled(0) => Vec::new(),
        CrashPoints::Sampled(c) => {
            // Alternate the parity of consecutive samples: odd boundaries
            // are where the driver tears writes mid-op, and an even stride
            // (e.g. 24 samples of 192 ops) would otherwise never pick one.
            let points: BTreeSet<usize> = (0..c)
                .map(|i| {
                    let p = i * n / c;
                    if i % 2 == 1 && p.is_multiple_of(2) {
                        (p + 1).min(n - 1)
                    } else {
                        p
                    }
                })
                .collect();
            points.into_iter().collect()
        }
    }
}

/// A crash instant strictly before op `k` issues, jittered uniformly into
/// the gap after the previous op's issue time.
fn boundary_crash_instant(ops: &[DiskOp], k: usize, rng: &mut SimRng) -> SimTime {
    let prev = if k == 0 {
        SimTime::ZERO
    } else {
        ops[k - 1].time
    };
    let gap = ops[k].time.saturating_since(prev).as_nanos();
    if gap == 0 {
        prev
    } else {
        prev + SimDuration::from_nanos(rng.below(gap))
    }
}

/// Collects every block the flash card reports uncorrectable (via the
/// typed [`Event::UncorrectableRead`] stream), so the driver can mirror
/// the *reported* loss into the shadow model. Reported loss is a legal
/// outcome of the integrity model; silent loss never is.
#[derive(Default)]
struct UncorrectableCollector {
    fresh: Vec<u64>,
}

impl Observer for UncorrectableCollector {
    fn record(&mut self, event: &Event) {
        if let Event::UncorrectableRead { lbn, .. } = event {
            self.fresh.push(*lbn);
        }
    }
}

/// An empty report for a sweep of the first `n` of `trace`'s ops.
fn empty_report(
    config: &SystemConfig,
    device: &'static str,
    trace: &Trace,
    n: usize,
) -> TortureReport {
    TortureReport {
        name: config.name.clone(),
        device,
        crashes: 0,
        mid_op_crashes: 0,
        mid_cleaning_crashes: 0,
        recoveries: 0,
        ops_replayed: 0,
        truncated_ops: (trace.ops.len() - n) as u64,
        uncorrectable_blocks: 0,
        violations: Vec::new(),
    }
}

/// What the stateful sweep needs from a block-mapped device beyond
/// [`Device`]: an untimed preload, the recovered mapping, a sabotage hook,
/// and the device's own post-recovery checks.
trait Tortured: Device {
    /// The device's label in the report.
    const NAME: &'static str;
    /// State captured just before a crash for the post-recovery checks.
    type Before;
    /// Marks `lbns` acknowledged without timing, stamping generations in
    /// order (the shadow stamps the same way).
    fn preload_working(&mut self, lbns: &[u64]);
    /// The pre-crash state, and whether background work (cleaning,
    /// rebuild) was in flight when the crash struck.
    fn before_crash(&self) -> (Self::Before, bool);
    /// Test-only: silently damages `lbn` after recovery.
    fn sabotage(&mut self, lbn: u64);
    /// The recovered `(lbn, generation)` mapping, sorted by block.
    fn mapping(&self) -> Vec<(u64, u64)>;
    /// The generation the next acknowledged write receives.
    fn generation(&self) -> u64;
    /// Device-specific checks after a recovery.
    fn check_recovered(
        &self,
        before: &Self::Before,
        shadow: &ShadowModel,
        mid_op: bool,
        reported: &BTreeSet<u64>,
        ctx: &str,
        violations: &mut Vec<String>,
    );
    /// Device-specific checks after draining the trace.
    fn check_drained(&self) {}
}

impl Tortured for FlashCardStore {
    const NAME: &'static str = "flash card";
    /// Retired segments and the in-flight cleaning victim.
    type Before = (Vec<u32>, Option<u32>);

    fn preload_working(&mut self, lbns: &[u64]) {
        self.preload_aged(lbns.iter().copied());
    }

    fn before_crash(&self) -> (Self::Before, bool) {
        let victim = self.cleaning_victim();
        ((self.bad_segments(), victim), victim.is_some())
    }

    fn sabotage(&mut self, lbn: u64) {
        self.sabotage_lose_block(lbn);
    }

    fn mapping(&self) -> Vec<(u64, u64)> {
        self.snapshot()
            .iter()
            .map(|e| (e.lbn, e.generation))
            .collect()
    }

    fn generation(&self) -> u64 {
        self.next_generation()
    }

    /// Structural checks beyond per-block contents: the census partitions
    /// capacity, the live count matches the shadow, retirement is
    /// monotone, and cleaning is atomic.
    fn check_recovered(
        &self,
        (bad_before, victim): &Self::Before,
        shadow: &ShadowModel,
        mid_op: bool,
        _reported: &BTreeSet<u64>,
        ctx: &str,
        violations: &mut Vec<String>,
    ) {
        let census = self.census();
        if census.total() != self.capacity_blocks() {
            violations.push(format!(
                "{ctx}: {}",
                Violation::CensusImbalance {
                    total: census.total(),
                    capacity: self.capacity_blocks(),
                }
            ));
        }
        // With a write in flight the recovered live count is legitimately
        // ambiguous (never-acked blocks may or may not have reached media),
        // so the exact comparison applies only to boundary crashes.
        if !mid_op && census.live != shadow.live_blocks() {
            violations.push(format!(
                "{ctx}: {}",
                Violation::LiveCountMismatch {
                    device: census.live,
                    shadow: shadow.live_blocks(),
                }
            ));
        }
        let bad_after = self.bad_segments();
        for &seg in bad_before {
            if !bad_after.contains(&seg) {
                violations.push(format!(
                    "{ctx}: {}",
                    Violation::RetirementRegressed { segment: seg }
                ));
            }
        }
        // Copy-before-erase: recovery completes an interrupted cleaning
        // pass, so no block may still map into the victim segment.
        if let Some(victim) = *victim {
            let still = self
                .snapshot()
                .iter()
                .filter(|e| e.segment == victim)
                .count() as u64;
            if still > 0 {
                violations.push(format!(
                    "{ctx}: {}",
                    Violation::CleaningNotAtomic {
                        victim,
                        still_in_victim: still,
                    }
                ));
            }
        }
    }

    fn check_drained(&self) {
        self.check_invariants();
    }
}

impl Tortured for ArrayDevice {
    const NAME: &'static str = "ec-array";
    type Before = ();

    fn preload_working(&mut self, lbns: &[u64]) {
        self.preload(lbns.iter().copied());
    }

    fn before_crash(&self) -> ((), bool) {
        ((), self.lost_children() > 0)
    }

    fn sabotage(&mut self, lbn: u64) {
        self.sabotage_corrupt(lbn);
    }

    fn mapping(&self) -> Vec<(u64, u64)> {
        self.snapshot()
    }

    fn generation(&self) -> u64 {
        self.next_generation()
    }

    /// With at most `m` losses the array must not fail, and any
    /// unreadable block that was never reported is silent loss.
    fn check_recovered(
        &self,
        _before: &(),
        _shadow: &ShadowModel,
        _mid_op: bool,
        reported: &BTreeSet<u64>,
        ctx: &str,
        violations: &mut Vec<String>,
    ) {
        if self.is_failed() {
            violations.push(format!(
                "{ctx}: array failed under {} tolerated deaths",
                self.parity_shards()
            ));
        }
        for lbn in self.unreadable_blocks() {
            if !reported.contains(&lbn) {
                violations.push(format!("{ctx}: block {lbn} unreadable but never reported"));
            }
        }
    }
}

/// The differential sweep for block-mapped devices (flash card, array): a
/// fresh device (and shadow) per crash point from `make`, full replay to
/// the boundary, crash, recovery, verification, then replay of the
/// remainder with a final consistency check. After every crash and at the
/// end of every drain the recovered `(lbn, generation)` mapping must
/// verify against the shadow, with only *reported* losses excused.
fn stateful_sweep<D: Tortured>(
    config: &SystemConfig,
    trace: &Trace,
    opts: &TortureOptions,
    make: impl Fn(&[u64]) -> Result<D, String>,
) -> TortureReport {
    let n = trace.ops.len().min(opts.max_ops);
    let ops = &trace.ops[..n];
    let working = working_set(ops);
    let mut report = empty_report(config, D::NAME, trace, n);
    let block_size = trace.block_size;

    for k in select_points(n, opts.crash_points) {
        let mut rng = SimRng::seed_with_stream(opts.seed, k as u64);
        let mut dev = match make(&working) {
            Ok(dev) => dev,
            Err(e) => {
                report.violations.push(e);
                return report;
            }
        };
        let mut sweep = Sweep {
            shadow: ShadowModel::new(),
            obs: UncorrectableCollector::default(),
            reported: BTreeSet::new(),
            report: &mut report,
            block_size,
            crash_point: k,
        };
        dev.preload_working(&working);
        for &lbn in &working {
            sweep.shadow.write(lbn, 1);
        }

        // Replay everything before the crash point, fully acknowledged.
        if !sweep.replay(&mut dev, &ops[..k]) {
            continue;
        }

        // Crash: torn mid-write on odd boundaries (only a prefix of the
        // op's blocks reaches media), otherwise jittered into the
        // preceding inter-op gap — which lands some crashes mid-cleaning,
        // mid-erase, and mid-rebuild, since settle truncates the
        // background work at the crash instant.
        let mid_op = k % 2 == 1 && ops[k].kind == DiskOpKind::Write;
        let crash_at = if mid_op {
            let op = &ops[k];
            sweep.shadow.begin_write(op.lbn, op.blocks);
            let prefix = op.blocks / 2;
            if prefix > 0 {
                let req = Request::new(Dir::Write, op.lbn, prefix, block_size);
                let (_, torn) = dev.submit(op.time, req, &mut sweep.obs);
                sweep.drain();
                if let Err(e) = torn {
                    sweep
                        .report
                        .violations
                        .push(format!("crash point {k}: unexpected write failure: {e}"));
                    continue;
                }
            }
            sweep.report.mid_op_crashes += 1;
            op.time + SimDuration::from_nanos(1 + rng.below(1_000_000))
        } else {
            boundary_crash_instant(ops, k, &mut rng)
        };

        let (before, busy) = dev.before_crash();
        if busy {
            sweep.report.mid_cleaning_crashes += 1;
        }
        sweep.report.crashes += 1;
        dev.power_fail(crash_at, &mut sweep.obs);
        sweep.drain();
        sweep.report.recoveries += 1;
        if let Some(lbn) = opts.sabotage_lbn {
            dev.sabotage(lbn);
        }

        // Verify the recovered state against the shadow and the device's
        // own checks.
        let snap = dev.mapping();
        let ctx = format!(
            "crash point {k}{} at t={:.6}s",
            if mid_op { " (mid-op)" } else { "" },
            crash_at.as_secs_f64()
        );
        sweep.verify(&snap, &ctx);
        dev.check_recovered(
            &before,
            &sweep.shadow,
            mid_op,
            &sweep.reported,
            &ctx,
            &mut sweep.report.violations,
        );

        // Resolve the torn write from what actually survived, re-align
        // the generation counters, and drain the rest of the trace.
        sweep.shadow.observe_recovery(&snap);
        sweep.shadow.resync_generations(dev.generation());
        let resume = k + usize::from(mid_op);
        if !sweep.replay(&mut dev, &ops[resume..]) {
            continue;
        }
        sweep.verify(
            &dev.mapping(),
            &format!("crash point {k}, after draining the trace"),
        );
        dev.check_drained();
    }
    report
}

/// One crash point's replay state: the shadow, the reported losses, and
/// the sweep's report.
struct Sweep<'a> {
    shadow: ShadowModel,
    obs: UncorrectableCollector,
    /// Blocks the device reported uncorrectable: the verifier's excused
    /// set.
    reported: BTreeSet<u64>,
    report: &'a mut TortureReport,
    block_size: u64,
    crash_point: usize,
}

impl Sweep<'_> {
    /// Applies every freshly reported uncorrectable block to the shadow
    /// (the host was told the data is gone, so its absence is now
    /// expected) and to the excused set.
    fn drain(&mut self) {
        for lbn in self.obs.fresh.drain(..) {
            if self.reported.insert(lbn) {
                self.report.uncorrectable_blocks += 1;
            }
            self.shadow.trim(lbn, 1);
        }
    }

    /// Checks a recovered mapping against the shadow.
    fn verify(&mut self, snap: &[(u64, u64)], ctx: &str) {
        for v in self.shadow.verify_with_uncorrectable(snap, &self.reported) {
            self.report.violations.push(format!("{ctx}: {v}"));
        }
    }

    /// Replays fully-acknowledged ops against device and shadow, mirroring
    /// any blocks the device reports lost along the way (scrub passes and
    /// read-path drops surface through the collector). Returns false
    /// (after recording a violation) if the device refused a write.
    fn replay<D: Device>(&mut self, dev: &mut D, ops: &[DiskOp]) -> bool {
        for op in ops {
            match op.kind {
                DiskOpKind::Read => {
                    // A reported loss is legal, and mirrored into the
                    // shadow by the drain.
                    let req = Request::new(Dir::Read, op.lbn, op.blocks, self.block_size);
                    let _ = dev.submit(op.time, req, &mut self.obs);
                    self.drain();
                }
                DiskOpKind::Write => {
                    self.shadow.begin_write(op.lbn, op.blocks);
                    let req = Request::new(Dir::Write, op.lbn, op.blocks, self.block_size);
                    let (_, res) = dev.submit(op.time, req, &mut self.obs);
                    // Background work during the write's settle may have
                    // dropped old copies; apply those before acknowledging
                    // the new write.
                    self.drain();
                    if let Err(e) = res {
                        self.report.violations.push(format!(
                            "crash point {}: write failed: {e}",
                            self.crash_point
                        ));
                        return false;
                    }
                    self.shadow.ack_write();
                }
                DiskOpKind::Trim => {
                    dev.trim(op.time, op.lbn, op.blocks, &mut self.obs);
                    self.drain();
                    self.shadow.trim(op.lbn, op.blocks);
                }
            }
            self.report.ops_replayed += 1;
        }
        true
    }
}

/// The sweep for devices that recover behind their controllers (magnetic
/// disk: spin-up plus synchronous-FAT replay; flash disk: spare-pool
/// remap-header rescan): one pass over the trace, crashing before each
/// selected op, checking the accounting story. `recovery` reads the
/// device's (power failures, recovery time) counters; `scan` names the
/// recovery scan when it must charge time.
fn accounting_sweep<D: Device>(
    config: &SystemConfig,
    trace: &Trace,
    opts: &TortureOptions,
    device: &'static str,
    mut dev: D,
    recovery: impl Fn(&D) -> (u64, SimDuration),
    scan: Option<&str>,
) -> TortureReport {
    let n = trace.ops.len().min(opts.max_ops);
    let ops = &trace.ops[..n];
    let points: BTreeSet<usize> = select_points(n, opts.crash_points).into_iter().collect();
    let mut report = empty_report(config, device, trace, n);

    let mut obs = NoopObserver;
    for (i, op) in ops.iter().enumerate() {
        if points.contains(&i) {
            let mut rng = SimRng::seed_with_stream(opts.seed, i as u64);
            let at = boundary_crash_instant(ops, i, &mut rng);
            let (failures, time) = recovery(&dev);
            let svc = dev.power_fail(at, &mut obs);
            report.crashes += 1;
            report.recoveries += 1;
            let (failures_after, time_after) = recovery(&dev);
            if failures_after != failures + 1 {
                report
                    .violations
                    .push(format!("crash {i}: power failure not counted"));
            }
            if time_after < time {
                report
                    .violations
                    .push(format!("crash {i}: recovery time went backwards"));
            } else if let Some(scan) = scan.filter(|_| time_after == time) {
                report
                    .violations
                    .push(format!("crash {i}: {scan} charged no recovery time"));
            }
            if svc.end <= at {
                report
                    .violations
                    .push(format!("crash {i}: recovery ended before the crash"));
            }
        }
        let dir = match op.kind {
            DiskOpKind::Read => Dir::Read,
            DiskOpKind::Write => Dir::Write,
            DiskOpKind::Trim => {
                report.ops_replayed += 1;
                continue;
            }
        };
        let req = Request::new(dir, op.lbn, op.blocks, trace.block_size).with_file(op.file.0);
        let (svc, _) = dev.submit(op.time, req, &mut obs);
        if svc.end < op.time {
            report
                .violations
                .push(format!("op {i}: service ended before issue"));
        }
        report.ops_replayed += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_device::params::{cu140_datasheet, intel_datasheet, sdp5_datasheet};
    use mobistore_trace::record::FileId;

    const KIB: u64 = 1024;

    /// A write-heavy toy trace over a 36-block working set: enough write
    /// traffic to fill the frontier of a small aged card and force
    /// cleaning during the sweep.
    fn toy_trace(n: u64) -> Trace {
        let mut trace = Trace::new(1024);
        for i in 0..n {
            let (kind, lbn, blocks) = match i % 7 {
                0 | 3 | 5 => (DiskOpKind::Write, (i * 5) % 32, 1 + (i % 4) as u32),
                6 => (DiskOpKind::Trim, (i * 3) % 32, 1),
                _ => (DiskOpKind::Read, (i * 11) % 32, 1),
            };
            trace.push(DiskOp {
                time: SimTime::from_secs_f64(i as f64),
                kind,
                lbn,
                blocks,
                file: FileId(0),
            });
        }
        trace
    }

    fn card_config() -> SystemConfig {
        // 4 segments of 128 KiB: frontier + 2 aged-full + 1 erased
        // reserve, so cleaning starts as soon as the frontier fills.
        SystemConfig::flash_card(intel_datasheet()).with_flash_capacity(4 * 128 * KIB)
    }

    #[test]
    fn exhaustive_card_sweep_finds_no_violations() {
        let trace = toy_trace(160);
        let opts = TortureOptions {
            max_ops: 160,
            crash_points: CrashPoints::Exhaustive,
            ..TortureOptions::default()
        };
        let report = torture(&card_config(), &trace, &opts);
        assert!(
            report.passed(),
            "violations: {:#?}",
            &report.violations[..report.violations.len().min(10)]
        );
        assert_eq!(report.crashes, 160);
        assert_eq!(report.recoveries, 160);
        assert!(report.mid_op_crashes > 0, "no torn writes exercised");
        assert!(
            report.mid_cleaning_crashes > 0,
            "no crash struck mid-cleaning; grow the trace"
        );
        assert_eq!(report.truncated_ops, 0);
    }

    #[test]
    fn sabotaged_recovery_is_caught_by_the_shadow() {
        // Silently losing one mapped block after recovery is invisible to
        // the card's own invariants but not to the differential check.
        let trace = toy_trace(40);
        let opts = TortureOptions {
            max_ops: 40,
            crash_points: CrashPoints::Sampled(4),
            sabotage_lbn: Some(2),
            ..TortureOptions::default()
        };
        let report = torture(&card_config(), &trace, &opts);
        assert!(!report.passed(), "sabotage went undetected");
        assert!(
            report.violations.iter().any(|v| v.contains("lost write")),
            "wrong violation kind: {:?}",
            report.violations.first()
        );
    }

    #[test]
    fn integrity_enabled_sweep_reports_loss_never_silence() {
        use mobistore_sim::integrity::IntegrityConfig;
        // Wear-coupled bit errors, retention decay, and a fast scrubber,
        // all on top of the crash sweep: blocks get dropped, but every
        // drop is reported, so the shadow finds nothing silent.
        let trace = toy_trace(160);
        let config = card_config().with_integrity(IntegrityConfig {
            base_errors: 7.0,
            retention_per_hour: 4.0,
            scrub_interval: Some(SimDuration::from_secs(20)),
            seed: 7,
            ..IntegrityConfig::none()
        });
        let opts = TortureOptions {
            max_ops: 160,
            crash_points: CrashPoints::Sampled(12),
            ..TortureOptions::default()
        };
        let report = torture(&config, &trace, &opts);
        assert!(
            report.passed(),
            "violations: {:#?}",
            &report.violations[..report.violations.len().min(10)]
        );
        assert!(
            report.uncorrectable_blocks > 0,
            "integrity model never dropped a block; raise the rates"
        );
    }

    #[test]
    fn sabotage_is_still_caught_with_integrity_enabled() {
        use mobistore_sim::integrity::IntegrityConfig;
        // The excused set covers exactly the *reported* losses: a block
        // silently dropped by the sabotage hook stays a violation even
        // when the integrity model is live.
        let trace = toy_trace(40);
        let config = card_config().with_integrity(IntegrityConfig {
            base_errors: 2.0,
            seed: 7,
            ..IntegrityConfig::none()
        });
        let opts = TortureOptions {
            max_ops: 40,
            crash_points: CrashPoints::Sampled(4),
            sabotage_lbn: Some(2),
            ..TortureOptions::default()
        };
        let report = torture(&config, &trace, &opts);
        assert!(
            !report.passed(),
            "sabotage went undetected with integrity enabled"
        );
    }

    fn array_config() -> SystemConfig {
        use mobistore_device::array::ChildClass;
        SystemConfig::array(
            4,
            2,
            vec![
                ChildClass::FlashCard,
                ChildClass::FlashDisk,
                ChildClass::FlashDisk,
                ChildClass::HardDisk,
                ChildClass::FlashDisk,
                ChildClass::FlashCard,
            ],
        )
    }

    #[test]
    fn array_sweep_survives_crashes_and_tolerated_deaths() {
        // Two of six children die mid-sweep (the full parity budget) and
        // a crash strikes at every sampled boundary; acked writes must
        // still decode everywhere.
        let trace = toy_trace(120);
        let opts = TortureOptions {
            max_ops: 120,
            crash_points: CrashPoints::Sampled(12),
            ..TortureOptions::default()
        };
        let report = torture(&array_config(), &trace, &opts);
        assert_eq!(report.device, "ec-array");
        assert!(
            report.passed(),
            "violations: {:#?}",
            &report.violations[..report.violations.len().min(10)]
        );
        assert_eq!(report.crashes, 12);
        assert_eq!(report.recoveries, 12);
        assert!(report.mid_op_crashes > 0, "no torn writes exercised");
        assert!(
            report.mid_cleaning_crashes > 0,
            "no crash struck while a child was lost; move the deaths"
        );
    }

    #[test]
    fn array_sabotaged_survivor_is_caught_by_the_shadow() {
        // Silently corrupting a surviving shard (or, if the block's own
        // shard is gone, every surviving parity shard) is invisible to
        // the array's bookkeeping but not to the differential check.
        let trace = toy_trace(40);
        let opts = TortureOptions {
            max_ops: 40,
            crash_points: CrashPoints::Sampled(4),
            sabotage_lbn: Some(2),
            ..TortureOptions::default()
        };
        let report = torture(&array_config(), &trace, &opts);
        assert!(!report.passed(), "sabotage went undetected");
    }

    #[test]
    fn array_sweep_is_deterministic() {
        let trace = toy_trace(60);
        let opts = TortureOptions {
            max_ops: 60,
            crash_points: CrashPoints::Sampled(6),
            ..TortureOptions::default()
        };
        let a = torture(&array_config(), &trace, &opts);
        let b = torture(&array_config(), &trace, &opts);
        assert_eq!(a.ops_replayed, b.ops_replayed);
        assert_eq!(a.mid_op_crashes, b.mid_op_crashes);
        assert_eq!(a.uncorrectable_blocks, b.uncorrectable_blocks);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn disk_sweep_accounts_every_crash() {
        let trace = toy_trace(60);
        let mut config = SystemConfig::disk(cu140_datasheet());
        config.fault.fat_scan_bytes = 64 * KIB;
        let opts = TortureOptions {
            max_ops: 60,
            crash_points: CrashPoints::Sampled(8),
            ..TortureOptions::default()
        };
        let report = torture(&config, &trace, &opts);
        assert_eq!(report.device, "magnetic disk");
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 8);
        assert_eq!(report.recoveries, 8);
    }

    #[test]
    fn flash_disk_sweep_accounts_every_crash() {
        let trace = toy_trace(60);
        let config = SystemConfig::flash_disk(sdp5_datasheet());
        let opts = TortureOptions {
            max_ops: 60,
            crash_points: CrashPoints::Sampled(8),
            ..TortureOptions::default()
        };
        let report = torture(&config, &trace, &opts);
        assert_eq!(report.device, "flash disk");
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 8);
    }

    #[test]
    fn sampled_points_are_spread_and_deduplicated() {
        assert_eq!(select_points(4, CrashPoints::Exhaustive), vec![0, 1, 2, 3]);
        assert_eq!(select_points(4, CrashPoints::Sampled(9)), vec![0, 1, 2, 3]);
        assert_eq!(
            select_points(100, CrashPoints::Sampled(4)),
            vec![0, 25, 50, 75]
        );
        // Even strides still cover odd (mid-op) boundaries.
        assert!(select_points(192, CrashPoints::Sampled(24))
            .iter()
            .any(|p| p % 2 == 1));
        assert!(select_points(10, CrashPoints::Sampled(0)).is_empty());
        assert!(select_points(0, CrashPoints::Exhaustive).is_empty());
    }
}
