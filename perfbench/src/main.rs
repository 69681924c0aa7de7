//! The repository benchmark: simulator host throughput on three
//! workloads, with a traced per-layer replay.
//!
//! ```text
//! perfbench --workload card_clean|cached_disk|fleet --seed <u64>
//!           --seconds <n> --trace 0|1 [--scale <fraction>]
//! ```
//!
//! Every input is generated from `--seed`. The untraced run (`--trace 0`)
//! repeats the workload, one `simulate`/`fleet::run` call after another,
//! for `--seconds`, and reports the end-to-end metrics. It is split over
//! [`PARTS`] processes run one after another, each a copy of this
//! program with `PERFBENCH_PART` set that measures its share of the time
//! and prints a `part` line; the parent pools what they measured. Host
//! times of the end-to-end metrics are CPU times of the process, scaled
//! to a reference host speed that the parent measures between the parts
//! (see [`calib`]).
//! `--trace 1` makes the same untraced run in this one process, alternated
//! with replays of the workload through the layers' public functions with
//! host time taken around every call, proves that the replay reproduces
//! `simulate`'s layer counters, and reports the per-layer metrics. See the
//! package's `README.md` for the workloads and the metric definitions.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. A failed simulation, quarantined shard, digest
//! mismatch or replay mismatch makes `correct` false and the exit code 1;
//! a bad command line exits 2 without a result line.

mod args;
mod calib;
mod replay;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mobistore_core::config::{BackendConfig, SystemConfig};
use mobistore_core::{try_simulate, Metrics, RunOptions};
use mobistore_device::params::{cu140_datasheet, intel_datasheet, sdp5_datasheet};
use mobistore_experiments::fleet::{self, metrics_digest, FleetOptions};
use mobistore_experiments::{flash_card_config, working_set_blocks, Scale};
use mobistore_sim::exec::{self, panic_cause};
use mobistore_sim::fleet::{splitmix64, FleetPlan};
use mobistore_sim::prof;
use mobistore_trace::record::{DiskOpKind, Trace};
use mobistore_workload::Workload as TraceWorkload;

use args::{Args, Workload};
use calib::Calibrator;
use replay::{CachedCounters, CachedLayers, CardLayer, FleetLayers};

/// Processes an untraced run is split over. Each process draws its own
/// address-space layout, and the simulator's speed depends on it: one
/// process of `cached_disk` ran 35% slower than the next, on the same
/// input, and kept that speed for its whole life. Pooling several
/// processes averages the layouts out.
const PARTS: u32 = 10;
/// Environment variable that makes this program one part of an untraced
/// run; its value is the part's index.
const PART_VAR: &str = "PERFBENCH_PART";
/// Each process repeats set-up at least this many times, and for at
/// least [`SETUP_MIN_S`] in total; the mean over the processes of their
/// median set-up is reported.
const SETUP_REPS: usize = 1;
/// Cheap set-ups (the fleet plan takes well under a millisecond) repeat
/// until this much host time has passed, so their median is steady.
const SETUP_MIN_S: f64 = 0.05;
/// Figure 2's top utilization point: cleaning dominates the card.
const CARD_UTILIZATION: f64 = 0.95;
/// Each cell workload generates its traces from this many seeds derived
/// from the workload seed: averaging over several traces keeps a run's
/// figures from hanging on one trace's quirks.
const TRACE_SEEDS: u64 = 4;
/// `fleet` shard count at full scale (eight users per shard).
const FLEET_SHARDS: f64 = 2000.0;

/// Reference `metrics_digest`s for the default seed (1994) and one
/// held-out seed (2024), at full scale: `workload seed cell digest`.
const REFERENCE_DIGESTS: &str = include_str!("../reference_digests.txt");

/// One simulated configuration replaying one generated trace.
struct Cell {
    name: String,
    trace: usize,
    config: SystemConfig,
}

/// Generated traces and the cells that replay them.
struct CellSet {
    traces: Vec<Trace>,
    cells: Vec<Cell>,
}

impl CellSet {
    fn trace(&self, cell: &Cell) -> &Trace {
        &self.traces[cell.trace]
    }
}

/// A workload's generated inputs.
enum Inputs {
    Cells(CellSet),
    Fleet { opts: FleetOptions, plan: FleetPlan },
}

// `cpu_s` declares `struct timespec` with the 64-bit Linux layout.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the CPU clock through the 64-bit Linux `clock_gettime`");

/// CPU seconds this process has run so far, over all its threads, ended
/// ones included. Unlike wall time it leaves out the time the host gave
/// this machine's CPUs to other machines (steal), and the time other
/// processes held them.
fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux
    // layout), and the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Generates the workload's inputs; returns them with the host time spent
/// inside `Workload::generate*`.
fn set_up(args: &Args) -> (Inputs, Duration) {
    let mut generate = Duration::ZERO;
    let mut gen = |w: TraceWorkload, seed: u64| {
        let start = Instant::now();
        let trace = w.generate_scaled(args.scale, seed);
        generate += start.elapsed();
        trace
    };
    let inputs = match args.workload {
        Workload::CardClean => {
            let mut traces = Vec::new();
            let mut cells = Vec::new();
            for i in 0..TRACE_SEEDS {
                let trace = gen(TraceWorkload::Hp, trace_seed(args.seed, i));
                let config =
                    flash_card_config(intel_datasheet(), &trace, CARD_UTILIZATION).with_dram(0);
                cells.push(Cell {
                    name: format!("hp.s{i}/intel-card-95"),
                    trace: traces.len(),
                    config,
                });
                traces.push(trace);
            }
            Inputs::Cells(CellSet { traces, cells })
        }
        Workload::CachedDisk => {
            let mut traces = Vec::new();
            let mut cells = Vec::new();
            for i in 0..TRACE_SEEDS {
                for w in [TraceWorkload::Mac, TraceWorkload::Dos] {
                    traces.push(gen(w, trace_seed(args.seed, i)));
                    for (dev, config) in [
                        ("cu140", SystemConfig::disk(cu140_datasheet())),
                        ("sdp5", SystemConfig::flash_disk(sdp5_datasheet())),
                    ] {
                        cells.push(Cell {
                            name: format!("{}.s{i}/{dev}", w.name()),
                            trace: traces.len() - 1,
                            config,
                        });
                    }
                }
            }
            Inputs::Cells(CellSet { traces, cells })
        }
        Workload::Fleet => {
            let shards = ((FLEET_SHARDS * args.scale).round() as u32).max(1);
            let opts = FleetOptions {
                shards,
                population: FleetOptions::default_population(shards),
                seed: args.seed,
                ..FleetOptions::default()
            };
            let plan = fleet::fleet_config(&opts).plan();
            Inputs::Fleet { opts, plan }
        }
    };
    (inputs, generate)
}

/// The `i`th trace seed derived from the workload seed.
fn trace_seed(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ i)
}

/// Prints the generated input sizes to stderr.
fn describe(inputs: &Inputs) {
    match inputs {
        Inputs::Cells(set) => {
            for cell in &set.cells {
                let trace = set.trace(cell);
                let writes = trace.ops.iter().filter(|op| op.kind == DiskOpKind::Write);
                let capacity = match &cell.config.backend {
                    BackendConfig::FlashCard { capacity_bytes, .. } => {
                        format!(", card {} MiB", capacity_bytes >> 20)
                    }
                    _ => String::new(),
                };
                eprintln!(
                    "# input {}: {} ops ({} writes) over {:.1} days, working set {} KiB, DRAM {} KiB{capacity}",
                    cell.name,
                    trace.len(),
                    writes.count(),
                    trace.duration().as_secs_f64() / 86_400.0,
                    (working_set_blocks(trace) * trace.block_size) >> 10,
                    cell.config.dram_bytes >> 10,
                );
            }
        }
        Inputs::Fleet { opts, .. } => eprintln!(
            "# input fleet: {} shards, {} users, {} jobs",
            opts.shards,
            opts.population,
            exec::jobs()
        ),
    }
}

/// The fleet's trace scale: shards replay demand-sized slices of the
/// full-length traces.
fn fleet_scale(seed: u64) -> Scale {
    Scale {
        fraction: 1.0,
        seed,
    }
}

/// Correctness bookkeeping shared by every phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, units: u64, why: String) {
        self.failed += units;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }
}

/// What the untraced run measured.
struct Untraced {
    /// Host (wall) seconds of each repetition's timed calls.
    rep_s: Vec<f64>,
    /// CPU seconds of the same calls.
    rep_cpu_s: Vec<f64>,
    /// Trace operations simulated per repetition.
    ops_per_rep: u64,
    /// Cells or shards completed per repetition.
    units_per_rep: u64,
    /// Host nanoseconds inside `simulate` (cell workloads), all reps.
    simulate_ns: u64,
    /// First repetition's metrics: one per cell, or `fleet/all`.
    first: Vec<Metrics>,
}

/// Checks a repetition's digest against the first repetition's.
fn check_repeat(tally: &mut Tally, units: u64, first: &Metrics, m: &Metrics, what: &str) {
    if metrics_digest(first) != metrics_digest(m) {
        tally.fail(units, format!("{what}: metrics differ between repetitions"));
    }
}

/// Repeats `rep` while one more repetition, as long as the longest so
/// far, still ends within `seconds` (at least once).
fn repeat(seconds: f64, mut rep: impl FnMut()) {
    let start = Instant::now();
    let mut longest = 0.0f64;
    loop {
        let at = start.elapsed().as_secs_f64();
        rep();
        let now = start.elapsed().as_secs_f64();
        longest = longest.max(now - at);
        if now + longest > seconds {
            break;
        }
    }
}

impl Untraced {
    fn new(inputs: &Inputs) -> Self {
        let (ops_per_rep, units_per_rep) = match inputs {
            Inputs::Cells(set) => (
                set.cells.iter().map(|c| set.trace(c).len() as u64).sum(),
                set.cells.len() as u64,
            ),
            // Counted from the simulator's op counter on the first run.
            Inputs::Fleet { opts, .. } => (0, u64::from(opts.shards)),
        };
        Untraced {
            rep_s: Vec::new(),
            rep_cpu_s: Vec::new(),
            ops_per_rep,
            units_per_rep,
            simulate_ns: 0,
            first: Vec::new(),
        }
    }

    /// One repetition: every cell through `try_simulate`, or one
    /// `fleet::run`, each call returning before the next starts.
    fn rep(&mut self, args: &Args, inputs: &Inputs, tally: &mut Tally) {
        match inputs {
            Inputs::Cells(set) => {
                let mut rep_ns = 0u64;
                let mut rep_cpu_s = 0.0;
                for (i, cell) in set.cells.iter().enumerate() {
                    tally.attempted += 1;
                    let trace = set.trace(cell);
                    let cpu = cpu_s();
                    let start = Instant::now();
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        try_simulate(&cell.config, trace, RunOptions::default())
                    }));
                    rep_ns += start.elapsed().as_nanos() as u64;
                    rep_cpu_s += cpu_s() - cpu;
                    match result {
                        Ok(Ok(m)) => match self.first.get(i) {
                            Some(first) => check_repeat(tally, 1, first, &m, &cell.name),
                            None => self.first.push(m),
                        },
                        Ok(Err(e)) => tally.fail(1, format!("{}: simulate failed: {e}", cell.name)),
                        Err(p) => {
                            tally.fail(1, format!("{}: panicked: {}", cell.name, panic_cause(&*p)))
                        }
                    }
                }
                self.simulate_ns += rep_ns;
                self.rep_s.push(rep_ns as f64 / 1e9);
                self.rep_cpu_s.push(rep_cpu_s);
            }
            Inputs::Fleet { opts, .. } => {
                let shards = self.units_per_rep;
                tally.attempted += shards;
                let ops_before = prof::ops_total();
                let cpu = cpu_s();
                let start = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    fleet::run(fleet_scale(args.seed), opts)
                }));
                self.rep_s.push(start.elapsed().as_secs_f64());
                self.rep_cpu_s.push(cpu_s() - cpu);
                let ops = prof::ops_total() - ops_before;
                match result {
                    Ok(Ok(f)) => {
                        if !f.quarantined.is_empty() {
                            tally.fail(
                                f.quarantined.len() as u64,
                                format!("fleet: {} shards quarantined", f.quarantined.len()),
                            );
                        }
                        match self.first.first() {
                            Some(first) => {
                                check_repeat(tally, shards, first, &f.total, "fleet/all");
                                if ops != self.ops_per_rep {
                                    tally.fail(
                                        shards,
                                        "fleet: op count differs between repetitions".into(),
                                    );
                                }
                            }
                            None => {
                                self.first.push(f.total);
                                self.ops_per_rep = ops;
                            }
                        }
                    }
                    Ok(Err(e)) => tally.fail(shards, format!("fleet: run failed: {e}")),
                    Err(p) => tally.fail(shards, format!("fleet: panicked: {}", panic_cause(&*p))),
                }
            }
        }
    }
}

/// The cell names (or `fleet/all`) in the order `Untraced::first` holds
/// their metrics.
fn digest_names(inputs: &Inputs) -> Vec<String> {
    match inputs {
        Inputs::Cells(set) => set.cells.iter().map(|c| c.name.clone()).collect(),
        Inputs::Fleet { .. } => vec!["fleet/all".into()],
    }
}

/// Compares the first repetition's digests with the stored references
/// when this workload and seed have them (full scale only), and, when
/// `print` is set, prints every digest to stderr in the reference file's
/// format.
fn check_reference(
    args: &Args,
    inputs: &Inputs,
    untraced: &Untraced,
    print: bool,
    tally: &mut Tally,
) {
    let workload = args.workload.name();
    let seed = args.seed.to_string();
    let reference: Vec<(&str, &str)> = REFERENCE_DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [w, s, cell, digest] if w == workload && s == seed => Some((cell, digest)),
            _ => None,
        })
        .collect();
    for (name, m) in digest_names(inputs).iter().zip(&untraced.first) {
        let digest = format!("{:016x}", metrics_digest(m));
        if print {
            eprintln!("{workload} {seed} {name} {digest}");
        }
        if args.scale != 1.0 || reference.is_empty() {
            continue;
        }
        match reference.iter().find(|(cell, _)| cell == name) {
            Some((_, want)) if *want == digest => {}
            Some((_, want)) => {
                let units = untraced.units_per_rep / untraced.first.len() as u64;
                tally.fail(units, format!("{name}: digest {digest}, reference {want}"));
            }
            None => tally.fail(1, format!("{name}: no reference digest for seed {seed}")),
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of integer samples (0 when there are none).
fn percentile(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

type MetricList = Vec<(&'static str, f64, &'static str)>;

/// What one part of an untraced run measured: the `part` line it prints
/// as the last line of its standard output.
#[derive(Debug, Default, PartialEq)]
struct Part {
    attempted: u64,
    failed: u64,
    /// Trace operations simulated per repetition.
    ops_per_rep: u64,
    /// Cells or shards completed per repetition.
    units_per_rep: u64,
    peak_rss_mib: f64,
    /// CPU seconds of each set-up.
    setup_s: Vec<f64>,
    /// CPU seconds of each repetition's timed calls.
    rep_s: Vec<f64>,
}

impl Part {
    fn line(&self) -> String {
        let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        format!(
            "part attempted={} failed={} ops={} units={} rss={} setup={} reps={}",
            self.attempted,
            self.failed,
            self.ops_per_rep,
            self.units_per_rep,
            self.peak_rss_mib,
            list(&self.setup_s),
            list(&self.rep_s)
        )
    }

    fn parse(line: &str) -> Option<Part> {
        let mut words = line.split(' ');
        if words.next() != Some("part") {
            return None;
        }
        let mut field = |key: &str| words.next()?.strip_prefix(key)?.strip_prefix('=');
        let list = |v: &str| -> Option<Vec<f64>> {
            v.split(',')
                .filter(|x| !x.is_empty())
                .map(|x| x.parse().ok())
                .collect()
        };
        Some(Part {
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            ops_per_rep: field("ops")?.parse().ok()?,
            units_per_rep: field("units")?.parse().ok()?,
            peak_rss_mib: field("rss")?.parse().ok()?,
            setup_s: list(field("setup")?)?,
            rep_s: list(field("reps")?)?,
        })
    }
}

/// End-to-end metrics from every part's measurements pooled: rates are
/// the work of every repetition over their CPU time, `setup_s` the mean
/// of the parts' median set-ups (a mean, like the rates, so that parts
/// of both layout speeds count), `peak_rss_mib` the median part's peak.
/// Times are multiplied by the host `speed` (rates divided by it).
fn end_to_end(parts: &[Part], speed: f64) -> MetricList {
    let cpu_s: f64 = parts.iter().flat_map(|p| &p.rep_s).sum();
    let rate = |per_rep: fn(&Part) -> u64| {
        let work: f64 = parts
            .iter()
            .map(|p| per_rep(p) as f64 * p.rep_s.len() as f64)
            .sum();
        work / (cpu_s * speed)
    };
    let setup_s = parts.iter().map(|p| median(&p.setup_s)).sum::<f64>() / parts.len() as f64;
    let rss: Vec<f64> = parts.iter().map(|p| p.peak_rss_mib).collect();
    vec![
        ("sim_ops_per_s", rate(|p| p.ops_per_rep), "ops/s"),
        ("setup_s", setup_s * speed, "s"),
        ("peak_rss_mib", median(&rss), "MiB"),
        ("shards_per_s", rate(|p| p.units_per_rep), "shards/s"),
    ]
}

/// Accumulated traced-run measurements, over every traced repetition.
#[derive(Default)]
struct Traced {
    rep_s: Vec<f64>,
    card: CardLayer,
    cached: CachedLayers,
    fleet: FleetLayers,
}

impl Traced {
    /// One traced repetition: every cell through its layer replay, or
    /// every shard serially; each checked against the untraced run.
    fn rep(&mut self, args: &Args, inputs: &Inputs, untraced: &Untraced, tally: &mut Tally) {
        match inputs {
            Inputs::Cells(set) => {
                let mut rep_ns = 0u64;
                for (cell, want) in set.cells.iter().zip(&untraced.first) {
                    let trace = set.trace(cell);
                    let start = Instant::now();
                    let verdict = if want.flash_card.is_some() {
                        replay::replay_card(&cell.config, trace, &mut self.card).and_then(|c| {
                            (Some(c) == want.flash_card).then_some(()).ok_or_else(|| {
                                format!("card counters {c:?} != simulate's {:?}", want.flash_card)
                            })
                        })
                    } else {
                        replay::replay_cached(&cell.config, trace, &mut self.cached).and_then(|c| {
                            let sim = CachedCounters::of(want);
                            (c == sim).then_some(()).ok_or_else(|| {
                                format!("layer counters {c:?} != simulate's {sim:?}")
                            })
                        })
                    };
                    rep_ns += start.elapsed().as_nanos() as u64;
                    if let Err(e) = verdict {
                        tally.fail(1, format!("{}: replay mismatch: {e}", cell.name));
                    }
                }
                self.rep_s.push(rep_ns as f64 / 1e9);
            }
            Inputs::Fleet { plan, .. } => {
                let shards = plan.shards.len() as u64;
                let start = Instant::now();
                let result = replay::replay_fleet(plan, fleet_scale(args.seed), &mut self.fleet);
                self.rep_s.push(start.elapsed().as_secs_f64());
                let want = untraced.first.first().map(metrics_digest);
                match result {
                    Ok(total) if Some(metrics_digest(&total)) == want => {}
                    Ok(_) => {
                        tally.fail(shards, "fleet: traced merge differs from fleet::run".into())
                    }
                    Err(e) => tally.fail(shards, format!("fleet: {e}")),
                }
            }
        }
    }
}

fn per_layer(
    inputs: &Inputs,
    generate_s: f64,
    untraced: &Untraced,
    traced: &mut Traced,
) -> MetricList {
    let reps = traced.rep_s.len() as f64;
    let untraced_reps = untraced.rep_s.len() as f64;
    let ops_per_rep = untraced.ops_per_rep as f64;
    let traced_ops = ops_per_rep * reps;

    let mut simulate_ns_per_op = untraced.simulate_ns as f64 / (ops_per_rep * untraced_reps);
    let layer_ns = traced.card.total_ns() + traced.cached.total_ns();
    let mut self_ns_per_op = simulate_ns_per_op - layer_ns as f64 / traced_ops;

    let sum = |f: &dyn Fn(&Metrics) -> u64| untraced.first.iter().map(f).sum::<u64>() as f64;
    let cache = |f: &dyn Fn(&mobistore_cache::dram::CacheStats) -> u64| {
        sum(&|m| m.cache.map_or(0, |c| f(&c)))
    };
    let card = |f: &dyn Fn(&mobistore_flash::store::FlashCardCounters) -> u64| {
        sum(&|m| m.flash_card.map_or(0, |c| f(&c)))
    };
    let hits = cache(&|c| c.read_hits);
    let probes = hits + cache(&|c| c.read_misses);
    let copied = card(&|c| c.blocks_copied);
    let written_blocks = match inputs {
        Inputs::Cells(set) if !set.traces.is_empty() => {
            card(&|c| c.bytes_written) / set.traces[0].block_size as f64
        }
        _ => 0.0,
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let fleet = &mut traced.fleet;
    let mut merge_us = 0.0;
    let mut efficiency = 0.0;
    if matches!(inputs, Inputs::Fleet { .. }) {
        // `simulate_shard` generates the shard's trace before simulating
        // it; the public API offers no seam between the two.
        let shard_ns: u64 = fleet.shard_ns.iter().sum();
        simulate_ns_per_op = shard_ns as f64 / traced_ops;
        self_ns_per_op = 0.0;
        merge_us = fleet.merge.ns_per_call() / 1e3;
        let serial_s = shard_ns as f64 / 1e9 / reps;
        efficiency = serial_s / (exec::jobs() as f64 * median(&untraced.rep_s));
    }
    let class_s = |class: &str| {
        fleet
            .class_ns
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(0.0, |(_, ns)| *ns as f64 / 1e9 / reps)
    };
    let shard_ms_p50 = percentile(&mut fleet.shard_ns, 0.50) / 1e6;
    let shard_ms_p99 = percentile(&mut fleet.shard_ns, 0.99) / 1e6;
    let fc = &mut traced.card;
    let preload_ms = fc.preload.ns_per_call() / 1e6;
    let c = &traced.cached;
    vec![
        ("workload.generate_s", generate_s, "s"),
        ("workload.ops", ops_per_rep, "count"),
        ("core.simulate_ns_per_op", simulate_ns_per_op, "ns"),
        ("core.self_ns_per_op", self_ns_per_op, "ns"),
        ("core.merge_us", merge_us, "us"),
        ("cache.dram_probe_ns", c.dram_probe.ns_per_call(), "ns/call"),
        ("cache.dram_write_ns", c.dram_write.ns_per_call(), "ns/call"),
        (
            "cache.dram_insert_ns",
            c.dram_insert.ns_per_call(),
            "ns/call",
        ),
        ("cache.sram_ns", c.sram.ns_per_call(), "ns/call"),
        ("cache.dram_hit_ratio", ratio(hits, probes), "ratio"),
        (
            "cache.sram_flushes",
            sum(&|m| m.sram.map_or(0, |s| s.flushes)),
            "count",
        ),
        ("device.disk_access_ns", c.disk.ns_per_call(), "ns/call"),
        (
            "device.flashdisk_access_ns",
            c.flashdisk.ns_per_call(),
            "ns/call",
        ),
        (
            "device.disk_spin_ups",
            sum(&|m| m.disk.map_or(0, |d| d.spin_ups)),
            "count",
        ),
        (
            "flash.write_ns_p50",
            percentile(&mut fc.write_samples, 0.50),
            "ns",
        ),
        (
            "flash.write_ns_p99",
            percentile(&mut fc.write_samples, 0.99),
            "ns",
        ),
        ("flash.write_s", fc.write.ns as f64 / 1e9 / reps, "s"),
        (
            "flash.read_ns_p50",
            percentile(&mut fc.read_samples, 0.50),
            "ns",
        ),
        (
            "flash.read_ns_p99",
            percentile(&mut fc.read_samples, 0.99),
            "ns",
        ),
        ("flash.preload_ms", preload_ms, "ms"),
        ("flash.blocks_copied", copied, "count"),
        ("flash.erasures", card(&|c| c.erasures), "count"),
        (
            "flash.copies_per_block_written",
            ratio(copied, written_blocks),
            "ratio",
        ),
        ("exec.parallel_efficiency", efficiency, "ratio"),
        ("fleet.shard_ms_p50", shard_ms_p50, "ms"),
        ("fleet.shard_ms_p99", shard_ms_p99, "ms"),
        ("fleet.card_shard_s", class_s("intel-card"), "s"),
        ("fleet.disk_shard_s", class_s("cu140-disk"), "s"),
        ("fleet.flashdisk_shard_s", class_s("sdp5-flashdisk"), "s"),
        (
            "bench.trace_overhead_frac",
            median(&traced.rep_s) / median(&untraced.rep_s) - 1.0,
            "ratio",
        ),
    ]
}

fn result_line(tally: &Tally, metrics: &MetricList) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// Sets the executor's thread count, then repeats set-up at least
/// [`SETUP_REPS`] times and for at least [`SETUP_MIN_S`]. Returns the
/// last inputs, each set-up's CPU seconds, and each one's host seconds
/// inside `Workload::generate*`.
fn set_up_repeated(args: &Args) -> (Inputs, Vec<f64>, Vec<f64>) {
    if args.workload == Workload::Fleet {
        exec::set_jobs(std::thread::available_parallelism().map_or(1, |n| n.get()));
    }
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut inputs = None;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        drop(inputs.take());
        let cpu = cpu_s();
        let (i, generate) = set_up(args);
        setup_s.push(cpu_s() - cpu);
        generate_s.push(generate.as_secs_f64());
        inputs = Some(i);
    }
    let inputs = inputs.expect("set-up ran at least once");
    (inputs, setup_s, generate_s)
}

/// One part of an untraced run, in this process: part `index` of
/// [`PARTS`]. Only the first part describes the inputs and prints the
/// digests.
fn run_part(args: &Args, index: u32) -> (Tally, Part) {
    let (inputs, setup_s, _) = set_up_repeated(args);
    if index == 0 {
        describe(&inputs);
    }
    let mut tally = Tally::default();
    let mut untraced = Untraced::new(&inputs);
    repeat(args.seconds, || untraced.rep(args, &inputs, &mut tally));
    check_reference(args, &inputs, &untraced, index == 0, &mut tally);
    let peak_rss_mib = peak_rss_mib().unwrap_or_else(|e| {
        tally.fail(1, e);
        0.0
    });
    let part = Part {
        attempted: tally.attempted,
        failed: tally.failed,
        ops_per_rep: untraced.ops_per_rep,
        units_per_rep: untraced.units_per_rep,
        peak_rss_mib,
        setup_s,
        rep_s: untraced.rep_cpu_s,
    };
    (tally, part)
}

/// The untraced run: [`PARTS`] copies of this program, one after
/// another, each measuring its share of `--seconds`, with the host's
/// speed measured before each and after the last; their measurements
/// pooled into the end-to-end metrics.
fn run_untraced(args: &Args) -> (Tally, MetricList) {
    let mut tally = Tally::default();
    let mut parts = Vec::new();
    let mut cal = Calibrator::new();
    for index in 0..PARTS {
        cal.calibrate();
        let output = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args([
                    "--workload",
                    args.workload.name(),
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &(args.seconds / f64::from(PARTS)).to_string(),
                    "--trace",
                    "0",
                    "--scale",
                    &args.scale.to_string(),
                ])
                .env(PART_VAR, index.to_string())
                .stderr(std::process::Stdio::inherit())
                .output()
        });
        let part = match output {
            Ok(out) => String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .and_then(Part::parse),
            Err(e) => {
                tally.fail(1, format!("part {index}: cannot run: {e}"));
                tally.attempted += 1;
                continue;
            }
        };
        match part {
            Some(p) => {
                tally.attempted += p.attempted;
                tally.failed += p.failed;
                if p.failed > 0 {
                    tally
                        .problems
                        .push(format!("part {index}: {} failed", p.failed));
                }
                parts.push(p);
            }
            None => {
                tally.attempted += 1;
                tally.fail(1, format!("part {index}: no part line"));
            }
        }
    }
    cal.calibrate();
    let speed = cal.speed();
    let metrics = if parts.is_empty() {
        Vec::new()
    } else {
        let raw = end_to_end(&parts, 1.0);
        eprintln!(
            "# host speed {speed:.4} of the reference; unscaled sim_ops_per_s {:.0}, setup_s {:.6}",
            raw[0].1, raw[1].1
        );
        end_to_end(&parts, speed)
    };
    (tally, metrics)
}

/// The traced run, in this process: untraced repetitions alternated with
/// traced ones, so both see the same machine conditions, with the host's
/// speed measured before and after.
fn run_traced(args: &Args) -> (Tally, MetricList) {
    let mut cal = Calibrator::new();
    cal.calibrate();
    let (inputs, _, generate_s) = set_up_repeated(args);
    describe(&inputs);
    let mut tally = Tally::default();
    let mut untraced = Untraced::new(&inputs);
    let mut traced = Traced::default();
    repeat(args.seconds, || {
        untraced.rep(args, &inputs, &mut tally);
        traced.rep(args, &inputs, &untraced, &mut tally);
    });
    cal.calibrate();
    check_reference(args, &inputs, &untraced, true, &mut tally);
    let mut metrics = per_layer(&inputs, median(&generate_s), &untraced, &mut traced);
    metrics.push(("bench.host_speed", cal.speed(), "ratio"));
    (tally, metrics)
}

fn run(args: &Args) -> (Tally, MetricList) {
    let (mut tally, mut metrics) = if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    };
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        tally.fail(1, "a metric is not a finite number".into());
        metrics.clear();
    }
    if tally.failed > 0 && args.trace {
        // Per-layer numbers from a replay that does not match `simulate`
        // describe different work: withhold them.
        metrics.clear();
    }
    (tally, metrics)
}

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    let part = std::env::var(PART_VAR).ok();
    let (tally, line) = match part.map(|i| i.parse::<u32>()) {
        Some(Ok(index)) if !args.trace => {
            let (tally, part) = run_part(&args, index);
            (tally, part.line())
        }
        Some(_) => {
            eprintln!("perfbench: {PART_VAR} needs a part index and --trace 0");
            return ExitCode::from(2);
        }
        None => {
            let (tally, metrics) = run(&args);
            let line = result_line(&tally, &metrics);
            (tally, line)
        }
    };
    for p in &tally.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    println!("{line}");
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_line_round_trips() {
        let part = Part {
            attempted: 48,
            failed: 1,
            ops_per_rep: 143_210,
            units_per_rep: 4,
            peak_rss_mib: 14.25,
            setup_s: vec![0.051, 0.0493],
            rep_s: vec![3.9125, 4.0001, 3.8],
        };
        assert_eq!(Part::parse(&part.line()), Some(part));
        assert_eq!(Part::parse("part attempted=1"), None);
        assert_eq!(Part::parse("{\"correct\": true}"), None);
    }

    #[test]
    fn pooled_rates_weigh_every_repetition_by_its_time() {
        let part = |rep_s: Vec<f64>| Part {
            ops_per_rep: 100,
            units_per_rep: 2,
            setup_s: vec![1.0],
            peak_rss_mib: 10.0,
            rep_s,
            ..Part::default()
        };
        // Three repetitions of 100 ops in 1 + 1 + 2 CPU seconds.
        let metrics = end_to_end(&[part(vec![1.0, 1.0]), part(vec![2.0])], 1.0);
        let value = |name: &str| metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(value("sim_ops_per_s"), 75.0);
        assert_eq!(value("shards_per_s"), 1.5);
        assert_eq!(value("setup_s"), 1.0);
        assert_eq!(value("peak_rss_mib"), 10.0);
        // On a host at half the reference speed the same CPU times stand
        // for half as much time on the reference host.
        let metrics = end_to_end(&[part(vec![1.0, 1.0]), part(vec![2.0])], 0.5);
        let value = |name: &str| metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(value("sim_ops_per_s"), 150.0);
        assert_eq!(value("setup_s"), 0.5);
        assert_eq!(value("peak_rss_mib"), 10.0);
    }
}
