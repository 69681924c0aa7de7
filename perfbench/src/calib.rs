//! Host-speed calibration.
//!
//! The benchmark runs on a shared host whose speed changes from one
//! period of minutes to the next with the other tenants' load, and CPU
//! time does not leave that out: a core shared with a busy neighbour, or
//! a cache it thrashes, makes every instruction slower. So the parent of
//! an untraced run times a fixed reference kernel before each part and
//! after the last, and scales the run's CPU times by how fast the kernel
//! ran:
//!
//! ```text
//! host speed      = NOMINAL_SLICE_S / mean CPU time of a slice
//! normalized time = CPU time × host speed     (rates are divided by it)
//! ```
//!
//! The kernel belongs to this package and is the same in every version of
//! the program, so a faster program moves the normalized figures and a
//! slower host, which slows the kernel too, does not. Its data lives in
//! the parent process, so it adds nothing to `peak_rss_mib`.
//!
//! A slice spends about a third of its time on each of three kinds of
//! work the simulator does: random lookups in a 17 MiB SipHash map (the
//! block maps and cache indexes: a hash and a cache miss per lookup),
//! standard-library code with a large footprint (`BTreeMap` and
//! `HashMap` updates, float formatting and parsing, sorting), and calls
//! through a table of 32 small functions (indirect calls and branches
//! that are hard to predict, as in the simulator's per-operation
//! dispatch over device kinds and operation types). Single kinds were
//! compared first,
//! on 5–6 seeds per workload, each run split over six processes: each
//! tracked one workload well and another badly (the lookups tracked
//! `cached_disk` but not `fleet`; the calls the reverse). With the mix,
//! the simulator's rate moved 1.0–1.4 times as much as the kernel's on
//! every workload, and the spread over seeds fell from 15–17% to 4–6% of
//! the median. A kernel whose data fits in a core's own cache, a chase
//! through DRAM and a dependent float chain tracked worse.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::hint::black_box;

use crate::cpu_s;

/// CPU seconds of one slice on the host the benchmark's figures were
/// recorded on. It only fixes the scale of the normalized times.
const NOMINAL_SLICE_S: f64 = 0.017;
/// Slices per calibration: about a quarter of a second.
const SLICES: u32 = 15;

const MAP_KEYS: u64 = 1 << 19;
const LOOKUPS: u32 = 50_000;
const LIBRARY_STEPS: u32 = 15_000;
const CALLS: u32 = 200_000;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Defines one small function per constant, each mixing its argument
/// into a shared state with different branches, and a table of them.
macro_rules! handlers {
    ($($name:ident $c:expr;)*) => {
        $(
            #[inline(never)]
            fn $name(x: u64, st: &mut [u64; 8]) -> u64 {
                const C: u64 = $c;
                let mut y = x ^ C;
                if y & 1 == 0 {
                    y = y.rotate_left((C % 63) as u32 + 1);
                    st[(y & 7) as usize] ^= y;
                } else {
                    y = y.wrapping_mul(C | 1);
                    let i = ((y >> 3) & 7) as usize;
                    st[i] = st[i].wrapping_add(y);
                }
                if y % 3 == 0 {
                    y ^= st[((y >> 5) & 7) as usize];
                } else if y % 5 == 1 {
                    y = y.wrapping_sub(st[(x & 7) as usize]);
                }
                y
            }
        )*
        const HANDLERS: &[fn(u64, &mut [u64; 8]) -> u64] = &[$($name),*];
    };
}

handlers! {
    h0 0x4164d8399f767c45; h1 0x5bc8fbbcbde5c099; h2 0xb0c11fdecb91ce37; h3 0xd76d4330f1446bea;
    h4 0xa6eb8c9ebd69fe29; h5 0x87b0b125ec1d7da0; h6 0xd7210dff076ce2ef; h7 0xc6a5387777330bdb;
    h8 0x3fc1ea36f17fd374; h9 0x0d464138a6233255; h10 0x2827688de6a16a3b; h11 0x5f2dd97f1cfb10f6;
    h12 0xde5271007814e8a2; h13 0x617959ce3f1f65a8; h14 0x1a1afe878b33e968; h15 0x3fd4235992edcf45;
    h16 0xbb2edb20035b7399; h17 0x687c966c377b9aa2; h18 0x2e9c82b1478c281d; h19 0xde11cc9dea959c21;
    h20 0x63b229f1c4069545; h21 0xc30d8b7628dbd25e; h22 0x126a1e48cc11d357; h23 0x9e30691c238642ea;
    h24 0x71e0c07e9e115e4b; h25 0x21da8978206f5c66; h26 0xf8eb18b900745130; h27 0x015c33b2df1461aa;
    h28 0xc60a3cab359eeefb; h29 0xf5cae3bf3729c619; h30 0x2a759159fb7ff337; h31 0x2a9eba0cdf561d80;
}

/// The reference kernel's state and what its calibrations measured.
pub struct Calibrator {
    map: HashMap<u64, u64>,
    tree: BTreeMap<u64, u64>,
    counts: HashMap<u64, u64>,
    text: String,
    sorted: Vec<u32>,
    state: [u64; 8],
    rng: u64,
    slices: u32,
    spent_s: f64,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            map: (0..MAP_KEYS).map(|k| (k, k)).collect(),
            tree: BTreeMap::new(),
            counts: HashMap::new(),
            text: String::new(),
            sorted: Vec::new(),
            state: [0; 8],
            rng: 0x5eed,
            slices: 0,
            spent_s: 0.0,
        }
    }

    fn lookups(&mut self) -> u64 {
        let mut sum = 0u64;
        for _ in 0..LOOKUPS {
            let key = splitmix(&mut self.rng) % MAP_KEYS;
            sum = sum.wrapping_add(self.map.get(&key).copied().unwrap_or(0));
        }
        sum
    }

    fn library(&mut self) -> u64 {
        let mut sum = 0u64;
        for _ in 0..LIBRARY_STEPS {
            let k = splitmix(&mut self.rng);
            self.tree.insert(k % 8192, k);
            if self.tree.len() > 4096 {
                self.tree.pop_first();
            }
            *self.counts.entry(k % 4096).or_insert(0) += 1;
            if k.is_multiple_of(4) {
                self.text.clear();
                let _ = write!(self.text, "{:.3}", (k % 100_000) as f64 / 7.0);
                sum = sum.wrapping_add(self.text.parse::<f64>().map_or(0, |x| x as u64));
            }
            if k.is_multiple_of(16) {
                self.sorted.clear();
                self.sorted
                    .extend((0..64u32).map(|i| (k >> (i % 32)) as u32 ^ i));
                self.sorted.sort_unstable();
                sum = sum.wrapping_add(u64::from(self.sorted[3]));
            }
        }
        sum
    }

    fn calls(&mut self) -> u64 {
        let mut x = self.rng;
        for _ in 0..CALLS {
            let h = (splitmix(&mut self.rng) % HANDLERS.len() as u64) as usize;
            x = HANDLERS[h](x, &mut self.state);
        }
        x
    }

    /// Runs [`SLICES`] slices of the kernel.
    pub fn calibrate(&mut self) {
        for _ in 0..SLICES {
            let start = cpu_s();
            let sum = self.lookups() ^ self.library() ^ self.calls();
            black_box(sum);
            self.spent_s += cpu_s() - start;
            self.slices += 1;
        }
    }

    /// Host speed over every calibration so far: the nominal slice time
    /// over the mean measured one. 1 on the reference host, below 1 when
    /// the host runs slow.
    pub fn speed(&self) -> f64 {
        f64::from(self.slices) * NOMINAL_SLICE_S / self.spent_s
    }
}
