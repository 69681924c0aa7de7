//! Command-line parsing. Every malformed input becomes an [`ArgError`];
//! `main` maps it to exit code 2 without printing a result line.

use std::fmt;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `hp` on the Intel flash card at 95% utilization: cleaning-bound.
    CardClean,
    /// `mac` + `dos` on the Table 4 cu140 disk and sdp5 flash disk:
    /// DRAM/SRAM cache and device-model bound.
    CachedDisk,
    /// `fleet::run` over 2000 shards: trace generation, card preload and
    /// the parallel executor.
    Fleet,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::CardClean, Workload::CachedDisk, Workload::Fleet];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CardClean => "card_clean",
            Workload::CachedDisk => "cached_disk",
            Workload::Fleet => "fleet",
        }
    }
}

/// A validated command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: every input is a pure function of it.
    pub seed: u64,
    /// Length of the timed phase, in host seconds.
    pub seconds: f64,
    /// `false`: untraced run, end-to-end metrics. `true`: untraced plus
    /// traced runs, per-layer metrics.
    pub trace: bool,
    /// Input size as a fraction of the full workload, in `(0, 1]`. Only
    /// the self-tests shrink it; reference digests exist for 1 only.
    pub scale: f64,
}

/// Why a command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A required flag was not given.
    Missing(&'static str),
    /// A flag was given without a value.
    NoValue(String),
    /// A flag's value does not parse or is out of range.
    Malformed {
        /// The flag.
        flag: &'static str,
        /// The value as given.
        value: String,
        /// What a valid value looks like.
        expected: &'static str,
    },
    /// An argument the benchmark does not know.
    Unknown(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Missing(flag) => write!(f, "missing required flag {flag}"),
            ArgError::NoValue(flag) => write!(f, "flag {flag} needs a value"),
            ArgError::Malformed {
                flag,
                value,
                expected,
            } => write!(f, "bad value {value:?} for {flag}: expected {expected}"),
            ArgError::Unknown(arg) => write!(f, "unknown argument {arg:?}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Usage text printed with every argument error.
pub const USAGE: &str = "usage: perfbench --workload card_clean|cached_disk|fleet \
--seed <u64> --seconds <n> --trace 0|1 [--scale <fraction>]";

/// Parses the arguments after the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = 1.0;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let known = ["--workload", "--seed", "--seconds", "--trace", "--scale"];
        if !known.contains(&flag.as_str()) {
            return Err(ArgError::Unknown(flag));
        }
        let value = it.next().ok_or_else(|| ArgError::NoValue(flag.clone()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(ArgError::Malformed {
                            flag: "--workload",
                            value,
                            expected: "card_clean, cached_disk or fleet",
                        })?,
                )
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| ArgError::Malformed {
                    flag: "--seed",
                    value,
                    expected: "an unsigned 64-bit integer",
                })?)
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0)
                        .ok_or(ArgError::Malformed {
                            flag: "--seconds",
                            value,
                            expected: "a number of seconds in (0, 120]",
                        })?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => {
                        return Err(ArgError::Malformed {
                            flag: "--trace",
                            value,
                            expected: "0 or 1",
                        })
                    }
                })
            }
            _ => {
                scale = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 1.0)
                    .ok_or(ArgError::Malformed {
                        flag: "--scale",
                        value,
                        expected: "a fraction in (0, 1]",
                    })?
            }
        }
    }
    Ok(Args {
        workload: workload.ok_or(ArgError::Missing("--workload"))?,
        seed: seed.ok_or(ArgError::Missing("--seed"))?,
        seconds: seconds.ok_or(ArgError::Missing("--seconds"))?,
        trace: trace.ok_or(ArgError::Missing("--trace"))?,
        scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, ArgError> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_str("--workload fleet --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Fleet);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert_eq!(a.scale, 1.0);
    }

    #[test]
    fn seed_errors_are_typed() {
        assert_eq!(
            parse_str("--workload fleet --seconds 1 --trace 0"),
            Err(ArgError::Missing("--seed"))
        );
        for bad in ["-1", "1.5", "x", "18446744073709551616"] {
            let err = parse_str(&format!(
                "--workload fleet --seed {bad} --seconds 1 --trace 0"
            ))
            .unwrap_err();
            assert!(
                matches!(err, ArgError::Malformed { flag: "--seed", .. }),
                "{bad}: {err}"
            );
        }
        assert_eq!(
            parse_str("--workload fleet --seconds 1 --trace 0 --seed"),
            Err(ArgError::NoValue("--seed".into()))
        );
    }

    #[test]
    fn other_flags_are_checked() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fleet --seed 1 --seconds 0 --trace 0",
            "--workload fleet --seed 1 --seconds NaN --trace 0",
            "--workload fleet --seed 1 --seconds 1 --trace 2",
            "--workload fleet --seed 1 --seconds 1 --trace 0 --scale 0",
            "--workload fleet --seed 1 --seconds 1 --trace 0 --bogus 1",
        ] {
            assert!(parse_str(bad).is_err(), "{bad}");
        }
    }
}
