//! Durability acceptance tests: the `repro durability` sweep must be
//! byte-identical at any `--jobs` count, and a lone run must reproduce the
//! rendered sweep. (The array's recovery idempotence is checked with every
//! other backend's in `tests/properties.rs`.)
//!
//! The jobs test is one `#[test]` on purpose: `exec::set_jobs` is
//! process-global, and the default test harness runs tests concurrently —
//! splitting the serial and parallel halves into separate tests would
//! race on the worker-count override.

use mobistore::experiments::durability::{self, DurabilityOptions};
use mobistore::experiments::render::{render_target, RenderOptions};
use mobistore::experiments::Scale;
use mobistore::sim::exec;

fn sweep_options() -> DurabilityOptions {
    DurabilityOptions {
        geometries: vec![(2, 1), (4, 2)],
        death_rates: vec![0.0, 60.0],
        rebuild_rate: 64.0,
        seed: 1994,
    }
}

#[test]
fn parallel_durability_matches_serial() {
    let opts = RenderOptions {
        durability: sweep_options(),
        ..Default::default()
    };

    exec::set_jobs(1);
    let serial = render_target("durability", Scale::quick(), &opts);
    exec::set_jobs(4);
    let parallel = render_target("durability", Scale::quick(), &opts);

    // Rendered stdout is the acceptance surface — byte-identical.
    assert_eq!(serial.text, parallel.text);

    // And the underlying floats and counters must match exactly, not
    // just after formatting truncates them.
    assert_eq!(serial.metrics.len(), parallel.metrics.len());
    for (a, b) in serial.metrics.iter().zip(&parallel.metrics) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.energy.get(), b.energy.get(), "{}", a.name);
        assert_eq!(a.read_response_ms, b.read_response_ms, "{}", a.name);
        assert_eq!(a.degraded_read_ms, b.degraded_read_ms, "{}", a.name);
        assert_eq!(a.array, b.array, "{}", a.name);
    }

    // The run actually exercised the death machinery somewhere.
    let deaths: u64 = serial
        .metrics
        .iter()
        .map(|m| m.array.expect("array counters").device_deaths)
        .sum();
    assert!(deaths > 0, "sweep at rate 60 injected no deaths");
}

#[test]
fn durability_runs_alone_match_the_rendered_sweep() {
    // `run` is a pure function of (scale, options): re-running it must
    // reproduce the same report the renderer embedded.
    let opts = sweep_options();
    let a = format!("{}", durability::run(Scale::quick(), &opts));
    let b = format!("{}", durability::run(Scale::quick(), &opts));
    assert_eq!(a, b);
}
