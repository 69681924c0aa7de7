//! Pins the exported form of every sim-time event and span kind.
//!
//! One value of each [`Event`] variant (each [`FaultKind`] too) and each
//! [`SpanKind`] variant, with the exact name, time, track and JSON the
//! JSONL event stream and the Chrome trace carry. The exhaustive matches
//! make a new kind fail to compile here until it is pinned as well.

use mobistore_sim::obs::{Event, FaultKind, OpKind};
use mobistore_sim::span::SpanKind;
use mobistore_sim::time::{SimDuration, SimTime};

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

fn d(ns: u64) -> SimDuration {
    SimDuration::from_nanos(ns)
}

/// The position of `e`'s variant in [`events`]; exhaustive on purpose.
fn event_index(e: &Event) -> usize {
    match e {
        Event::OpIssued { .. } => 0,
        Event::OpCompleted { .. } => 1,
        Event::CacheRead { .. } => 2,
        Event::CacheWrite { .. } => 3,
        Event::SramReadHit { .. } => 4,
        Event::SramAbsorb { .. } => 5,
        Event::SramFlush { .. } => 6,
        Event::DiskSpinUp { .. } => 7,
        Event::DiskSpinDown { .. } => 8,
        Event::FlashCleanStart { .. } => 9,
        Event::FlashCleanEnd { .. } => 10,
        Event::FlashPreErase { .. } => 11,
        Event::FaultInjected {
            kind: FaultKind::WriteRetry { .. },
            ..
        } => 12,
        Event::FaultInjected {
            kind: FaultKind::EraseRetry { .. },
            ..
        } => 13,
        Event::FaultInjected {
            kind: FaultKind::SegmentRetired { .. },
            ..
        } => 14,
        Event::PowerFail { .. } => 15,
        Event::RecoveryEnd { .. } => 16,
        Event::FlashEndOfLife { .. } => 17,
        Event::EccCorrected { .. } => 18,
        Event::ReadRetry { .. } => 19,
        Event::UncorrectableRead { .. } => 20,
        Event::BlockRelocated { .. } => 21,
        Event::ScrubPass { .. } => 22,
    }
}

/// Every event variant and fault kind, with its pinned name and JSON.
fn events() -> Vec<(Event, &'static str, &'static str)> {
    vec![
        (
            Event::OpIssued {
                t: t(10),
                kind: OpKind::Read,
                lbn: 42,
                blocks: 3,
            },
            "op_issued",
            r#"{"t_ns":10,"event":"op_issued","op":"read","lbn":42,"blocks":3}"#,
        ),
        (
            Event::OpCompleted {
                t: t(11),
                kind: OpKind::Trim,
                lbn: 7,
                blocks: 1,
                queue: d(100),
                service: d(400),
                response: d(500),
            },
            "op_completed",
            r#"{"t_ns":11,"event":"op_completed","op":"trim","lbn":7,"blocks":1,"queue_ns":100,"service_ns":400,"response_ns":500}"#,
        ),
        (
            Event::CacheRead {
                t: t(12),
                hits: 2,
                misses: 5,
            },
            "cache_read",
            r#"{"t_ns":12,"event":"cache_read","hits":2,"misses":5}"#,
        ),
        (
            Event::CacheWrite {
                t: t(13),
                blocks: 4,
                dirty_evictions: 1,
            },
            "cache_write",
            r#"{"t_ns":13,"event":"cache_write","blocks":4,"dirty_evictions":1}"#,
        ),
        (
            Event::SramReadHit {
                t: t(14),
                blocks: 6,
            },
            "sram_read_hit",
            r#"{"t_ns":14,"event":"sram_read_hit","blocks":6}"#,
        ),
        (
            Event::SramAbsorb {
                t: t(15),
                blocks: 7,
            },
            "sram_absorb",
            r#"{"t_ns":15,"event":"sram_absorb","blocks":7}"#,
        ),
        (
            Event::SramFlush {
                t: t(16),
                blocks: 8,
            },
            "sram_flush",
            r#"{"t_ns":16,"event":"sram_flush","blocks":8}"#,
        ),
        (
            Event::DiskSpinUp { t: t(17) },
            "disk_spin_up",
            r#"{"t_ns":17,"event":"disk_spin_up"}"#,
        ),
        (
            Event::DiskSpinDown { t: t(18) },
            "disk_spin_down",
            r#"{"t_ns":18,"event":"disk_spin_down"}"#,
        ),
        (
            Event::FlashCleanStart {
                t: t(19),
                victim: 3,
                live_copied: 115,
            },
            "flash_clean_start",
            r#"{"t_ns":19,"event":"flash_clean_start","victim":3,"live_copied":115}"#,
        ),
        (
            Event::FlashCleanEnd {
                t: t(20),
                victim: 3,
                retired: true,
            },
            "flash_clean_end",
            r#"{"t_ns":20,"event":"flash_clean_end","victim":3,"retired":true}"#,
        ),
        (
            Event::FlashPreErase {
                t: t(21),
                bytes: 131_072,
            },
            "flash_pre_erase",
            r#"{"t_ns":21,"event":"flash_pre_erase","bytes":131072}"#,
        ),
        (
            Event::FaultInjected {
                t: t(22),
                kind: FaultKind::WriteRetry { retries: 2 },
            },
            "fault_injected",
            r#"{"t_ns":22,"event":"fault_injected","fault":"write_retry","retries":2}"#,
        ),
        (
            Event::FaultInjected {
                t: t(23),
                kind: FaultKind::EraseRetry { retries: 1 },
            },
            "fault_injected",
            r#"{"t_ns":23,"event":"fault_injected","fault":"erase_retry","retries":1}"#,
        ),
        (
            Event::FaultInjected {
                t: t(24),
                kind: FaultKind::SegmentRetired { segment: 9 },
            },
            "fault_injected",
            r#"{"t_ns":24,"event":"fault_injected","fault":"segment_retired","segment":9}"#,
        ),
        (
            Event::PowerFail {
                t: t(25),
                lost_dirty_blocks: 12,
            },
            "power_fail",
            r#"{"t_ns":25,"event":"power_fail","lost_dirty_blocks":12}"#,
        ),
        (
            Event::RecoveryEnd {
                t: t(26),
                duration: d(1_500_000),
            },
            "recovery_end",
            r#"{"t_ns":26,"event":"recovery_end","duration_ns":1500000}"#,
        ),
        (
            Event::FlashEndOfLife {
                t: t(27),
                live: 900,
                usable: 1000,
                retired: 24,
            },
            "flash_end_of_life",
            r#"{"t_ns":27,"event":"flash_end_of_life","live":900,"usable":1000,"retired":24}"#,
        ),
        (
            Event::EccCorrected {
                t: t(28),
                lbn: 5,
                errors: 3,
            },
            "ecc_corrected",
            r#"{"t_ns":28,"event":"ecc_corrected","lbn":5,"errors":3}"#,
        ),
        (
            Event::ReadRetry {
                t: t(29),
                lbn: 6,
                attempts: 2,
            },
            "read_retry",
            r#"{"t_ns":29,"event":"read_retry","lbn":6,"attempts":2}"#,
        ),
        (
            Event::UncorrectableRead {
                t: t(30),
                lbn: 8,
                errors: 40,
            },
            "uncorrectable_read",
            r#"{"t_ns":30,"event":"uncorrectable_read","lbn":8,"errors":40}"#,
        ),
        (
            Event::BlockRelocated {
                t: t(31),
                lbn: 9,
                from_segment: 4,
                errors: 11,
            },
            "block_relocated",
            r#"{"t_ns":31,"event":"block_relocated","lbn":9,"from_segment":4,"errors":11}"#,
        ),
        (
            Event::ScrubPass {
                t: t(32),
                segment: 2,
                blocks: 100,
                corrected: 3,
                relocated: 1,
            },
            "scrub_pass",
            r#"{"t_ns":32,"event":"scrub_pass","segment":2,"blocks":100,"corrected":3,"relocated":1}"#,
        ),
    ]
}

#[test]
fn every_event_kind_has_its_pinned_name_time_and_json() {
    let events = events();
    for (i, (event, name, json)) in events.iter().enumerate() {
        assert_eq!(event_index(event), i, "{event:?} is pinned out of order");
        assert_eq!(event.name(), *name, "{event:?}");
        assert_eq!(event.time(), t(10 + i as u64), "{event:?}");
        assert_eq!(event.to_json(), *json, "{event:?}");
        assert_eq!(format!("{{{}}}", event.json_fields()), *json, "{event:?}");
    }
    assert_eq!(events.len(), 23);
}

/// The position of `k`'s variant in [`spans`]; exhaustive on purpose.
fn span_index(k: &SpanKind) -> usize {
    match k {
        SpanKind::Op {
            kind: OpKind::Read, ..
        } => 0,
        SpanKind::Op {
            kind: OpKind::Write,
            ..
        } => 1,
        SpanKind::Op {
            kind: OpKind::Trim, ..
        } => 2,
        SpanKind::CacheLookup { .. } => 3,
        SpanKind::DiskSeek => 4,
        SpanKind::DiskTransfer { .. } => 5,
        SpanKind::FlashRead { .. } => 6,
        SpanKind::FlashProgram { .. } => 7,
        SpanKind::FlashErase { .. } => 8,
        SpanKind::Cleaning { .. } => 9,
        SpanKind::Scrub { .. } => 10,
        SpanKind::Recovery => 11,
        SpanKind::EccRetry { .. } => 12,
        SpanKind::DegradedRead { .. } => 13,
        SpanKind::Rebuild { .. } => 14,
        SpanKind::ParityUpdate { .. } => 15,
    }
}

/// Every span kind (each op class too), with its pinned name, track and args.
fn spans() -> Vec<(SpanKind, &'static str, &'static str, &'static str)> {
    let op = |kind| SpanKind::Op {
        kind,
        lbn: 42,
        blocks: 3,
    };
    vec![
        (
            op(OpKind::Read),
            "op/read",
            "ops",
            r#""op":"read","lbn":42,"blocks":3"#,
        ),
        (
            op(OpKind::Write),
            "op/write",
            "ops",
            r#""op":"write","lbn":42,"blocks":3"#,
        ),
        (
            op(OpKind::Trim),
            "op/trim",
            "ops",
            r#""op":"trim","lbn":42,"blocks":3"#,
        ),
        (
            SpanKind::CacheLookup { hits: 1, misses: 2 },
            "cache_lookup",
            "cache",
            r#""hits":1,"misses":2"#,
        ),
        (SpanKind::DiskSeek, "disk_seek", "device", ""),
        (
            SpanKind::DiskTransfer { bytes: 512 },
            "disk_transfer",
            "device",
            r#""bytes":512"#,
        ),
        (
            SpanKind::FlashRead { bytes: 1024 },
            "flash_read",
            "device",
            r#""bytes":1024"#,
        ),
        (
            SpanKind::FlashProgram { bytes: 2048 },
            "flash_program",
            "device",
            r#""bytes":2048"#,
        ),
        (
            SpanKind::FlashErase { bytes: 4096 },
            "flash_erase",
            "device",
            r#""bytes":4096"#,
        ),
        (
            SpanKind::Cleaning { victim: 5 },
            "cleaning",
            "device",
            r#""victim":5"#,
        ),
        (
            SpanKind::Scrub { segment: 6 },
            "scrub",
            "device",
            r#""segment":6"#,
        ),
        (SpanKind::Recovery, "recovery", "device", ""),
        (
            SpanKind::EccRetry {
                lbn: 9,
                attempts: 2,
            },
            "ecc_retry",
            "device",
            r#""lbn":9,"attempts":2"#,
        ),
        (
            SpanKind::DegradedRead { lbn: 7, lost: 2 },
            "degraded_read",
            "device",
            r#""lbn":7,"lost":2"#,
        ),
        (
            SpanKind::Rebuild {
                stripe: 64,
                stripes: 8,
            },
            "rebuild",
            "device",
            r#""stripe":64,"stripes":8"#,
        ),
        (
            SpanKind::ParityUpdate { stripe: 3 },
            "parity_update",
            "device",
            r#""stripe":3"#,
        ),
    ]
}

#[test]
fn every_span_kind_has_its_pinned_name_track_and_args() {
    let spans = spans();
    for (i, (kind, name, track, args)) in spans.iter().enumerate() {
        assert_eq!(span_index(kind), i, "{kind:?} is pinned out of order");
        assert_eq!(kind.name(), *name, "{kind:?}");
        assert_eq!(kind.track(), *track, "{kind:?}");
        assert_eq!(kind.args_json(), *args, "{kind:?}");
    }
    assert_eq!(spans.len(), 16);
}
