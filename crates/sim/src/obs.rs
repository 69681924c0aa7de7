//! Structured sim-time event tracing.
//!
//! Every interesting transition in the simulated storage stack — op
//! issue/completion, cache hits and misses, disk spin state changes, flash
//! cleaning passes, injected faults, power failures — can be reported to
//! an [`Observer`] as a sim-time-stamped [`Event`]. The device and
//! simulator layers take the observer as a *generic* parameter, so the
//! default [`NoopObserver`] monomorphises to nothing: no allocation, no
//! branch, no change to any golden snapshot.
//!
//! Determinism rules: events carry **sim time only** (integer
//! nanoseconds), never wall-clock, and are emitted in the order the
//! simulator processes them — a single-threaded order per simulation run —
//! so any serialized event stream is byte-identical at any `--jobs` count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::time::SimDuration;

/// The class of a trace operation, as seen by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A block read.
    Read,
    /// A block write.
    Write,
    /// A trim/delete hint.
    Trim,
}

impl OpKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Trim => "trim",
        }
    }
}

/// An injected-fault classification carried by [`Event::FaultInjected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A flash write needed `retries` extra program attempts.
    WriteRetry {
        /// Number of extra attempts drawn from the fault plan.
        retries: u32,
    },
    /// A segment erase needed `retries` extra attempts.
    EraseRetry {
        /// Number of extra attempts drawn from the fault plan.
        retries: u32,
    },
    /// A segment failed permanently and was retired.
    SegmentRetired {
        /// Index of the retired segment.
        segment: u32,
    },
}

crate::events! {
    /// One structured, sim-time-stamped event.
    ///
    /// All payload fields are integers (times in nanoseconds via
    /// [`SimTime`](crate::time::SimTime)/[`SimDuration`]), so serialization is trivially
    /// deterministic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Event {
        /// A trace operation entered the simulator.
        OpIssued "op_issued" {
            /// Issue time.
            t: SimTime,
            /// Operation class.
            kind: OpKind => "op",
            /// First logical block touched.
            lbn: u64,
            /// Number of blocks touched.
            blocks: u32,
        },
        /// A trace operation finished, with its latency breakdown.
        OpCompleted "op_completed" {
            /// Completion time (issue time + response).
            t: SimTime,
            /// Operation class.
            kind: OpKind => "op",
            /// First logical block touched.
            lbn: u64,
            /// Number of blocks touched.
            blocks: u32,
            /// Time spent waiting before the device started serving
            /// (queueing, spin-up, cleaning stalls).
            queue: SimDuration => "queue_ns",
            /// Time the device spent actively serving.
            service: SimDuration => "service_ns",
            /// End-to-end response time as recorded in Table 4.
            response: SimDuration => "response_ns",
        },
        /// The DRAM buffer cache served a read probe.
        CacheRead "cache_read" {
            /// Probe time.
            t: SimTime,
            /// Blocks found in the cache.
            hits: u32,
            /// Blocks that must go to the backend.
            misses: u32,
        },
        /// The DRAM buffer cache absorbed a write.
        CacheWrite "cache_write" {
            /// Write time.
            t: SimTime,
            /// Blocks written into the cache.
            blocks: u32,
            /// Dirty blocks evicted to make room.
            dirty_evictions: u32,
        },
        /// A read hit the SRAM write buffer before reaching the device.
        SramReadHit "sram_read_hit" {
            /// Hit time.
            t: SimTime,
            /// Blocks served.
            blocks: u32,
        },
        /// The SRAM write buffer absorbed dirty blocks.
        SramAbsorb "sram_absorb" {
            /// Absorb time.
            t: SimTime,
            /// Blocks absorbed.
            blocks: u32,
        },
        /// The SRAM write buffer drained to the backend.
        SramFlush "sram_flush" {
            /// Flush time.
            t: SimTime,
            /// Blocks flushed.
            blocks: u32,
        },
        /// The magnetic disk began spinning up.
        DiskSpinUp "disk_spin_up" {
            /// Spin-up start time.
            t: SimTime,
        },
        /// The magnetic disk began spinning down after its idle timeout.
        DiskSpinDown "disk_spin_down" {
            /// Spin-down start time.
            t: SimTime,
        },
        /// The flash card started cleaning a victim segment.
        FlashCleanStart "flash_clean_start" {
            /// Cleaning start time.
            t: SimTime,
            /// Victim segment index.
            victim: u32,
            /// Live blocks copied out of the victim.
            live_copied: u32,
        },
        /// The flash card finished (or abandoned) a cleaning pass.
        FlashCleanEnd "flash_clean_end" {
            /// Completion time.
            t: SimTime,
            /// Victim segment index.
            victim: u32,
            /// Whether the segment was retired instead of erased.
            retired: bool,
        },
        /// The flash disk pre-erased garbage in the background.
        FlashPreErase "flash_pre_erase" {
            /// Erase start time.
            t: SimTime,
            /// Bytes erased.
            bytes: u64,
        },
        /// The fault plan injected a fault.
        FaultInjected "fault_injected" {
            /// Injection time.
            t: SimTime,
            /// What kind of fault.
            kind: FaultKind => "fault",
        },
        /// Power was lost; volatile state is gone.
        PowerFail "power_fail" {
            /// Failure time.
            t: SimTime,
            /// Dirty blocks lost from volatile caches.
            lost_dirty_blocks: u64,
        },
        /// Post-power-failure recovery completed.
        RecoveryEnd "recovery_end" {
            /// Time recovery finished.
            t: SimTime,
            /// How long recovery took.
            duration: SimDuration => "duration_ns",
        },
        /// The flash card exhausted its cleanable capacity and entered
        /// read-only end-of-life mode; further writes fail with a typed error.
        FlashEndOfLife "flash_end_of_life" {
            /// Transition time.
            t: SimTime,
            /// Live blocks at the transition.
            live: u64,
            /// Usable (non-retired) block capacity at the transition.
            usable: u64,
            /// Retired (bad-segment) blocks at the transition.
            retired: u64,
        },
        /// The ECC transparently corrected raw bit errors on a block read.
        EccCorrected "ecc_corrected" {
            /// Read time.
            t: SimTime,
            /// The block whose data was corrected.
            lbn: u64,
            /// Raw bit errors corrected.
            errors: u32,
        },
        /// A marginal block read was recovered by bounded read-retry.
        ReadRetry "read_retry" {
            /// Read time.
            t: SimTime,
            /// The block that needed retries.
            lbn: u64,
            /// Retry attempts the recovery cost.
            attempts: u32,
        },
        /// A block read exceeded what ECC and read-retry can recover; its
        /// data is lost and the failure surfaces as a typed device error.
        UncorrectableRead "uncorrectable_read" {
            /// Read time.
            t: SimTime,
            /// The block whose data was lost.
            lbn: u64,
            /// Raw bit errors seen.
            errors: u32,
        },
        /// A degraded-but-correctable block was rewritten to fresh cells at
        /// the write frontier (relocate-and-remap).
        BlockRelocated "block_relocated" {
            /// Relocation time.
            t: SimTime,
            /// The relocated block.
            lbn: u64,
            /// Segment the block was relocated out of.
            from_segment: u32,
            /// Raw bit errors that triggered the relocation.
            errors: u32,
        },
        /// The background scrubber finished a pass over one segment.
        ScrubPass "scrub_pass" {
            /// Pass completion time.
            t: SimTime,
            /// The segment scrubbed.
            segment: u32,
            /// Live blocks read by the pass.
            blocks: u32,
            /// Blocks whose errors the ECC corrected during the pass.
            corrected: u32,
            /// Blocks the pass relocated to fresh cells.
            relocated: u32,
        },
    }
}

/// How one payload field of an [`events!`](crate::events) or
/// [`spans!`](crate::spans) row is written to JSON.
///
/// Integers and `bool` are written as they are, a [`SimDuration`] as
/// integer nanoseconds (its row gives the `_ns` key), an [`OpKind`] as its
/// quoted name, and a [`FaultKind`] flattened into its quoted name and
/// its own payload.
pub trait JsonField {
    /// Appends `"key":value` to `out`.
    fn write_json(&self, key: &str, out: &mut String);
}

macro_rules! plain_json_fields {
    ($($ty:ty),*) => {$(
        impl JsonField for $ty {
            fn write_json(&self, key: &str, out: &mut String) {
                let _ = write!(out, "\"{key}\":{self}");
            }
        }
    )*};
}

plain_json_fields!(u32, u64, bool);

impl JsonField for SimDuration {
    fn write_json(&self, key: &str, out: &mut String) {
        self.as_nanos().write_json(key, out);
    }
}

impl JsonField for OpKind {
    fn write_json(&self, key: &str, out: &mut String) {
        let _ = write!(out, "\"{key}\":\"{}\"", self.name());
    }
}

impl JsonField for FaultKind {
    fn write_json(&self, key: &str, out: &mut String) {
        let (name, payload, value) = match *self {
            FaultKind::WriteRetry { retries } => ("write_retry", "retries", retries),
            FaultKind::EraseRetry { retries } => ("erase_retry", "retries", retries),
            FaultKind::SegmentRetired { segment } => ("segment_retired", "segment", segment),
        };
        let _ = write!(out, "\"{key}\":\"{name}\",\"{payload}\":{value}");
    }
}

/// Receives structured simulation events.
///
/// Implementations must not assume events arrive in global sim-time order:
/// device-internal events (spin-downs, background cleaning) are emitted
/// when the simulator *settles* the device at its next access, which can
/// be after later-issued op events. Each event's own `t` is authoritative.
pub trait Observer {
    /// Called once per emitted event.
    fn record(&mut self, event: &Event);

    /// Called once per completed sim-time interval (see [`crate::span`]).
    /// Defaults to nothing, so event-only observers are unaffected and
    /// the [`NoopObserver`] path still monomorphises away.
    #[inline(always)]
    fn span(&mut self, _span: &crate::span::Span) {}
}

/// The default observer: does nothing, monomorphises to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    #[inline(always)]
    fn record(&mut self, _event: &Event) {}

    #[inline(always)]
    fn span(&mut self, _span: &crate::span::Span) {}
}

impl<O: Observer> Observer for &mut O {
    #[inline]
    fn record(&mut self, event: &Event) {
        (**self).record(event);
    }

    #[inline]
    fn span(&mut self, span: &crate::span::Span) {
        (**self).span(span);
    }
}

/// A deterministic name → count map (BTreeMap, so iteration order is
/// sorted and stable across runs and job counts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterRegistry {
    counts: BTreeMap<&'static str, u64>,
}

impl CounterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        CounterRegistry::default()
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Returns counter `name`, or 0 if never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// True if no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates `(name, count)` in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Renders the registry as a JSON object (sorted keys).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":{v}");
        }
        s.push('}');
        s
    }
}

/// A field type a [`counters!`](crate::counters) struct may hold: a plain
/// count, or a duration exported as integer nanoseconds.
pub trait CounterValue: Copy {
    /// The exported value.
    fn to_u64(self) -> u64;
    /// Rebuilds the field from its exported value.
    fn from_u64(value: u64) -> Self;
}

impl CounterValue for u64 {
    fn to_u64(self) -> u64 {
        self
    }

    fn from_u64(value: u64) -> Self {
        value
    }
}

impl CounterValue for SimDuration {
    fn to_u64(self) -> u64 {
        self.as_nanos()
    }

    fn from_u64(value: u64) -> Self {
        SimDuration::from_nanos(value)
    }
}

/// A set of additive counters declared with [`counters!`](crate::counters).
///
/// Everything here is generated from the one field list, so adding a
/// counter is one line: merge, export and checkpoint follow.
pub trait Counters: Copy + Default {
    /// Adds `other` into `self` field by field (fleet aggregation: every
    /// field is a count or a duration, so merging is addition).
    fn merge(&mut self, other: &Self);

    /// The `(key, value)` view in field order, durations in nanoseconds.
    /// Keys are export keys: `"card.erasures"`, `"disk.recovery_ns"`.
    fn entries(&self) -> impl Iterator<Item = (&'static str, u64)>;

    /// The inverse of [`entries`](Self::entries): asks `value` for each
    /// key in field order and builds the set from the answers.
    ///
    /// # Errors
    ///
    /// Returns the first error `value` returns.
    fn try_from_entries<E>(value: impl FnMut(&'static str) -> Result<u64, E>) -> Result<Self, E>;
}

/// Declares a [`Counters`] struct from one field list.
///
/// Each field is listed once, with its doc comment and type (`u64` or
/// [`SimDuration`]). Its export key is `prefix.name`, or
/// `prefix.<key>` when the field gives `=> "<key>"` (the duration fields
/// use `_ns` keys). The macro emits the struct — `pub` fields in list
/// order, deriving `Debug, Clone, Copy, Default, PartialEq, Eq` — and its
/// [`Counters`] impl.
///
/// ```
/// use mobistore_sim::obs::Counters;
/// use mobistore_sim::time::SimDuration;
///
/// mobistore_sim::counters! {
///     /// Example counters.
///     pub struct Demo in "demo" {
///         /// A count.
///         hits: u64,
///         /// A duration, exported in nanoseconds.
///         busy: SimDuration => "busy_ns",
///     }
/// }
///
/// let mut d = Demo { hits: 2, busy: SimDuration::from_nanos(5) };
/// d.merge(&d.clone());
/// let view: Vec<_> = d.entries().collect();
/// assert_eq!(view, [("demo.hits", 4), ("demo.busy_ns", 10)]);
/// ```
#[macro_export]
macro_rules! counters {
    (@key $prefix:literal $field:ident) => {
        concat!($prefix, ".", stringify!($field))
    };
    (@key $prefix:literal $field:ident $key:literal) => {
        concat!($prefix, ".", $key)
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident in $prefix:literal {
            $(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ty $(=> $key:literal)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $(
                $(#[$fmeta])*
                pub $field: $ty,
            )*
        }

        impl $crate::obs::Counters for $name {
            #[inline]
            fn merge(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }

            fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((
                    $crate::counters!(@key $prefix $field $($key)?),
                    $crate::obs::CounterValue::to_u64(self.$field),
                )),*]
                .into_iter()
            }

            fn try_from_entries<E>(
                mut value: impl FnMut(&'static str) -> Result<u64, E>,
            ) -> Result<Self, E> {
                Ok($name {
                    $($field: $crate::obs::CounterValue::from_u64(value(
                        $crate::counters!(@key $prefix $field $($key)?),
                    )?),)*
                })
            }
        }
    };
}

/// Declares an event enum, such as [`Event`], from one row per kind.
///
/// A row is the variant's doc comment, its name and its snake_case
/// export name, then its fields: the sim-time stamp `t: SimTime` first,
/// then the payload, each field with its doc comment, its type and an
/// optional `=> "<key>"` JSON key (default: the field name). The macro
/// emits the enum, with the attributes given (its derives), and its
/// `name`, `time`, `json_fields` and `to_json` methods. The JSON writes
/// `t_ns` first, then `event`, then each payload field as its
/// [`JsonField`] impl writes it. Adding an event kind is one row.
///
/// ```
/// use mobistore_sim::time::{SimDuration, SimTime};
///
/// mobistore_sim::events! {
///     /// Example events.
///     #[derive(Debug)]
///     pub enum Demo {
///         /// A tick.
///         Tick "tick" {
///             /// When it ticked.
///             t: SimTime,
///             /// A count.
///             count: u32,
///             /// A duration, exported in nanoseconds.
///             busy: SimDuration => "busy_ns",
///         },
///     }
/// }
///
/// let e = Demo::Tick {
///     t: SimTime::from_nanos(5),
///     count: 2,
///     busy: SimDuration::from_nanos(7),
/// };
/// assert_eq!(e.name(), "tick");
/// assert_eq!(e.time(), SimTime::from_nanos(5));
/// assert_eq!(e.to_json(), r#"{"t_ns":5,"event":"tick","count":2,"busy_ns":7}"#);
/// ```
#[macro_export]
macro_rules! events {
    (@key $field:ident) => {
        stringify!($field)
    };
    (@key $field:ident $key:literal) => {
        $key
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident $event:literal {
                    $(#[$tmeta:meta])*
                    t: SimTime
                    $(, $(#[$fmeta:meta])* $field:ident: $ty:ty $(=> $key:literal)?)*
                    $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant {
                    $(#[$tmeta])*
                    t: $crate::time::SimTime,
                    $($(#[$fmeta])* $field: $ty,)*
                },
            )*
        }

        impl $name {
            /// Stable snake_case event name (the JSONL `event` field and
            /// the counter key in a [`CounterRegistry`](crate::obs::CounterRegistry)).
            pub fn name(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => $event,)*
                }
            }

            /// The event's sim-time stamp.
            pub fn time(&self) -> $crate::time::SimTime {
                match *self {
                    $($name::$variant { t, .. } => t,)*
                }
            }

            /// The event's JSON fields — `"t_ns":…,"event":"…"` plus the
            /// payload — without the enclosing braces, so callers can
            /// prepend context (workload, device) before wrapping.
            pub fn json_fields(&self) -> String {
                use ::std::fmt::Write as _;
                let mut s = String::with_capacity(96);
                let _ = write!(
                    s,
                    "\"t_ns\":{},\"event\":\"{}\"",
                    self.time().as_nanos(),
                    self.name()
                );
                match self {
                    $($name::$variant { $($field,)* .. } => {
                        $(
                            s.push(',');
                            $crate::obs::JsonField::write_json(
                                $field,
                                $crate::events!(@key $field $($key)?),
                                &mut s,
                            );
                        )*
                    })*
                }
                s
            }

            /// One complete JSON object for this event (no trailing newline).
            pub fn to_json(&self) -> String {
                format!("{{{}}}", self.json_fields())
            }
        }
    };
}

/// An observer that counts events by name in a [`CounterRegistry`] and
/// counts spans, retaining neither.
#[derive(Debug, Clone, Default)]
pub struct CountingObserver {
    /// Event counts keyed by [`Event::name`].
    pub counts: CounterRegistry,
    /// Spans seen.
    pub spans: u64,
}

impl Observer for CountingObserver {
    fn record(&mut self, event: &Event) {
        self.counts.add(event.name(), 1);
    }

    fn span(&mut self, _span: &crate::span::Span) {
        self.spans += 1;
    }
}

/// An observer that keeps every event (tests and small traces only — a
/// full-scale run emits millions of events).
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    /// Every event, in emission order.
    pub events: Vec<Event>,
}

impl Observer for RecordingObserver {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, SpanKind};
    use crate::time::SimTime;

    #[test]
    fn event_json_is_integer_only() {
        let e = Event::OpCompleted {
            t: SimTime::from_nanos(1_500),
            kind: OpKind::Write,
            lbn: 42,
            blocks: 3,
            queue: SimDuration::from_nanos(100),
            service: SimDuration::from_nanos(400),
            response: SimDuration::from_nanos(500),
        };
        assert_eq!(
            e.to_json(),
            "{\"t_ns\":1500,\"event\":\"op_completed\",\"op\":\"write\",\"lbn\":42,\
             \"blocks\":3,\"queue_ns\":100,\"service_ns\":400,\"response_ns\":500}"
        );
    }

    #[test]
    fn counting_observer_counts_by_name() {
        let mut obs = CountingObserver::default();
        let t = SimTime::from_nanos(0);
        obs.record(&Event::DiskSpinUp { t });
        obs.record(&Event::DiskSpinUp { t });
        obs.record(&Event::PowerFail {
            t,
            lost_dirty_blocks: 2,
        });
        assert_eq!(obs.counts.get("disk_spin_up"), 2);
        assert_eq!(obs.counts.get("power_fail"), 1);
        assert_eq!(obs.counts.get("never"), 0);
        obs.span(&Span::new(SpanKind::Recovery, t, t));
        assert_eq!(obs.spans, 1);
        assert_eq!(
            obs.counts.to_json(),
            "{\"disk_spin_up\":2,\"power_fail\":1}"
        );
    }

    #[test]
    fn fault_event_names_payloads() {
        let t = SimTime::from_nanos(7);
        let e = Event::FaultInjected {
            t,
            kind: FaultKind::SegmentRetired { segment: 9 },
        };
        assert_eq!(e.name(), "fault_injected");
        assert!(e
            .to_json()
            .contains("\"fault\":\"segment_retired\",\"segment\":9"));
        assert_eq!(e.time(), t);
    }
}
