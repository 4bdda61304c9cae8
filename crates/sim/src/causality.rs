//! Declarative causality log + liveness diagnostics.
//!
//! The protocols already track causality for recovery; this module
//! surfaces it for observability, modeled on Sui's
//! `sui-causality-log`. Protocol code records *edges* between typed
//! events — "this event happened, caused by that one", "this actor
//! cannot make progress until that event fires", "this message was
//! consumed, someone must have produced it" — into a per-run,
//! **thread-local** log. At analysis time three detectors read the
//! log:
//!
//! * **dangling causes** — an [`expect`]ed cause that no producer ever
//!   fired, annotated with the waiting event, its owner rank and the
//!   causal chain back to the last satisfied event ("replay at rank 3
//!   waiting on a delivery whose determinant batch was never acked"),
//! * **absent causes** — a cause recorded as [`consume`]d (or named in
//!   a `caused_by` edge) with no recorded producer,
//! * **duplicate once-only events** — a [`produced_unique`] contract
//!   violated by a second production (the marker-storm shape: a
//!   finished rank answering the same snapshot id over and over).
//!
//! Like the kernel profiler ([`crate::profiler`]), collection is **off
//! by default** and its readings never enter a run report or the
//! determinism fingerprint unless a harness explicitly exports them. A
//! disabled record site costs the [`enabled`] check and nothing else:
//! every site — the [`crate::event!`] macro and direct [`record`] calls
//! alike — hands its [`Edge`] over as a closure, so no [`Key`] is built
//! and no key argument evaluated unless the log is on.
//! All detectors run at analysis time only, so the verdict is
//! insensitive to the order in which edges were recorded — producing
//! after consuming is as well-formed as the reverse.
//!
//! Enablement has three independent sources, strongest first:
//! process-wide [`set_enabled`] (tests/harnesses; environment mutation
//! races under a parallel test runner), the `VLOG_CAUSALITY`
//! environment knob (any non-zero value; also requests the per-run
//! stderr dump), and per-thread [`set_thread_enabled`] (the cluster
//! runner's export path and the property tests, which must not leak
//! enablement into concurrently running tests).

use std::cell::{Cell, RefCell};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::env_knob;

/// Maximum number of `name = value` arguments a [`Key`] carries.
pub const MAX_ARGS: usize = 3;

/// Cap on causal-chain length reported for a dangling cause.
const MAX_CHAIN: usize = 8;

/// A typed event identity: a static kind string plus up to
/// [`MAX_ARGS`] named `u64` arguments. Producer and consumer sides
/// must build *identical* keys — matching is exact, never by prefix or
/// threshold — so key schemas are designed around values both sides
/// know (ranks, sequence numbers, snapshot ids), not clocks.
///
/// Built with the [`crate::ckey!`] macro:
/// `ckey!("det-batch-acked", rank = 3, seq = 7)`.
#[derive(Clone, Copy, Debug)]
pub struct Key {
    kind: &'static str,
    names: &'static [&'static str],
    vals: [u64; MAX_ARGS],
    len: u8,
}

impl Key {
    /// Builds a key from a kind, argument names and values. Prefer
    /// [`crate::ckey!`], which keeps names and values in lockstep.
    pub fn from_parts(kind: &'static str, names: &'static [&'static str], vals: &[u64]) -> Self {
        assert!(
            vals.len() <= MAX_ARGS,
            "causality keys carry at most {MAX_ARGS} args"
        );
        assert_eq!(names.len(), vals.len(), "names/values length mismatch");
        let mut v = [0u64; MAX_ARGS];
        v[..vals.len()].copy_from_slice(vals);
        Key {
            kind,
            names,
            vals: v,
            len: vals.len() as u8,
        }
    }

    /// The event kind string.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Looks up a named argument (for structured test assertions).
    pub fn get(&self, name: &str) -> Option<u64> {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| self.vals[i])
    }

    fn fields(&self) -> &[u64] {
        &self.vals[..self.len as usize]
    }
}

/// Identity is `(kind, argument values)`; argument *names* are fixed
/// per kind by convention and excluded from comparison.
impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Kinds are string literals, and most comparisons a map makes are
        // between keys of one call site: the same literal (address and
        // length) is the same kind without reading a byte of it.
        let kinds = if std::ptr::eq(self.kind, other.kind) {
            CmpOrdering::Equal
        } else {
            self.kind.cmp(other.kind)
        };
        kinds.then_with(|| self.fields().cmp(other.fields()))
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.kind)?;
        for (i, (name, val)) in self.names.iter().zip(self.fields()).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}={val}")?;
        }
        write!(f, "}}")
    }
}

/// Builds a [`Key`]: `ckey!("kind", rank = r, seq = s)`. Argument
/// values are coerced to `u64` with `as`.
#[macro_export]
macro_rules! ckey {
    ($kind:literal $(, $name:ident = $val:expr )* $(,)?) => {{
        const NAMES: &[&str] = &[$(stringify!($name)),*];
        $crate::causality::Key::from_parts($kind, NAMES, &[$(($val) as u64),*])
    }};
}

/// Records a produced event, optionally with a `caused_by` edge:
///
/// ```ignore
/// event!("image-fetched" { rank = r } caused_by "restart-boot" { rank = r });
/// event!("det-batch-shipped" { rank = r, seq = s });
/// ```
#[macro_export]
macro_rules! event {
    ($kind:literal { $($n:ident = $v:expr),* $(,)? }
     caused_by $ck:literal { $($cn:ident = $cv:expr),* $(,)? }) => {
        $crate::causality::record(|| $crate::causality::Edge::Produced {
            key: $crate::ckey!($kind $(, $n = $v)*),
            caused_by: Some($crate::ckey!($ck $(, $cn = $cv)*)),
            unique: false,
        })
    };
    ($kind:literal { $($n:ident = $v:expr),* $(,)? }) => {
        $crate::causality::record(|| $crate::causality::Edge::Produced {
            key: $crate::ckey!($kind $(, $n = $v)*),
            caused_by: None,
            unique: false,
        })
    };
}

/// One record for the log; see the function of the same name as each
/// variant ([`produced`], [`produced_unique`], [`expect`], [`consume`],
/// [`cancel`]) for what it means.
#[derive(Debug, Clone, Copy)]
pub enum Edge {
    Produced {
        key: Key,
        caused_by: Option<Key>,
        /// Once-per-key contract ([`produced_unique`]).
        unique: bool,
    },
    Expect {
        cause: Key,
        waiter: Key,
        owner: u64,
    },
    Consume {
        cause: Key,
        by: Key,
    },
    Cancel {
        cause: Key,
    },
}

#[derive(Debug, Clone, Copy)]
struct ProducedEntry {
    caused_by: Option<Key>,
    count: u64,
    unique: bool,
}

#[derive(Debug, Clone, Copy)]
struct ExpectEntry {
    waiter: Key,
    owner: u64,
}

#[derive(Default)]
struct Log {
    produced: BTreeMap<Key, ProducedEntry>,
    expects: BTreeMap<Key, ExpectEntry>,
    consumed: BTreeMap<Key, Key>,
    produced_events: u64,
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log::default());
    /// Per-thread enable bit ([`set_thread_enabled`]).
    static RUN_LOCAL: Cell<bool> = const { Cell::new(false) };
}

/// Programmatic process-wide enable flag ([`set_enabled`]).
static FORCED: AtomicBool = AtomicBool::new(false);

/// `VLOG_CAUSALITY` knob, read once per process.
fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| env_knob::any_u64("VLOG_CAUSALITY", 0) != 0)
}

/// Whether record sites currently collect (process flag, env knob, or
/// thread-local flag).
#[inline]
pub fn enabled() -> bool {
    FORCED.load(Ordering::Relaxed) || RUN_LOCAL.with(|c| c.get()) || env_enabled()
}

/// Whether the per-run stderr liveness dump is requested
/// (`VLOG_CAUSALITY` only — programmatic enablement collects silently
/// so tests can read the log without spamming stderr).
pub fn report_each_run() -> bool {
    env_enabled()
}

/// Turns collection on or off process-wide, independent of the
/// environment (the determinism conformance sweep force-enables this
/// across all sweep threads).
pub fn set_enabled(on: bool) {
    FORCED.store(on, Ordering::Relaxed);
}

/// Turns collection on or off for the calling thread only. Used by the
/// cluster runner's export path and by property tests, neither of
/// which may leak enablement into concurrently running tests.
pub fn set_thread_enabled(on: bool) {
    RUN_LOCAL.with(|c| c.set(on));
}

/// The record site: builds the edge — evaluating its key arguments —
/// and logs it only when collection is on. Instrumented code calls this
/// (or [`crate::event!`], which expands to it); the by-value functions
/// below serve callers that hold their keys already.
#[inline]
pub fn record(edge: impl FnOnce() -> Edge) {
    if enabled() {
        log_edge(edge());
    }
}

#[cold]
fn log_edge(edge: Edge) {
    LOG.with(|l| {
        let mut log = l.borrow_mut();
        match edge {
            Edge::Produced {
                key,
                caused_by,
                unique,
            } => {
                log.produced_events += 1;
                let entry = log.produced.entry(key).or_insert(ProducedEntry {
                    caused_by: None,
                    count: 0,
                    unique,
                });
                entry.count += 1;
                entry.unique |= unique;
                if entry.caused_by.is_none() {
                    entry.caused_by = caused_by;
                }
            }
            Edge::Expect {
                cause,
                waiter,
                owner,
            } => {
                log.expects.insert(cause, ExpectEntry { waiter, owner });
            }
            Edge::Consume { cause, by } => {
                log.consumed.entry(cause).or_insert(by);
            }
            Edge::Cancel { cause } => {
                log.expects.remove(&cause);
            }
        }
    });
}

/// Records that `key` fired, optionally naming its cause. Repeat
/// productions of the same key bump a count; the first recorded cause
/// edge wins. Prefer the [`crate::event!`] macro.
pub fn produced(key: Key, caused_by: Option<Key>) {
    record(|| Edge::Produced {
        key,
        caused_by,
        unique: false,
    });
}

/// [`produced`] plus a once-per-key contract: producing the same key
/// twice is reported as a duplicate (the marker-storm detector).
pub fn produced_unique(key: Key, caused_by: Option<Key>) {
    record(|| Edge::Produced {
        key,
        caused_by,
        unique: true,
    });
}

/// Declares that `waiter` (owned by rank `owner`) cannot make progress
/// until `cause` fires. Satisfied — order-insensitively, at analysis
/// time — by any production of the exact same key; cleared early by
/// [`cancel`] or [`cancel_owner`] when the expectation becomes moot.
pub fn expect(cause: Key, waiter: Key, owner: u64) {
    record(|| Edge::Expect {
        cause,
        waiter,
        owner,
    });
}

/// Records that `by` consumed `cause`. A consumed cause with no
/// producer anywhere in the run is reported as absent.
pub fn consume(cause: Key, by: Key) {
    record(|| Edge::Consume { cause, by });
}

/// Withdraws a single pending expectation (the awaited event became
/// moot — e.g. an Event-Logger shard died and its in-flight batch will
/// be re-offered to the replacement).
pub fn cancel(cause: Key) {
    record(|| Edge::Cancel { cause });
}

/// Withdraws every pending expectation owned by `owner`. Called when a
/// rank finishes (nothing waits on its progress any more) and when a
/// dead incarnation's expectations are superseded by a recovery boot.
pub fn cancel_owner(owner: u64) {
    if !enabled() {
        return;
    }
    LOG.with(|l| {
        l.borrow_mut().expects.retain(|_, e| e.owner != owner);
    });
}

/// Clears the calling thread's log. The cluster runner resets before
/// and after every run so sweeps on pooled worker threads never see a
/// previous run's edges.
pub fn reset() {
    LOG.with(|l| *l.borrow_mut() = Log::default());
}

/// How an absent cause was referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Recorded through [`consume`].
    Consumed,
    /// Named as a `caused_by` edge of a produced event.
    CausedBy,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeKind::Consumed => write!(f, "consumed"),
            EdgeKind::CausedBy => write!(f, "caused_by"),
        }
    }
}

/// A declared cause that never fired, with the event waiting on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dangling {
    /// The cause key no producer ever recorded.
    pub cause: Key,
    /// The event that declared it cannot progress without `cause`.
    pub waiter: Key,
    /// Rank that owns the expectation.
    pub owner: u64,
    /// Causal chain from `waiter` back through recorded `caused_by`
    /// edges to the last satisfied event (capped, cycle-guarded).
    pub chain: Vec<Key>,
}

/// A cause referenced (consumed or named in a `caused_by` edge) with
/// no recorded producer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Absent {
    /// The producer-less cause key.
    pub cause: Key,
    /// The event that referenced it.
    pub by: Key,
    /// How it was referenced.
    pub edge: EdgeKind,
}

/// A once-per-key contract violated by repeat production.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Duplicate {
    /// The key declared once-only through [`produced_unique`].
    pub key: Key,
    /// How many times it was actually produced.
    pub count: u64,
}

/// The analysis verdict over one run's causality log. `None` in a
/// `RunReport` unless a harness explicitly exported it; never part of
/// a determinism fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LivenessReport {
    /// Expected causes that never fired.
    pub dangling: Vec<Dangling>,
    /// Referenced causes with no producer.
    pub absent: Vec<Absent>,
    /// Violated once-only contracts.
    pub duplicates: Vec<Duplicate>,
    /// Total produced-event records in the log (a coverage gauge: zero
    /// with causality enabled means nothing was instrumented).
    pub produced_events: u64,
}

impl LivenessReport {
    /// True when every detector came back empty.
    pub fn is_clean(&self) -> bool {
        self.dangling.is_empty() && self.absent.is_empty() && self.duplicates.is_empty()
    }

    /// One-line digest for invariant-violation messages.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("liveness clean ({} events)", self.produced_events);
        }
        let mut out = format!(
            "{} dangling, {} absent, {} duplicate",
            self.dangling.len(),
            self.absent.len(),
            self.duplicates.len()
        );
        if let Some(d) = self.dangling.first() {
            out.push_str(&format!(
                "; first dangling: {} awaited by {} (owner rank {})",
                d.cause, d.waiter, d.owner
            ));
        } else if let Some(a) = self.absent.first() {
            out.push_str(&format!(
                "; first absent: {} ({} by {})",
                a.cause, a.edge, a.by
            ));
        } else if let Some(dup) = self.duplicates.first() {
            out.push_str(&format!(
                "; first duplicate: {} produced {} times",
                dup.key, dup.count
            ));
        }
        out
    }
}

fn chain_from(produced: &BTreeMap<Key, ProducedEntry>, start: Key) -> Vec<Key> {
    let mut chain = vec![start];
    let mut cur = start;
    for _ in 0..MAX_CHAIN {
        let Some(entry) = produced.get(&cur) else {
            break;
        };
        let Some(cause) = entry.caused_by else {
            break;
        };
        if chain.contains(&cause) {
            break;
        }
        chain.push(cause);
        cur = cause;
    }
    chain
}

/// Runs all three detectors over the calling thread's log. Pure read —
/// the log is left intact (the watchdog analyzes mid-run; the cluster
/// runner analyzes again at exit). Deterministic: results are ordered
/// by key, not by recording order.
pub fn analyze() -> LivenessReport {
    LOG.with(|l| {
        let log = l.borrow();
        let dangling = log
            .expects
            .iter()
            .filter(|(cause, _)| !log.produced.contains_key(cause))
            .map(|(cause, e)| Dangling {
                cause: *cause,
                waiter: e.waiter,
                owner: e.owner,
                chain: chain_from(&log.produced, e.waiter),
            })
            .collect();
        let mut absent: Vec<Absent> = log
            .consumed
            .iter()
            .filter(|(cause, _)| !log.produced.contains_key(cause))
            .map(|(cause, by)| Absent {
                cause: *cause,
                by: *by,
                edge: EdgeKind::Consumed,
            })
            .collect();
        for (key, entry) in &log.produced {
            if let Some(cause) = entry.caused_by {
                if !log.produced.contains_key(&cause) {
                    absent.push(Absent {
                        cause,
                        by: *key,
                        edge: EdgeKind::CausedBy,
                    });
                }
            }
        }
        absent.sort();
        let duplicates = log
            .produced
            .iter()
            .filter(|(_, e)| e.unique && e.count > 1)
            .map(|(key, e)| Duplicate {
                key: *key,
                count: e.count,
            })
            .collect();
        LivenessReport {
            dangling,
            absent,
            duplicates,
            produced_events: log.produced_events,
        }
    })
}

// `Absent` ordering for the deterministic sort above.
impl PartialOrd for Absent {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Absent {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (self.cause, self.edge, self.by).cmp(&(other.cause, other.edge, other.by))
    }
}

/// Renders a report as the stderr block the cluster runner prints when
/// `VLOG_CAUSALITY` is set and the watchdog prints on a hang.
pub fn render(label: &str, report: &LivenessReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "liveness [{label}] {} events recorded",
        report.produced_events
    );
    if report.is_clean() {
        let _ = writeln!(out, "  clean: no dangling, absent or duplicate causes");
        return out;
    }
    if !report.dangling.is_empty() {
        let _ = writeln!(out, "  dangling causes: {}", report.dangling.len());
        for d in &report.dangling {
            let _ = writeln!(
                out,
                "    {} waiting on {} (owner rank {})",
                d.waiter, d.cause, d.owner
            );
            if d.chain.len() > 1 {
                let rendered: Vec<String> = d.chain.iter().map(|k| k.to_string()).collect();
                let _ = writeln!(out, "      chain: {}", rendered.join(" <- "));
            }
        }
    }
    if !report.absent.is_empty() {
        let _ = writeln!(out, "  absent causes: {}", report.absent.len());
        for a in &report.absent {
            let _ = writeln!(
                out,
                "    {} {} by {} but never produced",
                a.cause, a.edge, a.by
            );
        }
    }
    if !report.duplicates.is_empty() {
        let _ = writeln!(
            out,
            "  duplicate once-only events: {}",
            report.duplicates.len()
        );
        for dup in &report.duplicates {
            let _ = writeln!(out, "    {} produced {} times", dup.key, dup.count);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test runs enabled-per-thread against a fresh log; the
    /// process-global flag is never touched, so these are safe under a
    /// parallel test runner.
    fn with_log<R>(f: impl FnOnce() -> R) -> R {
        set_thread_enabled(true);
        reset();
        let out = f();
        reset();
        set_thread_enabled(false);
        out
    }

    /// The same-literal fast path must not show: kinds compare by
    /// content, including an equal kind that lives at another address.
    #[test]
    fn key_order_is_kind_then_fields_tuple_order() {
        let elsewhere: &'static str = String::from("marker").leak();
        assert!(!std::ptr::eq(elsewhere, "marker"));
        let table = [
            ckey!("marker", from = 1, to = 2),
            Key::from_parts(elsewhere, &["from", "to"], &[1, 2]),
            Key::from_parts(elsewhere, &["from", "to"], &[0, 9]),
            ckey!("marker", from = 1),
            ckey!("marker"),
            ckey!("mark", from = 7, to = 7),
            ckey!("markers", from = 0),
            ckey!("det-batch-acked", rank = 3, seq = 7),
            ckey!("det-batch-acked", rank = 3, seq = 8),
            ckey!("det-batch-acked", rank = 2, seq = u64::MAX),
        ];
        for a in &table {
            for b in &table {
                let tuples = (a.kind(), a.fields()).cmp(&(b.kind(), b.fields()));
                assert_eq!(a.cmp(b), tuples, "{a} vs {b}");
                assert_eq!(a == b, tuples == CmpOrdering::Equal, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn key_identity_ignores_names_but_not_values() {
        let a = ckey!("x", rank = 1, seq = 2);
        let b = ckey!("x", rank = 1, seq = 2);
        let c = ckey!("x", rank = 1, seq = 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a < c);
        assert_eq!(a.to_string(), "x{rank=1, seq=2}");
        assert_eq!(a.kind(), "x");
        assert_eq!(a.get("seq"), Some(2));
        assert_eq!(a.get("nope"), None);
        let bare = ckey!("bare");
        assert_eq!(bare.to_string(), "bare{}");
    }

    #[test]
    fn dangling_expectation_is_reported_with_chain() {
        with_log(|| {
            event!("node-crashed" { node = 4 });
            event!("restart-boot" { rank = 1 } caused_by "node-crashed" { node = 4 });
            expect(
                ckey!("image-fetched", rank = 1),
                ckey!("restart-boot", rank = 1),
                1,
            );
            let r = analyze();
            assert!(!r.is_clean());
            assert_eq!(r.dangling.len(), 1);
            let d = &r.dangling[0];
            assert_eq!(d.cause, ckey!("image-fetched", rank = 1));
            assert_eq!(d.owner, 1);
            assert_eq!(
                d.chain,
                vec![
                    ckey!("restart-boot", rank = 1),
                    ckey!("node-crashed", node = 4)
                ]
            );
            let text = render("unit", &r);
            assert!(text.contains("restart-boot{rank=1} waiting on image-fetched{rank=1}"));
            assert!(text.contains("chain: restart-boot{rank=1} <- node-crashed{node=4}"));
        });
    }

    #[test]
    fn satisfied_expectation_is_clean_regardless_of_order() {
        with_log(|| {
            // Consume and expect *before* the producer fires: the
            // detectors run at analysis time, so order cannot matter.
            consume(
                ckey!("marker", from = 0, to = 1, id = 9),
                ckey!("rank", r = 1),
            );
            expect(
                ckey!("marker", from = 0, to = 1, id = 9),
                ckey!("snapshot", rank = 1, id = 9),
                1,
            );
            event!("marker" { from = 0, to = 1, id = 9 });
            assert!(analyze().is_clean());
        });
    }

    #[test]
    fn absent_cause_flags_consumes_and_caused_by_edges() {
        with_log(|| {
            consume(ckey!("gc-notice", from = 2, to = 0), ckey!("rank", r = 0));
            event!("replay" { rank = 1 } caused_by "ghost" { rank = 1 });
            let r = analyze();
            assert_eq!(r.absent.len(), 2);
            assert!(r
                .absent
                .iter()
                .any(|a| a.cause == ckey!("gc-notice", from = 2, to = 0)
                    && a.edge == EdgeKind::Consumed));
            assert!(r
                .absent
                .iter()
                .any(|a| a.cause == ckey!("ghost", rank = 1) && a.edge == EdgeKind::CausedBy));
        });
    }

    #[test]
    fn cancel_and_cancel_owner_withdraw_expectations() {
        with_log(|| {
            expect(ckey!("a"), ckey!("w", r = 0), 0);
            expect(ckey!("b"), ckey!("w", r = 1), 1);
            expect(ckey!("c"), ckey!("w", r = 1), 1);
            cancel(ckey!("b"));
            let r = analyze();
            assert_eq!(r.dangling.len(), 2);
            cancel_owner(1);
            let r = analyze();
            assert_eq!(r.dangling.len(), 1);
            assert_eq!(r.dangling[0].cause, ckey!("a"));
        });
    }

    #[test]
    fn unique_contract_reports_duplicates() {
        with_log(|| {
            produced_unique(ckey!("close", rank = 2, id = 3), None);
            assert!(analyze().is_clean());
            produced_unique(ckey!("close", rank = 2, id = 3), None);
            produced_unique(ckey!("close", rank = 2, id = 3), None);
            let r = analyze();
            assert_eq!(r.duplicates.len(), 1);
            assert_eq!(r.duplicates[0].count, 3);
            assert!(render("unit", &r).contains("close{rank=2, id=3} produced 3 times"));
        });
    }

    #[test]
    fn a_disabled_log_evaluates_no_key_argument() {
        let evaluated = Cell::new(0u32);
        let arg = || {
            evaluated.set(evaluated.get() + 1);
            1u64
        };
        let sites = || {
            event!("x" { a = arg() } caused_by "y" { b = arg() });
            event!("x" { a = arg() });
            record(|| Edge::Expect {
                cause: ckey!("y", b = arg()),
                waiter: ckey!("x", a = arg()),
                owner: arg(),
            });
            record(|| Edge::Consume {
                cause: ckey!("y", b = arg()),
                by: ckey!("x", a = arg()),
            });
            record(|| Edge::Cancel {
                cause: ckey!("y", b = arg()),
            });
        };
        set_thread_enabled(false);
        // Skip when the env knob or a concurrent force-enable is live.
        if !enabled() {
            sites();
            assert_eq!(evaluated.get(), 0);
        }
        with_log(sites);
        assert_eq!(evaluated.get(), 9);
    }

    #[test]
    fn disabled_sites_record_nothing_and_reset_clears() {
        set_thread_enabled(false);
        // Skip when the env knob or a concurrent force-enable is live.
        if !enabled() {
            reset();
            event!("x" { a = 1 });
            expect(ckey!("y"), ckey!("x", a = 1), 0);
            let r = analyze();
            assert!(r.is_clean());
            assert_eq!(r.produced_events, 0);
        }
        with_log(|| {
            event!("x" { a = 1 });
            assert_eq!(analyze().produced_events, 1);
            reset();
            assert_eq!(analyze().produced_events, 0);
        });
    }
}
