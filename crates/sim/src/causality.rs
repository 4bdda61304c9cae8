//! Declarative causality log + liveness diagnostics.
//!
//! The protocols already track causality for recovery; this module
//! surfaces it for observability, modeled on Sui's
//! `sui-causality-log`. Protocol code records *edges* between typed
//! events — "this event happened, caused by that one", "this actor
//! cannot make progress until that event fires", "this message was
//! consumed, someone must have produced it" — into the [`Log`] of the
//! run it is part of. At analysis time three detectors read the log:
//!
//! * **dangling causes** — an expected cause ([`Edge::Expect`]) that no
//!   producer ever fired, annotated with the waiting event, its owner
//!   rank and the causal chain back to the last satisfied event ("replay
//!   at rank 3 waiting on a delivery whose determinant batch was never
//!   acked"),
//! * **absent causes** — a cause recorded as consumed
//!   ([`Edge::Consume`]), or named in a `caused_by` edge, with no
//!   recorded producer,
//! * **duplicate once-only events** — a `unique` production contract
//!   violated by a second production (the marker-storm shape: a
//!   finished rank answering the same snapshot id over and over).
//!
//! A [`Log`] is a plain value and the run's [`crate::Sim`] owns it:
//! absent until [`crate::Sim::enable_causality`] switches it on, reached
//! by every handler through the `&mut Sim` it already holds, and gone
//! with the run. Two simulations on one thread keep separate logs.
//! Like the kernel profiler ([`crate::profiler`]), collection is **off
//! by default** and its readings never enter a run report or the
//! determinism fingerprint unless a harness explicitly exports them. A
//! disabled record site costs one `Option` check and nothing else:
//! every site — the [`crate::event!`] macro and direct
//! [`crate::Sim::record`] calls alike — hands its [`Edge`] over as a
//! closure, so no [`Key`] is built and no key argument evaluated unless
//! the log is on.
//! All detectors run at analysis time only, so the verdict is
//! insensitive to the order in which edges were recorded — producing
//! after consuming is as well-formed as the reverse.
//!
//! Recording is one probe of a hash map keyed by [`Key`] under a fixed
//! hasher (`KeyHasher`, no per-process seed), so an enabled site costs
//! a hash of the kind and its fields, not a tree descent of string
//! compares. The maps impose no order; [`Log::analyze`] sorts each
//! finding list once, so the verdict reads the same as if the log were
//! kept ordered by key.

use std::cmp::Ordering as CmpOrdering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

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
/// per kind by convention and excluded from comparison (and from the
/// hash). A kind is its content: the same literal compiled into two
/// call sites, or a string built at run time, is one kind.
impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        (std::ptr::eq(self.kind, other.kind) || self.kind == other.kind)
            && self.fields() == other.fields()
    }
}
impl Eq for Key {}
impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Both lengths in one word first, so what follows is prefix-free.
        state.write_u64((self.kind.len() as u64) << 8 | u64::from(self.len));
        state.write(self.kind.as_bytes());
        for &v in self.fields() {
            state.write_u64(v);
        }
    }
}
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

/// Records a produced event in the log of the run `$sim` (a `Sim`, or
/// anything that derefs to one) hosts, optionally with a `caused_by`
/// edge:
///
/// ```ignore
/// event!(sim, "image-fetched" { rank = r } caused_by "restart-boot" { rank = r });
/// event!(sim, "det-batch-shipped" { rank = r, seq = s });
/// ```
#[macro_export]
macro_rules! event {
    ($sim:expr, $kind:literal { $($n:ident = $v:expr),* $(,)? }
     caused_by $ck:literal { $($cn:ident = $cv:expr),* $(,)? }) => {
        $sim.record(|| $crate::causality::Edge::Produced {
            key: $crate::ckey!($kind $(, $n = $v)*),
            caused_by: Some($crate::ckey!($ck $(, $cn = $cv)*)),
            unique: false,
        })
    };
    ($sim:expr, $kind:literal { $($n:ident = $v:expr),* $(,)? }) => {
        $sim.record(|| $crate::causality::Edge::Produced {
            key: $crate::ckey!($kind $(, $n = $v)*),
            caused_by: None,
            unique: false,
        })
    };
}

/// One record for the log.
#[derive(Debug, Clone, Copy)]
pub enum Edge {
    /// `key` fired, optionally naming its cause. Repeat productions of
    /// the same key bump a count; the first recorded cause edge wins.
    /// Prefer the [`crate::event!`] macro.
    Produced {
        key: Key,
        caused_by: Option<Key>,
        /// Once-per-key contract: producing the same key twice is
        /// reported as a duplicate (the marker-storm detector).
        unique: bool,
    },
    /// `waiter` (owned by rank `owner`) cannot make progress until
    /// `cause` fires. Satisfied — order-insensitively, at analysis
    /// time — by any production of the exact same key; cleared early by
    /// [`Edge::Cancel`] or [`Edge::CancelOwner`] when the expectation
    /// becomes moot.
    Expect { cause: Key, waiter: Key, owner: u64 },
    /// `by` consumed `cause`. A consumed cause with no producer anywhere
    /// in the run is reported as absent.
    Consume { cause: Key, by: Key },
    /// Withdraws a single pending expectation (the awaited event became
    /// moot — e.g. an Event-Logger shard died and its in-flight batch
    /// will be re-offered to the replacement).
    Cancel { cause: Key },
    /// Withdraws every pending expectation owned by `owner`: a rank
    /// finished (nothing waits on its progress any more), or a dead
    /// incarnation's expectations are superseded by a recovery boot.
    CancelOwner { owner: u64 },
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

/// Multiply–rotate word hasher (the FxHash step) for [`Key`]s: a kind
/// is a short string and the rest a few `u64`s, so a hash is a handful
/// of multiplies. Unseeded: keys come from the program, not from
/// outside it, and no result is read in a map's own order
/// ([`Log::analyze`] sorts).
#[derive(Default, Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    /// Whole words, then the last eight bytes (overlapping the word
    /// before when the length is not a multiple of eight): a kind of 8
    /// to 16 bytes is two words. Shorter input is zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        let n = bytes.len();
        if n < 8 {
            let mut word = [0u8; 8];
            word[..n].copy_from_slice(bytes);
            self.word(u64::from_le_bytes(word));
            return;
        }
        let load = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let mut at = 0;
        while at + 8 < n {
            self.word(load(at));
            at += 8;
        }
        self.word(load(n - 8));
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

/// The causality log of one run (module docs).
#[derive(Default)]
pub struct Log {
    produced: KeyMap<ProducedEntry>,
    expects: KeyMap<ExpectEntry>,
    consumed: KeyMap<Key>,
    produced_events: u64,
}

impl Log {
    /// Logs one edge. Instrumented code goes through
    /// [`crate::Sim::record`] (or [`crate::event!`], which expands to
    /// it), which builds the edge only when the run has a log. Cold:
    /// collection is off by default, so a record site falls through.
    #[cold]
    pub fn record(&mut self, edge: Edge) {
        match edge {
            Edge::Produced {
                key,
                caused_by,
                unique,
            } => {
                self.produced_events += 1;
                let entry = self.produced.entry(key).or_insert(ProducedEntry {
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
                self.expects.insert(cause, ExpectEntry { waiter, owner });
            }
            Edge::Consume { cause, by } => {
                self.consumed.entry(cause).or_insert(by);
            }
            Edge::Cancel { cause } => {
                self.expects.remove(&cause);
            }
            Edge::CancelOwner { owner } => self.expects.retain(|_, e| e.owner != owner),
        }
    }
}

/// How an absent cause was referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Recorded through [`Edge::Consume`].
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
    /// The key produced under the `unique` contract.
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

fn chain_from(produced: &KeyMap<ProducedEntry>, start: Key) -> Vec<Key> {
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

impl Log {
    /// Runs all three detectors. Pure read — the log is left intact.
    /// Deterministic: each list is sorted by key here (dangling by
    /// cause, absent by `(cause, edge, by)`, duplicates by key), never
    /// left in the maps' order or in recording order.
    pub fn analyze(&self) -> LivenessReport {
        let mut dangling: Vec<Dangling> = self
            .expects
            .iter()
            .filter(|(cause, _)| !self.produced.contains_key(cause))
            .map(|(cause, e)| Dangling {
                cause: *cause,
                waiter: e.waiter,
                owner: e.owner,
                chain: chain_from(&self.produced, e.waiter),
            })
            .collect();
        // Causes are the map's keys, so no two entries tie.
        dangling.sort_unstable_by_key(|d| d.cause);
        let mut absent: Vec<Absent> = self
            .consumed
            .iter()
            .filter(|(cause, _)| !self.produced.contains_key(cause))
            .map(|(cause, by)| Absent {
                cause: *cause,
                by: *by,
                edge: EdgeKind::Consumed,
            })
            .collect();
        for (key, entry) in &self.produced {
            if let Some(cause) = entry.caused_by {
                if !self.produced.contains_key(&cause) {
                    absent.push(Absent {
                        cause,
                        by: *key,
                        edge: EdgeKind::CausedBy,
                    });
                }
            }
        }
        absent.sort_unstable();
        let mut duplicates: Vec<Duplicate> = self
            .produced
            .iter()
            .filter(|(_, e)| e.unique && e.count > 1)
            .map(|(key, e)| Duplicate {
                key: *key,
                count: e.count,
            })
            .collect();
        duplicates.sort_unstable_by_key(|d| d.key);
        LivenessReport {
            dangling,
            absent,
            duplicates,
            produced_events: self.produced_events,
        }
    }
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
/// `VLOG_CAUSALITY` is set.
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

    use crate::Sim;
    use std::cell::Cell;

    /// A simulation whose log is on: the tests record through the same
    /// `&mut Sim` sites instrumented code uses.
    fn logging_sim() -> Sim {
        let mut sim = Sim::new(0);
        sim.enable_causality();
        sim
    }

    fn analyze(sim: &mut Sim) -> LivenessReport {
        sim.causality().expect("log is on").analyze()
    }

    fn expect(sim: &mut Sim, cause: Key, waiter: Key, owner: u64) {
        sim.record(|| Edge::Expect {
            cause,
            waiter,
            owner,
        });
    }

    fn consume(sim: &mut Sim, cause: Key, by: Key) {
        sim.record(|| Edge::Consume { cause, by });
    }

    /// The same-literal fast path must not show: kinds compare and hash
    /// by content, including an equal kind that lives at another address.
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
        let hash = |k: &Key| {
            let mut h = KeyHasher::default();
            k.hash(&mut h);
            h.finish()
        };
        for a in &table {
            for b in &table {
                let tuples = (a.kind(), a.fields()).cmp(&(b.kind(), b.fields()));
                assert_eq!(a.cmp(b), tuples, "{a} vs {b}");
                assert_eq!(a == b, tuples == CmpOrdering::Equal, "{a} vs {b}");
                if a == b {
                    assert_eq!(hash(a), hash(b), "{a} vs {b}");
                }
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
        let mut sim = logging_sim();
        event!(sim, "node-crashed" { node = 4 });
        event!(sim, "restart-boot" { rank = 1 } caused_by "node-crashed" { node = 4 });
        expect(
            &mut sim,
            ckey!("image-fetched", rank = 1),
            ckey!("restart-boot", rank = 1),
            1,
        );
        let r = analyze(&mut sim);
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
    }

    #[test]
    fn satisfied_expectation_is_clean_regardless_of_order() {
        let mut sim = logging_sim();
        // Consume and expect *before* the producer fires: the
        // detectors run at analysis time, so order cannot matter.
        consume(
            &mut sim,
            ckey!("marker", from = 0, to = 1, id = 9),
            ckey!("rank", r = 1),
        );
        expect(
            &mut sim,
            ckey!("marker", from = 0, to = 1, id = 9),
            ckey!("snapshot", rank = 1, id = 9),
            1,
        );
        event!(sim, "marker" { from = 0, to = 1, id = 9 });
        assert!(analyze(&mut sim).is_clean());
    }

    #[test]
    fn absent_cause_flags_consumes_and_caused_by_edges() {
        let mut sim = logging_sim();
        consume(
            &mut sim,
            ckey!("gc-notice", from = 2, to = 0),
            ckey!("rank", r = 0),
        );
        event!(sim, "replay" { rank = 1 } caused_by "ghost" { rank = 1 });
        let r = analyze(&mut sim);
        assert_eq!(r.absent.len(), 2);
        assert!(r.absent.iter().any(
            |a| a.cause == ckey!("gc-notice", from = 2, to = 0) && a.edge == EdgeKind::Consumed
        ));
        assert!(r
            .absent
            .iter()
            .any(|a| a.cause == ckey!("ghost", rank = 1) && a.edge == EdgeKind::CausedBy));
    }

    #[test]
    fn cancel_and_cancel_owner_withdraw_expectations() {
        let mut sim = logging_sim();
        expect(&mut sim, ckey!("a"), ckey!("w", r = 0), 0);
        expect(&mut sim, ckey!("b"), ckey!("w", r = 1), 1);
        expect(&mut sim, ckey!("c"), ckey!("w", r = 1), 1);
        sim.record(|| Edge::Cancel { cause: ckey!("b") });
        let r = analyze(&mut sim);
        assert_eq!(r.dangling.len(), 2);
        sim.record(|| Edge::CancelOwner { owner: 1 });
        let r = analyze(&mut sim);
        assert_eq!(r.dangling.len(), 1);
        assert_eq!(r.dangling[0].cause, ckey!("a"));
    }

    #[test]
    fn unique_contract_reports_duplicates() {
        let mut sim = logging_sim();
        let close = |sim: &mut Sim| {
            sim.record(|| Edge::Produced {
                key: ckey!("close", rank = 2, id = 3),
                caused_by: None,
                unique: true,
            })
        };
        close(&mut sim);
        assert!(analyze(&mut sim).is_clean());
        close(&mut sim);
        close(&mut sim);
        let r = analyze(&mut sim);
        assert_eq!(r.duplicates.len(), 1);
        assert_eq!(r.duplicates[0].count, 3);
        assert!(render("unit", &r).contains("close{rank=2, id=3} produced 3 times"));
    }

    #[test]
    fn a_disabled_log_evaluates_no_key_argument() {
        let evaluated = Cell::new(0u32);
        let arg = || {
            evaluated.set(evaluated.get() + 1);
            1u64
        };
        let sites = |sim: &mut Sim| {
            event!(sim, "x" { a = arg() } caused_by "y" { b = arg() });
            event!(sim, "x" { a = arg() });
            sim.record(|| Edge::Expect {
                cause: ckey!("y", b = arg()),
                waiter: ckey!("x", a = arg()),
                owner: arg(),
            });
            sim.record(|| Edge::Consume {
                cause: ckey!("y", b = arg()),
                by: ckey!("x", a = arg()),
            });
            sim.record(|| Edge::Cancel {
                cause: ckey!("y", b = arg()),
            });
            sim.record(|| Edge::CancelOwner { owner: arg() });
        };
        sites(&mut Sim::new(0));
        assert_eq!(evaluated.get(), 0);
        sites(&mut logging_sim());
        assert_eq!(evaluated.get(), 10);
    }

    #[test]
    fn disabled_sites_record_nothing_and_reset_clears() {
        let mut sim = Sim::new(0);
        event!(sim, "x" { a = 1 });
        expect(&mut sim, ckey!("y"), ckey!("x", a = 1), 0);
        assert!(sim.causality().is_none());
        // Switched on, the same sites record; switching on again is the
        // reset: the run starts over from an empty log.
        sim.enable_causality();
        event!(sim, "x" { a = 1 });
        assert_eq!(analyze(&mut sim).produced_events, 1);
        sim.enable_causality();
        assert_eq!(analyze(&mut sim).produced_events, 0);
    }
}
