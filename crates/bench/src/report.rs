//! The scaled-regime report: `BENCH_regimes.json` and `REPORT.md`.
//!
//! The `regimes` bench target sweeps the
//! [`Large` registry](vlog_workloads::RegistryScale) — multi-server
//! bursty, large seeded halo graphs, the deep-tiling FFT ladder, NAS and
//! NetPIPE at the paper's upper rank counts — across every protocol
//! suite, twice per cell: fault-free and under a *hub failure* (the
//! workload's most load-bearing rank killed mid-run). Each cell becomes
//! one [`RegimeRow`]; this module turns the rows into the two committed
//! artifacts:
//!
//! * [`write_json`] — the machine-readable grid (`BENCH_regimes.json`),
//!   parseable back with [`parse_json`] (golden-tested round trip);
//! * [`render_markdown`] — the figure-style cross-regime comparison
//!   (`REPORT.md`): piggyback share, piggyback management time, Event
//!   Logger saturation and hub-failure recovery, one table per metric,
//!   with prose tying each to what the paper predicts.
//!
//! Everything here is deterministic: rows arrive in sweep-job order, the
//! renderer derives its orderings from first occurrence, and neither
//! artifact embeds a timestamp — so `scripts/verify.sh` can regenerate
//! both and require them byte-identical to the committed copies.

use std::fmt::Write as _;
use std::path::PathBuf;

/// One `(workload, suite)` cell of the scaled-regime sweep: the shared
/// workload metrics of the fault-free run plus the makespan of the
/// hub-failure rerun of the same configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegimeRow {
    /// Workload family slug (`"nas"`, `"netpipe"`, `"bursty"`, `"halo"`,
    /// `"fft"`).
    pub family: String,
    /// Workload label including its distinguishing parameters.
    pub label: String,
    /// Protocol-suite label ([`crate::SuiteKind::label`]).
    pub suite: String,
    /// Rank count of the configuration.
    pub np: u64,
    /// True for the causal-logging suites (the ones moving piggyback).
    pub causal: bool,
    /// True when the suite runs an Event Logger (causal EL-on and
    /// pessimistic).
    pub el: bool,
    /// True when both runs of the cell completed. The `regimes` bench
    /// asserts completion before emitting a row, so in a committed
    /// `BENCH_regimes.json` this is invariantly `true` — the field
    /// exists so partial grids from other producers stay representable.
    pub completed: bool,
    /// Fault-free virtual makespan, seconds.
    pub makespan_s: f64,
    /// Virtual makespan of the hub-failure rerun, seconds.
    pub faulted_makespan_s: f64,
    /// The rank the hub-failure plan killed ([`vlog_workloads::Workload::hub_rank`]).
    pub hub_rank: u64,
    /// Piggybacked bytes as % of all exchanged bytes (fault-free run).
    pub pb_percent: f64,
    /// Summed piggyback send-side management time, µs (fault-free run).
    pub pb_send_us: f64,
    /// Summed piggyback receive-side management time, µs (fault-free
    /// run).
    pub pb_recv_us: f64,
    /// Network messages delivered in the fault-free run.
    pub messages: u64,
    /// Total bytes exchanged in the fault-free run.
    pub total_bytes: u64,
    /// Upper bound (bytes) of the largest non-empty message-size bucket.
    pub max_msg_bucket: u64,
    /// Peak CPU-queue depth any record saw at an EL shard (fault-free
    /// run; 0 without an EL).
    pub el_peak_queue: u64,
    /// Peak EL CPU-queue depth of the hub-failure rerun — recovery
    /// queries (response cost grows with the determinant count) collide
    /// with live records, so this is where the select-loop server
    /// actually queues.
    pub el_peak_queue_faulted: u64,
    /// Peak shipped-but-unacknowledged event window of any rank
    /// (fault-free run; 0 without an EL).
    pub el_peak_outstanding: u64,
    /// Mean arrival-to-ack-send latency at the EL, µs (fault-free run).
    pub el_ack_mean_us: f64,
    /// Event records the EL processed in the fault-free run.
    pub el_records: u64,
    /// Network-fabric profile the cluster was built on
    /// ([`vlog_sim::NetProfile::name`]).
    pub profile: String,
    /// Event-Logger shard count (1 = the classic single EL; 0 for
    /// EL-less suites).
    pub el_count: u64,
    /// Per-shard peak CPU-queue depths, slash-joined in shard order
    /// (`"3/0/1/0"`); empty when no EL ran.
    pub el_shard_queues: String,
    /// Worst per-shard peak arrival-to-ack latency, µs (fault-free run).
    pub el_ack_peak_us: f64,
    /// Mean piggyback bytes per delivered message (fault-free run) —
    /// the table-7 metric: under the compact format with send-side
    /// pruning this must stay flat as the modeled client population
    /// grows.
    pub pb_bytes_per_msg: f64,
    /// Total piggybacked bytes of the fault-free run.
    pub pb_bytes_total: u64,
}

impl RegimeRow {
    /// The name identifying this cell in the JSON grid:
    /// `family/label/suite`, with the `@profile/elK` net axis appended
    /// for cells off the paper-baseline fabric so the EL-scaling sweep
    /// rows stay unique alongside the main grid.
    pub fn name(&self) -> String {
        let base = format!("{}/{}/{}", self.family, self.label, self.suite);
        if self.is_baseline_axis() {
            base
        } else {
            format!("{base}@{}/el{}", self.profile, self.el_count)
        }
    }

    /// True when this cell ran on the paper's baseline fabric
    /// (FastEthernet-2005, at most the single classic EL) — the axis
    /// the cross-regime tables pivot on.
    pub fn is_baseline_axis(&self) -> bool {
        self.profile == "fast-ethernet-2005" && self.el_count <= 1
    }

    /// Recovery overhead of the hub failure: extra makespan relative to
    /// the fault-free run, in percent (0 when the fault-free makespan is
    /// degenerate).
    pub fn recovery_overhead_percent(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            100.0 * (self.faulted_makespan_s - self.makespan_s) / self.makespan_s
        }
    }
}

/// One JSON-carried field of a row, by type. Floats name the decimals
/// they print with.
pub(crate) enum Slot<'a> {
    Str(&'a mut String),
    U64(&'a mut u64),
    Bool(&'a mut bool),
    F64(&'a mut f64, usize),
}
use Slot::{Bool, Str, F64, U64};

/// One schema entry of a [`Record`]: the JSON key and the accessor that
/// lends the field it names.
pub(crate) type Field<R> = (&'static str, fn(&mut R) -> Slot<'_>);

/// A row type of a committed `BENCH_*.json` document. The schema lists
/// the fields of a result object after its leading derived `"name"`:
/// key, field, type and print precision, in document order.
/// [`write_records`] and [`parse_records`] both walk it, so a field is
/// added (or its precision changed) in one place.
pub(crate) trait Record: Clone + Default + 'static {
    /// The schema table.
    const SCHEMA: &'static [Field<Self>];

    /// The name identifying this row in its array.
    fn name(&self) -> String;
}

impl Record for RegimeRow {
    const SCHEMA: &'static [Field<RegimeRow>] = &[
        ("family", |r| Str(&mut r.family)),
        ("label", |r| Str(&mut r.label)),
        ("suite", |r| Str(&mut r.suite)),
        ("np", |r| U64(&mut r.np)),
        ("causal", |r| Bool(&mut r.causal)),
        ("el", |r| Bool(&mut r.el)),
        ("completed", |r| Bool(&mut r.completed)),
        ("makespan_s", |r| F64(&mut r.makespan_s, 6)),
        ("faulted_makespan_s", |r| F64(&mut r.faulted_makespan_s, 6)),
        ("hub_rank", |r| U64(&mut r.hub_rank)),
        ("pb_percent", |r| F64(&mut r.pb_percent, 4)),
        ("pb_send_us", |r| F64(&mut r.pb_send_us, 1)),
        ("pb_recv_us", |r| F64(&mut r.pb_recv_us, 1)),
        ("messages", |r| U64(&mut r.messages)),
        ("total_bytes", |r| U64(&mut r.total_bytes)),
        ("max_msg_bucket", |r| U64(&mut r.max_msg_bucket)),
        ("el_peak_queue", |r| U64(&mut r.el_peak_queue)),
        ("el_peak_queue_faulted", |r| {
            U64(&mut r.el_peak_queue_faulted)
        }),
        ("el_peak_outstanding", |r| U64(&mut r.el_peak_outstanding)),
        ("el_ack_mean_us", |r| F64(&mut r.el_ack_mean_us, 3)),
        ("el_records", |r| U64(&mut r.el_records)),
        ("profile", |r| Str(&mut r.profile)),
        ("el_count", |r| U64(&mut r.el_count)),
        ("el_shard_queues", |r| Str(&mut r.el_shard_queues)),
        ("el_ack_peak_us", |r| F64(&mut r.el_ack_peak_us, 3)),
        ("pb_bytes_per_msg", |r| F64(&mut r.pb_bytes_per_msg, 3)),
        ("pb_bytes_total", |r| U64(&mut r.pb_bytes_total)),
    ];

    fn name(&self) -> String {
        RegimeRow::name(self)
    }
}

/// Appends `"key": [ one flat object per row ]` to `json` — the array
/// shape every bench report uses, one row per line.
pub(crate) fn write_records<R: Record>(json: &mut String, key: &str, rows: &[R]) {
    let _ = writeln!(json, "  \"{key}\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(json, "    {{\"name\": \"{}\"", json_escape(&r.name()));
        // The schema's accessors hand out `&mut` slots (the reader fills
        // them); the writer reads them off a scratch copy.
        let mut r = r.clone();
        for (key, slot) in R::SCHEMA {
            let _ = write!(json, ", \"{key}\": ");
            let _ = match slot(&mut r) {
                Slot::Str(s) => write!(json, "\"{}\"", json_escape(s)),
                Slot::U64(x) => write!(json, "{x}"),
                Slot::Bool(b) => write!(json, "{b}"),
                Slot::F64(x, decimals) => write!(json, "{x:.decimals$}"),
            };
        }
        json.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    json.push_str("  ]");
}

/// Serializes the rows to the `BENCH_regimes.json` document (the same
/// `{"target": ..., "results": [...]}` shape every other bench report
/// uses).
pub fn write_json(rows: &[RegimeRow]) -> String {
    let mut json = String::from("{\n  \"target\": \"regimes\",\n");
    write_records(&mut json, "results", rows);
    json.push_str("\n}\n");
    json
}

/// Where the committed artifacts (`BENCH_*.json`, `REPORT.md`) go: the
/// nearest ancestor of the working directory holding a `Cargo.lock`
/// (the workspace root — cargo runs bench targets from the crate
/// directory), else the working directory itself.
pub fn out_dir() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .find(|dir| dir.join("Cargo.lock").exists())
        .unwrap_or(&cwd)
        .to_path_buf()
}

/// Escapes `s` for a JSON string literal — `\"`, `\\`, and `\u00XX`
/// for a byte below 0x20 — which [`Scanner::string`] undoes. Everything
/// up to the next such byte is copied in one piece (all of them are
/// ASCII, so none occurs inside a multi-byte sequence).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest
        .bytes()
        .position(|b| matches!(b, b'"' | b'\\') || b < 0x20)
    {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out
}

// ---------------------------------------------------------------------
// Minimal JSON reader for the document `write_json` emits.
// ---------------------------------------------------------------------

/// One scalar field value of a flat results object.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Str(String),
    Num(f64),
    Bool(bool),
}

impl JsonValue {
    fn as_str(&self, key: &str) -> Result<&str, String> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(format!("field {key:?} is not a string: {other:?}")),
        }
    }

    fn as_f64(&self, key: &str) -> Result<f64, String> {
        match self {
            JsonValue::Num(x) => Ok(*x),
            other => Err(format!("field {key:?} is not a number: {other:?}")),
        }
    }

    /// Numbers travel as `f64`, which carries integers exactly only
    /// below 2^53: a negative, fractional or larger value is an error,
    /// not a silently different `u64`.
    fn as_u64(&self, key: &str) -> Result<u64, String> {
        const EXACT: f64 = (1u64 << 53) as f64;
        let x = self.as_f64(key)?;
        if (0.0..EXACT).contains(&x) && x.fract() == 0.0 {
            Ok(x as u64)
        } else {
            Err(format!(
                "field {key:?} is not an unsigned integer below 2^53: {x}"
            ))
        }
    }

    fn as_bool(&self, key: &str) -> Result<bool, String> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(format!("field {key:?} is not a bool: {other:?}")),
        }
    }
}

/// Cursor over the JSON text. `pos` only ever stops after an ASCII
/// byte or a whole run of string content, so it stays on a character
/// boundary of `src`.
struct Scanner<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(src: &'a str) -> Self {
        Scanner { src, pos: 0 }
    }

    /// A cursor just past `"key":`, at the field's value.
    fn after_key(src: &'a str, key: &str) -> Result<Self, String> {
        let quoted = format!("\"{key}\"");
        let start = src
            .find(&quoted)
            .ok_or_else(|| format!("document has no {quoted} field"))?;
        let mut sc = Scanner::new(src);
        sc.pos = start + quoted.len();
        sc.expect(b':')?;
        Ok(sc)
    }

    fn byte_at(&self, pos: usize) -> Option<u8> {
        self.src.as_bytes().get(pos).copied()
    }

    fn skip_ws(&mut self) {
        while self
            .byte_at(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte_at(self.pos)
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                other.map(|c| c as char)
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or escape is copied in one
            // piece, multi-byte UTF-8 included (neither delimiter occurs
            // inside a sequence): the scan is linear in the string, and
            // `src` needs no second validation.
            let rest = &self.src[self.pos..];
            let plain = rest
                .bytes()
                .position(|b| matches!(b, b'"' | b'\\'))
                .ok_or("unterminated string")?;
            out.push_str(&rest[..plain]);
            self.pos += plain;
            if rest.as_bytes()[plain] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            let esc = self
                .byte_at(self.pos + 1)
                .ok_or("unterminated escape sequence")?;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .src
                        .as_bytes()
                        .get(self.pos + 2..self.pos + 6)
                        .ok_or("truncated \\u escape")?;
                    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    self.pos += 4;
                }
                other => return Err(format!("unsupported escape \\{}", other as char)),
            }
            self.pos += 2;
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.src[self.pos..].starts_with("true") => {
                self.pos += 4;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') if self.src[self.pos..].starts_with("false") => {
                self.pos += 5;
                Ok(JsonValue::Bool(false))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                while self.byte_at(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let raw = &self.src[start..self.pos];
                raw.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|e| format!("bad number {raw:?}: {e}"))
            }
            other => Err(format!(
                "unsupported JSON value starting with {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// `open item, item, ... close` (possibly empty), one `item` call
    /// per element.
    fn list(
        &mut self,
        (open, close): (u8, u8),
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or {:?} at byte {}, found {:?}",
                        close as char,
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    /// One flat `{"key": scalar, ...}` object.
    fn flat_object(&mut self) -> Result<Fields, String> {
        let mut fields = Fields::new();
        self.list((b'{', b'}'), |sc| {
            let key = sc.string()?;
            sc.expect(b':')?;
            fields.push((key, sc.value()?));
            Ok(())
        })?;
        Ok(fields)
    }
}

/// The scalar fields of one flat results object, in document order.
type Fields = Vec<(String, JsonValue)>;

/// The value of `key` in `fields`; a missing field is an error.
fn field<'a>(fields: &'a Fields, key: &str) -> Result<&'a JsonValue, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("result object is missing field {key:?}"))
}

/// The flat objects of the top-level array `key` of a bench document
/// (`{"target": ..., "results": [...]}` is the shape every bench target
/// emits), in order — the one reader behind [`parse_json`] and the
/// paper scorecard.
fn parse_array(src: &str, key: &str) -> Result<Vec<Fields>, String> {
    let mut sc = Scanner::after_key(src, key)?;
    let mut results = Vec::new();
    sc.list((b'[', b']'), |sc| {
        results.push(sc.flat_object()?);
        Ok(())
    })?;
    Ok(results)
}

/// The string value of the top-level field `key`.
pub(crate) fn parse_header_str(src: &str, key: &str) -> Result<String, String> {
    Scanner::after_key(src, key)?.string()
}

/// Parses the array `key` of a document [`write_records`] emitted back
/// into rows. Unknown fields are ignored so the format can grow;
/// missing fields are an error.
pub(crate) fn parse_records<R: Record>(src: &str, key: &str) -> Result<Vec<R>, String> {
    parse_array(src, key)?.iter().map(row_from_fields).collect()
}

/// Parses a `BENCH_regimes.json` document (the exact flat shape
/// [`write_json`] emits) back into rows.
pub fn parse_json(src: &str) -> Result<Vec<RegimeRow>, String> {
    parse_records(src, "results")
}

fn row_from_fields<R: Record>(fields: &Fields) -> Result<R, String> {
    let mut row = R::default();
    for (key, slot) in R::SCHEMA {
        let value = field(fields, key)?;
        match slot(&mut row) {
            Slot::Str(s) => *s = value.as_str(key)?.to_string(),
            Slot::U64(x) => *x = value.as_u64(key)?,
            Slot::Bool(b) => *b = value.as_bool(key)?,
            Slot::F64(x, _) => *x = value.as_f64(key)?,
        }
    }
    Ok(row)
}

// ---------------------------------------------------------------------
// Markdown rendering
// ---------------------------------------------------------------------

/// A GitHub-markdown table: first column left-aligned, the rest
/// right-aligned. The crate's one table renderer — `REPORT.md` and every
/// bench target's stdout go through it.
pub fn md_table<H: AsRef<str>>(headers: &[H], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let headers: Vec<&str> = headers.iter().map(AsRef::as_ref).collect();
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let seps: Vec<&str> = (0..headers.len())
        .map(|i| if i == 0 { ":--" } else { "--:" })
        .collect();
    let _ = writeln!(out, "| {} |", seps.join(" | "));
    for row in rows {
        debug_assert_eq!(row.len(), headers.len());
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// First-occurrence order of `key` over the rows (the sweep emits rows
/// in registry x suite order, so this reconstructs both orderings
/// without the renderer knowing either enumeration).
fn distinct<F: Fn(&RegimeRow) -> String>(rows: &[RegimeRow], key: F) -> Vec<String> {
    let mut seen = Vec::new();
    for r in rows {
        let k = key(r);
        if !seen.contains(&k) {
            seen.push(k);
        }
    }
    seen
}

fn workload_name(r: &RegimeRow) -> String {
    format!("{}/{}", r.family, r.label)
}

fn find<'a>(rows: &'a [RegimeRow], workload: &str, suite: &str) -> Option<&'a RegimeRow> {
    rows.iter()
        .find(|r| workload_name(r) == workload && r.suite == suite)
}

fn fmt_ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

/// Renders `REPORT.md` from the rows of one scaled-regime sweep: one
/// figure-style table per metric, each followed by the prose comparing
/// what the paper predicts with what the simulation shows.
pub fn render_markdown(all_rows: &[RegimeRow]) -> String {
    // Tables 1-5 pivot on the paper-baseline fabric; the off-baseline
    // net axes of the EL-scaling sweep get their own table 6, and the
    // compact-format aggregated-scale cells their own table 7.
    let baseline: Vec<RegimeRow> = all_rows
        .iter()
        .filter(|r| r.is_baseline_axis() && !r.suite.contains("compact"))
        .cloned()
        .collect();
    let rows: &[RegimeRow] = &baseline;
    let workloads = distinct(rows, workload_name);
    let suites = distinct(rows, |r| r.suite.clone());
    let causal_suites: Vec<String> = suites
        .iter()
        .filter(|s| rows.iter().any(|r| &r.suite == *s && r.causal))
        .cloned()
        .collect();
    let mut out = String::new();

    let _ = writeln!(
        out,
        "# Scaled-regime report\n\n\
         *Generated by `cargo bench --bench regimes` from the same sweep\n\
         that writes `BENCH_regimes.json` — regenerate with\n\
         `scripts/verify.sh` (which also asserts this file is current).\n\
         Do not edit by hand.*\n\n\
         Every workload of the `Large` registry (multi-server bursty,\n\
         large seeded halo graphs, the deep-tiling FFT ladder, NAS and\n\
         NetPIPE at the paper's upper rank counts) runs under every\n\
         protocol suite twice: fault-free, and with a **hub failure** —\n\
         the workload's most load-bearing rank (highest-degree halo\n\
         rank, busiest bursty server) killed mid-run. All times are\n\
         virtual (simulated) time.\n"
    );

    // ---- Table 1: piggyback share --------------------------------------
    let _ = writeln!(out, "## 1. Piggyback share across traffic shapes\n");
    let _ = writeln!(
        out,
        "Piggybacked causality bytes as a percentage of all exchanged\n\
         bytes (the paper's Figure 7 metric), fault-free runs, causal\n\
         suites only — the other suites move no piggyback.\n"
    );
    let mut headers = vec!["workload (np)".to_string()];
    headers.extend(causal_suites.iter().cloned());
    let mut body = Vec::new();
    for w in &workloads {
        let mut row = Vec::new();
        let np = rows
            .iter()
            .find(|r| workload_name(r) == *w)
            .map(|r| r.np)
            .unwrap_or(0);
        row.push(format!("{w} ({np})"));
        for s in &causal_suites {
            row.push(match find(rows, w, s) {
                Some(r) => format!("{:.2}", r.pb_percent),
                None => "-".into(),
            });
        }
        body.push(row);
    }
    out.push_str(&md_table(&headers, &body));
    let _ = writeln!(
        out,
        "\nThe paper predicts piggyback share is a property of the\n\
         *traffic shape*, not of the application: many small messages\n\
         mean proportionally more causality per wire byte. The sweep\n\
         reproduces that spread — the FFT ladder shows it within one\n\
         application: the monolithic transpose (`.t1`) amortizes its\n\
         piggyback to almost nothing, while the same grid at 32 tiles\n\
         multiplies the message count and pushes the share up by an\n\
         order of magnitude. The Event Logger columns sit below their\n\
         no-EL twins on every row: acknowledgements let senders trim\n\
         determinants that are safely logged, exactly the effect the\n\
         paper attributes to the EL.\n"
    );

    // ---- Table 2: piggyback management time ----------------------------
    let _ = writeln!(out, "## 2. Piggyback management time (send / receive)\n");
    let _ = writeln!(
        out,
        "Summed per-rank time spent building and integrating piggyback\n\
         (the Figure 8 metric), in µs as `send/recv`, fault-free runs.\n"
    );
    let mut body = Vec::new();
    for w in &workloads {
        let mut row = vec![w.clone()];
        for s in &causal_suites {
            row.push(match find(rows, w, s) {
                Some(r) => format!("{:.0}/{:.0}", r.pb_send_us, r.pb_recv_us),
                None => "-".into(),
            });
        }
        body.push(row);
    }
    let mut headers = vec!["workload".to_string()];
    headers.extend(causal_suites.iter().cloned());
    out.push_str(&md_table(&headers, &body));
    let _ = writeln!(
        out,
        "\nManagement time tracks determinant *count*, not byte volume:\n\
         the message-storm regimes (CG, deep FFT tiling, the bursty\n\
         service) pay the most, and the EL cuts the bill wherever its\n\
         acks arrive fast enough to keep the causality store small. The\n\
         paper's observation that the reduction technique matters more\n\
         than the raw message rate shows up as the spread between the\n\
         three techniques within one row.\n"
    );

    // ---- Table 3: EL saturation ----------------------------------------
    let _ = writeln!(out, "## 3. Event Logger saturation\n");
    let _ = writeln!(
        out,
        "Gauges from the EL-carrying suites, fault-free runs: peak CPU\n\
         queue depth at any EL shard, peak shipped-but-unacked event\n\
         window of any rank, mean arrival-to-ack latency, and records\n\
         processed. The FFT tiling ladder (`16r.t1` → `16r.t32`) is the\n\
         saturation probe: same grid, same flops, ever more (ever\n\
         smaller) messages.\n"
    );
    let headers = [
        "workload / EL suite",
        "peak queue",
        "peak queue (hub fault)",
        "peak outstanding",
        "mean ack µs",
        "records",
    ];
    let mut body = Vec::new();
    for w in &workloads {
        for s in &suites {
            if let Some(r) = find(rows, w, s) {
                if r.el && r.el_records > 0 {
                    body.push(vec![
                        format!("{w} — {s}"),
                        r.el_peak_queue.to_string(),
                        r.el_peak_queue_faulted.to_string(),
                        r.el_peak_outstanding.to_string(),
                        format!("{:.1}", r.el_ack_mean_us),
                        r.el_records.to_string(),
                    ]);
                }
            }
        }
    }
    out.push_str(&md_table(&headers, &body));
    let _ = writeln!(
        out,
        "\nThe paper's conclusion warns that one Event Logger becomes a\n\
         bottleneck as the process count grows. The gauges make the\n\
         mechanism visible: down the FFT ladder the record count\n\
         multiplies while payloads shrink, so the single-threaded\n\
         select-loop server falls behind — the un-acked window (peak\n\
         outstanding) widens, and with it the piggyback that can no\n\
         longer be trimmed before sends. Where the mean ack latency\n\
         stays flat but outstanding grows, the bottleneck is the\n\
         *round-trip*, not the server CPU — the regime the paper's\n\
         distributed-EL future work (implemented in `el_multi`)\n\
         addresses. Fault-free, the CPU queue stays near zero by\n\
         construction: the EL's 100 Mb/s receive link paces records\n\
         further apart than the per-record service time. The *hub\n\
         fault* column is where real queueing appears — a recovery\n\
         query's response cost grows with the stored determinant\n\
         count, and records arriving while it is being served wait\n\
         behind it.\n"
    );

    // ---- Table 4: hub-failure recovery ---------------------------------
    let _ = writeln!(out, "## 4. Recovery from a hub failure\n");
    let _ = writeln!(
        out,
        "Virtual makespan in ms: fault-free vs the same run with the\n\
         workload's hub killed mid-run (`faulted`, with the overhead in\n\
         percent). The hub is the highest-degree rank of a halo graph,\n\
         the busiest server of a bursty service, rank 0 elsewhere.\n"
    );
    let headers = [
        "workload (hub)",
        "suite",
        "free ms",
        "faulted ms",
        "overhead",
    ];
    let mut body = Vec::new();
    for w in &workloads {
        for s in &suites {
            if let Some(r) = find(rows, w, s) {
                body.push(vec![
                    format!("{w} (r{})", r.hub_rank),
                    s.clone(),
                    fmt_ms(r.makespan_s),
                    fmt_ms(r.faulted_makespan_s),
                    format!("{:+.0}%", r.recovery_overhead_percent()),
                ]);
            }
        }
    }
    out.push_str(&md_table(&headers, &body));
    let _ = writeln!(
        out,
        "\nKilling the hub is the worst single fault these topologies\n\
         admit: every partner of the victim holds causal state about it,\n\
         so recovery gathers determinants and replayed payloads from the\n\
         widest possible survivor set. The causal suites restart only\n\
         the victim (the paper's Figure 10 scenario) and their overhead\n\
         tracks how much causality the EL had already made stable;\n\
         coordinated checkpointing pays its global-rollback cost\n\
         everywhere, which is why its faulted column grows with rank\n\
         count rather than with hub degree.\n"
    );

    // ---- Table 5: traffic shapes ---------------------------------------
    let _ = writeln!(out, "## 5. Traffic shapes at a glance\n");
    let _ = writeln!(
        out,
        "Fault-free message counts under the first causal EL suite, as\n\
         a shape fingerprint of each regime. Message-size buckets are\n\
         power-of-two ranges: a `max bucket` of `65536` means the\n\
         largest messages fell in `32769..=65536` bytes (the same\n\
         ranges `MsgHistogram`'s debug output prints).\n"
    );
    let headers = ["workload", "np", "messages", "total MB", "max bucket B"];
    let reference_suite = causal_suites.first().cloned().unwrap_or_default();
    let mut body = Vec::new();
    for w in &workloads {
        if let Some(r) = find(rows, w, &reference_suite) {
            body.push(vec![
                w.clone(),
                r.np.to_string(),
                r.messages.to_string(),
                format!("{:.1}", r.total_bytes as f64 / 1e6),
                r.max_msg_bucket.to_string(),
            ]);
        }
    }
    out.push_str(&md_table(&headers, &body));
    let _ = writeln!(
        out,
        "\nFive families, five shapes: NAS kernels alternate compute and\n\
         structured exchanges, NetPIPE is a two-rank ping-pong ladder,\n\
         the bursty service is client-server fan-in with wildcard\n\
         receives, the halo exchange concentrates edges on hub ranks,\n\
         and the FFT ladder converts one shape into another as tiling\n\
         deepens. The protocols never see the application — only this\n\
         traffic — which is why the regime, not the benchmark name,\n\
         predicts every number above.\n"
    );

    // ---- Table 6: EL scaling across fabrics ----------------------------
    let scaling: Vec<&RegimeRow> = {
        let axes_per_cell = |r: &RegimeRow| {
            all_rows
                .iter()
                .filter(|o| workload_name(o) == workload_name(r) && o.suite == r.suite)
                .count()
        };
        all_rows
            .iter()
            .filter(|r| r.el && !r.suite.contains("compact") && axes_per_cell(r) > 1)
            .collect()
    };
    if !scaling.is_empty() {
        let _ = writeln!(out, "## 6. Event Logger scaling across network fabrics\n");
        let _ = writeln!(
            out,
            "The saturation probe (the deepest FFT tiling under the first\n\
             causal EL suite) rerun across every fabric × EL-shard axis of\n\
             the registry. `shard queues` is the peak CPU-queue depth per\n\
             shard, slash-joined in shard order; `EL-fail ms` is the same\n\
             run with one EL shard crashed mid-run and its ranks\n\
             re-sharded onto the survivors (only defined for `el >= 2`).\n"
        );
        let headers = [
            "fabric / EL shards",
            "free ms",
            "EL-fail ms",
            "shard queues",
            "ack peak µs",
            "ack mean µs",
            "records",
        ];
        let mut body = Vec::new();
        for r in &scaling {
            body.push(vec![
                format!("{}/el{}", r.profile, r.el_count),
                fmt_ms(r.makespan_s),
                if r.el_count >= 2 {
                    fmt_ms(r.faulted_makespan_s)
                } else {
                    "-".into()
                },
                if r.el_shard_queues.is_empty() {
                    "-".into()
                } else {
                    r.el_shard_queues.clone()
                },
                format!("{:.1}", r.el_ack_peak_us),
                format!("{:.1}", r.el_ack_mean_us),
                r.el_records.to_string(),
            ]);
        }
        out.push_str(&md_table(&headers, &body));
        let _ = writeln!(
            out,
            "\nThis is the experiment the paper could not run: its testbed\n\
             was fixed at Fast Ethernet, where the 100 Mb/s ingress link\n\
             paces records further apart than the EL's per-record service\n\
             time — the ack *round-trip*, not the EL CPU, bounds the\n\
             un-acked window. On the gigabit fabrics the pacing vanishes:\n\
             records arrive faster than one EL core can log them, the\n\
             per-shard CPU queues above go from zero to double digits,\n\
             and the bottleneck the paper's conclusion predicts for\n\
             larger clusters appears at 16 ranks. Sharding the EL\n\
             (`el4`) splits the arrival stream and drains the queues\n\
             back down — the distributed-EL future work, quantified.\n\
             Losing a shard mid-run costs one detection delay plus the\n\
             re-shard handoff (unacked batches re-shipped to the\n\
             survivor shards), visible as the `EL-fail` column tracking\n\
             the fault-free makespan within a few percent.\n"
        );
    }

    // ---- Table 7: compact piggyback at aggregated client scale ---------
    let compact: Vec<RegimeRow> = all_rows
        .iter()
        .filter(|r| r.suite.contains("compact"))
        .cloned()
        .collect();
    if !compact.is_empty() {
        let _ = writeln!(out, "## 7. Compact piggyback at aggregated client scale\n");
        let _ = writeln!(
            out,
            "The million-client question: does per-message causality\n\
             metadata stay bounded as the client population grows? The\n\
             bursty service reruns under the compact piggyback wire\n\
             format (varint + delta + run-length, with send-side\n\
             pruning below the receiver's known-stable watermark),\n\
             aggregating ever more modeled clients onto the same 24\n\
             physical ranks — the physical message schedule is identical\n\
             across the ladder, only the modeled population changes.\n\
             `pb B/msg` is mean piggyback bytes per delivered message\n\
             (fault-free); `hub-fail ms` kills the busiest server\n\
             mid-run; `EL-fail ms` crashes one of two EL shards.\n"
        );
        let headers = [
            "modeled clients",
            "np",
            "messages",
            "pb B/msg",
            "pb total KB",
            "pb %",
            "free ms",
            "hub-fail ms",
            "EL-fail ms",
        ];
        let labels = distinct(&compact, |r| r.label.clone());
        let mut body = Vec::new();
        for label in &labels {
            let base = compact
                .iter()
                .find(|r| &r.label == label && r.is_baseline_axis());
            let elx = compact
                .iter()
                .find(|r| &r.label == label && r.el_count >= 2);
            let Some(r) = base.or(elx) else { continue };
            let clients: String = label.chars().take_while(char::is_ascii_digit).collect();
            body.push(vec![
                if clients.is_empty() {
                    label.clone()
                } else {
                    clients
                },
                r.np.to_string(),
                r.messages.to_string(),
                format!("{:.1}", r.pb_bytes_per_msg),
                format!("{:.1}", r.pb_bytes_total as f64 / 1e3),
                format!("{:.2}", r.pb_percent),
                fmt_ms(r.makespan_s),
                match base {
                    Some(b) => fmt_ms(b.faulted_makespan_s),
                    None => "-".into(),
                },
                match elx {
                    Some(e) => fmt_ms(e.faulted_makespan_s),
                    None => "-".into(),
                },
            ]);
        }
        out.push_str(&md_table(&headers, &body));
        let _ = writeln!(
            out,
            "\nThe `pb B/msg` column is the result: flat within a few\n\
             percent down the ladder even as the modeled population\n\
             multiplies by thousands, through both failure legs (the\n\
             generator asserts a 10% flatness band per step — each step\n\
             is a 10x population jump, so an O(clients) cost would blow\n\
             through it by orders of magnitude).\n\
             Causality metadata scales with the *physical* communication\n\
             graph — the determinants a rank must carry — not with the\n\
             modeled client count, and the compact format plus\n\
             stability pruning keeps the constant small. This is the\n\
             regime the paper's conclusion reaches toward: causal\n\
             logging priced for clusters far beyond the testbed.\n"
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<RegimeRow> {
        vec![
            RegimeRow {
                family: "halo".into(),
                label: "24r.x5".into(),
                suite: "Vcausal (EL)".into(),
                np: 24,
                causal: true,
                el: true,
                completed: true,
                makespan_s: 0.012345,
                faulted_makespan_s: 0.023456,
                hub_rank: 1,
                pb_percent: 4.56,
                pb_send_us: 120.0,
                pb_recv_us: 80.0,
                messages: 1234,
                total_bytes: 5_000_000,
                max_msg_bucket: 32768,
                el_peak_queue: 3,
                el_peak_queue_faulted: 9,
                el_peak_outstanding: 17,
                el_ack_mean_us: 95.5,
                el_records: 900,
                profile: "fast-ethernet-2005".into(),
                el_count: 1,
                el_shard_queues: "3".into(),
                el_ack_peak_us: 110.0,
                pb_bytes_per_msg: 12.5,
                pb_bytes_total: 15_425,
            },
            RegimeRow {
                family: "halo".into(),
                label: "24r.x5".into(),
                suite: "Vcausal (no EL)".into(),
                np: 24,
                causal: true,
                el: false,
                completed: true,
                makespan_s: 0.013,
                faulted_makespan_s: 0.025,
                hub_rank: 1,
                pb_percent: 9.87,
                pb_send_us: 200.0,
                pb_recv_us: 150.0,
                messages: 1200,
                total_bytes: 5_100_000,
                max_msg_bucket: 32768,
                el_peak_queue: 0,
                el_peak_queue_faulted: 0,
                el_peak_outstanding: 0,
                el_ack_mean_us: 0.0,
                el_records: 0,
                profile: "fast-ethernet-2005".into(),
                el_count: 0,
                el_shard_queues: String::new(),
                el_ack_peak_us: 0.0,
                pb_bytes_per_msg: 42.0,
                pb_bytes_total: 50_400,
            },
        ]
    }

    /// The EL cell of `sample_rows` rerun on an off-baseline net axis,
    /// as the EL-scaling sweep emits it.
    fn scaling_row() -> RegimeRow {
        let mut r = sample_rows().remove(0);
        r.profile = "gigabit".into();
        r.el_count = 4;
        r.el_shard_queues = "12/9/11/10".into();
        r.el_ack_peak_us = 310.0;
        r.makespan_s = 0.011;
        r.faulted_makespan_s = 0.0115;
        r
    }

    /// `write -> parse -> write` of one array through the schema table.
    fn round_trip<R: Record + PartialEq + std::fmt::Debug>(rows: &[R]) {
        let write = |rows: &[R]| {
            let mut json = String::new();
            write_records(&mut json, "results", rows);
            json
        };
        let back: Vec<R> = parse_records(&write(rows), "results").expect("parse back");
        assert_eq!(rows, back);
        assert_eq!(write(rows), write(&back));
    }

    #[test]
    fn json_round_trips() {
        use crate::paper::{ClaimRow, PaperRow};
        round_trip(&sample_rows());
        // BENCH_paper.json's two row types go through the same table
        // walk: strings with quotes, arrows and dashes, a fractional x.
        round_trip(&[PaperRow {
            figure: "6a".into(),
            panel: "P3 -> P2".into(),
            series: "Vcausal (EL)".into(),
            x: "0.167".into(),
            metric: "latency_us".into(),
            value: 161.905,
        }]);
        round_trip(&[ClaimRow {
            id: "9.1".into(),
            claim: "stays \"close\" to Vdummy".into(),
            verdict: "deviates".into(),
            measured: "425 < 0.95 x 803 — the EL ack round trip".into(),
        }]);
    }

    #[test]
    fn parser_rejects_missing_fields() {
        let json = r#"{"target": "regimes", "results": [{"name": "x"}]}"#;
        let err = parse_json(json).unwrap_err();
        assert!(err.contains("missing field"), "{err}");
    }

    #[test]
    fn parser_rejects_numbers_a_u64_field_cannot_carry() {
        // `x as u64` used to turn these into 0, 1 and a rounded
        // neighbour; each is now the same `Err(String)` shape as a
        // missing field.
        let good = write_json(&sample_rows()[..1]);
        assert!(good.contains("\"np\": 24,"), "{good}");
        for bad in ["-1", "1.5", "9007199254740993", "1e300"] {
            let json = good.replace("\"np\": 24,", &format!("\"np\": {bad},"));
            let err = parse_json(&json).unwrap_err();
            assert!(
                err.contains("\"np\"") && err.contains("unsigned integer"),
                "{bad}: {err}"
            );
        }
        // The largest integer an f64 carries exactly still parses.
        let json = good.replace("\"np\": 24,", "\"np\": 9007199254740991,");
        assert_eq!(parse_json(&json).unwrap()[0].np, (1 << 53) - 1);
    }

    #[test]
    fn parser_handles_empty_results() {
        let json = "{\n  \"target\": \"regimes\",\n  \"results\": [\n  ]\n}\n";
        assert_eq!(parse_json(json).unwrap(), Vec::new());
    }

    #[test]
    fn parser_unescapes_strings() {
        // ASCII, 2-, 3- and 4-byte scalars, and everything the writer
        // escapes: quote, backslash, control characters as `\u00XX`.
        let mut rows = sample_rows();
        rows[0].label = "odd \"label\"\\n é → \u{1F980} \n\t\u{1} end".into();
        let json = write_json(&rows);
        let back = parse_json(&json).unwrap();
        assert_eq!(back[0].label, rows[0].label);
        assert_eq!(write_json(&back), json);
        // The two short escapes the writer never emits read the same.
        let short = json.replace("\\u000a", "\\n").replace("\\u0009", "\\t");
        assert_ne!(short, json);
        assert_eq!(parse_json(&short).unwrap(), back);
    }

    /// The literal is what the `chars().flat_map(..)` escaper this one
    /// replaced printed for the same input.
    #[test]
    fn json_escape_keeps_its_bytes_and_reads_back() {
        let mut input = String::from("a\"b\\c");
        input.extend((0u8..0x20).map(char::from));
        input.push_str("é→𝄞\"\\");
        let escaped = json_escape(&input);
        assert_eq!(
            escaped,
            "a\\\"b\\\\c\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\u0009\
             \\u000a\\u000b\\u000c\\u000d\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\
             \\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001fé→𝄞\\\"\\\\"
        );
        let quoted = format!("\"{escaped}\"");
        assert_eq!(Scanner::new(&quoted).string().unwrap(), input);
    }

    #[test]
    fn out_dir_is_the_workspace_root() {
        // cargo runs tests, like bench targets, from the crate directory.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap();
        assert!(root.join("Cargo.lock").exists());
        assert_eq!(out_dir(), root);
    }

    #[test]
    fn parser_rejects_malformed_strings() {
        for (src, want) in [
            (r#""abc"#, "unterminated string"),
            (r#""é→"#, "unterminated string"),
            (r#""ab\"#, "unterminated escape sequence"),
            (r#""a\qb""#, "unsupported escape \\q"),
            (r#""a\é""#, "unsupported escape"),
            (r#""a\u12"#, "truncated \\u escape"),
            (r#""a\u12é""#, "invalid digit"),
            (r#""a\u123é""#, "utf-8"),
            (r#""a\ud800""#, "invalid \\u code point"),
        ] {
            let err = Scanner::new(src).string().unwrap_err();
            assert!(err.contains(want), "{src}: {err}");
        }
    }

    /// The reader is linear in the document. The scanner this replaced
    /// re-validated the rest of the document per string character:
    /// `parse` took 64x `write` at the sweep's 208 rows and the ratio
    /// grew with the row count, to about 600x here; a linear reader
    /// sits near 1.5x at any size, so neither host noise nor a debug
    /// build moves either side across the bound.
    #[test]
    fn parse_time_stays_proportional_to_write_time() {
        let rows: Vec<RegimeRow> = (0..2000)
            .map(|i| {
                let mut r = sample_rows().remove(i % 2);
                r.label = format!("{}r.x{i}", 24 + i);
                r.messages += i as u64;
                r
            })
            .collect();
        let started = std::time::Instant::now();
        let json = write_json(&rows);
        let write = started.elapsed();
        let started = std::time::Instant::now();
        let back = parse_json(&json).unwrap();
        let parse = started.elapsed();
        assert_eq!(back, rows);
        assert!(
            parse <= 50 * write,
            "parse_json took {parse:?} against write_json's {write:?} on {} rows",
            rows.len()
        );
    }

    #[test]
    fn recovery_overhead_guards_degenerate_makespans() {
        let mut r = sample_rows().remove(0);
        assert!((r.recovery_overhead_percent() - 90.0).abs() < 1.0);
        r.makespan_s = 0.0;
        assert_eq!(r.recovery_overhead_percent(), 0.0);
    }

    /// Golden render: the exact markdown emitted for a fixed
    /// `BENCH_regimes.json` fixture. Guards both the pivot logic and
    /// the determinism contract (`verify.sh` diffs the committed
    /// REPORT.md against a regeneration, so any nondeterminism here
    /// would break CI).
    #[test]
    fn renders_the_golden_markdown_tables() {
        let rows = parse_json(&write_json(&sample_rows())).unwrap();
        let md = render_markdown(&rows);
        let expected_t1 = "\
| workload (np) | Vcausal (EL) | Vcausal (no EL) |
| :-- | --: | --: |
| halo/24r.x5 (24) | 4.56 | 9.87 |
";
        assert!(md.contains(expected_t1), "piggyback table drifted:\n{md}");
        let expected_el = "\
| workload / EL suite | peak queue | peak queue (hub fault) | peak outstanding | mean ack µs | records |
| :-- | --: | --: | --: | --: | --: |
| halo/24r.x5 — Vcausal (EL) | 3 | 9 | 17 | 95.5 | 900 |
";
        assert!(md.contains(expected_el), "EL table drifted:\n{md}");
        let expected_rec = "\
| halo/24r.x5 (r1) | Vcausal (EL) | 12.35 | 23.46 | +90% |
| halo/24r.x5 (r1) | Vcausal (no EL) | 13.00 | 25.00 | +92% |
";
        assert!(md.contains(expected_rec), "recovery table drifted:\n{md}");
        // Rendering twice is byte-identical (no hidden state, no time).
        assert_eq!(md, render_markdown(&rows));
        // No scaling rows -> no table 6; no compact rows -> no table 7.
        assert!(!md.contains("## 6."), "table 6 without scaling rows:\n{md}");
        assert!(!md.contains("## 7."), "table 7 without compact rows:\n{md}");
    }

    /// Rows of the aggregated-bursty compact sweep, as the `regimes`
    /// bench emits them: one baseline-axis cell (free + hub fault) and
    /// one el2 off-baseline cell (free + EL-shard fault) per ladder
    /// entry.
    fn compact_rows() -> Vec<RegimeRow> {
        let mut base = sample_rows().remove(0);
        base.family = "bursty".into();
        base.label = "1008c.3s.x3.agg48".into();
        base.suite = "MPICH-Vcausal (Vcausal, EL, compact)".into();
        base.pb_bytes_per_msg = 9.2;
        base.pb_bytes_total = 11_353;
        let mut elx = base.clone();
        elx.el_count = 2;
        elx.el_shard_queues = "2/1".into();
        elx.faulted_makespan_s = 0.024;
        vec![base, elx]
    }

    #[test]
    fn compact_rows_render_table_7() {
        let mut rows = sample_rows();
        rows.extend(compact_rows());
        let back = parse_json(&write_json(&rows)).unwrap();
        assert_eq!(rows, back, "pb columns must round-trip");

        let md = render_markdown(&rows);
        let expected_t7 = "\
| modeled clients | np | messages | pb B/msg | pb total KB | pb % | free ms | hub-fail ms | EL-fail ms |
| :-- | --: | --: | --: | --: | --: | --: | --: | --: |
| 1008 | 24 | 1234 | 9.2 | 11.4 | 4.56 | 12.35 | 23.46 | 24.00 |
";
        assert!(md.contains(expected_t7), "table 7 drifted:\n{md}");
        // Compact cells live only in table 7: tables 1-5 must not grow
        // a compact suite column, and the el1/el2 axis pair must not
        // leak into table 6's scaling pivot.
        let expected_t1 = "\
| workload (np) | Vcausal (EL) | Vcausal (no EL) |
| :-- | --: | --: |
| halo/24r.x5 (24) | 4.56 | 9.87 |
";
        assert!(
            md.contains(expected_t1),
            "compact leaked into table 1:\n{md}"
        );
        assert!(
            !md.contains("## 6."),
            "compact axis pair leaked into table 6:\n{md}"
        );
        assert_eq!(md, render_markdown(&rows));
    }

    #[test]
    fn off_baseline_rows_get_axis_suffixed_names_and_table_6() {
        let mut rows = sample_rows();
        rows.push(scaling_row());
        assert_eq!(rows[0].name(), "halo/24r.x5/Vcausal (EL)");
        assert_eq!(
            rows[2].name(),
            "halo/24r.x5/Vcausal (EL)@gigabit/el4",
            "off-baseline cells must stay unique in the JSON grid"
        );
        let back = parse_json(&write_json(&rows)).unwrap();
        assert_eq!(rows, back, "new columns must round-trip");

        let md = render_markdown(&rows);
        // Tables 1-5 pivot on the baseline axis only: the piggyback
        // table still has exactly one halo row.
        let expected_t1 = "\
| workload (np) | Vcausal (EL) | Vcausal (no EL) |
| :-- | --: | --: |
| halo/24r.x5 (24) | 4.56 | 9.87 |
";
        assert!(md.contains(expected_t1), "baseline pivot drifted:\n{md}");
        // Both axes of the EL cell land in table 6, shard gauges intact.
        let expected_t6 = "\
| fabric / EL shards | free ms | EL-fail ms | shard queues | ack peak µs | ack mean µs | records |
| :-- | --: | --: | --: | --: | --: | --: |
| fast-ethernet-2005/el1 | 12.35 | - | 3 | 110.0 | 95.5 | 900 |
| gigabit/el4 | 11.00 | 11.50 | 12/9/11/10 | 310.0 | 95.5 | 900 |
";
        assert!(md.contains(expected_t6), "EL-scaling table drifted:\n{md}");
        assert_eq!(md, render_markdown(&rows));
    }
}
