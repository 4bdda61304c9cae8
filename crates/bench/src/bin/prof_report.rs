//! Turns the dump of `scripts/prof/sampler.c` into a profile: self time
//! by layer and by file of the innermost frame under `crates/`, by
//! function, by source file and by crate, and inclusive time of the
//! functions under `crates/`.
//!
//! ```text
//! prof_report <samples.txt>
//! ```
//!
//! `scripts/profile.sh <workload> [seconds]` builds the sampler and the
//! benchmark, runs one workload under it and calls this. Addresses are
//! resolved with binutils' `addr2line -f -i -C`, one process per mapped
//! object, so an inlined function is charged its own samples instead of
//! its caller's — in a release build most of the kernel's hot path is
//! inlined into two or three physical functions. Objects without line
//! tables (libc, libm) resolve to the nearest exported symbol and are
//! listed under the object's name.
//!
//! The layer table charges each sample to the innermost frame on its
//! stack whose file is under `crates/`, through a fixed file → layer map
//! (`layer_of`): time spent in inlined `core`/`alloc`/`std` code or in
//! libc goes to the simulator code that called it.
//!
//! Objects are assumed position-independent (Rust's default, and every
//! shared library): an address is looked up at its distance from the
//! object's lowest mapping.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

use vlog_bench::md_table;

/// One `(function, source file)` of a resolved address. An address
/// inside inlined code resolves to a chain of these, innermost first.
#[derive(Debug)]
struct Location {
    function: String,
    file: String,
}

/// What the sampler wrote: the process's mappings and the samples.
#[derive(Default)]
struct Dump {
    /// `(start, end, object)` per mapping that names a file or region.
    maps: Vec<(u64, u64, usize)>,
    /// `(path, lowest mapped address)` per distinct object.
    objects: Vec<(String, u64)>,
    /// Per sample the interrupted pc, then return addresses outwards.
    samples: Vec<Vec<u64>>,
    dropped: u64,
    depth_cap: usize,
}

fn parse_hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s.trim_start_matches("0x"), 16)
        .map_err(|e| format!("bad address {s:?}: {e}"))
}

fn parse_dump(src: &str) -> Result<Dump, String> {
    let mut dump = Dump::default();
    let mut in_samples = false;
    for line in src.lines() {
        if let Some(header) = line.strip_prefix("# samples ") {
            // "# samples N dropped D depth K"
            let fields: Vec<&str> = header.split_whitespace().collect();
            let [_, "dropped", dropped, "depth", depth] = fields[..] else {
                return Err(format!("unexpected samples header {line:?}"));
            };
            dump.dropped = dropped.parse().map_err(|e| format!("{line:?}: {e}"))?;
            dump.depth_cap = depth.parse().map_err(|e| format!("{line:?}: {e}"))?;
            in_samples = true;
        } else if line.starts_with('#') {
            continue;
        } else if in_samples {
            let frames = line
                .split_whitespace()
                .map(parse_hex)
                .collect::<Result<Vec<_>, _>>()?;
            if !frames.is_empty() {
                dump.samples.push(frames);
            }
        } else {
            // "start-end perms offset dev inode [path]"
            let mut fields = line.split_whitespace();
            let range = fields.next().ok_or("empty maps line")?;
            let Some(path) = fields.nth(4) else { continue };
            let (start, end) = range
                .split_once('-')
                .ok_or_else(|| format!("bad maps range {range:?}"))?;
            let (start, end) = (parse_hex(start)?, parse_hex(end)?);
            let object = match dump.objects.iter().position(|(p, _)| p == path) {
                Some(i) => i,
                None => {
                    dump.objects.push((path.to_string(), start));
                    dump.objects.len() - 1
                }
            };
            dump.objects[object].1 = dump.objects[object].1.min(start);
            dump.maps.push((start, end, object));
        }
    }
    if !in_samples {
        return Err("no `# samples` section: not a sampler dump".into());
    }
    Ok(dump)
}

impl Dump {
    /// The object holding `addr` and the address relative to its base.
    fn locate(&self, addr: u64) -> Option<(usize, u64)> {
        self.maps
            .iter()
            .find(|&&(start, end, _)| (start..end).contains(&addr))
            .map(|&(_, _, object)| (object, addr - self.objects[object].1))
    }
}

/// The address to look frame `depth` of a sample up at: a return address
/// points after its call, which can already be the next line or the next
/// inlined function, so outer frames step back into the call.
fn lookup_addr(depth: usize, addr: u64) -> u64 {
    if depth == 0 {
        addr
    } else {
        addr.saturating_sub(1)
    }
}

/// Parses `addr2line -a -f -i` output: per address an `0x...` line, then
/// a function line and a `file:line` line per inlining level.
fn parse_addr2line(out: &str, object: &str) -> Result<BTreeMap<u64, Vec<Location>>, String> {
    let unknown_file = format!("({})", object.rsplit('/').next().unwrap_or(object));
    let mut resolved = BTreeMap::new();
    let mut current: Option<u64> = None;
    let mut lines = out.lines();
    while let Some(line) = lines.next() {
        if line.starts_with("0x") {
            let addr = parse_hex(line)?;
            resolved.insert(addr, Vec::new());
            current = Some(addr);
            continue;
        }
        let addr = current.ok_or("addr2line output does not start with an address")?;
        let file_line = lines.next().ok_or("addr2line output ends inside a frame")?;
        let file = file_line.rsplit_once(':').map_or(file_line, |(f, _)| f);
        let file = if file.starts_with('?') {
            unknown_file.clone()
        } else {
            tidy_file(file)
        };
        let mut function = tidy_function(line, &unknown_file);
        if !function.contains("::") && function != file {
            // An inlined function carries its bare name (`dispatch`,
            // `{closure#0}`): the file tells namesakes apart.
            function = format!("{function} [{file}]");
        }
        resolved
            .entry(addr)
            .or_default()
            .push(Location { function, file });
    }
    Ok(resolved)
}

/// Drops the legacy mangling's `::h<16 hex digits>` disambiguator.
fn tidy_function(name: &str, unknown: &str) -> String {
    if name.starts_with('?') {
        return unknown.to_string();
    }
    match name.rsplit_once("::h") {
        Some((head, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            head.to_string()
        }
        _ => name.to_string(),
    }
}

/// Repository-relative source path; the standard library's as
/// `library/...`.
fn tidy_file(path: &str) -> String {
    for root in ["/crates/", "/benchmark/", "/vendor/", "/library/"] {
        if let Some(at) = path.rfind(root) {
            return path[at + 1..].to_string();
        }
    }
    path.to_string()
}

/// The crate a tidied source path belongs to.
fn crate_of(file: &str) -> String {
    let mut parts = file.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("vlog-{name}"),
        (Some("benchmark"), _) => "vlog-benchmark".to_string(),
        (Some("vendor" | "library"), Some(name)) => name.to_string(),
        _ => file.to_string(),
    }
}

/// Resolves `addrs` (relative to the object's base) with one addr2line
/// process.
fn symbolise(object: &str, addrs: &BTreeSet<u64>) -> Result<BTreeMap<u64, Vec<Location>>, String> {
    if !std::path::Path::new(object).is_file() {
        // [vdso], [stack], an anonymous region: nothing to read.
        return Ok(BTreeMap::new());
    }
    let mut child = Command::new("addr2line")
        .args(["-a", "-f", "-i", "-C", "-e", object])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run addr2line: {e}"))?;
    let mut stdin = child.stdin.take().expect("stdin was piped");
    // Written from a second thread: addr2line answers as it reads, and
    // both pipes are smaller than either side's whole text.
    let output = std::thread::scope(|s| {
        s.spawn(move || {
            for addr in addrs {
                if writeln!(stdin, "{addr:#x}").is_err() {
                    break;
                }
            }
        });
        child.wait_with_output()
    })
    .map_err(|e| format!("addr2line on {object}: {e}"))?;
    if !output.status.success() {
        return Err(format!("addr2line on {object}: {}", output.status));
    }
    parse_addr2line(&String::from_utf8_lossy(&output.stdout), object)
}

/// `counts` as table rows, largest first (ties by name), at most `top`.
fn rows(counts: &BTreeMap<String, u64>, total: usize, top: usize) -> Vec<Vec<String>> {
    let mut sorted: Vec<(&String, &u64)> = counts.iter().collect();
    sorted.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    sorted
        .into_iter()
        .take(top)
        .map(|(name, &n)| {
            vec![
                name.clone(),
                n.to_string(),
                format!("{:.1}", 100.0 * n as f64 / total as f64),
            ]
        })
        .collect()
}

/// The layer a source file under `crates/` belongs to. The map is fixed
/// and total over the crates it names: each crate has one layer, and the
/// files that own another are listed ahead of it.
fn layer_of(file: &str) -> Option<&'static str> {
    let (krate, path) = file.strip_prefix("crates/")?.split_once('/')?;
    let name = path.rsplit_once('/').map_or(path, |(_, name)| name);
    Some(match (krate, name) {
        ("sim", "calendar.rs") => "calendar",
        ("sim", "net.rs") => "net",
        ("sim", "stats.rs") => "stats",
        ("sim", _) => "kernel",
        ("vmpi", "api.rs" | "collectives.rs") => "workload program",
        ("vmpi", "hooks.rs" | "vdummy.rs") => "protocol",
        ("vmpi", _) => "daemon",
        ("core", "codec.rs" | "piggyback.rs") => "codec",
        ("core", _) => "protocol",
        ("workloads", _) => "workload program",
        ("bench" | "explore", _) => "sweep driver",
        _ => return None,
    })
}

/// What a sample with no frame under `crates/` is charged to.
const NO_CRATES_FRAME: &str = "(no crates/ frame)";
/// What a frame under a crate `layer_of` does not name is charged to.
const NO_LAYER: &str = "(crates/ file with no layer)";

/// Samples counted per row of each table.
#[derive(Default)]
struct Tallies {
    by_function: BTreeMap<String, u64>,
    by_file: BTreeMap<String, u64>,
    by_crate: BTreeMap<String, u64>,
    inclusive: BTreeMap<String, u64>,
    /// By the layer of the innermost frame under `crates/`.
    by_layer: BTreeMap<String, u64>,
    /// By the file of the innermost frame under `crates/`.
    by_crates_file: BTreeMap<String, u64>,
}

/// Every frame of every sample as (object, relative lookup address).
fn locate_all(dump: &Dump) -> Vec<Vec<Option<(usize, u64)>>> {
    dump.samples
        .iter()
        .map(|frames| {
            frames
                .iter()
                .enumerate()
                .map(|(depth, &addr)| dump.locate(lookup_addr(depth, addr)))
                .collect()
        })
        .collect()
}

/// Counts every sample of `located` into each table. `resolved[object]`
/// holds the inline chain of every address located in that object.
fn tally(
    located: &[Vec<Option<(usize, u64)>>],
    resolved: &[BTreeMap<u64, Vec<Location>>],
) -> Tallies {
    let unmapped = [Location {
        function: "(unmapped)".to_string(),
        file: "(unmapped)".to_string(),
    }];
    let chain = |frame: &Option<(usize, u64)>| -> &[Location] {
        match frame {
            Some((object, addr)) => &resolved[*object][addr],
            None => &unmapped,
        }
    };
    let count = |table: &mut BTreeMap<String, u64>, key: &str| {
        *table.entry(key.to_string()).or_insert(0) += 1;
    };
    let mut t = Tallies::default();
    for frames in located {
        let leaf = &chain(&frames[0])[0];
        count(&mut t.by_crate, &crate_of(&leaf.file));
        count(&mut t.by_file, &leaf.file);
        count(&mut t.by_function, &leaf.function);
        let mut in_crates = frames
            .iter()
            .flat_map(&chain)
            .filter(|l| l.file.starts_with("crates/"))
            .peekable();
        let innermost = in_crates.peek().map(|l| l.file.as_str());
        let layer = innermost.map_or(NO_CRATES_FRAME, |f| layer_of(f).unwrap_or(NO_LAYER));
        count(&mut t.by_layer, layer);
        count(&mut t.by_crates_file, innermost.unwrap_or(NO_CRATES_FRAME));
        let on_stack: BTreeSet<&String> = in_crates.map(|l| &l.function).collect();
        for function in on_stack {
            count(&mut t.inclusive, function);
        }
    }
    t
}

fn report(path: &str) -> Result<String, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let dump = parse_dump(&src)?;
    if dump.samples.is_empty() {
        return Err(format!(
            "{path} holds no samples: did the run burn any CPU time?"
        ));
    }

    // One addr2line per object over its distinct addresses.
    let located = locate_all(&dump);
    let mut wanted: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); dump.objects.len()];
    for &(object, addr) in located.iter().flatten().flatten() {
        wanted[object].insert(addr);
    }
    let mut resolved = Vec::with_capacity(dump.objects.len());
    for ((object, _), addrs) in dump.objects.iter().zip(&wanted) {
        let mut chains = symbolise(object, addrs)?;
        // What addr2line cannot read or resolve ([vdso], a deleted file)
        // is charged to the object by name.
        for &addr in addrs {
            let chain = chains.entry(addr).or_default();
            if chain.is_empty() {
                chain.push(Location {
                    function: format!("({object})"),
                    file: format!("({object})"),
                });
            }
        }
        resolved.push(chains);
    }
    let t = tally(&located, &resolved);

    let total = dump.samples.len();
    let capped = dump
        .samples
        .iter()
        .filter(|s| s.len() >= dump.depth_cap)
        .count();
    let mut out = format!(
        "# Profile of {path}\n\n{total} samples ({} dropped after the buffer filled); \
         {capped} reach the {}-frame cap and under-count their outermost callers below.\n",
        dump.dropped, dump.depth_cap
    );
    for (title, first, counts, top) in [
        (
            "Self time by layer (each sample charged to its innermost frame under crates/)",
            "layer",
            &t.by_layer,
            25,
        ),
        (
            "Self time by the source file of the innermost frame under crates/",
            "file",
            &t.by_crates_file,
            25,
        ),
        (
            "Self time by function (inlined code counts as its own function)",
            "function",
            &t.by_function,
            40,
        ),
        ("Self time by source file", "file", &t.by_file, 25),
        ("Self time by crate or object", "crate", &t.by_crate, 25),
        (
            "Inclusive time of functions under crates/ (once per sample they are on the stack of)",
            "function",
            &t.inclusive,
            40,
        ),
    ] {
        out.push_str(&format!("\n## {title}\n\n"));
        out.push_str(&md_table(
            &[first, "samples", "%"],
            &rows(counts, total, top),
        ));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, path] = &args[..] else {
        eprintln!("usage: prof_report <samples.txt>");
        return ExitCode::from(2);
    };
    match report(path) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("prof_report: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUMP: &str = "\
# maps
55d0c0a00000-55d0c0a10000 r--p 00000000 fe:01 42   /repo/target/release/bin
55d0c0a10000-55d0c0b00000 r-xp 0000f000 fe:01 42   /repo/target/release/bin
7f10aa000000-7f10aa100000 rw-p 00000000 00:00 0
7f10ab000000-7f10ab200000 r-xp 00028000 fe:01 77   /usr/lib/libc.so.6
7ffd5a000000-7ffd5a002000 r-xp 00000000 00:00 0    [vdso]
# samples 3 dropped 1 depth 24
0x55d0c0a10040 0x55d0c0a20000
0x7f10ab000010

0x10
";

    #[test]
    fn dump_parses_into_objects_and_relative_addresses() {
        let dump = parse_dump(DUMP).unwrap();
        assert_eq!((dump.dropped, dump.depth_cap), (1, 24));
        // The unfinished (empty) slot is skipped, the rest kept in order.
        assert_eq!(dump.samples.len(), 3);
        assert_eq!(dump.objects.len(), 3);
        // An address is relative to its object's lowest mapping, not to
        // the mapping it falls in.
        assert_eq!(dump.locate(0x55d0_c0a1_0040), Some((0, 0x1_0040)));
        assert_eq!(dump.locate(0x7f10_ab00_0010), Some((1, 0x10)));
        // Anonymous memory and unmapped addresses name no object.
        assert_eq!(dump.locate(0x7f10_aa00_0010), None);
        assert_eq!(dump.locate(0x10), None);
        // Only outer frames step back into their call instruction.
        assert_eq!((lookup_addr(0, 0x40), lookup_addr(1, 0x40)), (0x40, 0x3f));
        assert!(parse_dump("# maps\n").is_err());
    }

    #[test]
    fn addr2line_output_resolves_to_inline_chains() {
        let out = "\
0x0000000000010040
core::ptr::write::h0123456789abcdef
/rustc/5980/library/core/src/ptr/mod.rs:1500
vlog_sim::calendar::Calendar<E>::schedule
/root/repo/crates/sim/src/calendar.rs:210 (discriminator 3)
0x0000000000000010
malloc
??:0
0x0000000000000020
??
??:?
0x0000000000000030
dispatch
/root/repo/crates/sim/src/kernel.rs:700
";
        let resolved = parse_addr2line(out, "/usr/lib/libc.so.6").unwrap();
        let chain = &resolved[&0x1_0040];
        assert_eq!(chain[0].function, "core::ptr::write");
        assert_eq!(chain[0].file, "library/core/src/ptr/mod.rs");
        assert_eq!(
            chain[1].function,
            "vlog_sim::calendar::Calendar<E>::schedule"
        );
        assert_eq!(chain[1].file, "crates/sim/src/calendar.rs");
        assert_eq!(crate_of(&chain[0].file), "core");
        assert_eq!(crate_of(&chain[1].file), "vlog-sim");
        // No line table: the symbol stands, the object names the file.
        assert_eq!(resolved[&0x10][0].function, "malloc [(libc.so.6)]");
        assert_eq!(resolved[&0x10][0].file, "(libc.so.6)");
        assert_eq!(crate_of("(libc.so.6)"), "(libc.so.6)");
        assert_eq!(resolved[&0x20][0].function, "(libc.so.6)");
        assert_eq!(
            resolved[&0x30][0].function,
            "dispatch [crates/sim/src/kernel.rs]"
        );
        assert_eq!(crate_of("benchmark/src/plan.rs"), "vlog-benchmark");
        assert_eq!(crate_of("vendor/rand/src/lib.rs"), "rand");
    }

    #[test]
    fn a_sample_is_charged_to_its_innermost_crates_frame() {
        let dump = parse_dump(
            "\
55d0c0a00000-55d0c0b00000 r-xp 00000000 fe:01 42   /repo/target/release/bin
7f10ab000000-7f10ab200000 r-xp 00028000 fe:01 77   /usr/lib/libc.so.6
# samples 6 dropped 0 depth 24
0x55d0c0a10040
0x7f10ab000010 0x55d0c0a20000
0x55d0c0a30000
0x55d0c0a40000 0x55d0c0a50000
0x55d0c0a60000
0x10
",
        )
        .unwrap();
        let at = |function: &str, file: &str| Location {
            function: function.to_string(),
            file: file.to_string(),
        };
        let bin = BTreeMap::from([
            // Inlined std code inside the calendar: the calendar's.
            (
                0x1_0040,
                vec![
                    at("core::ptr::write", "library/core/src/ptr/mod.rs"),
                    at("Calendar::schedule", "crates/sim/src/calendar.rs"),
                ],
            ),
            // The caller of a libc frame (looked up one byte back).
            (
                0x1_ffff,
                vec![at("SenderLog::insert", "crates/core/src/sender_log.rs")],
            ),
            // The innermost of two crates/ frames in one inline chain.
            (
                0x3_0000,
                vec![
                    at("encode", "crates/core/src/piggyback.rs"),
                    at("CausalProtocol::on_send", "crates/core/src/causal.rs"),
                ],
            ),
            // The benchmark's own code is not under crates/.
            (0x4_0000, vec![at("measure", "benchmark/src/measure.rs")]),
            (0x4_ffff, vec![at("run_many", "crates/bench/src/sweep.rs")]),
            (
                0x6_0000,
                vec![at("new_thing", "crates/newcrate/src/lib.rs")],
            ),
        ]);
        let libc = BTreeMap::from([(0x10, vec![at("malloc", "(libc.so.6)")])]);
        let t = tally(&locate_all(&dump), &[bin, libc]);
        let layers: Vec<(&str, u64)> = t.by_layer.iter().map(|(k, &n)| (k.as_str(), n)).collect();
        assert_eq!(
            layers,
            [
                (NO_LAYER, 1),
                (NO_CRATES_FRAME, 1),
                ("calendar", 1),
                ("codec", 1),
                ("protocol", 1),
                ("sweep driver", 1),
            ]
        );
        assert_eq!(t.by_crates_file["crates/core/src/sender_log.rs"], 1);
        assert_eq!(t.by_crates_file["crates/core/src/piggyback.rs"], 1);
        // Self time and inclusive time are unchanged by the layer table.
        assert_eq!(t.by_crate["(libc.so.6)"], 1);
        assert_eq!(t.inclusive["CausalProtocol::on_send"], 1);
        assert_eq!(t.by_layer.values().sum::<u64>(), 6);
    }

    #[test]
    fn the_layer_map_names_every_crate_and_its_split_files() {
        for (file, layer) in [
            ("crates/sim/src/calendar.rs", "calendar"),
            ("crates/sim/src/kernel.rs", "kernel"),
            ("crates/sim/src/exec.rs", "kernel"),
            ("crates/sim/src/net.rs", "net"),
            ("crates/sim/src/stats.rs", "stats"),
            ("crates/vmpi/src/daemon.rs", "daemon"),
            ("crates/vmpi/src/api.rs", "workload program"),
            ("crates/vmpi/src/vdummy.rs", "protocol"),
            ("crates/core/src/piggyback.rs", "codec"),
            ("crates/core/src/codec.rs", "codec"),
            ("crates/core/src/detseq.rs", "protocol"),
            ("crates/workloads/src/nas/cg.rs", "workload program"),
            ("crates/bench/src/sweep.rs", "sweep driver"),
            ("crates/explore/src/lib.rs", "sweep driver"),
        ] {
            assert_eq!(layer_of(file), Some(layer), "{file}");
        }
        assert_eq!(layer_of("benchmark/src/plan.rs"), None);
        assert_eq!(layer_of("library/core/src/ptr/mod.rs"), None);
    }

    #[test]
    fn rows_rank_by_count_then_name() {
        let counts = BTreeMap::from([
            ("b".to_string(), 2),
            ("a".to_string(), 2),
            ("c".to_string(), 6),
        ]);
        let table = rows(&counts, 10, 2);
        assert_eq!(table, vec![vec!["c", "6", "60.0"], vec!["a", "2", "20.0"]]);
    }
}
