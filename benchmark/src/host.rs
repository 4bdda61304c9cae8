//! What the benchmark reads from, and scrubs out of, its host process.

/// Names of the `VLOG_*` environment knobs among `vars`. The program
/// under test reads a dozen of them (`VLOG_THREADS`, `VLOG_PB_FORMAT`,
/// `VLOG_PROFILE`, ...); a benchmark run must see generated inputs only.
pub fn vlog_knobs(vars: impl Iterator<Item = String>) -> Vec<String> {
    vars.filter(|name| name.starts_with("VLOG_")).collect()
}

/// Removes every `VLOG_*` knob from this process's environment. Call
/// first thing in `main`, before any thread exists and before the
/// program caches a knob.
pub fn scrub_env() {
    let names = std::env::vars_os().filter_map(|(k, _)| k.into_string().ok());
    for name in vlog_knobs(names) {
        std::env::remove_var(name);
    }
}

fn proc_file(name: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{name}"))
        .unwrap_or_else(|e| panic!("/proc/self/{name}: {e} (the benchmark needs Linux procfs)"))
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = proc_file("status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// User + system CPU seconds of this process, all threads, dead ones
/// included. Kernel clock ticks are 1/100 s on every Linux the
/// benchmark meets, so callers difference it over a whole phase.
pub fn cpu_seconds() -> f64 {
    let stat = proc_file("stat");
    // Fields are counted after the parenthesised command name, which
    // may itself contain spaces: utime and stime are fields 14 and 15.
    let after = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields[i - 3].parse::<f64>().expect("tick count");
    (ticks(14) + ticks(15)) / 100.0
}

/// Worker threads for the sweep workload: the machine's parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_filter_takes_every_vlog_name_and_nothing_else() {
        let vars = [
            "VLOG_THREADS",
            "PATH",
            "VLOG_PB_FORMAT",
            "MY_VLOG_X",
            "VLOG_",
        ];
        let picked = vlog_knobs(vars.iter().map(|s| s.to_string()));
        assert_eq!(picked, ["VLOG_THREADS", "VLOG_PB_FORMAT", "VLOG_"]);
    }

    #[test]
    fn scrub_removes_a_set_knob() {
        // A name no code reads, so parallel tests cannot observe it.
        std::env::set_var("VLOG_BENCHMARK_SELFTEST_KNOB", "1");
        scrub_env();
        assert!(std::env::var_os("VLOG_BENCHMARK_SELFTEST_KNOB").is_none());
        assert!(std::env::vars().all(|(k, _)| !k.starts_with("VLOG_")));
    }

    #[test]
    fn procfs_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5);
        let before = cpu_seconds();
        assert!(before >= 0.0);
        assert!(threads() >= 1);
    }
}
