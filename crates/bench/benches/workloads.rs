//! Workload-registry sweep: every registered workload configuration
//! under every protocol-suite configuration, fault-free, sharded over
//! worker threads via `run_many`.
//!
//! Prints one table per workload family (makespan, Mflop/s where
//! defined, piggyback share, piggyback management time, message count
//! and the largest message-size bucket) and writes the whole grid to
//! `BENCH_workloads.json` — one `family/label/suite` entry per run, one
//! group per registered family — for CI trend tracking.
//!
//! Scale control: `VLOG_SCALE=quick` sweeps the smoke registry;
//! default/full sweep the default registry.

use std::sync::Arc;

use criterion::{json_escape, out_dir};
use vlog_bench::{default_threads, fmt3, md_table, run_many, Scale, SuiteKind};
use vlog_sim::SimDuration;
use vlog_vmpi::{ClusterConfig, FaultPlan};
use vlog_workloads::{registry, run_workload, RegistryScale, Workload, WorkloadRun, FAMILIES};

fn write_report(rows: &[(String, WorkloadRun)]) {
    let mut json = String::new();
    json.push_str("{\n  \"target\": \"workloads\",\n  \"results\": [\n");
    for (i, (name, run)) in rows.iter().enumerate() {
        let (pb_send, pb_recv) = run.pb_times();
        let extras: Vec<String> = run
            .extra
            .iter()
            .map(|(k, v)| format!("\"{}\": {:.3}", json_escape(k), v))
            .collect();
        let extras = if extras.is_empty() {
            String::new()
        } else {
            format!(", {}", extras.join(", "))
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"completed\": {}, \"makespan_s\": {:.6}, \
             \"mflops\": {:.3}, \"pb_percent\": {:.4}, \"pb_send_us\": {:.1}, \
             \"pb_recv_us\": {:.1}, \"messages\": {}, \"total_bytes\": {}, \
             \"max_msg_bucket\": {}{}}}{}\n",
            json_escape(name),
            run.report.completed,
            run.report.makespan.as_secs_f64(),
            run.mflops(),
            run.piggyback_percent(),
            pb_send.as_micros_f64(),
            pb_recv.as_micros_f64(),
            run.report.stats.messages,
            run.report.stats.total_bytes(),
            run.msg_histogram().max_bucket_bytes(),
            extras,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = out_dir().join("BENCH_workloads.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nbench report: {}", path.display()),
        Err(e) => eprintln!("bench report: failed to write {}: {e}", path.display()),
    }
}

fn main() {
    let reg_scale = match Scale::from_env() {
        Scale::Quick => RegistryScale::Smoke,
        _ => RegistryScale::Default,
    };
    let workloads = registry(reg_scale);
    let suites = SuiteKind::all_eight();
    println!(
        "workload-registry sweep: {} workloads x {} suites, fault-free, checkpoints every 25 ms",
        workloads.len(),
        suites.len()
    );

    let jobs: Vec<(Arc<dyn Workload>, SuiteKind)> = workloads
        .iter()
        .flat_map(|w| suites.iter().map(move |&k| (w.clone(), k)))
        .collect();
    let runs = run_many(jobs, default_threads(), |(w, kind)| {
        let mut cfg = ClusterConfig::new(w.np());
        cfg.event_limit = Some(2_000_000_000);
        let run = run_workload(
            w.as_ref(),
            &cfg,
            kind.build(SimDuration::from_millis(25)),
            &FaultPlan::none(),
        );
        assert!(
            run.report.completed,
            "{} under {} did not complete",
            run.label,
            kind.label()
        );
        let name = format!("{}/{}/{}", run.family, run.label, kind.label());
        (name, run)
    });

    // One table per family, rows = (workload, suite) cells.
    for family in FAMILIES {
        let rows: Vec<&(String, WorkloadRun)> =
            runs.iter().filter(|(_, r)| r.family == family).collect();
        if rows.is_empty() {
            continue;
        }
        let headers = [
            "workload", "suite", "makespan", "Mflop/s", "pb %", "pb send", "pb recv", "msgs",
            "max msg",
        ];
        let mut table = Vec::new();
        for (_, run) in rows {
            let (pb_send, pb_recv) = run.pb_times();
            let mflops = run.mflops();
            table.push(vec![
                run.label.clone(),
                run.report.suite.clone(),
                format!("{}", run.report.makespan),
                if mflops > 0.0 {
                    fmt3(mflops)
                } else {
                    "-".into()
                },
                format!("{:.2}", run.piggyback_percent()),
                format!("{pb_send}"),
                format!("{pb_recv}"),
                run.report.stats.messages.to_string(),
                format!("{}B", run.msg_histogram().max_bucket_bytes()),
            ]);
        }
        println!("\nfamily: {family}\n\n{}", md_table(&headers, &table));
    }

    write_report(&runs);
}
