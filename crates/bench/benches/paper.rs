//! The paper's evaluation — Figures 1, 3, 6a, 6b, 7, 8, 9 and 10 and
//! the claims made about them — as one sweep over the figure table in
//! [`vlog_bench::paper`].
//!
//! Prints the scorecard and writes `BENCH_paper.json`, a committed
//! artifact: `scripts/verify.sh` regenerates it at the default scale
//! and requires a byte-identical result. The `regimes` target renders
//! it as section 0 of `REPORT.md`. `VLOG_SCALE` is recorded in the
//! file, so a quick- or full-scale run shows up as a diff.

use vlog_bench::paper::{render_scorecard, PaperReport};
use vlog_bench::{default_threads, out_dir, Scale};

fn main() {
    let report = PaperReport::generate(Scale::from_env(), default_threads());
    print!("{}", render_scorecard(&report));
    let path = out_dir().join("BENCH_paper.json");
    match std::fs::write(&path, report.write_json()) {
        Ok(()) => println!("bench report: {}", path.display()),
        Err(e) => eprintln!("bench report: failed to write {}: {e}", path.display()),
    }
}
