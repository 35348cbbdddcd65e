//! `ncx-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics untraced, the per-layer metrics traced. The run's
//! environment and operation summaries go to standard error.

use ncx_perfbench::measure::{self, result_json};
use ncx_perfbench::workloads::{self, Args, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The run's scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ncx-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal_before = measure::steal_ticks();
    eprintln!(
        "env: workload={} seed={} seconds={} trace={} nproc={} loadavg={} profile={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        measure::load_average(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        measure::git_commit(),
    );
    let work = WorkDir(PathBuf::from(".bench_work").join(format!("run-{}", std::process::id())));
    let outcome = workloads::run(&args, &work.0);
    drop(work);
    // Removed only when no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");
    eprintln!(
        "env: steal_ticks_before={steal_before} steal_ticks_after={} loadavg={} wall_s={:.1}",
        measure::steal_ticks(),
        measure::load_average(),
        started.elapsed().as_secs_f64()
    );
    for note in outcome.tally.notes() {
        eprintln!("failed: {note}");
    }
    let metrics = match &outcome.per_layer {
        Some(layer) => {
            eprintln!("traced end-to-end: {}", outcome.end_to_end.to_json());
            layer
        }
        None => &outcome.end_to_end,
    };
    println!(
        "{}",
        result_json(
            outcome.answers_checked,
            outcome.tally.attempted,
            outcome.tally.failed,
            metrics
        )
    );
    ExitCode::SUCCESS
}
