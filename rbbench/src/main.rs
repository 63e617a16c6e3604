//! The benchmark's command line.
//!
//! ```text
//! rbbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--out FILE]
//!     Run NAME (default: all four, reps interleaved) on seed N (default 11)
//!     with N host seconds of timed reps per workload (default: BENCHMARK.json's
//!     run_seconds), then one traced rep per workload unless --trace 0.
//!     Prints the metric table,
//!     writes the full result to FILE (default
//!     rbbench/results/<workload>-seed<N>-trace<T>.json), and ends with the
//!     one-line JSON result. Exit 1 if any experiment failed its checks.
//! rbbench compare A.json B.json
//!     Compare two result files metric by metric; exit 1 if B is worse than
//!     A beyond a bound, lacks a workload or metric of A, or (on the same
//!     seed) differs from A in a simulated output or invariant layer count.
//! ```
//! Usage errors exit 2.

use rb_benchmark::{compare, run, spec, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("rbbench: {msg}");
    eprintln!(
        "usage: rbbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--out FILE]\n       rbbench compare A.json B.json"
    );
    ExitCode::from(2)
}

fn read_doc(path: &str) -> Result<rb_simcore::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    rb_simcore::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage("compare takes two result files");
    };
    let (a, b) = match (read_doc(a), read_doc(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
    };
    let (lines, ok) = compare::compare(&a, &b);
    for l in lines {
        println!("{l}");
    }
    ExitCode::from(u8::from(!ok))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let spec = spec();
    let mut cfg = Config::new(Workload::ALL.to_vec(), 11, spec.run_seconds, true);
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::from_name(value) {
                Some(w) => cfg.workloads = vec![w],
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => cfg.seed = s,
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => cfg.seconds = s,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => cfg.trace = false,
                "1" => cfg.trace = true,
                _ => return usage(&format!("bad trace {value}")),
            },
            "--out" => out = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let report = run(&cfg);
    print!("{}", report.render());
    let label = match cfg.workloads.as_slice() {
        [w] => w.name(),
        _ => "all",
    };
    let out = out.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!(
                "{label}-seed{}-trace{}.json",
                cfg.seed,
                u8::from(cfg.trace)
            ))
    });
    let written = out
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, report.to_json(&spec).render()));
    match written {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("rbbench: cannot write {}: {e}", out.display()),
    }
    println!("{}", report.result_line(&spec));
    ExitCode::from(report.exit_code())
}
