//! `frodo-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints progress and problems on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed`, `metrics`.

use frodo_perfbench::{run, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Scratch files of one run, removed when it ends.
const WORK_ROOT: &str = ".perfbench";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)
        .ok_or_else(|| format!("missing {name}"))?
        .parse()
        .map_err(|_| format!("bad {name}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // the daemon child of a traced run's daemon episode
    if let Some(socket) = flag(&args, "--serve-daemon") {
        return match frodo_perfbench::daemon::serve(socket) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match bench(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &[String]) -> Result<String, String> {
    let workload: String = parse(args, "--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed: u64 = parse(args, "--seed")?;
    let seconds: f64 = parse(args, "--seconds")?;
    let traced = match parse::<u8>(args, "--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let work = PathBuf::from(WORK_ROOT).join(format!("run-{}", std::process::id()));
    let trace_out = traced.then(|| {
        PathBuf::from(WORK_ROOT)
            .join("traces")
            .join(format!("{workload}-seed{seed}.ndjson"))
    });
    let result = run(&workload, seed, seconds, trace_out.as_deref(), &work);
    let _ = std::fs::remove_dir_all(&work);
    let out = result?;
    for problem in &out.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    Ok(out.to_json())
}
