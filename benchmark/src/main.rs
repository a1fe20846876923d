//! The vsim benchmark: five workloads, end-to-end and per-layer metrics,
//! a traced run. See `README.md` beside this package.
//!
//! ```text
//! vsim-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! vsim-benchmark --seed <u64> [--trace]        every workload, one after the other
//! vsim-benchmark --compare a.json b.json       do two result files agree?
//! vsim-benchmark --manifest                    print BENCHMARK.json
//! ```
//!
//! An end-to-end run (`--trace 0`) measures in several child processes
//! of this binary (`--part i/n`, see `workloads`) and reports the medians
//! over all of them; the traced run is one process.
//!
//! All inputs come from `--seed`. The program under test receives only
//! generated inputs, and the benchmark reaches it only through public
//! functions of the layer crates.

mod compare;
mod json;
mod metrics;
mod stats;
mod synth;
mod trace;
mod verify;
mod workloads;

use metrics::{Pieces, Report, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Config;

/// Seed and run length when the command line names none.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 10;

struct Args {
    workload: Option<String>,
    /// `--part i/n`: this process is one part of an end-to-end run.
    part: Option<(usize, usize)>,
    seed: u64,
    seconds: u64,
    trace: bool,
    compare: Option<(String, String)>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        part: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        compare: None,
        manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--part" => {
                let v = value("i/n")?;
                let part =
                    v.split_once('/').and_then(|(i, n)| Some((i.parse().ok()?, n.parse().ok()?)));
                args.part = Some(part.filter(|(i, n)| i < n).ok_or(format!("--part: bad `{v}`"))?);
            }
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "--manifest" => args.manifest = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = it.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// `benchmark/out/`, created if need be: beside the manifest cargo ran,
/// else beside the one this binary was built from.
fn out_dir() -> Result<PathBuf, String> {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let out = Path::new(&manifest_dir).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(out)
}

/// First line a command prints, or "unknown".
fn first_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The environment block of a result file.
fn environment(args: &Args, out: &Path) -> String {
    let dir = out.parent().unwrap_or(out);
    format!(
        "{{\"nproc\": {}, \"rustc\": {}, \"git_sha\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"flush_policy\": \"SaveProtocol::Rename, fsync of file and directory as shipped\", \
         \"loop\": \"closed, 1 client for latency, nproc workers for throughput\", \
         \"op_counts_per_10s\": {}}}",
        vsim_parallel::worker_count(),
        json::string(&first_line("rustc", &["-V"], dir)),
        json::string(&first_line("git", &["rev-parse", "HEAD"], dir)),
        args.seed,
        args.seconds,
        args.trace,
        workloads::loads(),
    )
}

fn result_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("result_{workload}{}.json", if trace { "_trace" } else { "" }))
}

/// The workload's name as the tables spell it, and its parts.
fn workload(name: &str, seconds: u64) -> Result<(&'static str, usize), String> {
    let fixed = WORKLOADS.iter().find(|w| w.name == name).map(|w| w.name);
    fixed.zip(workloads::parts(name, seconds)).ok_or(format!("unknown workload `{name}`"))
}

/// One part of an end-to-end run: measure, print the pieces, exit.
fn run_part(args: &Args, name: &str, (part, parts): (usize, usize)) -> Result<ExitCode, String> {
    workload(name, args.seconds)?;
    // Every part draws inputs of its own, so that a run's medians are
    // over several databases and no seed's run hangs on one of them.
    let seed = args.seed.wrapping_add(part as u64 * 0xd1b5_4a32_d192_ed03);
    let cfg = Config { seed, seconds: args.seconds, out: out_dir()?, part, parts };
    let mut pieces = Pieces::default();
    workloads::timed(name, &cfg, &mut pieces);
    pieces.push("peak_rss_mb", peak_rss_mb());
    println!("{}", pieces.to_json());
    Ok(ExitCode::SUCCESS)
}

/// An end-to-end run: every part in a child process of its own, one
/// after the other, their pieces pooled.
fn end_to_end(args: &Args, name: &'static str, parts: usize) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut pieces = Pieces::default();
    for part in 0..parts {
        let child = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--part", &format!("{part}/{parts}")])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        if !child.status.success() {
            return Err(format!("part {part} of {name} exited with {}", child.status));
        }
        let stdout = String::from_utf8_lossy(&child.stdout);
        pieces.absorb(
            stdout.lines().last().ok_or(format!("part {part} of {name} printed nothing"))?,
        )?;
    }
    Ok(pieces.into_report(name))
}

fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let (name, parts) = workload(name, args.seconds)?;
    let out = out_dir()?;
    let report = if args.trace {
        let cfg =
            Config { seed: args.seed, seconds: args.seconds, out: out.clone(), part: 0, parts: 1 };
        let (report, spans) = workloads::traced(name, &cfg);
        let path = out.join(format!("trace_{name}.json"));
        trace::write(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        report
    } else {
        end_to_end(args, name, parts)?
    };
    let file = format!(
        "{{\n  \"env\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        environment(args, &out),
        report.to_json()
    );
    let path = result_path(&out, name, args.trace);
    std::fs::write(&path, file).map_err(|e| format!("{}: {e}", path.display()))?;
    print!("{}", report.table());
    println!("{}", report.result_line());
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each through a child process that runs it as
/// `--workload` would, results merged into one file for `--compare`.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = out_dir()?;
    let mut merged = Vec::new();
    let mut env = json::Value::Null;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("workload {} exited with {status}", w.name));
        }
        let path = result_path(&out, w.name, args.trace);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let one = json::parse(&text)?;
        env = one.get("env").cloned().unwrap_or(json::Value::Null);
        merged.extend(
            one.get("workloads").and_then(json::Value::as_arr).unwrap_or_default().to_vec(),
        );
    }
    let trace = if args.trace { "_trace" } else { "" };
    let path = out.join(format!("run_seed{}{trace}.json", args.seed));
    let file = format!("{{\"env\": {env}, \"workloads\": {}}}\n", json::Value::Arr(merged));
    std::fs::write(&path, file).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("all workloads: {}", path.display());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.manifest {
            print!("{}", metrics::manifest(DEFAULT_SECONDS));
            Ok(ExitCode::SUCCESS)
        } else if let Some((a, b)) = &args.compare {
            Ok(if compare::compare(a, b)? { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        } else if let (Some(name), Some(part)) = (&args.workload, args.part) {
            run_part(&args, name, part)
        } else if let Some(name) = &args.workload {
            run_one(&args, name)
        } else {
            run_all(&args)
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("vsim-benchmark: {e}");
        ExitCode::from(2)
    })
}
