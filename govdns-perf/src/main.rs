//! `govdns-bench`, the campaign benchmark's command line.
//!
//! ```text
//! govdns-bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! govdns-bench [all|W] [--seed N] [--seconds S] [--out DIR]
//! govdns-bench compare BASE.json NEW.json [BASE.json NEW.json ...] [--bench FILE]
//! ```
//!
//! The first form runs one workload in this process, untraced (the
//! end-to-end metrics) or traced (the per-layer ledger), and ends its
//! output with one JSON result line. The second runs each named
//! workload untraced and then traced, each run in a child process of
//! its own so `peak_rss_mb` is per workload, and writes
//! `DIR/results.json`. The third judges `(parent, change)` pairs of
//! such files against the bounds in `BENCHMARK.json`.
//!
//! Exit status: 0 when every check passed (for `compare`: nothing
//! regressed), 1 otherwise, 2 on a usage error.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use govdns_perf::workload::{self, DEFAULT_SEED};
use govdns_perf::{compare, json, ledger, sys, Plan, Workload};

/// Timed-phase length when none is given, seconds; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: u64 = 10;

const USAGE: &str =
    "usage: govdns-bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       govdns-bench [all|probe|chaos|durable|analysis] [--seed N] [--seconds S] [--out DIR]
       govdns-bench compare BASE.json NEW.json [BASE.json NEW.json ...] [--bench FILE]";

struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    const VALUED: [&str; 6] = ["--workload", "--seed", "--seconds", "--trace", "--out", "--bench"];
    let mut out = Args { positional: Vec::new(), options: BTreeMap::new() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = VALUED.iter().find(|f| **f == arg) {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            out.options.insert((*flag).to_owned(), value.clone());
        } else if arg.starts_with("--") {
            return Err(format!("unknown option {arg}"));
        } else {
            out.positional.push(arg.clone());
        }
    }
    Ok(out)
}

impl Args {
    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.options.get(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{flag} {v} is not a valid number"))
        })
    }

    fn out(&self) -> PathBuf {
        PathBuf::from(self.options.get("--out").map_or(".bench_out", String::as_str))
    }
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        match (args.options.get("--workload"), args.positional.first().map(String::as_str)) {
            (Some(w), None) => run_one(&args, workload(w)?),
            (None, Some("compare")) => run_compare(&args),
            (None, Some("all") | None) => run_children(&args, &Workload::ALL),
            (None, Some(w)) if args.positional.len() == 1 => run_children(&args, &[workload(w)?]),
            _ => Err("give either --workload or one command".to_owned()),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("govdns-bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One run in this process; true when every check passed.
fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let seconds = args.number("--seconds", DEFAULT_SECONDS)?;
    let traced = match args.options.get("--trace").map_or("0", String::as_str) {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other} is not 0 or 1")),
    };
    let out = args.out();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let plan = Plan::new(workload, seed, seconds as f64, out);
    let outcome = if traced { ledger::run_traced(&plan) } else { workload::run_untraced(&plan) };
    for failure in &outcome.checks.failures {
        eprintln!("check failed: {failure}");
    }
    print!("{}", outcome.lines());
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

/// Each workload untraced, then traced, each in a child process; true
/// when every child passed its checks.
fn run_children(args: &Args, workloads: &[Workload]) -> Result<bool, String> {
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let seconds = args.number("--seconds", DEFAULT_SECONDS)?;
    let out = args.out();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locate this program: {e}"))?;
    let mut ok = true;
    let mut entries = Vec::new();
    for w in workloads {
        let mut runs = Vec::new();
        for trace in ["0", "1"] {
            let child = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .arg("--out")
                .arg(&out)
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("run {} {}: {e}", exe.display(), w.name()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines.pop().unwrap_or_default();
            for line in lines {
                println!("{line}");
            }
            ok &= child.status.success();
            match json::parse(result) {
                Ok(_) => runs.push(result.to_owned()),
                Err(_) => {
                    ok = false;
                    runs.push("null".to_owned());
                }
            }
        }
        entries.push(format!(
            "    {}: {{\"scale\": {}, \"workers\": {}, \"untraced\": {}, \"traced\": {}}}",
            json::quote(w.name()),
            json::number(w.scale()),
            w.workers(),
            runs[0],
            runs[1]
        ));
    }
    let stamp = format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"seed\": {seed}, \"seconds\": {seconds}}}",
        sys::nproc(),
        json::quote(&sys::cpu_model())
    );
    let doc = format!(
        "{{\n  \"stamp\": {stamp},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        entries.join(",\n")
    );
    let path = out.join("results.json");
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{} {}", if ok { "ok" } else { "FAILED" }, path.display());
    Ok(ok)
}

fn read_json(path: &Path) -> Result<json::Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Judges `(parent, change)` result pairs; true when nothing regressed.
fn run_compare(args: &Args) -> Result<bool, String> {
    let files = &args.positional[1..];
    if files.is_empty() || !files.len().is_multiple_of(2) {
        return Err("compare takes (parent, change) pairs of results.json files".to_owned());
    }
    let bench = read_json(Path::new(args.options.get("--bench").map_or("BENCHMARK.json", |s| s)))?;
    let (rules, workloads) = compare::rules(&bench)?;
    let docs = files.iter().map(|f| read_json(Path::new(f))).collect::<Result<Vec<_>, _>>()?;
    let pairs: Vec<(json::Json, json::Json)> =
        docs.chunks(2).map(|p| (p[0].clone(), p[1].clone())).collect();
    // Only the workloads the runs measured.
    let present: Vec<String> = workloads
        .into_iter()
        .filter(|w| pairs[0].0.get("workloads").and_then(|ws| ws.get(w)).is_some())
        .collect();
    let verdicts = compare::compare(&rules, &present, &pairs)?;
    println!("workload metric parent[q1 median q3] change[q1 median q3] win_share pairs verdict");
    for v in &verdicts {
        println!(
            "{} {} [{} {} {}] [{} {} {}] {:.2} {} {}",
            v.workload,
            v.metric,
            v.parent.q1,
            v.parent.median,
            v.parent.q3,
            v.change.q1,
            v.change.median,
            v.change.q3,
            v.win_share,
            v.pairs,
            v.verdict
        );
    }
    Ok(verdicts.iter().all(|v| v.verdict != "regressed"))
}
