//! The `govdns` exit-code contract: 0 for a clean run, 1 for a finding
//! the caller gates on, 2 for a usage or input error — and never a
//! panic (101), whatever the argument vector or file, and whenever the
//! reader of its stdout goes away.
//!
//! Every exit-code row is cheap: it fails before a campaign starts, or
//! reads a small archived artifact. The finding paths that need a
//! campaign run in the `ci.sh` smokes. The report views run once each,
//! on a scale-0.002 world.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};

use govdns::prelude::*;

/// A path no file can exist at (its parent is a regular file), so reads
/// and writes fail even for a privileged user.
const MISSING: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/missing");
/// A file that exists but is no artifact of ours.
const NOT_AN_ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
const SMELLS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/smell/smells-seed7.json");

/// Runs `govdns` with `args`; returns its exit code and stderr.
fn govdns(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_govdns"))
        .args(args)
        .output()
        .expect("the govdns binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Runs every row; returns one line per row that panicked, exited
/// with another code, or gave no reason for an error exit.
fn mismatches(code: i32, rows: &[&[&str]]) -> Vec<String> {
    let mut wrong = Vec::new();
    for args in rows {
        let (got, stderr) = govdns(args);
        if got == Some(101) {
            wrong.push(format!("govdns {args:?} panicked:\n{stderr}"));
        } else if got != Some(code) {
            wrong.push(format!("govdns {args:?}: exit {got:?}, want {code}\n{stderr}"));
        } else if code == 2 && !stderr.starts_with("error: ") {
            wrong.push(format!("govdns {args:?} gave no reason:\n{stderr}"));
        }
    }
    wrong
}

fn expect_exit(code: i32, rows: &[&[&str]]) {
    let wrong = mismatches(code, rows);
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn usage_errors_exit_2() {
    expect_exit(
        2,
        &[
            &[],
            &["bogus"],
            &["audit", "--bogus"],
            &["audit", "--scale"],
            &["audit", "--seed", "-5"],
            &["audit", "--seed", "7.5"],
            &["audit", "--workers", "0.5"],
            &["audit", "--scale", "0"],
            &["audit", "--scale", "2.5"],
            // A positional the command does not read, or a missing
            // `--out` value: rejected before a world is generated.
            &["audit", "stray"],
            &["country", "br", "extra"],
            &["hijack", "x"],
            &["audit", "--out"],
            &["hijack", "--out", "x"],
            &["hijack", "--scale", "NaN"],
            &["country"],
            &["country", "zzz"],
            &["remedies", "nope"],
            &["check"],
            &["chaos", "--bogus"],
            &["chaos", "--seed"],
            &["chaos", "--profile", "nope"],
            &["chaos", "--scale", "0"],
            &["resume", "--crash-after", "half"],
            &["resume", "--scale", "0"],
            &["trace", "--bogus"],
            &["trace", "--dst", "not-an-ip"],
            &["trace", "--sample-ppm", "-1"],
            &["trace", "--scale", "0"],
            &["diff"],
            &["diff", "bogus"],
            &["diff", "run", "--bogus"],
            &["diff", "run", "--scale", "0"],
            &["diff", "diff", "a"],
            &["diff", "diff", "a", "b", "--bogus"],
            &["diff", "replay"],
            &["diff", "replay", "--bogus"],
            &["smell"],
            &["smell", "run", "--smell", "nope"],
            &["smell", "run", "--scale", "0"],
            &["smell", "inspect"],
            &["smell", "inspect", SMELLS, "--bogus"],
            // A malformed name is a usage error, not a finding.
            &["smell", "inspect", SMELLS, "--explain", "bad..name"],
            &["smell", "run", "--explain", "bad..name"],
            &["trace", "--explain", "bad..name"],
            &["counterfactual"],
            &["counterfactual", "rank", "--partial", "3/2"],
            &["counterfactual", "rank", "--scale", "0"],
            // Rounds to 0 ppm, which the generator would reject.
            &["counterfactual", "rank", "--scale", "0.0000001"],
            &["counterfactual", "run", "--workers", "-1"],
        ],
    );
}

#[test]
fn unreadable_undecodable_and_unwritable_files_exit_2() {
    expect_exit(
        2,
        &[
            &["check", MISSING],
            &["check", NOT_AN_ARTIFACT],
            &["resume", "--resume", "--journal", MISSING],
            &["resume", "--resume", "--journal", NOT_AN_ARTIFACT],
            &["trace", "--inspect", MISSING],
            &["trace", "--inspect", NOT_AN_ARTIFACT],
            &["diff", "run", "--out", MISSING],
            &["diff", "diff", MISSING, MISSING],
            &["diff", "replay", MISSING],
            &["diff", "replay", NOT_AN_ARTIFACT],
            &["smell", "inspect", MISSING],
            &["smell", "inspect", NOT_AN_ARTIFACT],
            &["counterfactual", "rank", "--journal-dir", MISSING],
        ],
    );
    // An unwritable `--out` is named as a failed write, before the run.
    let (code, stderr) = govdns(&["audit", "--out", MISSING]);
    assert!(code == Some(2) && stderr.starts_with("error: cannot write"), "{code:?}\n{stderr}");

    // Corpus cases whose setup no replay can run: a rate of zero (or one
    // that only wraps to zero as a u32), a zero or out-of-range scale,
    // a retry count past u32, and a domain named twice.
    let case = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/corpus/providers-seed7.json"
    ))
    .expect("the checked-in corpus case");
    let bad = [
        ("\"max_qps\":200", "\"max_qps\":0"),
        ("\"max_qps\":200", "\"max_qps\":4294967296"),
        ("\"scale_ppm\":4000", "\"scale_ppm\":0"),
        ("\"scale_ppm\":4000", "\"scale_ppm\":2000001"),
        ("\"max_attempts\":3", "\"max_attempts\":4294967299"),
        ("\"domain\":\"agri3.gov.mn\"", "\"domain\":\"AGRI23.gov.ua\""),
    ];
    let paths: Vec<String> = bad
        .iter()
        .enumerate()
        .map(|(i, (from, to))| {
            assert!(case.contains(from), "{from}");
            let path = std::env::temp_dir()
                .join(format!("govdns-cli-{}-case{i}.json", std::process::id()));
            std::fs::write(&path, case.replacen(from, to, 1)).expect("temp dir is writable");
            path.to_str().expect("temp paths are UTF-8").to_owned()
        })
        .collect();
    let rows: Vec<[&str; 3]> = paths.iter().map(|p| ["diff", "replay", p.as_str()]).collect();
    let rows: Vec<&[&str]> = rows.iter().map(|r| &r[..]).collect();
    let wrong = mismatches(2, &rows);
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn findings_exit_1() {
    let zone = std::env::temp_dir().join(format!("govdns-cli-{}.zone", std::process::id()));
    // `ns1.` is a single label: the trailing-dot typo the lint warns on.
    std::fs::write(
        &zone,
        "$ORIGIN gov.zz.\n$TTL 3600\n@ IN SOA ns1 hostmaster 1 7200 900 1209600 3600\n\
         @ IN NS ns1.\n",
    )
    .expect("write the zone file");
    let zone_arg = zone.to_str().expect("a UTF-8 temp path");
    let wrong = mismatches(
        1,
        &[&["check", zone_arg], &["smell", "inspect", SMELLS, "--explain", "no.such.domain"]],
    );
    let _ = std::fs::remove_file(&zone);
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn clean_runs_exit_0() {
    // A real trace stays readable with a torn tail.
    let trace = std::env::temp_dir().join(format!("govdns-cli-{}.trace", std::process::id()));
    let path = trace.to_str().expect("temp paths are UTF-8");
    expect_exit(0, &[&["trace", "--scale", "0.002", "--out", path]]);
    let mut bytes = std::fs::read(&trace).expect("the trace was written");
    bytes.extend_from_slice(b"T1 0123");
    std::fs::write(&trace, bytes).expect("temp dir is writable");
    let inspect = ["trace", "--inspect", path, "--domain", "no.such.domain"];
    // `--explain` matches the name, whatever case or trailing dot it
    // was typed with.
    expect_exit(
        0,
        &[
            &["smell", "inspect", SMELLS, "--json"],
            &inspect,
            &["smell", "inspect", SMELLS, "--explain", "AGRI3.GOV.AT."],
            &["trace", "--scale", "0.002", "--explain", "AGRI3.Gov.AT"],
        ],
    );
    let _ = std::fs::remove_file(&trace);
}

/// The report views on a small world with exposure: each `hijack` line
/// ends with the domains it exposes, `country` prints the ten-year PDNS
/// history, and `audit --out` writes the bundle the library writes for
/// the same seed, scale and worker count.
#[test]
fn report_views_carry_what_they_own() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_govdns"))
            .args(args)
            .args(["--scale", "0.002", "--seed", "7", "--workers", "1"])
            .output()
            .expect("the govdns binary runs");
        (out.status.code(), String::from_utf8(out.stdout).expect("stdout is UTF-8"))
    };

    let (code, hijack) = run(&["hijack"]);
    assert_eq!(code, Some(1), "exposure is a finding:\n{hijack}");
    assert!(!hijack.is_empty());
    for line in hijack.lines() {
        let columns: Vec<&str> = line.split('\t').collect();
        assert_eq!(columns.len(), 5, "{line}");
        let count = columns[2].strip_suffix(" domains").and_then(|n| n.parse().ok());
        assert_eq!(Some(columns[4].split(',').count()), count, "{line}");
    }

    let (code, country) = run(&["country", "gb"]);
    assert_eq!(code, Some(0));
    let history: Vec<&str> =
        country.lines().skip_while(|l| !l.starts_with("PDNS history")).skip(1).collect();
    let years: Vec<&str> = history.iter().filter_map(|l| l.trim().split(':').next()).collect();
    assert_eq!(years, (2011..=2020).map(|y| y.to_string()).collect::<Vec<_>>(), "{country}");

    let dir = std::env::temp_dir().join(format!("govdns-cli-audit-{}", std::process::id()));
    let (cli, lib) = (dir.join("cli"), dir.join("lib"));
    let (code, _) = run(&["audit", "--out", cli.to_str().expect("temp paths are UTF-8")]);
    assert_eq!(code, Some(0));
    let world = WorldGenerator::new(WorldConfig::small(7).with_scale(0.002)).generate();
    let matchers = world.catalog.matchers();
    let report = Report::generate(
        &Campaign::new(&world, &matchers),
        RunnerConfig { workers: 1, ..RunnerConfig::default() },
    );
    report.write_csv_bundle(&lib).expect("temp dir is writable");
    // Every file by name, with its hash unless it is telemetry, which
    // carries wall times.
    let files = |dir: &Path| {
        let mut files: Vec<(String, Option<u64>)> = std::fs::read_dir(dir)
            .expect("the bundle was written")
            .map(|e| {
                let name = e.expect("a directory entry").file_name().into_string().unwrap();
                let hash = (!name.starts_with("telemetry")).then(|| {
                    govdns::model::fnv64(&std::fs::read(dir.join(&name)).expect("a file reads"))
                });
                (name, hash)
            })
            .collect();
        files.sort();
        files
    };
    let (from_cli, from_lib) = (files(&cli), files(&lib));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(from_cli, from_lib, "audit --out differs from Report::write_csv_bundle");
}

/// Runs `govdns` with `args`, reads a few bytes of its stdout and then
/// closes the pipe, as `govdns … | head -c 10` does; returns its exit
/// code and stderr.
fn govdns_into_closed_pipe(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_govdns"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the govdns binary runs");
    let mut stdout = child.stdout.take().expect("stdout is piped");
    stdout.read_exact(&mut [0; 10]).expect("govdns writes to stdout");
    drop(stdout);
    let out = child.wait_with_output().expect("govdns exits");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn a_closed_stdout_is_a_clean_exit() {
    let dir = std::env::temp_dir().join(format!("govdns-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let path = |name: &str| dir.join(name).to_str().expect("temp paths are UTF-8").to_owned();
    let (trace, closed, open) = (path("t.trace"), path("closed.json"), path("open.json"));
    expect_exit(0, &[&["trace", "--seed", "7", "--scale", "0.005", "--out", &trace]]);
    fn run(out: &str) -> [&str; 9] {
        ["smell", "run", "--seed", "7", "--scale", "0.005", "--out", out, "--json"]
    }
    // Each writes far more than a pipe buffer holds, so the writes after
    // the reader has gone fail.
    let rows: [&[&str]; 3] =
        [&["smell", "inspect", SMELLS, "--json"], &["trace", "--inspect", &trace], &run(&closed)];
    let mut wrong = Vec::new();
    for args in rows {
        let (got, stderr) = govdns_into_closed_pipe(args);
        if got != Some(0) || stderr.contains("panicked") {
            wrong.push(format!("govdns {args:?} | head: exit {got:?}, want 0\n{stderr}"));
        }
    }
    expect_exit(0, &[&run(&open)]);
    let same =
        std::fs::read(&closed).ok() == Some(std::fs::read(&open).expect("--out was written"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    assert!(same, "--out differs when stdout closes early");
}
