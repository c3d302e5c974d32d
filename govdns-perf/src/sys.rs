//! Process-wide CPU time and peak memory, read from `/proc/self`.

/// Clock ticks per second of the `/proc` CPU counters. Linux reports
/// them in `USER_HZ`, which is 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// CPU time this process has used so far (user + system, all threads),
/// seconds, at the kernel's 10 ms tick resolution.
///
/// # Panics
///
/// Panics if `/proc/self/stat` is missing or malformed: the benchmark
/// runs on Linux only.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2 (the command) is parenthesised and may hold spaces: count
    // fields from the last ')'. After it come field 3 (state), ..., 14
    // (utime), 15 (stime).
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields.get(i).and_then(|f| f.parse::<u64>().ok()).expect("numeric CPU field") as f64
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`), megabytes
/// (10^6 bytes).
///
/// # Panics
///
/// Panics if `/proc/self/status` lacks `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 * 1024.0 / 1e6
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
