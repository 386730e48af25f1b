//! One cold, untraced campaign in a child process: the child side runs
//! it the way `samr campaign --threads N` does; the parent side spawns
//! it, times it and checks what it wrote.

use crate::workloads::{self, Scale};
use rayon::prelude::*;
use samr_engine::merge::CAMPAIGN_CSV;
use samr_engine::{
    build_thread_pool, cached_model, Campaign, CampaignSpec, CompletionRecord, CAMPAIGN_PARETO,
};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What a campaign child reports on its last stdout line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChildOutput {
    /// Rayon pool width the child ran under.
    pub threads: usize,
    /// Trace generation, spill and model fold for every application.
    pub setup_s: f64,
    /// From the end of set-up to the last artifact byte.
    pub sweep_s: f64,
    /// Process CPU time spent in set-up.
    pub setup_cpu_s: f64,
    /// Process CPU time spent in the sweep.
    pub sweep_cpu_s: f64,
    /// Peak resident set of the child (`VmHWM`), KiB.
    pub peak_rss_kib: u64,
    /// FNV-1a digest of `campaign.csv`.
    pub csv_digest: String,
    /// FNV-1a digest of `campaign.pareto.json`.
    pub pareto_digest: String,
}

/// The files a complete campaign directory holds: a CSV, a JSON summary
/// and a completion record per scenario, plus `campaign.csv`,
/// `campaign.manifest.json` and `campaign.pareto.json`.
fn expected_files(spec: &CampaignSpec) -> usize {
    3 * spec.len() + 3
}

/// Child side: run the campaign cold into `out` on `threads` CPUs and a
/// pool as wide. Set-up is the public `cached_model` call for every
/// distinct application in parallel, exactly as the engine warms its
/// store; the sweep is `Campaign::run_to_dir`.
pub fn child(spec: &CampaignSpec, threads: usize, out: &Path) -> Result<ChildOutput, String> {
    confine_to_cpus(threads)?;
    let pool = build_thread_pool(threads)?;
    let apps = workloads::apps(spec);
    let (setup_s, sweep_s, setup_cpu_s, sweep_cpu_s) = pool.install(|| {
        let cpu0 = cpu_seconds()?;
        let t0 = Instant::now();
        apps.par_iter().for_each(|&app| {
            cached_model(app, &spec.trace);
        });
        let setup_s = t0.elapsed().as_secs_f64();
        let cpu1 = cpu_seconds()?;
        let t1 = Instant::now();
        Campaign::run_to_dir(spec, out).map_err(|e| format!("campaign failed: {e}"))?;
        let sweep_s = t1.elapsed().as_secs_f64();
        let cpu2 = cpu_seconds()?;
        Ok::<_, String>((setup_s, sweep_s, cpu1 - cpu0, cpu2 - cpu1))
    })?;
    let digest = |name: &str| -> Result<String, String> {
        let bytes = std::fs::read(out.join(name)).map_err(|e| format!("read {name}: {e}"))?;
        Ok(CompletionRecord::digest(&bytes))
    };
    Ok(ChildOutput {
        threads,
        setup_s,
        sweep_s,
        setup_cpu_s,
        sweep_cpu_s,
        peak_rss_kib: peak_rss_kib()?,
        csv_digest: digest(CAMPAIGN_CSV)?,
        pareto_digest: digest(CAMPAIGN_PARETO)?,
    })
}

/// A finished campaign child as the parent saw it.
#[derive(Clone, Debug)]
pub struct Finished {
    /// Wall time from spawn to exit.
    pub wall_s: f64,
    /// What the child reported.
    pub out: ChildOutput,
}

/// Parent side: spawn one campaign child with a fresh `TMPDIR` under
/// `dir` (so the shared spill cache starts empty), wait for it, and
/// check that it wrote a complete campaign directory under `dir/out`.
pub fn spawn(
    workload: &str,
    seed: u64,
    scale: Scale,
    threads: usize,
    dir: &Path,
) -> Result<Finished, String> {
    let tmp = dir.join("tmp");
    let out = dir.join("out");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let mut cmd = child_command("campaign", workload, seed, scale, &tmp);
    cmd.args(["--threads", &threads.to_string()])
        .arg("--out")
        .arg(&out);
    let start = Instant::now();
    let output = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn campaign child: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!("campaign child exited with {}", output.status));
    }
    let line = last_line(&output.stdout)?;
    let child: ChildOutput =
        serde_json::from_str(&line).map_err(|e| format!("bad campaign result {line:?}: {e}"))?;
    let spec = workloads::spec(workload, seed, scale)?;
    let files = count_files(&out)?;
    if files != expected_files(&spec) {
        return Err(format!(
            "seed {seed}: wrote {files} files, expected {}",
            expected_files(&spec)
        ));
    }
    Ok(Finished { wall_s, out: child })
}

/// A command re-running this executable as a `mode` child with the
/// workload arguments, a private `TMPDIR` and the engine's tuning
/// overrides removed, so every child starts from the same cold defaults.
pub fn child_command(mode: &str, workload: &str, seed: u64, scale: Scale, tmp: &Path) -> Command {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut cmd = Command::new(exe);
    cmd.env("TMPDIR", tmp)
        .env_remove("SAMR_TRACE_CACHE_BYTES")
        .env_remove("SAMR_STREAM_WINDOW");
    cmd.args([mode, "--workload", workload, "--seed", &seed.to_string()])
        .args(["--scale", scale.name()]);
    cmd
}

/// Confine this process to the first `cpus` CPUs it may run on, so that
/// every thread it starts shares them: the rayon pool, and the PDE row
/// sweeps, which start `available_parallelism` threads of their own per
/// sweep whatever the pool's width. Call it before the process starts
/// any thread (affinity is per thread and inherited).
pub fn confine_to_cpus(cpus: usize) -> Result<(), String> {
    // glibc's `cpu_set_t`: 1024 CPUs.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: both calls get a buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let mut keep = [0u64; WORDS];
    let mut left = cpus;
    for bit in (0..WORDS * 64).filter(|b| allowed[b / 64] >> (b % 64) & 1 == 1) {
        if left == 0 {
            break;
        }
        keep[bit / 64] |= 1 << (bit % 64);
        left -= 1;
    }
    if left > 0 {
        return Err(format!("fewer than {cpus} CPUs to run on"));
    }
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, size, keep.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let now = std::thread::available_parallelism().map_or(1, |n| n.get());
    if now != cpus {
        return Err(format!(
            "available_parallelism is {now} after confining to {cpus} CPUs"
        ));
    }
    Ok(())
}

/// The last non-empty stdout line of a child: its result.
pub fn last_line(stdout: &[u8]) -> Result<String, String> {
    String::from_utf8_lossy(stdout)
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .map(str::to_string)
        .ok_or_else(|| "child printed no result".to_string())
}

/// Number of entries in a directory.
fn count_files(dir: &Path) -> Result<usize, String> {
    Ok(std::fs::read_dir(dir)
        .map_err(|e| format!("list {}: {e}", dir.display()))?
        .count())
}

/// User plus system CPU time of this process so far, from
/// `/proc/self/stat` (reported in USER_HZ = 100 ticks per second).
fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of this process (`VmHWM`), KiB.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_kib().unwrap() > 0);
    }

    #[test]
    fn confining_narrows_available_parallelism() {
        // Affinity is per thread: confine a scratch thread, not the
        // test harness.
        std::thread::spawn(|| {
            confine_to_cpus(1).unwrap();
            assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
            assert!(confine_to_cpus(2).is_err());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn the_last_nonempty_line_is_the_result() {
        let out = b"campaign: 4 scenarios\n{\"threads\": 2}\n\n";
        assert_eq!(last_line(out).unwrap(), "{\"threads\": 2}");
        assert!(last_line(b"\n  \n").is_err());
    }
}
