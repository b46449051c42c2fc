//! Run metadata: the machine, the toolchain, the revision and a hash of
//! the workload configuration, so two reports are only compared when
//! they ran the same configuration.

use std::process::Command;

use bmf_stat::fnv::fnv1a;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hex FNV-1a hash of bytes: of a workload's canonical configuration
/// text, or of its generated inputs.
pub fn hash(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, bytes))
}

/// Worker threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or `unknown`. The child
/// is waited for before returning.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V`.
pub fn rustc_version() -> String {
    command_line("rustc", &["-V"])
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout.
pub fn git_revision() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// Peak resident set size (`VmHWM`) in MB, or `NaN` where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_tracks_the_bytes() {
        assert_eq!(hash(b"a=1"), hash(b"a=1"));
        assert_ne!(hash(b"a=1"), hash(b"a=2"));
        assert_eq!(hash(b"").len(), 16);
    }
}
