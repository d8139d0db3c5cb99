//! Process measurements from `/proc`, standard library only.

use std::sync::OnceLock;

/// `/proc/<pid>` for a child, `/proc/self` for this process.
fn proc_dir(pid: Option<u32>) -> String {
    pid.map_or("/proc/self".to_string(), |p| format!("/proc/{p}"))
}

/// Clock ticks per second for `/proc/*/stat` times, from this process's
/// auxiliary vector (`AT_CLKTCK`); 100 when it cannot be read.
fn clk_tck() -> f64 {
    static TCK: OnceLock<f64> = OnceLock::new();
    *TCK.get_or_init(|| {
        const AT_CLKTCK: u64 = 17;
        let raw = std::fs::read("/proc/self/auxv").unwrap_or_default();
        raw.chunks_exact(16)
            .map(|pair| {
                let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
                (word(&pair[..8]), word(&pair[8..]))
            })
            .find(|&(key, _)| key == AT_CLKTCK)
            .map_or(100.0, |(_, v)| v as f64)
    })
}

/// User plus system CPU seconds the process has used, its exited
/// threads included.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let path = format!("{}/stat", proc_dir(pid));
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name is parenthesised and may hold spaces: fields are
    // counted from the last ')'. utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no ')' in stat line"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("{path}: field {} unreadable", i + 3))
    };
    // Field 3 (state) is index 0 after the name.
    Ok((tick(11)? + tick(12)?) / clk_tck())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = format!("{}/status", proc_dir(pid));
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_reads() {
        let before = cpu_seconds(None).unwrap();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds(None).unwrap() >= before);
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        assert!(clk_tck() >= 1.0);
    }
}
