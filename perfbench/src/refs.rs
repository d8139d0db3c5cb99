//! Reference outputs stored with the benchmark (`reference.txt`):
//! report digests of the CLI workloads and the modelled invariants of
//! every workload's layer drive. A run whose outputs differ is not
//! correct, so a speed-only change that alters simulated behaviour
//! fails. Regenerate with `--bless` only for an intended model change.

use crate::layers::Invariants;

const REFERENCE: &str = include_str!("../reference.txt");

fn lookup(workload: &str, key: &str) -> Option<&'static str> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            (f.next() == Some(workload) && f.next() == Some(key))
                .then(|| f.next())
                .flatten()
        })
}

/// Whether `digest` is the stored report digest of `workload`.
pub fn check_digest(workload: &str, digest: u64) -> bool {
    lookup(workload, "digest") == Some(format!("{digest:016x}").as_str())
}

fn lines(inv: &Invariants) -> [(&'static str, String); 4] {
    let bits = |v: f64| format!("{:016x}", v.to_bits());
    [
        ("cpu_cycles", inv.cpu_cycles.to_string()),
        ("cpu_ipc_bits", bits(inv.cpu_ipc)),
        (
            "interventions_per_mcycle_bits",
            bits(inv.interventions_per_mcycle),
        ),
        ("gated_duty_bits", bits(inv.gated_duty)),
    ]
}

/// Whether every invariant matches its stored value bit for bit.
pub fn check_invariants(workload: &str, inv: &Invariants) -> bool {
    lines(inv)
        .iter()
        .all(|(key, value)| lookup(workload, key) == Some(value.as_str()))
}

/// The reference lines for `workload` (for `--bless`).
pub fn bless_lines(workload: &str, digest: Option<u64>, inv: &Invariants) -> String {
    let mut out = String::new();
    if let Some(d) = digest {
        out.push_str(&format!("{workload} digest {d:016x}\n"));
    }
    for (key, value) in lines(inv) {
        out.push_str(&format!("{workload} {key} {value}\n"));
    }
    out
}
