//! Host fingerprint recorded with every result, and peak resident
//! memory. Read from the CPU (`cpuid`) and the kernel (`getrusage`)
//! rather than from files, so a run touches no file outside its
//! checkout.

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU brand string, e.g. `Intel(R) Xeon(R) Processor`.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004u32 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".to_string()
}

/// Size in bytes of one instance of the level-`level` unified or data
/// cache, from `cpuid` leaf 4 (deterministic cache parameters).
#[cfg(target_arch = "x86_64")]
pub fn cache_bytes(level: u32) -> Option<u64> {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    if __cpuid(0).eax < 4 {
        return None;
    }
    (0..16).find_map(|sub| {
        let r = __cpuid_count(4, sub);
        let kind = r.eax & 0x1f; // 0 = no more caches, 2 = instruction
        if kind == 0 || kind == 2 || (r.eax >> 5) & 7 != level {
            return None;
        }
        let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
        let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(r.ebx & 0xfff) + 1;
        let sets = u64::from(r.ecx) + 1;
        Some(ways * partitions * line * sets)
    })
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cache_bytes(_level: u32) -> Option<u64> {
    None
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
/// starting with `ru_maxrss` (KiB).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process so far, in MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mib() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // 64-bit Linux layout, and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss_kib as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mib() -> f64 {
    0.0
}

/// Human-readable byte count.
pub fn fmt_bytes(b: Option<u64>) -> String {
    match b {
        Some(b) if b >= 1 << 20 => format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64),
        Some(b) => format!("{} KiB", b >> 10),
        None => "unknown".to_string(),
    }
}
