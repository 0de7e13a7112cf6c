//! Host-side measurements read from `/proc`, and the digest used by the
//! output gates.

use std::fmt::Write as _;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this whole process, every thread included
/// (live and exited), at `1/USER_HZ` resolution.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f[i].parse::<u64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A 64-bit FNV-1a digest, incrementally fed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one record followed by a separator, so record boundaries
    /// count.
    pub fn record(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(b"\n");
    }

    pub fn hex(self) -> String {
        let mut s = String::new();
        write!(s, "{:016x}", self.0).expect("write to String");
        s
    }
}
