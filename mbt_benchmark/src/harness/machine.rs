//! The machine block every result file carries, the peak-RSS reader and
//! the thread budget of the load generator.

use std::process::Command;

use mbt_multipole::simd;

use super::json::Value;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// How many threads the load generator may keep runnable.
///
/// The rayon stand-in has no shared pool: its override is thread-local
/// and every parallel call spawns its own scoped workers, so a client
/// thread left on the default pool would put `clients × nproc` runnable
/// threads on the box. Single-caller workloads therefore run one caller
/// on the default pool (`threads` workers), and multi-client workloads
/// run `clients` callers each pinned to a 1-thread pool.
#[derive(Debug, Clone, Copy)]
pub struct ThreadBudget {
    pub nproc: usize,
    /// `min(nproc, 4)`.
    pub threads: usize,
    /// Client threads of this workload (1 for single-caller workloads).
    pub clients: usize,
    /// Rayon workers each client may spawn per parallel call.
    pub pool_per_client: usize,
}

impl ThreadBudget {
    pub fn single_caller() -> ThreadBudget {
        let nproc = nproc();
        let threads = nproc.min(4);
        ThreadBudget {
            nproc,
            threads,
            clients: 1,
            pool_per_client: threads,
        }
        .checked()
    }

    pub fn multi_client() -> ThreadBudget {
        let nproc = nproc();
        let threads = nproc.min(4);
        ThreadBudget {
            nproc,
            threads,
            clients: threads,
            pool_per_client: 1,
        }
        .checked()
    }

    pub fn runnable(&self) -> usize {
        self.clients * self.pool_per_client
    }

    fn checked(self) -> ThreadBudget {
        assert!(
            self.runnable() <= self.nproc,
            "load generator would oversubscribe: {} runnable threads on {} cores",
            self.runnable(),
            self.nproc
        );
        self
    }

    pub fn describe(&self) -> String {
        let note = if self.nproc == 1 {
            " (nproc = 1: degraded to one client, nothing here measures parallel speed-up)"
        } else {
            ""
        };
        format!(
            "thread budget: nproc={} threads={} clients={} pool_per_client={} runnable={}{note}",
            self.nproc,
            self.threads,
            self.clients,
            self.pool_per_client,
            self.runnable()
        )
    }

    /// Runs `f` under a rayon pool of `pool_per_client` workers.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(self.pool_per_client)
            .build()
            .expect("the rayon stand-in's pool construction cannot fail")
            .install(f)
    }
}

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a helper command's output, or "unknown". The child is
/// waited for; git is kept from searching above the working directory.
fn first_line(program: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new(program)
        .args(args)
        .env(
            "GIT_CEILING_DIRECTORIES",
            cwd.parent().unwrap_or(&cwd).as_os_str(),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Last-level cache size in bytes as the kernel reports it for cpu0.
pub fn llc_bytes() -> Option<usize> {
    (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .and_then(|s| {
            let s = s.trim();
            let (digits, mult) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1 << 10),
                b'M' => (&s[..s.len() - 1], 1 << 20),
                _ => (s, 1),
            };
            digits.parse::<usize>().ok().map(|n| n * mult)
        })
}

pub fn machine_block() -> Value {
    let level = simd::level();
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::Str(cpu_model())),
        ("simd_level", Value::str(level.as_str())),
        ("m2p_lanes", Value::Num(level.m2p_lanes() as f64)),
        ("p2p_lanes_f64", Value::Num(level.p2p_lanes_f64() as f64)),
        ("p2p_lanes_f32", Value::Num(level.p2p_lanes_f32() as f64)),
        (
            "llc_bytes",
            llc_bytes().map_or(Value::Null, |b| Value::Num(b as f64)),
        ),
        ("rustc", Value::Str(first_line("rustc", &["-V"]))),
        (
            "git_commit",
            Value::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
