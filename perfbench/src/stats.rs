//! Sample summaries, the process's peak resident memory, and the run
//! fingerprint attached to every result.

use std::path::Path;

/// Median of an unsorted sample (mean of the two middle values for an even
/// count); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an unsorted sample, `q ∈ (0, 1]`: the
/// smallest value with at least a `q` share of the sample at or below it.
/// `NaN` when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    nearest_rank(&sorted(samples), q)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(q, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `q` in a sample of `n > 0` (the
/// epsilon keeps `0.9 * 100` from rounding up to rank 91).
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The percentiles a tail is reported at, from the median up.
const TAIL_LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.99, 0.999, 0.9999];

/// A tail summary: the highest ladder percentile that still has at least
/// [`Tail::MIN_BEYOND`] samples beyond it, with the sample count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported, as a fraction (0.99 for p99).
    pub q: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Samples in the summary.
    pub n: usize,
}

impl Tail {
    /// Samples that must lie beyond a reported tail percentile.
    pub const MIN_BEYOND: usize = 10;

    /// Summarizes `samples`; `None` when even the median lacks
    /// [`Tail::MIN_BEYOND`] samples beyond it.
    pub fn of(samples: &[f64]) -> Option<Tail> {
        let n = samples.len();
        let q = TAIL_LADDER
            .iter()
            .rev()
            .copied()
            .find(|&q| n > 0 && n - rank(q, n) >= Tail::MIN_BEYOND)?;
        Some(Tail {
            q,
            value: nearest_rank(&sorted(samples), q),
            n,
        })
    }

    /// `p99`, `p99.9`, … — the percentile's conventional label.
    pub fn label(&self) -> String {
        let pct = format!("{:.2}", self.q * 100.0);
        format!("p{}", pct.trim_end_matches('0').trim_end_matches('.'))
    }
}

/// A uniform sample of at most [`Reservoir::CAP`] values from a stream of
/// any length (Vitter's algorithm R). Latencies go through one so that a
/// faster system, serving more requests in a run, does not also show a
/// larger peak memory.
#[derive(Clone, Debug, Default)]
pub struct Reservoir {
    seen: u64,
    samples: Vec<f64>,
    state: u64,
}

impl Reservoir {
    /// Values kept.
    pub const CAP: usize = 1 << 18;

    /// Offers one value.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < Reservoir::CAP {
            self.samples.push(x);
            return;
        }
        // SplitMix64: the replacement slot only has to be uniform.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let slot = ((z ^ (z >> 31)) % self.seen) as usize;
        if slot < Reservoir::CAP {
            self.samples[slot] = x;
        }
    }

    /// The values kept.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Values offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`); `None` where the file or the field is missing.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").ok()?)
        .map(|kib| kib as f64 / 1024.0)
}

/// The `VmHWM` field of a `/proc/<pid>/status` text, in KiB.
fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// What a result was measured on: enough to tell two machines or two
/// builds apart when comparing runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// The checked-out commit, or `none` outside a git checkout.
    pub git_sha: String,
}

impl Fingerprint {
    /// Reads the fingerprint of the current process in `root` (the
    /// checkout the benchmark runs from).
    pub fn detect(root: &Path) -> Fingerprint {
        let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc,
            git_sha: git_sha(&root.join(".git")).unwrap_or_else(|| "none".into()),
        }
    }

    /// One `key=value` line for the report.
    pub fn render(&self) -> String {
        format!(
            "nproc={} rustc=\"{}\" git={}",
            self.nproc, self.rustc, self.git_sha
        )
    }
}

/// The commit `HEAD` names in the git directory `git_dir`, following one
/// symbolic ref through loose refs or `packed-refs`.
fn git_sha(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return is_sha(head).then(|| head.to_string());
    };
    if let Ok(loose) = std::fs::read_to_string(git_dir.join(reference)) {
        let loose = loose.trim();
        return is_sha(loose).then(|| loose.to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference && is_sha(sha)).then(|| sha.to_string())
    })
}

fn is_sha(s: &str) -> bool {
    s.len() >= 40 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    #[test]
    fn median_and_percentile_use_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs = |n: u32| (1..=n).map(f64::from).collect::<Vec<f64>>();
        assert_eq!(Tail::of(&xs(19)), None, "median has only 9 beyond");
        let t = Tail::of(&xs(20)).unwrap();
        assert_eq!((t.q, t.value, t.n), (0.5, 10.0, 20));
        let t = Tail::of(&xs(100)).unwrap();
        assert_eq!((t.label().as_str(), t.value), ("p90", 90.0));
        let t = Tail::of(&xs(999)).unwrap();
        assert_eq!(t.label(), "p90", "p99 would leave 9 beyond");
        let t = Tail::of(&xs(1000)).unwrap();
        assert_eq!((t.label().as_str(), t.value), ("p99", 990.0));
        assert_eq!(Tail::of(&xs(10_000)).unwrap().label(), "p99.9");
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_uniform_sample() {
        let mut r = Reservoir::default();
        for i in 0..1000 {
            r.push(f64::from(i));
        }
        assert_eq!((r.seen(), r.samples().len()), (1000, 1000));
        let n = 4 * Reservoir::CAP as u64;
        for i in 1000..n {
            r.push(i as f64);
        }
        assert_eq!(r.seen(), n);
        assert_eq!(r.samples().len(), Reservoir::CAP);
        let m = median(r.samples()) / n as f64;
        assert!((0.48..0.52).contains(&m), "median at {m} of the stream");
    }

    #[test]
    fn vm_hwm_parses_kib_and_reads_this_process() {
        let status = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("VmHWM: 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("Name: x\n"), None);
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }

    #[test]
    fn fingerprint_follows_head_through_loose_and_packed_refs() {
        let dir = ScratchDir::new_in(&std::env::temp_dir(), "fingerprint").unwrap();
        let git = dir.path();
        let sha = "0123456789abcdef0123456789abcdef01234567";
        assert_eq!(git_sha(git), None, "no HEAD");
        std::fs::write(git.join("HEAD"), format!("{sha}\n")).unwrap();
        assert_eq!(git_sha(git).as_deref(), Some(sha), "detached HEAD");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            git.join("packed-refs"),
            format!("# pack\n{sha} refs/heads/main\n"),
        )
        .unwrap();
        assert_eq!(git_sha(git).as_deref(), Some(sha), "packed ref");
        let other = "fedcba9876543210fedcba9876543210fedcba98";
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("refs/heads/main"), other).unwrap();
        assert_eq!(git_sha(git).as_deref(), Some(other), "loose ref wins");

        let fp = Fingerprint::detect(dir.path());
        assert!(fp.nproc >= 1);
        assert!(fp.render().starts_with("nproc="));
    }
}
