//! `perfbench`: the repository benchmark. Drives the tool only through the
//! entry points the product itself uses and prints one JSON result line.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_batched --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads, metrics and the layer map are described in
//! `perfbench/README.md`. The last line of standard output is
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! The line before it carries the run context and the end-to-end metrics
//! under their workload-specific names. A run whose outputs disagree with
//! the expected ones exits with code 1.

mod diagnose;
mod fleet;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics every workload reports, with units. Each workload
/// defines them on its own operations (see `Outcome::named`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_us_per_op", "us"),
    ("view_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer a workload never calls
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("transport.encode_ns_per_sample", "ns"),
    ("transport.send_ns_per_frame", "ns"),
    ("transport.decode_ns_per_sample", "ns"),
    ("transport.bytes_per_sample", "B"),
    ("daemonset.pump_busy_s", "s"),
    ("daemonset.pump_ns_per_sample", "ns"),
    ("daemonset.pump_calls", "count"),
    ("daemonset.samples_per_call", "count"),
    ("daemonset.land_ns_per_sample", "ns"),
    ("daemonset.merged_samples_s", "s"),
    ("daemonset.group_s", "s"),
    ("daemonset.held_bytes_per_sample", "B"),
    ("daemonset.fleet_nodes", "count"),
    ("daemonset.ask_fleet_obs_us", "us"),
    ("daemonset.replays_suppressed", "count"),
    ("daemonset.samples_lost", "count"),
    ("datamgr.shard_skew", "ratio"),
    ("cmf.compile_ms", "ms"),
    ("pif.load_ms", "ms"),
    ("cmrts.run_ms", "ms"),
    ("dyninst.experiment_ms", "ms"),
    ("dyninst.overhead_ratio", "ratio"),
    ("mcache.misses", "count"),
    ("mcache.hits", "count"),
    ("mcache.hit_ratio", "ratio"),
    ("consultant.experiments", "count"),
    ("consultant.early_cuts", "count"),
    ("consultant.non_run_ms", "ms"),
    ("consultant.render_ms", "ms"),
    ("consultant.audit_ms", "ms"),
    ("report.profile_ms", "ms"),
    ("report.rest_ms", "ms"),
    ("obs.overhead_pct", "%"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FleetBatched,
    FleetLoose,
    Diagnose,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fleet_batched" => Some(Self::FleetBatched),
            "fleet_loose" => Some(Self::FleetLoose),
            "diagnose" => Some(Self::Diagnose),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::FleetBatched => "fleet_batched",
            Self::FleetLoose => "fleet_loose",
            Self::Diagnose => "diagnose",
        }
    }
}

/// A deliberate fault, for the benchmark's own test that the checker can
/// fail: one frame's last sample value flipped, or one frame never sent.
/// On `diagnose` either fault doubles the consultant's threshold, a
/// diagnosis that is wrong the same way every time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    Corrupt,
    Drop,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Test size: a few rounds per session, a few diagnoses per run.
    pub tiny: bool,
    pub inject: Option<Inject>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut inject = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            "--inject" => {
                inject = Some(match value.as_str() {
                    "corrupt" => Inject::Corrupt,
                    "drop" => Inject::Drop,
                    _ => return Err("--inject expects corrupt or drop".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        inject,
    })
}

/// One metric under the name the workload gives it: the reported value,
/// the median over the run's repetitions, and the number of measurements
/// behind it.
pub struct Named {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub median: f64,
    pub n: usize,
}

impl Named {
    /// Reports the median of the repetitions.
    pub fn median(name: &'static str, unit: &'static str, v: &[f64]) -> Self {
        let m = median(&mut v.to_vec());
        Self {
            name,
            unit,
            value: m,
            median: m,
            n: v.len(),
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values by `END_TO_END` name (peak RSS is added here).
    pub e2e: BTreeMap<&'static str, f64>,
    /// The end-to-end measurements under the workload's own metric names,
    /// including tail percentiles, which are reported but not gated.
    pub named: Vec<Named>,
    /// Per-layer values by `PER_LAYER` name (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Run context worth printing (session counts and the like).
    pub context: Vec<(&'static str, f64)>,
    /// Human-readable descriptions of every check that failed.
    pub problems: Vec<String>,
}

/// SplitMix64: the seeded generator every input is drawn from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Median of `v` (sorts it). 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 100]` of `v` (sorts it).
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// CPU time this process has used so far, over all its threads (exited
/// ones included), in seconds, to the nanosecond. Unlike wall time it does
/// not grow while the process waits for a CPU that another tenant holds.
pub fn cpu_seconds() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Returns the allocator's free pages to the kernel (glibc `malloc_trim`),
/// so the next allocations touch fresh pages wherever they land.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only releases memory the allocator holds
        // free; it is safe to call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_metrics(list: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
            json_num(v)
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = trace::Tracer::new(args.trace);
    let mut out = match args.workload {
        Workload::FleetBatched | Workload::FleetLoose => fleet::run(&args, &mut tracer),
        Workload::Diagnose => diagnose::run(&args, &mut tracer),
    };
    let rss = peak_rss_mb();
    out.e2e.insert("peak_rss_mb", rss);
    out.named.push(Named::median("peak_rss_mb", "MiB", &[rss]));
    if args.trace {
        let path = std::path::Path::new(".bench_build/perfbench-traces").join(format!(
            "{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match tracer.write_chrome(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        eprintln!("perfbench: span totals (count, total ms, self ms):");
        for (name, t) in tracer.totals() {
            eprintln!(
                "  {name:<34} {:>9} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let mut ctx = format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"rustc\": \"{}\"",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
    );
    for (k, v) in &out.context {
        let _ = write!(ctx, ", \"{k}\": {}", json_num(*v));
    }
    ctx.push_str("}, \"named\": {");
    for (i, m) in out.named.iter().enumerate() {
        let _ = write!(
            ctx,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"median\": {}, \"n\": {}}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_num(m.value),
            m.unit,
            json_num(m.median),
            m.n
        );
    }
    let _ = write!(
        ctx,
        "}}, \"failed_frac\": {{\"value\": {}, \"unit\": \"ratio\"}}}}",
        json_num(failed_frac)
    );
    println!("{ctx}");

    let metrics = if args.trace {
        json_metrics(PER_LAYER, &out.layers)
    } else {
        json_metrics(END_TO_END, &out.e2e)
    };
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
