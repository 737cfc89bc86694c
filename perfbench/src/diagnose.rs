//! The `diagnose` workload: the communication-heavy STORMY program on 8
//! simulated nodes, diagnosed cold again and again through the
//! work-stealing consultant, plus cold `run_report`s.
//!
//! One diagnosis is `clear_measurement_cache` → `search_parallel` →
//! `render` → `audit`. Every render and every report must equal the
//! golden under `perfbench/golden/`, every audit must be empty, no
//! experiment may carry a note (a measurement that returned an error), and
//! the machine runs, cache hits and experiments of every diagnosis must be
//! the exact counts below. The program is fixed, so the seed does not
//! change this workload's inputs.

use crate::trace::Tracer;
use crate::{median, percentile, Args, Named, Outcome};
use cmf_lang::CompileOptions;
use cmrts_sim::MachineConfig;
use paradyn_tool::consultant::{
    audit, render, search_parallel, ConsultantConfig, ExperimentNode, HYPOTHESES,
};
use paradyn_tool::{report, Paradyn};
use pdmap::hierarchy::Focus;
use std::time::Instant;

/// Repeated global sorts, a transpose and shifts over 2048-element arrays:
/// the consultant explores a deep true subtree under the communication
/// hypotheses and cuts the rest early.
const STORMY: &str = "\
PROGRAM STORMY
REAL A(2048), B(2048), C(2048), M(32, 32), T(32, 32)
A = 1.0
B = SORT(A)
B = SORT(B)
C = SORT(B)
M = 2.0
T = TRANSPOSE(M)
A = CSHIFT(C, 7)
C = CSHIFT(A, -3)
ASUM = SUM(A)
END
";
const NODES: usize = 8;
const CONFIG: ConsultantConfig = ConsultantConfig {
    threshold: 0.05,
    max_depth: 2,
};
/// The profile `run_report` draws, measured on its own.
const PROFILE_METRIC: &str = "Point-to-Point Operations";
/// Diagnoses per repetition block.
const BLOCK: usize = 20;
/// What every cold diagnosis of STORMY must give.
const GOLDEN_RENDER: &str = include_str!("../golden/stormy_render.txt");
const GOLDEN_REPORT: &str = include_str!("../golden/stormy_report.txt");
const MISSES: u64 = 220;
const HITS: u64 = 451;
const EXPERIMENTS: u64 = 671;

struct Sizes {
    /// Timed set-ups besides the first, spread among the diagnoses.
    setups: usize,
    /// Cold reports, spread among the diagnoses.
    reports: usize,
    /// At least 100 diagnoses, so the p90 has ten beyond it.
    diagnoses: usize,
    /// Bare runs, experiment batches and profiles in the traced run.
    probes: usize,
}

fn experiments(nodes: &[ExperimentNode]) -> u64 {
    nodes.iter().map(|n| 1 + experiments(&n.children)).sum()
}

/// Experiments whose measurement returned an error.
fn noted(nodes: &[ExperimentNode]) -> u64 {
    nodes
        .iter()
        .map(|n| u64::from(n.note.is_some()) + noted(&n.children))
        .sum()
}

/// Compiles and loads STORMY into a fresh tool.
fn setup(tr: &mut Tracer, id: u64) -> Result<Paradyn, String> {
    let mut tool = Paradyn::new(MachineConfig {
        nodes: NODES,
        ..MachineConfig::default()
    });
    let compiled = tr
        .span("cmf.compile", id, || {
            cmf_lang::compile(STORMY, tool.namespace(), &CompileOptions::default())
        })
        .map_err(|e| format!("compile: {e}"))?;
    tr.span("pif.load", id, || tool.load(&compiled))
        .map_err(|e| format!("load: {e}"))?;
    Ok(tool)
}

struct Diagnosis {
    traced: bool,
    ms: f64,
    /// Process CPU time, all threads.
    cpu_s: f64,
    violations: usize,
    noted: u64,
    misses: u64,
    hits: u64,
    experiments: u64,
    early_cuts: u64,
}

/// One cold diagnosis, and its render.
fn diagnose(
    tool: &Paradyn,
    config: &ConsultantConfig,
    tr: &mut Tracer,
    id: u64,
) -> (Diagnosis, String) {
    let cuts = pdmap_obs::counter("consultant.early_cut");
    let cuts0 = cuts.get();
    let cpu0 = crate::cpu_seconds();
    let t = Instant::now();
    let d = tr.begin("diagnosis", id);
    tr.span("mcache.clear", id, || tool.clear_measurement_cache());
    let tree = tr.span("consultant.search_parallel", id, || {
        search_parallel(tool, config)
    });
    let text = tr.span("consultant.render", id, || render(&tree));
    let violations = tr.span("consultant.audit", id, || audit(&tree, config.threshold));
    tr.end(d);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let cpu_s = crate::cpu_seconds() - cpu0;
    let stats = tool.measurement_cache_stats();
    let d = Diagnosis {
        traced: tr.is_on(),
        ms,
        cpu_s,
        violations: violations.len(),
        noted: noted(&tree),
        misses: stats.misses,
        hits: stats.hits,
        experiments: experiments(&tree),
        early_cuts: cuts.get() - cuts0,
    };
    (d, text)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let sizes = if args.tiny {
        Sizes {
            setups: 2,
            reports: 1,
            diagnoses: 4,
            probes: 2,
        }
    } else {
        Sizes {
            setups: 100,
            reports: 15,
            // A fixed amount of work, sized so a run takes about
            // `--seconds` on a 2-core box.
            diagnoses: ((args.seconds * 12.0).round() as usize).max(100),
            probes: 5,
        }
    };
    // The injected fault, for the test that the checks can fail: a
    // diagnosis that is wrong the same way every time.
    let config = match args.inject {
        Some(_) => ConsultantConfig {
            threshold: CONFIG.threshold * 2.0,
            ..CONFIG
        },
        None => CONFIG,
    };
    let mut out = Outcome::default();

    // The first set-up makes the tool every diagnosis uses.
    let mut setup_s = Vec::new();
    let t = Instant::now();
    let made = setup(tr, 0);
    setup_s.push(t.elapsed().as_secs_f64());
    let tool = match made {
        Ok(tool) => tool,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.problems.push(e);
            return out;
        }
    };

    // Traced run only: the layers below the consultant, called directly.
    let six: Vec<String> = HYPOTHESES.iter().map(|h| h.metric.to_string()).collect();
    if args.trace {
        for i in 0..sizes.probes {
            let id = i as u64;
            let ran = tr.span("cmrts.run", id, || {
                tool.new_machine().map(|mut m| {
                    m.run();
                })
            });
            let batch = tr.span("dyninst.run_experiment_batch", id, || {
                tool.run_experiment_batch(&six, &Focus::whole_program())
            });
            let profile = tr.span("report.profile", id, || {
                report::profile(&tool, PROFILE_METRIC, &Focus::whole_program())
            });
            if ran.is_err() || batch.iter().any(|(_, r)| r.is_err()) || profile.rows.is_empty() {
                out.failed += 1;
                out.problems.push(format!("probe {i} failed"));
            }
            out.attempted += 1;
        }
    }

    // Cold diagnoses, with the other set-ups and the cold reports spread
    // evenly among them, so that each repetition samples another moment of
    // the run. The traced run alternates untraced and traced diagnoses to
    // measure its own overhead.
    let mut runs: Vec<Diagnosis> = Vec::new();
    let mut report_ms = Vec::new();
    let mut report_cpu_ms = Vec::new();
    for i in 0..sizes.diagnoses {
        tr.set_on(args.trace && i % 2 == 1);
        let (d, text) = diagnose(&tool, &config, tr, i as u64);
        out.attempted += 1;
        let counts = (d.misses, d.hits, d.experiments);
        if text != GOLDEN_RENDER
            || d.violations > 0
            || d.noted > 0
            || counts != (MISSES, HITS, EXPERIMENTS)
        {
            out.failed += 1;
            out.problems.push(format!(
                "diagnosis {i}: render equals the golden: {}, audit violations: {}, \
                 unmeasured experiments: {}, (misses, hits, experiments) = {counts:?}, \
                 want ({MISSES}, {HITS}, {EXPERIMENTS})",
                text == GOLDEN_RENDER,
                d.violations,
                d.noted
            ));
        }
        runs.push(d);

        tr.set_on(args.trace);
        let due = |total: usize| total * (i + 1) / sizes.diagnoses;
        while setup_s.len() < 1 + due(sizes.setups) {
            let t = Instant::now();
            let made = setup(tr, setup_s.len() as u64);
            setup_s.push(t.elapsed().as_secs_f64());
            if let Err(e) = made {
                out.attempted += 1;
                out.failed += 1;
                out.problems.push(e);
            }
        }
        while report_ms.len() < due(sizes.reports) {
            let r = report_ms.len();
            tool.clear_measurement_cache();
            let (t, cpu0) = (Instant::now(), crate::cpu_seconds());
            let text = tr.span("report.run_report", r as u64, || {
                report::run_report(&tool, &config)
            });
            report_ms.push(t.elapsed().as_secs_f64() * 1e3);
            report_cpu_ms.push((crate::cpu_seconds() - cpu0) * 1e3);
            out.attempted += 1;
            if text != GOLDEN_REPORT {
                out.failed += 1;
                out.problems
                    .push(format!("report {r} differs from the golden"));
            }
        }
    }
    tr.set_on(false);

    // The diagnosis percentiles and the CPU cost are taken over every
    // untraced diagnosis; set-up and report report the median of their
    // runs, and the rate the median block of diagnoses. The report is gated
    // on its CPU time, which a busy host inflates far less than its wall
    // time.
    let plain: Vec<&Diagnosis> = runs.iter().filter(|d| !d.traced).collect();
    let blocks: Vec<&[&Diagnosis]> = if plain.len() >= BLOCK {
        plain.chunks_exact(BLOCK).collect()
    } else {
        vec![&plain[..]]
    };
    let per_block =
        |f: &dyn Fn(&[&Diagnosis]) -> f64| blocks.iter().map(|b| f(b)).collect::<Vec<f64>>();
    let cpu_ms = |b: &[&Diagnosis]| b.iter().map(|d| d.cpu_s).sum::<f64>() * 1e3 / b.len() as f64;
    let ms = |b: &[&Diagnosis]| b.iter().map(|d| d.ms).collect::<Vec<f64>>();
    let setup = Named::median("setup_s", "s", &setup_s);
    let cpu = Named {
        name: "diagnose_cpu_ms",
        unit: "ms",
        value: cpu_ms(&plain),
        median: median(&mut per_block(&cpu_ms)),
        n: plain.len(),
    };
    let rate = Named::median(
        "diagnoses_per_s",
        "1/s",
        &per_block(&|b| b.len() as f64 * 1e3 / ms(b).iter().sum::<f64>()),
    );
    let p50 = Named::median("diagnose_ms_p50", "ms", &ms(&plain));
    let mut p90 = Named::median(
        "diagnose_ms_p90",
        "ms",
        &[percentile(&mut ms(&plain), 90.0)],
    );
    p90.n = plain.len();
    let report = Named::median("report_ms", "ms", &report_ms);
    let report_cpu = Named::median("report_cpu_ms", "ms", &report_cpu_ms);
    out.e2e.insert("setup_s", setup.value);
    out.e2e.insert("cpu_us_per_op", cpu.value * 1e3);
    out.e2e.insert("view_ms", report_cpu.value);
    let report_median = report.value;
    out.named = vec![setup, cpu, rate, p50, p90, report, report_cpu];
    let misses = median(&mut runs.iter().map(|d| d.misses as f64).collect::<Vec<_>>());
    out.context = vec![
        ("nodes", NODES as f64),
        ("diagnoses", runs.len() as f64),
        ("diagnoses_per_block", BLOCK as f64),
        ("reports", report_ms.len() as f64),
        ("machine_runs_per_diagnosis", misses),
    ];

    if args.trace {
        let traced: Vec<&Diagnosis> = runs.iter().filter(|d| d.traced).collect();
        let med_ms = |name: &str| tr.median_ns(name) / 1e6;
        let med_of = |f: &dyn Fn(&Diagnosis) -> f64| {
            let mut v: Vec<f64> = traced.iter().map(|d| f(d)).collect();
            median(&mut v)
        };
        let run_ms = med_ms("cmrts.run");
        let experiment_ms = med_ms("dyninst.run_experiment_batch");
        let hits = med_of(&|d| d.hits as f64);
        let misses = med_of(&|d| d.misses as f64);
        let profile_ms = med_ms("report.profile");
        // The frontier overlaps machine runs on its workers, so the time
        // they cost the search is runs × experiment time / workers.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = cores.min(HYPOTHESES.len()).max(1) as f64;
        let traced_p50 = med_of(&|d| d.ms);
        let plain_p50 = median(&mut plain.iter().map(|d| d.ms).collect::<Vec<_>>());
        let l = &mut out.layers;
        l.insert("cmf.compile_ms", med_ms("cmf.compile"));
        l.insert("pif.load_ms", med_ms("pif.load"));
        l.insert("cmrts.run_ms", run_ms);
        l.insert("dyninst.experiment_ms", experiment_ms);
        l.insert("dyninst.overhead_ratio", experiment_ms / run_ms);
        l.insert("mcache.misses", misses);
        l.insert("mcache.hits", hits);
        l.insert("mcache.hit_ratio", hits / (hits + misses));
        l.insert("consultant.experiments", med_of(&|d| d.experiments as f64));
        l.insert("consultant.early_cuts", med_of(&|d| d.early_cuts as f64));
        l.insert(
            "consultant.non_run_ms",
            med_ms("consultant.search_parallel") - misses * experiment_ms / workers,
        );
        l.insert("consultant.render_ms", med_ms("consultant.render"));
        l.insert("consultant.audit_ms", med_ms("consultant.audit"));
        l.insert("report.profile_ms", profile_ms);
        l.insert("report.rest_ms", report_median - profile_ms);
        l.insert(
            "obs.overhead_pct",
            (traced_p50 - plain_p50) / plain_p50 * 100.0,
        );
    }
    out
}
