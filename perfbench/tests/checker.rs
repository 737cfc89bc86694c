//! The benchmark's own tests, run at test size (`--tiny`):
//!
//! * a clean run of every workload passes its checks and prints every
//!   metric `BENCHMARK.json` names;
//! * the exact counts of the traced run repeat from run to run;
//! * the checker fails a fleet run with one corrupted or one dropped frame,
//!   and a diagnosis that differs from the golden.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

const FLEET: [&str; 2] = ["fleet_batched", "fleet_loose"];
const ALL: [&str; 3] = ["fleet_batched", "fleet_loose", "diagnose"];

struct Run {
    code: Option<i32>,
    /// The last line of standard output.
    result: String,
    /// The line before it: context and workload-named metrics.
    context: String,
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Run {
    // Traced runs write their spans under the working directory.
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev();
    let result = lines.next().unwrap_or_default().to_string();
    let context = lines.next().unwrap_or_default().to_string();
    Run {
        code: out.status.code(),
        result,
        context,
    }
}

/// The number after `"key": ` (or `"key": {"value": `) in a JSON line.
fn number(line: &str, key: &str) -> Option<f64> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = line[at..].trim_start_matches("{\"value\": ");
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Metric names of one section of `BENCHMARK.json`.
fn registered(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn clean_runs_pass_and_print_every_registered_metric() {
    let e2e = registered("end_to_end");
    let layers = registered("per_layer");
    assert!(e2e.iter().any(|n| n == "setup_s"));
    for w in ALL {
        for (trace, names) in [(false, &e2e), (true, &layers)] {
            let r = run(w, trace, &[]);
            assert_eq!(r.code, Some(0), "{w} trace={trace}: {}", r.result);
            assert!(r.result.starts_with("{\"correct\": true,"), "{}", r.result);
            assert_eq!(number(&r.result, "failed"), Some(0.0));
            assert_eq!(number(&r.context, "failed_frac"), Some(0.0));
            for name in names {
                assert!(
                    number(&r.result, name).is_some(),
                    "{w} trace={trace} lacks {name}: {}",
                    r.result
                );
            }
            for key in ["seed", "nproc", "rustc"] {
                assert!(r.context.contains(&format!("\"{key}\": ")), "{}", r.context);
            }
        }
    }
}

#[test]
fn exact_counts_repeat() {
    let exact: [(&str, &[&str]); 3] = [
        (
            "fleet_batched",
            &[
                "daemonset.replays_suppressed",
                "daemonset.fleet_nodes",
                "daemonset.samples_lost",
                "transport.bytes_per_sample",
            ],
        ),
        (
            "fleet_loose",
            &[
                "daemonset.fleet_nodes",
                "daemonset.samples_lost",
                "transport.bytes_per_sample",
            ],
        ),
        (
            "diagnose",
            &["mcache.misses", "mcache.hits", "consultant.experiments"],
        ),
    ];
    for (w, names) in exact {
        let a = run(w, true, &[]);
        let b = run(w, true, &[]);
        for name in names {
            let (x, y) = (number(&a.result, name), number(&b.result, name));
            assert!(x.is_some(), "{w} lacks {name}");
            assert_eq!(x, y, "{w}: {name} differs between runs");
        }
    }
    let fleet = run("fleet_batched", true, &[]);
    assert_eq!(number(&fleet.result, "daemonset.fleet_nodes"), Some(16.0));
    assert_eq!(number(&fleet.result, "daemonset.samples_lost"), Some(0.0));
    assert_eq!(
        number(&fleet.result, "daemonset.replays_suppressed"),
        number(&fleet.context, "planted_replays")
    );
    let diagnose = run("diagnose", true, &[]);
    assert_eq!(number(&diagnose.result, "mcache.misses"), Some(220.0));
}

#[test]
fn checker_fails_a_wrong_output() {
    // One corrupted or one dropped frame on each fleet workload; on
    // `diagnose` the fault doubles the consultant's threshold.
    let cases = FLEET
        .iter()
        .flat_map(|w| [(*w, "corrupt"), (*w, "drop")])
        .chain([("diagnose", "corrupt")]);
    for (w, fault) in cases {
        let r = run(w, false, &["--inject", fault]);
        assert_ne!(r.code, Some(0), "{w} with --inject {fault} exited 0");
        assert!(r.result.starts_with("{\"correct\": false,"), "{}", r.result);
        let frac = number(&r.context, "failed_frac").expect("failed_frac printed");
        assert!(frac > 0.0, "{w} with --inject {fault}: failed_frac {frac}");
    }
}
