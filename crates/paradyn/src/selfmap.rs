//! Self-mapped observability: the tool measured with its own mechanisms.
//!
//! §7 of the paper notes that the mapping mechanisms "are not specific to
//! CM Fortran" — here we turn them on the tool itself. Every span site the
//! [`pdmap_obs`] runtime knows about ([`pdmap_obs::KNOWN_SITES`]) becomes a
//! pair of MDL metrics at a "Tool" level, and the same sites become
//! Noun-Verb sentences (noun = tool component, verb = operation) so that a
//! performance question such as *"is the tool spending time in
//! transport/tcp send?"* runs through exactly the SAS machinery the paper
//! describes for application programs.
//!
//! Time metrics are declared with `units seconds` because MDL has no
//! nanosecond unit; the exported **values are nanoseconds** (the raw
//! [`pdmap_obs`] span totals). Consumers that want seconds divide by 1e9.

use dyninst_sim::mdl::{parse_mdl, MdlFile, MetricDecl};
use pdmap::model::{Namespace, SentenceId};
use pdmap::sas::{LocalSas, Question, SentencePattern};
use pdmap_obs::ObsSnapshot;

/// The level name used for every self-observation metric and NV term.
pub const OBS_LEVEL: &str = "Tool";

/// The MDL source for the tool self-observation catalogue: one Time and one
/// Count metric per [`pdmap_obs::KNOWN_SITES`] entry, in the same order.
///
/// The point names (`obs::<component>:<verb>`) are the observability
/// runtime's span sites, not CMRTS instrumentation points; the exporter
/// supplies their values directly from an [`ObsSnapshot`].
pub const OBS_MDL: &str = r#"
// ------------------------------ Tool level ------------------------------

metric obs_transport_inproc_send_time {
    name "Obs transport/inproc send Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds spent enqueueing frames on the in-process backend.";
    foreach point "obs::transport/inproc:send:enter" { startWallTimer; }
    foreach point "obs::transport/inproc:send:exit" { stopWallTimer; }
}

metric obs_transport_inproc_send_count {
    name "Obs transport/inproc send Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Spans recorded enqueueing frames on the in-process backend.";
    foreach point "obs::transport/inproc:send" { incrCounter 1; }
}

metric obs_transport_inproc_deliver_time {
    name "Obs transport/inproc deliver Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds spent delivering frames from the in-process backend.";
    foreach point "obs::transport/inproc:deliver:enter" { startWallTimer; }
    foreach point "obs::transport/inproc:deliver:exit" { stopWallTimer; }
}

metric obs_transport_inproc_deliver_count {
    name "Obs transport/inproc deliver Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Spans recorded delivering frames from the in-process backend.";
    foreach point "obs::transport/inproc:deliver" { incrCounter 1; }
}

metric obs_transport_tcp_send_time {
    name "Obs transport/tcp send Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds spent sending frames on the TCP backend.";
    foreach point "obs::transport/tcp:send:enter" { startWallTimer; }
    foreach point "obs::transport/tcp:send:exit" { stopWallTimer; }
}

metric obs_transport_tcp_send_count {
    name "Obs transport/tcp send Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Spans recorded sending frames on the TCP backend.";
    foreach point "obs::transport/tcp:send" { incrCounter 1; }
}

metric obs_transport_tcp_deliver_time {
    name "Obs transport/tcp deliver Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds spent delivering frames from the TCP backend.";
    foreach point "obs::transport/tcp:deliver:enter" { startWallTimer; }
    foreach point "obs::transport/tcp:deliver:exit" { stopWallTimer; }
}

metric obs_transport_tcp_deliver_count {
    name "Obs transport/tcp deliver Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Spans recorded delivering frames from the TCP backend.";
    foreach point "obs::transport/tcp:deliver" { incrCounter 1; }
}

metric obs_transport_tcp_reconnect_time {
    name "Obs transport/tcp reconnect Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds spent re-establishing lost TCP connections.";
    foreach point "obs::transport/tcp:reconnect:enter" { startWallTimer; }
    foreach point "obs::transport/tcp:reconnect:exit" { stopWallTimer; }
}

metric obs_transport_tcp_reconnect_count {
    name "Obs transport/tcp reconnect Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Spans recorded re-establishing lost TCP connections.";
    foreach point "obs::transport/tcp:reconnect" { incrCounter 1; }
}

metric obs_daemon_send_time {
    name "Obs daemon send Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds the instrumentation library spent encoding and sending daemon messages.";
    foreach point "obs::daemon:send:enter" { startWallTimer; }
    foreach point "obs::daemon:send:exit" { stopWallTimer; }
}

metric obs_daemon_send_count {
    name "Obs daemon send Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Spans recorded encoding and sending daemon messages.";
    foreach point "obs::daemon:send" { incrCounter 1; }
}

metric obs_daemon_deliver_time {
    name "Obs daemon deliver Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds the daemon spent pumping and decoding inbound messages.";
    foreach point "obs::daemon:deliver:enter" { startWallTimer; }
    foreach point "obs::daemon:deliver:exit" { stopWallTimer; }
}

metric obs_daemon_deliver_count {
    name "Obs daemon deliver Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Spans recorded pumping and decoding inbound daemon messages.";
    foreach point "obs::daemon:deliver" { incrCounter 1; }
}

metric obs_sas_push_time {
    name "Obs sas push Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds spent activating sentences, including forwarding.";
    foreach point "obs::sas:push:enter" { startWallTimer; }
    foreach point "obs::sas:push:exit" { stopWallTimer; }
}

metric obs_sas_push_count {
    name "Obs sas push Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Spans recorded activating sentences.";
    foreach point "obs::sas:push" { incrCounter 1; }
}

metric obs_sas_pop_time {
    name "Obs sas pop Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds spent deactivating sentences, including forwarding.";
    foreach point "obs::sas:pop:enter" { startWallTimer; }
    foreach point "obs::sas:pop:exit" { stopWallTimer; }
}

metric obs_sas_pop_count {
    name "Obs sas pop Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Spans recorded deactivating sentences.";
    foreach point "obs::sas:pop" { incrCounter 1; }
}

metric obs_sas_evaluate_time {
    name "Obs sas evaluate Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds spent evaluating performance questions.";
    foreach point "obs::sas:evaluate:enter" { startWallTimer; }
    foreach point "obs::sas:evaluate:exit" { stopWallTimer; }
}

metric obs_sas_evaluate_count {
    name "Obs sas evaluate Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Spans recorded evaluating performance questions.";
    foreach point "obs::sas:evaluate" { incrCounter 1; }
}

metric obs_sas_deliver_time {
    name "Obs sas deliver Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds spent applying forwarded sentence updates on receiving nodes.";
    foreach point "obs::sas:deliver:enter" { startWallTimer; }
    foreach point "obs::sas:deliver:exit" { stopWallTimer; }
}

metric obs_sas_deliver_count {
    name "Obs sas deliver Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Spans recorded applying forwarded sentence updates.";
    foreach point "obs::sas:deliver" { incrCounter 1; }
}

metric obs_datamgr_import_time {
    name "Obs datamgr import Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds the Data Manager spent importing mapping information.";
    foreach point "obs::datamgr:import:enter" { startWallTimer; }
    foreach point "obs::datamgr:import:exit" { stopWallTimer; }
}

metric obs_datamgr_import_count {
    name "Obs datamgr import Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Spans recorded importing mapping information.";
    foreach point "obs::datamgr:import" { incrCounter 1; }
}

metric obs_cmrts_step_time {
    name "Obs cmrts step Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds the simulated CM-5 spent executing control-processor steps.";
    foreach point "obs::cmrts:step:enter" { startWallTimer; }
    foreach point "obs::cmrts:step:exit" { stopWallTimer; }
}

metric obs_cmrts_step_count {
    name "Obs cmrts step Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Control-processor steps executed by the simulated CM-5.";
    foreach point "obs::cmrts:step" { incrCounter 1; }
}

metric obs_consultant_experiment_time {
    name "Obs consultant experiment Time";
    units seconds;
    aggregate sum;
    level "Tool";
    description "Nanoseconds the consultant spent measuring hypothesis experiments.";
    foreach point "obs::consultant:experiment:enter" { startWallTimer; }
    foreach point "obs::consultant:experiment:exit" { stopWallTimer; }
}

metric obs_consultant_experiment_count {
    name "Obs consultant experiment Count";
    units operations;
    aggregate sum;
    level "Tool";
    description "Hypothesis experiments the consultant ran.";
    foreach point "obs::consultant:experiment" { incrCounter 1; }
}
"#;

/// Parses the self-observation catalogue. Panics only if the embedded
/// source is broken (covered by tests).
pub fn obs_catalogue() -> MdlFile {
    parse_mdl(OBS_MDL).expect("embedded OBS MDL must parse")
}

/// The observability counters behind [`CHAOS_MDL`], in catalogue order:
/// `(counter name, metric display name)`. These are the failure-handling
/// events the supervisor and transport bump (`daemonset::supervise`,
/// `FaultInjector`, the authenticated handshake), self-mapped so the
/// tool's own chaos handling is measurable with the same machinery as the
/// application.
pub const CHAOS_OBS_COUNTERS: [(&str, &str); 7] = [
    ("daemonset.quarantine", "Chaos Daemons Quarantined"),
    ("daemonset.degraded", "Chaos Daemons Degraded"),
    ("daemonset.recovered", "Chaos Daemons Recovered"),
    ("daemonset.retry", "Chaos Readmission Retries"),
    ("transport.faults_injected", "Chaos Faults Injected"),
    ("transport.auth_failures", "Chaos Auth Failures"),
    ("consultant.zero_wall", "Chaos Zero-Wall Experiments"),
];

/// The MDL source for the chaos/self-healing catalogue: one Count metric
/// per [`CHAOS_OBS_COUNTERS`] entry, in the same order.
pub const CHAOS_MDL: &str = r#"
// --------------------- Tool level: chaos handling ---------------------

metric chaos_daemons_quarantined {
    name "Chaos Daemons Quarantined";
    units operations;
    aggregate sum;
    level "Tool";
    description "Daemon connections the supervisor excluded from the session (dead link or error burst).";
    foreach point "obs::daemonset:quarantine" { incrCounter 1; }
}

metric chaos_daemons_degraded {
    name "Chaos Daemons Degraded";
    units operations;
    aggregate sum;
    level "Tool";
    description "Healthy-to-Degraded transitions (stale heartbeat or elevated decode-error rate).";
    foreach point "obs::daemonset:degrade" { incrCounter 1; }
}

metric chaos_daemons_recovered {
    name "Chaos Daemons Recovered";
    units operations;
    aggregate sum;
    level "Tool";
    description "Quarantined daemons readmitted after a successful reconnect and clock re-sync.";
    foreach point "obs::daemonset:recover" { incrCounter 1; }
}

metric chaos_readmission_retries {
    name "Chaos Readmission Retries";
    units operations;
    aggregate sum;
    level "Tool";
    description "Readmission attempts against quarantined daemons (capped exponential backoff).";
    foreach point "obs::daemonset:retry" { incrCounter 1; }
}

metric chaos_faults_injected {
    name "Chaos Faults Injected";
    units operations;
    aggregate sum;
    level "Tool";
    description "Frames dropped, duplicated, corrupted, delayed or partitioned by the fault injector.";
    foreach point "obs::transport:fault" { incrCounter 1; }
}

metric chaos_auth_failures {
    name "Chaos Auth Failures";
    units operations;
    aggregate sum;
    level "Tool";
    description "Peers rejected by the authenticated transport handshake before any session frame.";
    foreach point "obs::transport:auth_reject" { incrCounter 1; }
}

metric chaos_zero_wall_experiments {
    name "Chaos Zero-Wall Experiments";
    units operations;
    aggregate sum;
    level "Tool";
    description "Consultant experiments whose run reported no wall time and so answered Unknown instead of a ratio.";
    foreach point "obs::consultant:zero_wall" { incrCounter 1; }
}
"#;

/// Parses the chaos catalogue. Panics only if the embedded source is
/// broken (covered by tests).
pub fn chaos_catalogue() -> MdlFile {
    parse_mdl(CHAOS_MDL).expect("embedded CHAOS MDL must parse")
}

/// Exports the chaos counters from an [`ObsSnapshot`] as `(metric, value)`
/// samples in catalogue order — counters the snapshot has never seen
/// report zero, so the export is always complete.
pub fn export_chaos_obs(snap: &ObsSnapshot) -> Vec<(MetricDecl, u64)> {
    let catalogue = chaos_catalogue();
    catalogue
        .metrics
        .into_iter()
        .zip(CHAOS_OBS_COUNTERS)
        .map(|(m, (counter, _))| {
            let v = snap.counter(counter);
            (m, v)
        })
        .collect()
}

/// The observability counters behind [`CONSULTANT_MDL`], in catalogue
/// order: `(counter name, metric display name)`. These are the parallel
/// Performance Consultant's self-observation events — frontier pool
/// sizing, measurement-cache effectiveness, and early-cut pruning — so the
/// consultant's own search economics are measurable with the same
/// machinery it applies to applications.
pub const CONSULTANT_OBS_COUNTERS: [(&str, &str); 5] = [
    ("consultant.pool.searches", "Consultant Pool Searches"),
    ("consultant.pool.workers", "Consultant Pool Workers"),
    ("consultant.mcache_hit", "Consultant Measurement Cache Hits"),
    (
        "consultant.mcache_miss",
        "Consultant Measurement Cache Misses",
    ),
    ("consultant.early_cut", "Consultant Early Cuts"),
];

/// The MDL source for the parallel-consultant catalogue: one Count metric
/// per [`CONSULTANT_OBS_COUNTERS`] entry, in the same order.
pub const CONSULTANT_MDL: &str = r#"
// ------------------ Tool level: parallel consultant ------------------

metric consultant_pool_searches {
    name "Consultant Pool Searches";
    units operations;
    aggregate sum;
    level "Tool";
    description "Parallel frontier searches started.";
    foreach point "obs::consultant:pool_search" { incrCounter 1; }
}

metric consultant_pool_workers {
    name "Consultant Pool Workers";
    units operations;
    aggregate sum;
    level "Tool";
    description "Frontier workers spawned across all parallel searches (min(cores, frontier) per search).";
    foreach point "obs::consultant:pool_worker" { incrCounter 1; }
}

metric consultant_mcache_hits {
    name "Consultant Measurement Cache Hits";
    units operations;
    aggregate sum;
    level "Tool";
    description "Experiments answered from a cached (or in-flight shared) measurement batch.";
    foreach point "obs::consultant:mcache_hit" { incrCounter 1; }
}

metric consultant_mcache_misses {
    name "Consultant Measurement Cache Misses";
    units operations;
    aggregate sum;
    level "Tool";
    description "Experiments that ran an instrumented machine (one per distinct focus, program and coverage epoch).";
    foreach point "obs::consultant:mcache_miss" { incrCounter 1; }
}

metric consultant_early_cuts {
    name "Consultant Early Cuts";
    units operations;
    aggregate sum;
    level "Tool";
    description "Subtrees pruned because the parent's decided (or unmeasurable) interval could not be changed by any child experiment.";
    foreach point "obs::consultant:early_cut" { incrCounter 1; }
}
"#;

/// Parses the parallel-consultant catalogue. Panics only if the embedded
/// source is broken (covered by tests).
pub fn consultant_catalogue() -> MdlFile {
    parse_mdl(CONSULTANT_MDL).expect("embedded CONSULTANT MDL must parse")
}

/// Exports the parallel-consultant counters from an [`ObsSnapshot`] as
/// `(metric, value)` samples in catalogue order — counters the snapshot
/// has never seen report zero, so the export is always complete.
pub fn export_consultant_obs(snap: &ObsSnapshot) -> Vec<(MetricDecl, u64)> {
    let catalogue = consultant_catalogue();
    catalogue
        .metrics
        .into_iter()
        .zip(CONSULTANT_OBS_COUNTERS)
        .map(|(m, (counter, _))| {
            let v = snap.counter(counter);
            (m, v)
        })
        .collect()
}

/// The per-shard counter fields exported for a sharded
/// [`crate::datamgr::DataManager`], in catalogue order. `lock_wait_ns`
/// follows the Time-metric convention (declared `units seconds`, values in
/// nanoseconds — see the module docs).
pub const SHARD_OBS_FIELDS: [(&str, &str, &str); 3] = [
    (
        "imports",
        "operations",
        "Mapping-information imports (dynamic allocations and wire PIFs) routed to this shard.",
    ),
    (
        "samples",
        "operations",
        "Metric samples delivered by this shard's daemon connection.",
    ),
    (
        "lock_wait_ns",
        "seconds",
        "Nanoseconds spent waiting to acquire this shard's lock.",
    ),
];

/// Generates MDL source for the per-shard Data Manager counters of a
/// session with `shards` shards: one Count-style metric per shard per
/// [`SHARD_OBS_FIELDS`] entry, named `Obs datamgr shard<K> <field>`. The
/// shard population is per-session (unlike the fixed [`pdmap_obs::KNOWN_SITES`]),
/// which is why this catalogue is generated rather than embedded.
pub fn shard_obs_mdl(shards: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("// ---------------- Tool level: datamgr shards ----------------\n");
    for k in 0..shards.max(1) {
        for (field, units, desc) in SHARD_OBS_FIELDS {
            let ident = field.replace('.', "_");
            // MDL pairs `seconds` with wall timers and everything else
            // with counters; mirror the hand-written catalogue above.
            let body = if units == "seconds" {
                format!(
                    "foreach point \"obs::datamgr/shard{k}:{field}:enter\" {{ startWallTimer; }}\n    foreach point \"obs::datamgr/shard{k}:{field}:exit\" {{ stopWallTimer; }}"
                )
            } else {
                format!("foreach point \"obs::datamgr/shard{k}:{field}\" {{ incrCounter 1; }}")
            };
            write!(
                out,
                r#"
metric obs_datamgr_shard{k}_{ident} {{
    name "{}";
    units {units};
    aggregate sum;
    level "Tool";
    description "Shard {k}: {desc}";
    {body}
}}
"#,
                shard_obs_metric(k, field),
            )
            .expect("writing to a String cannot fail");
        }
    }
    out
}

/// The display name of a per-shard counter metric.
pub fn shard_obs_metric(shard: usize, field: &str) -> String {
    format!("Obs datamgr shard{shard} {field}")
}

/// Parses the generated per-shard catalogue for `shards` shards.
pub fn shard_obs_catalogue(shards: usize) -> MdlFile {
    parse_mdl(&shard_obs_mdl(shards)).expect("generated shard OBS MDL must parse")
}

/// Exports a data manager's per-shard counters as `(metric, value)`
/// samples in catalogue order — the sharded counterpart of [`export_obs`],
/// reading [`crate::datamgr::DataManager::shard_stats`] instead of a span
/// snapshot.
pub fn export_shard_obs(dm: &crate::datamgr::DataManager) -> Vec<(MetricDecl, u64)> {
    let catalogue = shard_obs_catalogue(dm.shard_count());
    let mut values = Vec::with_capacity(dm.shard_count() * SHARD_OBS_FIELDS.len());
    for k in 0..dm.shard_count() {
        let st = dm.shard_stats(k);
        values.extend([st.imports, st.samples, st.lock_wait_ns]);
    }
    catalogue.metrics.into_iter().zip(values).collect()
}

/// The display name of the Time metric for a span site.
pub fn obs_time_metric(component: &str, verb: &str) -> String {
    format!("Obs {component} {verb} Time")
}

/// The display name of the Count metric for a span site.
pub fn obs_count_metric(component: &str, verb: &str) -> String {
    format!("Obs {component} {verb} Count")
}

/// Focus prefix marking a sample as fleet health telemetry about a tool
/// process rather than application data. `DaemonSet` routes samples whose
/// focus starts with this into its `FleetHealth` view.
pub const OBS_FOCUS_PREFIX: &str = "Tool/";

/// The focus label under which a fleet node reports its own telemetry,
/// e.g. `obs_focus("daemon", "127.0.0.1:7001")` → `"Tool/daemon:127.0.0.1:7001"`.
pub fn obs_focus(role: &str, addr: &str) -> String {
    format!("{OBS_FOCUS_PREFIX}{role}:{addr}")
}

/// Metric-name prefix for a node's named counters
/// (`"Obs counter daemon.decode_errors"`, ...).
pub const OBS_COUNTER_PREFIX: &str = "Obs counter ";

/// The display name of a self-reported counter metric.
pub fn obs_counter_metric(name: &str) -> String {
    format!("{OBS_COUNTER_PREFIX}{name}")
}

/// Metric names for a node's self-reported perturbation accounting (see
/// `pdmap_obs::PerturbationReport`): overhead and reported totals are
/// nanoseconds, spans is a count, null is the calibrated per-span cost.
pub const OBS_PERTURB_OVERHEAD: &str = "Obs perturbation overhead";
/// Spans the node has recorded (the multiplier on the null cost).
pub const OBS_PERTURB_SPANS: &str = "Obs perturbation spans";
/// The node's calibrated cost of one disabled-path span, ns.
pub const OBS_PERTURB_NULL: &str = "Obs perturbation null";
/// Total span nanoseconds the node reported (pre-correction).
pub const OBS_PERTURB_REPORTED: &str = "Obs perturbation reported";

/// Metric names for a relay's subtree health rollup — the same
/// `(reporting, total, lost)` triple `SubtreeCoverage` folds upward,
/// restated as telemetry so `FleetHealth` sees interior nodes' view of
/// their own subtrees.
pub const OBS_SUBTREE_REPORTING: &str = "Obs subtree reporting";
/// Leaf daemons the subtree was configured with.
pub const OBS_SUBTREE_TOTAL: &str = "Obs subtree total";
/// Samples known lost below the reporting relay.
pub const OBS_SUBTREE_LOST: &str = "Obs subtree lost";

/// Parses an `obs_time_metric`/`obs_count_metric` display name back into
/// `(component, verb, is_time)`. Returns `None` for anything else —
/// counter and perturbation metrics deliberately do not match, so a
/// telemetry consumer can partition a node's rows by shape alone.
pub fn parse_obs_metric(name: &str) -> Option<(&str, &str, bool)> {
    let rest = name.strip_prefix("Obs ")?;
    let mut parts = rest.split(' ');
    let (Some(component), Some(verb), Some(kind), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return None;
    };
    match kind {
        "Time" => Some((component, verb, true)),
        "Count" => Some((component, verb, false)),
        _ => None,
    }
}

/// One remote span site's totals: `(component, verb, count, total_ns)` —
/// the portable form of a `SiteSnapshot` rebuilt from streamed telemetry.
pub type SiteTotal = (String, String, u64, u64);

/// Renders an [`ObsSnapshot`] as `(metric name, value)` rows in catalogue
/// order: for every known site, its Time row (total nanoseconds) then its
/// Count row (span count). Sites the snapshot has never seen report zero.
pub fn obs_rows(snap: &ObsSnapshot) -> Vec<(String, u64)> {
    let mut rows = Vec::with_capacity(pdmap_obs::KNOWN_SITES.len() * 2);
    for &(component, verb) in pdmap_obs::KNOWN_SITES {
        let (count, total_ns) = snap
            .site(component, verb)
            .map(|s| (s.count, s.total_ns))
            .unwrap_or((0, 0));
        rows.push((obs_time_metric(component, verb), total_ns));
        rows.push((obs_count_metric(component, verb), count));
    }
    rows
}

/// Exports an observability snapshot as `(metric, value)` samples in
/// catalogue order, pairing each "Tool"-level metric with its span site.
/// Time metrics carry nanosecond totals (see the module docs); Count
/// metrics carry span counts.
pub fn export_obs(snap: &ObsSnapshot) -> Vec<(MetricDecl, u64)> {
    let catalogue = obs_catalogue();
    let rows = obs_rows(snap);
    catalogue
        .metrics
        .into_iter()
        .filter_map(|m| {
            rows.iter()
                .find(|(name, _)| *name == m.name)
                .map(|&(_, v)| (m, v))
        })
        .collect()
}

/// Projects an observability snapshot into the Noun-Verb model: each known
/// span site becomes a sentence (noun = component, verb = operation) at the
/// "Tool" level, with the site's total nanoseconds as its cost. Sites with
/// no recorded spans are skipped, so only sentences that were actually
/// "spoken" by the tool appear.
pub fn obs_sentences(ns: &Namespace, snap: &ObsSnapshot) -> Vec<(SentenceId, u64)> {
    let level = ns.level(OBS_LEVEL);
    let mut out = Vec::new();
    for &(component, verb) in pdmap_obs::KNOWN_SITES {
        let Some(site) = snap.site(component, verb) else {
            continue;
        };
        if site.count == 0 {
            continue;
        }
        let noun = ns.noun(level, component, "tool component");
        let vb = ns.verb(level, verb, "tool operation");
        out.push((ns.say(vb, [noun]), site.total_ns));
    }
    out
}

/// Asks a performance question about the tool itself: *"did `component`
/// spend time in `verb`, and how much?"*
///
/// The question is answered with the paper's own machinery — the sentences
/// from [`obs_sentences`] are activated in a [`LocalSas`], a
/// [`Question`] with a single noun-verb [`SentencePattern`] is registered,
/// and the answer is the summed cost (nanoseconds) of the active sentences
/// matching the pattern. Returns `None` when the question is not satisfied
/// (the site never ran), `Some(total_ns)` otherwise.
pub fn ask_obs(ns: &Namespace, snap: &ObsSnapshot, component: &str, verb: &str) -> Option<u64> {
    let totals: Vec<SiteTotal> = pdmap_obs::KNOWN_SITES
        .iter()
        .filter_map(|&(c, v)| {
            snap.site(c, v)
                .map(|s| (c.to_string(), v.to_string(), s.count, s.total_ns))
        })
        .collect();
    ask_obs_totals(ns, &totals, component, verb)
}

/// Projects remote span-site totals into the Noun-Verb model — the fleet
/// counterpart of [`obs_sentences`], fed from streamed telemetry instead
/// of a local snapshot. Zero-count sites are skipped, mirroring the
/// local rule that only sentences actually "spoken" appear.
pub fn obs_totals_sentences(ns: &Namespace, totals: &[SiteTotal]) -> Vec<(SentenceId, u64)> {
    let level = ns.level(OBS_LEVEL);
    let mut out = Vec::new();
    for (component, verb, count, total_ns) in totals {
        if *count == 0 {
            continue;
        }
        let noun = ns.noun(level, component, "tool component");
        let vb = ns.verb(level, verb, "tool operation");
        out.push((ns.say(vb, [noun]), *total_ns));
    }
    out
}

/// [`ask_obs`] generalised over [`SiteTotal`] rows, so the same SAS
/// machinery can answer about a *remote* process whose registry the tool
/// only knows through streamed health telemetry (see
/// `DaemonSet::ask_fleet_obs`). Returns `None` when the question is not
/// satisfied (the site never ran on that node), `Some(total_ns)` otherwise.
pub fn ask_obs_totals(
    ns: &Namespace,
    totals: &[SiteTotal],
    component: &str,
    verb: &str,
) -> Option<u64> {
    let level = ns.level(OBS_LEVEL);
    let noun = ns.noun(level, component, "tool component");
    let vb = ns.verb(level, verb, "tool operation");
    let pattern = SentencePattern::noun_verb(noun, vb);
    let question = Question::new(
        &format!("is the tool spending time in {component} {verb}?"),
        vec![pattern.clone()],
    );

    let sentences = obs_totals_sentences(ns, totals);
    let mut sas = LocalSas::new(ns.clone());
    let qid = sas.register_question(&question);
    for &(sid, _) in &sentences {
        sas.activate(sid);
    }
    if !sas.satisfied(qid) {
        return None;
    }
    let total: u64 = sentences
        .iter()
        .filter(|&&(sid, _)| pattern.matches(&ns.sentence_def(sid)))
        .map(|&(_, cost)| cost)
        .sum();
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_catalogue_parses_and_roundtrips() {
        let f = obs_catalogue();
        assert_eq!(f.metrics.len(), pdmap_obs::KNOWN_SITES.len() * 2);
        let reparsed = parse_mdl(&f.emit()).unwrap();
        assert_eq!(f, reparsed);
    }

    #[test]
    fn obs_catalogue_matches_known_sites_exactly() {
        // Every known span site must have a Time and a Count metric, in
        // site order, and nothing else — the exporter relies on the
        // pairing just as the transport exporter does.
        let f = obs_catalogue();
        let snap = pdmap_obs::snapshot();
        let row_names: Vec<String> = obs_rows(&snap).into_iter().map(|(n, _)| n).collect();
        let metric_names: Vec<&str> = f.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(metric_names, row_names);
        for m in &f.metrics {
            assert_eq!(m.level, OBS_LEVEL, "metric {} has wrong level", m.id);
        }
    }

    #[test]
    fn chaos_catalogue_matches_counters_exactly() {
        let f = chaos_catalogue();
        assert_eq!(f.metrics.len(), CHAOS_OBS_COUNTERS.len());
        let reparsed = parse_mdl(&f.emit()).unwrap();
        assert_eq!(f, reparsed);
        for (m, (_, display)) in f.metrics.iter().zip(CHAOS_OBS_COUNTERS) {
            assert_eq!(m.name, display);
            assert_eq!(m.level, OBS_LEVEL, "metric {} has wrong level", m.id);
        }
    }

    #[test]
    fn consultant_catalogue_matches_counters_exactly() {
        let f = consultant_catalogue();
        assert_eq!(f.metrics.len(), CONSULTANT_OBS_COUNTERS.len());
        let reparsed = parse_mdl(&f.emit()).unwrap();
        assert_eq!(f, reparsed);
        for (m, (_, display)) in f.metrics.iter().zip(CONSULTANT_OBS_COUNTERS) {
            assert_eq!(m.name, display);
            assert_eq!(m.level, OBS_LEVEL, "metric {} has wrong level", m.id);
        }
    }

    #[test]
    fn consultant_exporter_reads_the_counters() {
        // The registry is global to the test binary, so assert lower
        // bounds rather than exact values.
        pdmap_obs::counter("consultant.pool.searches").incr();
        pdmap_obs::counter("consultant.early_cut").incr();
        let snap = pdmap_obs::snapshot();
        let rows = export_consultant_obs(&snap);
        assert_eq!(rows.len(), CONSULTANT_OBS_COUNTERS.len());
        let lookup = |name: &str| {
            rows.iter()
                .find(|(m, _)| m.name == name)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(lookup("Consultant Pool Searches") >= 1);
        assert!(lookup("Consultant Early Cuts") >= 1);
        let _ = lookup("Consultant Measurement Cache Hits");
    }

    #[test]
    fn chaos_exporter_reads_the_counters() {
        // The registry is global to the test binary, so assert lower
        // bounds rather than exact values.
        pdmap_obs::counter("daemonset.quarantine").incr();
        pdmap_obs::counter("transport.auth_failures").incr();
        let snap = pdmap_obs::snapshot();
        let rows = export_chaos_obs(&snap);
        assert_eq!(rows.len(), CHAOS_OBS_COUNTERS.len());
        let lookup = |name: &str| {
            rows.iter()
                .find(|(m, _)| m.name == name)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(lookup("Chaos Daemons Quarantined") >= 1);
        assert!(lookup("Chaos Auth Failures") >= 1);
        // Never-bumped counters still export (as zero or whatever other
        // tests in this binary drove them to) — the row must exist.
        let _ = lookup("Chaos Faults Injected");
    }

    #[test]
    fn exporter_pairs_every_site() {
        // The registry is global to the test binary, so assert lower
        // bounds rather than exact values.
        let site = pdmap_obs::span_site("datamgr", "import");
        pdmap_obs::record_span(&site, pdmap_obs::now_ns(), 1_000);
        pdmap_obs::record_span(&site, pdmap_obs::now_ns(), 2_000);
        let snap = pdmap_obs::snapshot();
        let samples = export_obs(&snap);
        assert_eq!(samples.len(), pdmap_obs::KNOWN_SITES.len() * 2);
        let lookup = |name: &str| {
            samples
                .iter()
                .find(|(m, _)| m.name == name)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(lookup("Obs datamgr import Time") >= 3_000);
        assert!(lookup("Obs datamgr import Count") >= 2);
    }

    #[test]
    fn shard_catalogue_generates_parses_and_exports() {
        use pdmap::model::Namespace;

        let f = shard_obs_catalogue(4);
        assert_eq!(f.metrics.len(), 4 * SHARD_OBS_FIELDS.len());
        let reparsed = parse_mdl(&f.emit()).unwrap();
        assert_eq!(f, reparsed);
        for m in &f.metrics {
            assert_eq!(m.level, OBS_LEVEL);
        }

        let dm = crate::datamgr::DataManager::sharded(Namespace::new(), "CM Fortran", 2);
        dm.array_allocated_on(
            1,
            &cmrts_sim::machine::ArrayAllocInfo {
                array: cmrts_sim::ArrayId(0),
                name: "A".into(),
                extents: vec![8],
                dist: cmrts_sim::Distribution::Block,
                subgrids: vec![(0, 4, 4)],
            },
        );
        let m = pdmap::intern::sym("M");
        dm.land_on(0, |c| {
            for t in 0..3 {
                c.push(0, m, m, t, t, 1.0);
            }
        });
        let rows = export_shard_obs(&dm);
        assert_eq!(rows.len(), 2 * SHARD_OBS_FIELDS.len());
        let lookup = |name: &str| {
            rows.iter()
                .find(|(m, _)| m.name == name)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert_eq!(lookup(&shard_obs_metric(0, "samples")), 3);
        assert_eq!(lookup(&shard_obs_metric(1, "imports")), 1);
        assert_eq!(lookup(&shard_obs_metric(0, "imports")), 0);
    }

    #[test]
    fn ask_obs_answers_through_the_sas() {
        let site = pdmap_obs::span_site("transport/tcp", "send");
        pdmap_obs::record_span(&site, pdmap_obs::now_ns(), 5_000);
        let snap = pdmap_obs::snapshot();
        let ns = Namespace::new();
        let cost = ask_obs(&ns, &snap, "transport/tcp", "send")
            .expect("question about a recorded site must be satisfied");
        assert!(cost >= 5_000, "got {cost}");
        // A site that never ran is not satisfied. No code path records
        // spans for this fictitious pairing.
        let ns2 = Namespace::new();
        assert_eq!(ask_obs(&ns2, &snap, "transport/inproc", "reconnect"), None);
    }

    #[test]
    fn parse_obs_metric_inverts_the_formatters() {
        for &(c, v) in pdmap_obs::KNOWN_SITES {
            assert_eq!(parse_obs_metric(&obs_time_metric(c, v)), Some((c, v, true)));
            assert_eq!(
                parse_obs_metric(&obs_count_metric(c, v)),
                Some((c, v, false))
            );
        }
        // Counter and perturbation rows deliberately do not parse as sites.
        assert_eq!(parse_obs_metric(&obs_counter_metric("daemon.errors")), None);
        assert_eq!(parse_obs_metric(OBS_PERTURB_OVERHEAD), None);
        assert_eq!(parse_obs_metric("Computation Time"), None);
        assert_eq!(parse_obs_metric("Obs too many words here Time"), None);
    }

    #[test]
    fn obs_focus_is_prefixed_and_stable() {
        let f = obs_focus("daemon", "127.0.0.1:7001");
        assert_eq!(f, "Tool/daemon:127.0.0.1:7001");
        assert!(f.starts_with(OBS_FOCUS_PREFIX));
    }

    #[test]
    fn ask_obs_totals_answers_about_remote_sites() {
        // Totals as they would arrive from a remote daemon's telemetry —
        // no local registry involvement at all.
        let totals: Vec<SiteTotal> = vec![
            ("transport/tcp".into(), "send".into(), 4, 9_000),
            ("daemon".into(), "deliver".into(), 2, 3_500),
            ("sas".into(), "push".into(), 0, 0), // never ran on that node
        ];
        let ns = Namespace::new();
        assert_eq!(
            ask_obs_totals(&ns, &totals, "transport/tcp", "send"),
            Some(9_000)
        );
        assert_eq!(
            ask_obs_totals(&ns, &totals, "daemon", "deliver"),
            Some(3_500)
        );
        let ns2 = Namespace::new();
        assert_eq!(ask_obs_totals(&ns2, &totals, "sas", "push"), None);
        let ns3 = Namespace::new();
        assert_eq!(ask_obs_totals(&ns3, &totals, "datamgr", "import"), None);
    }

    #[test]
    fn sentences_render_as_noun_verb_text() {
        let site = pdmap_obs::span_site("sas", "evaluate");
        pdmap_obs::record_span(&site, pdmap_obs::now_ns(), 100);
        let snap = pdmap_obs::snapshot();
        let ns = Namespace::new();
        let sentences = obs_sentences(&ns, &snap);
        let rendered: Vec<String> = sentences
            .iter()
            .map(|&(sid, _)| ns.render_sentence(sid))
            .collect();
        assert!(
            rendered.iter().any(|r| r.contains("evaluate")),
            "got {rendered:?}"
        );
    }
}
