//! The fleet workloads: two in-process links into one `DaemonSet`, driven
//! in lockstep rounds through `Transport::send` and `pump_until_samples`,
//! then read back through `merged_streams`, `session_coverage`,
//! `fleet_health` and `ask_fleet_obs`.
//!
//! * `fleet_batched`: each link stands for a relay over 8 leaves and sends
//!   512 samples per round as relay-shaped `SampleBatch`es of the relay's
//!   default size, 64 samples (epoch and seq stamps, one `SourceMark` per
//!   leaf). About 1% of batches are sent a second time with an
//!   already-seen seq, which the seq watermark must suppress.
//! * `fleet_loose`: the same keys and telemetry, one `DaemonMsg::Sample`
//!   frame per sample, 64 frames per link per round.
//!
//! Every sample has a distinct wall stamp, so the merged, aligned order is
//! fully determined by the inputs and is checked sample by sample against
//! the generated inputs, walked in stamp order.

use crate::trace::Tracer;
use crate::{median, percentile, Args, Inject, Named, Outcome, Rng, Workload};
use paradyn_tool::selfmap::{obs_count_metric, obs_focus, obs_time_metric};
use paradyn_tool::{DaemonMsg, DaemonSet, DataManager, Stream};
use pdmap::model::Namespace;
use pdmap_transport::{
    BatchSample, Frame, FrameKind, InProcEnd, SampleBatch, SourceMark, Transport, TransportConfig,
    WirePayload,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LINKS: usize = 2;
/// Leaves behind each link; one telemetry node label per leaf.
const LEAVES: usize = 8;
/// Samples per relay batch: `pdmapd`'s `RelayConfig::default().batch`.
const RELAY_BATCH: usize = 64;
const APP_METRICS: [&str; 6] = [
    "Point-to-Point Time",
    "Broadcast Time",
    "Idle Time",
    "Reduction Time",
    "Sort Time",
    "File I/O Time",
];
const APP_FOCI: [&str; 8] = [
    "<whole program>",
    "/CMFarrays/stormy.fcm/A",
    "/CMFarrays/stormy.fcm/B",
    "/CMFarrays/stormy.fcm/C",
    "/CMFarrays/stormy.fcm/M",
    "/CMFarrays/stormy.fcm/T",
    "/Machine/node#0",
    "/Machine/node#1",
];
const APP_KEYS: usize = APP_METRICS.len() * APP_FOCI.len();
/// Telemetry rows per node: Time and Count of two daemon span sites.
const OBS_SITES: [(&str, &str); 2] = [("daemon", "send"), ("daemon", "deliver")];
const OBS_ROWS: usize = 2 * OBS_SITES.len();
const OBS_SHARE: f64 = 0.02;
const REPLAY_SHARE: f64 = 0.01;
/// A round that has not landed by then is counted short and the session
/// moves on; its samples show up as failures in the final check.
const ROUND_TIMEOUT: Duration = Duration::from_secs(2);
const BASE_WALL: u64 = 1_000_000_000;

#[derive(Clone, Copy)]
struct Shape {
    batched: bool,
    rounds: usize,
    /// Samples each link sends per round.
    per_round: usize,
    /// Samples per frame.
    per_frame: usize,
}

impl Shape {
    fn per_leaf(&self) -> usize {
        self.per_round / LEAVES
    }

    fn frames_per_round(&self) -> usize {
        self.per_round / self.per_frame
    }

    fn samples(&self) -> usize {
        self.rounds * self.per_round * LINKS
    }

    /// Distinct stamps: leaf-major inside a link's round chunk, so the
    /// frames of a round interleave the leaves' clocks non-monotonically,
    /// and links interleave in the merged order.
    fn wall(&self, link: usize, round: usize, i: usize) -> u64 {
        let (leaf, j) = (i / self.per_leaf(), i % self.per_leaf());
        let slot = ((round * self.per_leaf() + j) * LINKS + link) * LEAVES + leaf;
        BASE_WALL + slot as u64 * 16
    }

    /// The inverse of `wall`: the link, round and index in the round of
    /// the sample in stamp-order slot `slot`.
    fn at_slot(&self, slot: usize) -> (usize, usize, usize) {
        let (leaf, rest) = (slot % LEAVES, slot / LEAVES);
        let (link, rest) = (rest % LINKS, rest / LINKS);
        let (j, round) = (rest % self.per_leaf(), rest / self.per_leaf());
        (link, round, leaf * self.per_leaf() + j)
    }
}

fn node_label(link: usize, leaf: usize) -> String {
    obs_focus("daemon", &format!("10.0.{link}.{leaf}:7000"))
}

/// Everything generated from the seed, before any timing.
struct Inputs {
    shape: Shape,
    /// `(metric, focus)` per key index: application keys first, then
    /// `OBS_ROWS` telemetry keys per node.
    names: Vec<(Arc<str>, Arc<str>)>,
    /// Key index and value of every sample, per link, in send order.
    key: Vec<Vec<u8>>,
    value: Vec<Vec<f64>>,
    /// `replay[link][batch]`: resend the previous batch before this one.
    replay: Vec<Vec<bool>>,
    planted_replays: u64,
    /// Telemetry rows per node label.
    node_rows: HashMap<String, u64>,
    /// The node `ask_fleet_obs` asks about, and its last `daemon send`
    /// Time row: the answer it must give.
    ask_label: String,
    ask_expected: u64,
}

fn obs_key(link: usize, leaf: usize, row: usize) -> usize {
    APP_KEYS + (link * LEAVES + leaf) * OBS_ROWS + row
}

impl Inputs {
    fn generate(shape: Shape, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut names: Vec<(Arc<str>, Arc<str>)> = Vec::new();
        for m in APP_METRICS {
            for f in APP_FOCI {
                names.push((m.into(), f.into()));
            }
        }
        for link in 0..LINKS {
            for leaf in 0..LEAVES {
                let label: Arc<str> = node_label(link, leaf).into();
                for (c, v) in OBS_SITES {
                    names.push((obs_time_metric(c, v).into(), label.clone()));
                    names.push((obs_count_metric(c, v).into(), label.clone()));
                }
            }
        }
        assert!(names.len() <= u8::MAX as usize + 1, "key index fits a u8");

        let n = shape.rounds * shape.per_round;
        let mut key: Vec<Vec<u8>> = (0..LINKS).map(|_| Vec::with_capacity(n)).collect();
        let mut value: Vec<Vec<f64>> = (0..LINKS).map(|_| Vec::with_capacity(n)).collect();
        let mut counts = vec![0u64; names.len()];
        for link in 0..LINKS {
            for round in 0..shape.rounds {
                for i in 0..shape.per_round {
                    let (leaf, j) = (i / shape.per_leaf(), i % shape.per_leaf());
                    // Every node reports every telemetry row in round 0,
                    // so the fleet view is complete even at test size.
                    let k = if round == 0 && j < OBS_ROWS {
                        obs_key(link, leaf, j)
                    } else if rng.unit() < OBS_SHARE {
                        obs_key(link, leaf, rng.below(OBS_ROWS as u64) as usize)
                    } else {
                        rng.below(APP_KEYS as u64) as usize
                    };
                    let v = if k < APP_KEYS {
                        rng.unit() * 1e-3
                    } else if (k - APP_KEYS).is_multiple_of(2) {
                        // Time rows: whole nanoseconds, as a node ships them.
                        (1_000 + rng.below(10_000_000)) as f64
                    } else {
                        // Count rows: a monotonic counter per node and site.
                        counts[k] += 1 + rng.below(4);
                        counts[k] as f64
                    };
                    key[link].push(k as u8);
                    value[link].push(v);
                }
            }
        }

        let batches = shape.rounds * shape.frames_per_round();
        let mut replay = vec![vec![false; batches]; LINKS];
        let mut planted_replays = 0;
        if shape.batched {
            for row in &mut replay {
                for r in row.iter_mut().skip(1) {
                    if rng.unit() < REPLAY_SHARE {
                        *r = true;
                        planted_replays += 1;
                    }
                }
            }
            if planted_replays == 0 && batches >= 2 {
                replay[0][batches / 2] = true;
                planted_replays = 1;
            }
        }

        let mut node_rows: HashMap<String, u64> = HashMap::new();
        for &k in key.iter().flatten() {
            if k as usize >= APP_KEYS {
                *node_rows
                    .entry(names[k as usize].1.to_string())
                    .or_default() += 1;
            }
        }
        let ask_node = (seed % (LINKS * LEAVES) as u64) as usize;
        let (ask_link, ask_leaf) = (ask_node / LEAVES, ask_node % LEAVES);
        // A node's rows go out in stamp order on one link, so the fleet
        // view holds the last one sent.
        let ask_key = obs_key(ask_link, ask_leaf, 0) as u8;
        let ask_expected = key[ask_link]
            .iter()
            .rposition(|&k| k == ask_key)
            .map_or(0, |at| value[ask_link][at] as u64);
        Self {
            shape,
            names,
            key,
            value,
            replay,
            planted_replays,
            node_rows,
            ask_label: node_label(ask_link, ask_leaf),
            ask_expected,
        }
    }

    fn kind(&self) -> FrameKind {
        if self.shape.batched {
            FrameKind::SampleBatch
        } else {
            FrameKind::Daemon
        }
    }

    /// One link's frames for one round, encoded with `to_frame`, each
    /// planted replay right before the batch it precedes.
    fn encode(
        &self,
        link: usize,
        round: usize,
        prev: Option<&Vec<u8>>,
        tr: &mut Tracer,
        id: u64,
    ) -> Vec<Vec<u8>> {
        let shape = self.shape;
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(shape.frames_per_round() + 1);
        for f in 0..shape.frames_per_round() {
            let first = f * shape.per_frame;
            let at = round * shape.per_round + first;
            let keys = &self.key[link][at..at + shape.per_frame];
            let values = &self.value[link][at..at + shape.per_frame];
            let b = round * shape.frames_per_round() + f;
            if !shape.batched {
                let (k, v) = (keys[0] as usize, values[0]);
                let msg = DaemonMsg::Sample {
                    metric: self.names[k].0.to_string(),
                    focus: self.names[k].1.to_string(),
                    wall: shape.wall(link, round, first),
                    value: v,
                };
                frames.push(tr.span("transport.to_frame", id, || msg.to_frame().payload));
                continue;
            }
            if self.replay[link][b] {
                let last = frames.last().or(prev).expect("a batch before a replay");
                frames.push(last.clone());
            }
            // Leaf-major rounds: how far through each leaf's share of the
            // round this batch reaches.
            let end = first + shape.per_frame;
            let batch = SampleBatch {
                samples: keys
                    .iter()
                    .zip(values)
                    .enumerate()
                    .map(|(i, (&k, &v))| BatchSample {
                        metric: self.names[k as usize].0.clone(),
                        focus: self.names[k as usize].1.clone(),
                        wall: shape.wall(link, round, first + i),
                        value: v,
                    })
                    .collect(),
                epoch: 1,
                seq: b as u64 + 1,
                sources: (0..LEAVES)
                    .map(|leaf| {
                        let done = end
                            .saturating_sub(leaf * shape.per_leaf())
                            .min(shape.per_leaf());
                        SourceMark {
                            origin: format!("10.0.{link}.{leaf}:7000"),
                            through_seq: (round + usize::from(done > 0)) as u64,
                            samples: (round * shape.per_leaf() + done) as u64,
                        }
                    })
                    .collect(),
            };
            frames.push(tr.span("transport.to_frame", id, || batch.to_frame().payload));
        }
        frames
    }
}

/// Per-session measurements.
#[derive(Default)]
struct Session {
    traced: bool,
    setup_s: f64,
    loop_s: f64,
    /// Process CPU time of the send+pump loop, all threads.
    loop_cpu_s: f64,
    lags_ms: Vec<f64>,
    streams_s: f64,
    /// Process CPU time of the same call.
    streams_cpu_s: f64,
    landed: u64,
    attempted: u64,
    failed: u64,
    // For the per-layer metrics of the traced run.
    payload_bytes: u64,
    frames_sent: u64,
    decoded_samples: u64,
    pool_drains: u64,
    fleet_nodes: u64,
    replays_suppressed: u64,
    samples_lost: u64,
    shard_skew: f64,
}

/// Flips the low mantissa bit of a frame's last sample value: both frame
/// kinds end with the last sample's `f64`, so the frame still decodes.
fn corrupt(payload: &mut [u8]) {
    let at = payload.len() - 8;
    payload[at] ^= 1;
}

fn session(inp: &Inputs, tr: &mut Tracer, sid: u64, inject: Option<Inject>) -> Session {
    let shape = inp.shape;
    let kind = inp.kind();
    let mut s = Session {
        traced: tr.is_on(),
        ..Session::default()
    };
    // Every session starts from the memory the process holds live, not
    // from pages the previous session freed but the allocator kept.
    crate::release_free_memory();
    let root = tr.begin("session", sid);

    // Set-up: links, the DaemonSet, and every frame pre-encoded.
    let setup = tr.begin("setup", sid);
    let t0 = Instant::now();
    let cfg = TransportConfig::default();
    let mut daemon_ends: Vec<Arc<dyn Transport>> = Vec::with_capacity(LINKS);
    let mut tool_ends: Vec<(String, Arc<dyn Transport>)> = Vec::with_capacity(LINKS);
    for link in 0..LINKS {
        let (daemon, tool) = InProcEnd::pair(&cfg);
        daemon_ends.push(daemon);
        tool_ends.push((format!("relay-{link}"), tool));
    }
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", LINKS));
    let mut set = DaemonSet::over_transports(tool_ends, data);
    // `schedule[round][link]`: the payloads that link sends in that round,
    // a planted replay of its previous batch first.
    let mut schedule: Vec<Vec<Vec<Vec<u8>>>> = Vec::with_capacity(shape.rounds);
    for round in 0..shape.rounds {
        let id = sid << 32 | round as u64;
        let sends = (0..LINKS)
            .map(|link| {
                let prev = schedule.last().and_then(|s| s[link].last());
                inp.encode(link, round, prev, tr, id)
            })
            .collect();
        schedule.push(sends);
    }
    s.setup_s = t0.elapsed().as_secs_f64();
    tr.end(setup);

    s.payload_bytes = schedule
        .iter()
        .flatten()
        .flatten()
        .map(|p| p.len() as u64)
        .sum();
    // Decode cost, measured on a copy of every frame. Every session does
    // this pass, traced or not, so both kinds enter the loop with the same
    // heap and the traced run's overhead figure compares like with like.
    for (round, sends) in schedule.iter().enumerate() {
        let copies: Vec<Frame> = sends
            .iter()
            .flatten()
            .map(|p| Frame::data(kind, p.clone()))
            .collect();
        let decoded = tr.span("transport.from_frame", sid << 32 | round as u64, || {
            copies
                .iter()
                .map(|f| {
                    if shape.batched {
                        SampleBatch::from_frame(f).map_or(0, |b| b.samples.len())
                    } else {
                        usize::from(DaemonMsg::from_frame(f).is_ok())
                    }
                })
                .sum::<usize>()
        });
        s.decoded_samples += decoded as u64;
    }
    if let Some(fault) = inject {
        let frames = &mut schedule[shape.rounds / 2][LINKS - 1];
        match fault {
            Inject::Corrupt => corrupt(frames.last_mut().expect("a frame per round")),
            Inject::Drop => drop(frames.pop()),
        }
    }

    // The send+pump loop: lockstep rounds.
    let drains0 = pdmap_obs::counter("daemonset.pool.drains").get();
    let mut send_errors = 0u64;
    let mut deficit = 0usize;
    let per_round_all = shape.per_round * LINKS;
    let cpu0 = crate::cpu_seconds();
    let t_loop = Instant::now();
    for (round, sends) in schedule.into_iter().enumerate() {
        let id = sid << 32 | round as u64;
        let r = tr.begin("round", id);
        let t_round = Instant::now();
        for (end, frames) in daemon_ends.iter().zip(sends) {
            let o = tr.begin("transport.send", id);
            for payload in frames {
                s.frames_sent += 1;
                send_errors += u64::from(end.send(kind, payload).is_err());
            }
            tr.end(o);
        }
        let target = (round + 1) * per_round_all - deficit;
        let got = tr.span("daemonset.pump_until_samples", id, || {
            set.pump_until_samples(target, ROUND_TIMEOUT)
        });
        s.lags_ms.push(t_round.elapsed().as_secs_f64() * 1e3);
        tr.end(r);
        if got < target {
            deficit += target - got;
        }
        s.landed = got as u64;
    }
    s.loop_s = t_loop.elapsed().as_secs_f64();
    s.loop_cpu_s = crate::cpu_seconds() - cpu0;

    // Goodbye, a final pump, then the reads.
    let id = sid << 32 | shape.rounds as u64;
    let announced = (shape.rounds * shape.per_round) as u32;
    let o = tr.begin("transport.send", id);
    for end in &daemon_ends {
        s.frames_sent += 1;
        let frame = DaemonMsg::Goodbye {
            samples_sent: announced,
        }
        .to_frame();
        send_errors += u64::from(end.send(frame.kind, frame.payload).is_err());
    }
    tr.end(o);
    let total = shape.samples();
    tr.span("daemonset.pump_until_samples", id, || {
        set.pump_until_samples(total - deficit, ROUND_TIMEOUT)
    });
    s.pool_drains = pdmap_obs::counter("daemonset.pool.drains").get() - drains0;
    // The frames the loop consumed are free now. Returning their pages
    // makes the reads fault in fresh pages wherever the allocator puts
    // them, so the peak RSS does not depend on whether the heap the frames
    // left behind (its layout set by thread timing) can hold the reads.
    crate::release_free_memory();
    if s.traced {
        tr.span("daemonset.merged_samples", id, || {
            drop(set.merged_samples())
        });
    }
    let (t, cpu0) = (Instant::now(), crate::cpu_seconds());
    let streams = tr.span("daemonset.merged_streams", id, || set.merged_streams());
    s.streams_s = t.elapsed().as_secs_f64();
    s.streams_cpu_s = crate::cpu_seconds() - cpu0;
    let coverage = tr.span("daemonset.session_coverage", id, || set.session_coverage());
    let asked = tr.span("daemonset.ask_fleet_obs", id, || {
        set.ask_fleet_obs(set.data().namespace(), &inp.ask_label, "daemon", "send")
    });
    let shard_samples: Vec<u64> = tr.span("datamgr.shard_stats", id, || {
        (0..set.data().shard_count())
            .map(|k| set.data().shard_stats(k).samples)
            .collect()
    });
    let mean = shard_samples.iter().sum::<u64>() as f64 / shard_samples.len() as f64;
    s.shard_skew = shard_samples.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0);
    s.samples_lost = coverage.coverage.samples_lost;
    s.replays_suppressed = (0..set.len())
        .map(|i| set.conn(i).replays_suppressed())
        .sum();

    // The checks: every sample against the inputs, then the fleet view.
    let c = tr.begin("check", id);
    s.attempted = total as u64;
    let mut problems = Vec::new();
    s.failed = check_streams(&streams, inp, &mut problems);
    let health = tr.span("daemonset.fleet_health", id, || set.fleet_health().clone());
    s.fleet_nodes = health.len() as u64;
    let mut assert = |ok: bool, what: String| {
        if !ok {
            s.failed += 1;
            problems.push(what);
        }
    };
    assert(send_errors == 0, format!("{send_errors} sends failed"));
    assert(
        health.len() == LINKS * LEAVES,
        format!(
            "fleet_health has {} nodes, want {}",
            health.len(),
            LINKS * LEAVES
        ),
    );
    let rows_ok = inp
        .node_rows
        .iter()
        .all(|(label, &n)| health.node(label).is_some_and(|h| h.samples == n));
    assert(
        rows_ok,
        "fleet_health telemetry counts differ from the inputs".into(),
    );
    assert(
        s.samples_lost == 0,
        format!("session_coverage reports {} samples lost", s.samples_lost),
    );
    assert(
        s.replays_suppressed == inp.planted_replays,
        format!(
            "{} replays suppressed, {} planted",
            s.replays_suppressed, inp.planted_replays
        ),
    );
    assert(
        asked == Some(inp.ask_expected),
        format!(
            "ask_fleet_obs({}) = {asked:?}, want {}",
            inp.ask_label, inp.ask_expected
        ),
    );
    tr.end(c);
    tr.end(root);
    for p in problems.into_iter().take(8) {
        eprintln!("perfbench: session {sid}: {p}");
    }
    drop(streams);
    drop(set);
    s
}

/// Compares the merged streams with the inputs, sample by sample: walks
/// the inputs in stamp order, each sample against the next one of its
/// key's stream. Returns the number of failed samples: never landed,
/// landed twice, or landed with a different value or out of order. An
/// exact walk also means every stream's count, sum, min and max agree.
fn check_streams(streams: &[Stream], inp: &Inputs, problems: &mut Vec<String>) -> u64 {
    let index: HashMap<(&str, &str), usize> = inp
        .names
        .iter()
        .enumerate()
        .map(|(k, (m, f))| ((&**m, &**f), k))
        .collect();
    let mut got: Vec<Option<&[(u64, f64)]>> = vec![None; inp.names.len()];
    let mut failed = 0u64;
    for st in streams {
        match index.get(&(st.metric.as_str(), st.focus.as_str())) {
            Some(&k) if got[k].is_none() => got[k] = Some(&st.samples),
            found => {
                failed += st.samples.len() as u64;
                let why = if found.is_some() {
                    "duplicate"
                } else {
                    "unexpected"
                };
                problems.push(format!("{why} stream {} @ {}", st.metric, st.focus));
            }
        }
    }
    let shape = inp.shape;
    let mut next = vec![0usize; inp.names.len()];
    let mut bad = vec![0u64; inp.names.len()];
    for slot in 0..shape.samples() {
        let (link, round, i) = shape.at_slot(slot);
        let at = round * shape.per_round + i;
        let k = inp.key[link][at] as usize;
        let (wt, wv) = (shape.wall(link, round, i), inp.value[link][at]);
        let landed = got[k].unwrap_or(&[]);
        let j = &mut next[k];
        // Landed but not (or no longer) expected: a duplicate or a sample
        // out of order.
        while landed.get(*j).is_some_and(|&(gt, _)| gt < wt) {
            bad[k] += 1;
            *j += 1;
        }
        match landed.get(*j) {
            Some(&(gt, gv)) if gt == wt => {
                bad[k] += u64::from(gv.to_bits() != wv.to_bits());
                *j += 1;
            }
            // Expected but never landed.
            _ => bad[k] += 1,
        }
    }
    for (k, name) in inp.names.iter().enumerate() {
        let landed = got[k].map_or(0, <[_]>::len);
        bad[k] += (landed - next[k]) as u64;
        if bad[k] > 0 {
            let state = if got[k].is_some() {
                "differ"
            } else {
                "missing"
            };
            problems.push(format!(
                "stream {} @ {}: {} samples {state} ({landed} landed)",
                name.0, name.1, bad[k]
            ));
        }
        failed += bad[k];
    }
    failed
}

/// Whether to start another session: while one more fits in `--seconds`
/// at the mean session time so far, and at least three. The traced run
/// alternates untraced and traced sessions to measure its own overhead,
/// so it runs at least two of each and stops after a traced one.
fn another_session(args: &Args, done: usize, elapsed_s: f64) -> bool {
    let min = if args.trace { 4 } else { 3 };
    if done < min || (args.trace && done % 2 == 1) {
        return true;
    }
    !args.tiny && elapsed_s * (done + 1) as f64 / done as f64 <= args.seconds
}

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let rounds = if args.tiny { 16 } else { 2048 };
    let shape = match args.workload {
        Workload::FleetBatched => Shape {
            batched: true,
            rounds,
            per_round: 512,
            per_frame: RELAY_BATCH,
        },
        _ => Shape {
            batched: false,
            rounds,
            per_round: 64,
            per_frame: 1,
        },
    };
    let inp = Inputs::generate(shape, args.seed);
    let mut sessions: Vec<Session> = Vec::new();
    let started = Instant::now();
    while another_session(args, sessions.len(), started.elapsed().as_secs_f64()) {
        let sid = sessions.len() as u64;
        tr.set_on(args.trace && sid % 2 == 1);
        let inject = args.inject.filter(|_| sid == 0);
        let s = session(&inp, tr, sid, inject);
        eprintln!(
            "perfbench: session {sid}{}: setup {:.3} s, loop {:.3} s, lag p50 {:.3} ms, p99 {:.3} ms, streams {:.3} s",
            if s.traced { " (traced)" } else { "" },
            s.setup_s,
            s.loop_s,
            percentile(&mut s.lags_ms.clone(), 50.0),
            percentile(&mut s.lags_ms.clone(), 99.0),
            s.streams_s
        );
        sessions.push(s);
    }
    tr.set_on(false);

    let mut out = Outcome::default();
    for s in &sessions {
        out.attempted += s.attempted;
        out.failed += s.failed;
    }
    if out.failed > 0 {
        out.problems.push(format!(
            "{} of {} samples or checks failed",
            out.failed, out.attempted
        ));
    }
    // Each session is one repetition. The lag percentiles pool every round
    // of every untraced session; set-up, rate and view report the median
    // session. The CPU cost per sample is taken over every session's loop;
    // the view is gated on its CPU time, which a busy host inflates far
    // less than its wall time.
    let plain: Vec<&Session> = sessions.iter().filter(|s| !s.traced).collect();
    let med = |f: &dyn Fn(&Session) -> f64, of: &[&Session]| {
        let mut v: Vec<f64> = of.iter().map(|s| f(s)).collect();
        median(&mut v)
    };
    let each = |f: &dyn Fn(&Session) -> f64| plain.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let setup = Named::median("setup_s", "s", &each(&|s| s.setup_s));
    let rate = Named::median(
        "ingest_samples_per_s",
        "samples/s",
        &each(&|s| s.landed as f64 / s.loop_s),
    );
    let mut lags: Vec<f64> = plain
        .iter()
        .flat_map(|s| s.lags_ms.iter().copied())
        .collect();
    let p50 = Named::median("lag_ms_p50", "ms", &lags);
    let mut p99 = Named::median("lag_ms_p99", "ms", &[percentile(&mut lags, 99.0)]);
    p99.n = lags.len();
    let streams = Named::median("streams_s", "s", &each(&|s| s.streams_s));
    let view_cpu = Named::median("streams_cpu_ms", "ms", &each(&|s| s.streams_cpu_s * 1e3));
    let landed: u64 = plain.iter().map(|s| s.landed).sum();
    let cpu = Named {
        name: "ingest_cpu_us_per_sample",
        unit: "us",
        value: plain.iter().map(|s| s.loop_cpu_s).sum::<f64>() * 1e6 / landed as f64,
        median: median(&mut each(&|s| s.loop_cpu_s * 1e6 / s.landed as f64)),
        n: plain.len(),
    };
    out.e2e.insert("setup_s", setup.value);
    out.e2e.insert("cpu_us_per_op", cpu.value);
    out.e2e.insert("view_ms", view_cpu.value);
    out.named = vec![setup, cpu, rate, p50, p99, streams, view_cpu];
    out.context = vec![
        ("sessions", plain.len() as f64),
        ("rounds_per_session", shape.rounds as f64),
        ("samples_per_session", shape.samples() as f64),
        ("planted_replays", inp.planted_replays as f64),
    ];

    if args.trace {
        let traced: Vec<&Session> = sessions.iter().filter(|s| s.traced).collect();
        let t = tr.totals();
        let total_ns = |name: &str| t.get(name).map_or(0, |x| x.total_ns) as f64;
        let sum = |f: &dyn Fn(&Session) -> u64| traced.iter().map(|s| f(s)).sum::<u64>() as f64;
        let samples = sum(&|s| s.attempted);
        let landed = sum(&|s| s.landed);
        let last = traced.last().expect("the traced run has traced sessions");
        let encode = total_ns("transport.to_frame") / samples;
        let decode = total_ns("transport.from_frame") / sum(&|s| s.decoded_samples);
        let pump_ns = total_ns("daemonset.pump_until_samples");
        let pump_per_sample = pump_ns / landed;
        let drains = sum(&|s| s.pool_drains);
        let merged_s = tr.median_ns("daemonset.merged_samples") / 1e9;
        let streams_traced = med(&|s| s.streams_s, &traced);
        let loop_traced = med(&|s| s.loop_s, &traced);
        let loop_plain = med(&|s| s.loop_s, &plain);
        let rss_bytes = crate::peak_rss_mb() * 1024.0 * 1024.0;
        let l = &mut out.layers;
        l.insert("transport.encode_ns_per_sample", encode);
        l.insert(
            "transport.send_ns_per_frame",
            total_ns("transport.send") / sum(&|s| s.frames_sent),
        );
        l.insert("transport.decode_ns_per_sample", decode);
        l.insert(
            "transport.bytes_per_sample",
            last.payload_bytes as f64 / last.attempted as f64,
        );
        l.insert("daemonset.pump_busy_s", pump_ns / 1e9 / traced.len() as f64);
        l.insert("daemonset.pump_ns_per_sample", pump_per_sample);
        l.insert("daemonset.pump_calls", drains / traced.len() as f64);
        l.insert("daemonset.samples_per_call", landed / drains.max(1.0));
        l.insert("daemonset.land_ns_per_sample", pump_per_sample - decode);
        l.insert("daemonset.merged_samples_s", merged_s);
        l.insert("daemonset.group_s", streams_traced - merged_s);
        l.insert(
            "daemonset.held_bytes_per_sample",
            rss_bytes / last.attempted as f64,
        );
        l.insert("daemonset.fleet_nodes", last.fleet_nodes as f64);
        l.insert(
            "daemonset.ask_fleet_obs_us",
            tr.median_ns("daemonset.ask_fleet_obs") / 1e3,
        );
        l.insert(
            "daemonset.replays_suppressed",
            last.replays_suppressed as f64,
        );
        l.insert("daemonset.samples_lost", last.samples_lost as f64);
        l.insert("datamgr.shard_skew", last.shard_skew);
        l.insert(
            "obs.overhead_pct",
            (loop_traced - loop_plain) / loop_plain * 100.0,
        );
    }
    out
}
