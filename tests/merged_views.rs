//! The merged views of a multi-daemon session against a naive reference.
//!
//! A seeded mix of loose samples, fresh, replayed and unsequenced batches
//! crosses three skewed in-process links; a clock sync runs mid-session;
//! same-instant stamps land on every link. `merged_samples`,
//! `merged_streams`, `fleet_health` and `shard_stats` must then agree with
//! a reference built from the sent samples alone — ties in aligned time
//! break shard first, then by arrival.

use paradyn_tool::selfmap::{obs_count_metric, obs_focus, obs_time_metric};
use paradyn_tool::{DaemonMsg, DaemonSet, DataManager, Stream};
use pdmap::model::Namespace;
use pdmap_transport::{send_wire, Backend, Transport, TransportConfig, WirePayload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The daemon end of one link, answering clock probes `skew_ns` ahead of
/// the tool clock.
struct FakeDaemon {
    tx: Arc<dyn Transport>,
    skew_ns: i64,
}

fn set_with_skews(skews: &[i64]) -> (DaemonSet, Vec<FakeDaemon>) {
    let cfg = TransportConfig::default();
    let mut transports = Vec::new();
    let mut daemons = Vec::new();
    for (i, &skew_ns) in skews.iter().enumerate() {
        let link = Backend::InProc.link(&cfg);
        transports.push((format!("fake#{i}"), link.client));
        daemons.push(FakeDaemon {
            tx: link.server,
            skew_ns,
        });
    }
    let data = DataManager::sharded(Namespace::new(), "CM Fortran", skews.len());
    (
        DaemonSet::over_transports(transports, Arc::new(data)),
        daemons,
    )
}

/// Clock sync with every fake daemon answering probes from a helper thread.
fn sync(set: &mut DaemonSet, daemons: &[FakeDaemon]) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for d in daemons {
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    while let Ok(Some(frame)) = d.tx.try_recv() {
                        if let Ok(DaemonMsg::ClockProbe { token, t_tool_ns }) =
                            DaemonMsg::from_frame(&frame)
                        {
                            let now = pdmap_obs::now_ns() as i64 + d.skew_ns;
                            let reply = DaemonMsg::ClockReply {
                                token,
                                t_tool_ns,
                                t_daemon_ns: now.max(0) as u64,
                            };
                            let _ = send_wire(&*d.tx, &reply);
                        }
                    }
                    std::thread::yield_now();
                }
            });
        }
        set.clock_sync(5, Duration::from_secs(2)).unwrap();
        stop.store(true, Ordering::Relaxed);
    });
}

/// One sample the differential test sent and expects to land: its
/// link, send position on that link, names, stamp and value.
#[derive(Clone, Debug)]
struct Sent {
    link: usize,
    order: usize,
    metric: String,
    focus: String,
    wall: u64,
    value: f64,
}

/// The differential test's traffic generator: a seeded mix of loose
/// samples, fresh batches, replayed batches (already-seen seqs) and
/// legacy unsequenced batches on every link, recording what must land.
struct Traffic {
    rng: u64,
    sent: Vec<Sent>,
    next_seq: Vec<u64>,
    last_batch: Vec<Option<pdmap_transport::SampleBatch>>,
    replays: Vec<u64>,
}

impl Traffic {
    fn new(seed: u64, links: usize) -> Self {
        Self {
            rng: seed,
            sent: Vec::new(),
            next_seq: vec![1; links],
            last_batch: vec![None; links],
            replays: vec![0; links],
        }
    }

    fn next(&mut self, n: u64) -> u64 {
        // xorshift64
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng % n
    }

    fn landed(&mut self, link: usize, metric: &str, focus: &str, wall: u64, value: f64) {
        let order = self.sent.iter().filter(|s| s.link == link).count();
        self.sent.push(Sent {
            link,
            order,
            metric: metric.into(),
            focus: focus.into(),
            wall,
            value,
        });
    }

    /// Sends one fresh sequenced batch on `link` of `rows` (metric,
    /// focus, wall), each with a drawn value.
    fn batch(&mut self, d: &FakeDaemon, link: usize, rows: &[(&str, &str, u64)]) {
        let mut samples = Vec::new();
        for &(m, f, w) in rows {
            let v = self.next(1000) as f64 * 0.25;
            self.landed(link, m, f, w, v);
            samples.push(pdmap_transport::BatchSample {
                metric: m.into(),
                focus: f.into(),
                wall: w,
                value: v,
            });
        }
        let batch = pdmap_transport::SampleBatch {
            samples,
            seq: self.next_seq[link],
            ..Default::default()
        };
        self.next_seq[link] += 1;
        send_wire(&*d.tx, &batch).unwrap();
    }

    /// Sends one frame on `link` with samples drawn from `names` and
    /// walls from `wall(rng)`.
    fn frame(
        &mut self,
        d: &FakeDaemon,
        link: usize,
        names: &[(String, String)],
        wall: &mut dyn FnMut(&mut Self) -> u64,
    ) {
        let roll = self.next(100);
        if roll < 10 {
            if let Some(old) = self.last_batch[link].clone() {
                // A handover replay: suppressed by the seq watermark.
                send_wire(&*d.tx, &old).unwrap();
                self.replays[link] += 1;
                return;
            }
        }
        if roll < 50 {
            let (m, f) = names[self.next(names.len() as u64) as usize].clone();
            let (w, v) = (wall(self), self.next(1000) as f64 * 0.25);
            let msg = DaemonMsg::Sample {
                metric: m.clone(),
                focus: f.clone(),
                wall: w,
                value: v,
            };
            send_wire(&*d.tx, &msg).unwrap();
            self.landed(link, &m, &f, w, v);
            return;
        }
        let legacy = roll >= 95;
        let mut samples = Vec::new();
        for _ in 0..1 + self.next(8) {
            let (m, f) = names[self.next(names.len() as u64) as usize].clone();
            let (w, v) = (wall(self), self.next(1000) as f64 * 0.25);
            self.landed(link, &m, &f, w, v);
            samples.push(pdmap_transport::BatchSample {
                metric: m.as_str().into(),
                focus: f.as_str().into(),
                wall: w,
                value: v,
            });
        }
        let seq = if legacy { 0 } else { self.next_seq[link] };
        let batch = pdmap_transport::SampleBatch {
            samples,
            seq,
            ..Default::default()
        };
        send_wire(&*d.tx, &batch).unwrap();
        if !legacy {
            self.next_seq[link] += 1;
            self.last_batch[link] = Some(batch);
        }
    }
}

/// The reference merge: every landed sample aligned with its link's
/// final offset, sorted by (aligned, shard, arrival).
fn reference<'a>(sent: &'a [Sent], offsets: &[i64]) -> Vec<(u64, &'a Sent)> {
    let mut want: Vec<(u64, &Sent)> = sent
        .iter()
        .map(|s| ((s.wall as i64 - offsets[s.link]).max(0) as u64, s))
        .collect();
    want.sort_by_key(|&(t, s)| (t, s.link, s.order));
    want
}

/// The reference streams: `want` grouped by (metric, focus) in
/// first-seen order.
fn reference_streams(want: &[(u64, &Sent)]) -> Vec<Stream> {
    let mut streams: Vec<Stream> = Vec::new();
    for &(t, w) in want {
        let at = streams
            .iter()
            .position(|st| st.metric == w.metric && st.focus == w.focus);
        let at = at.unwrap_or_else(|| {
            streams.push(Stream {
                metric: w.metric.clone(),
                focus: w.focus.clone(),
                units: String::new(),
                samples: Vec::new(),
            });
            streams.len() - 1
        });
        streams[at].samples.push((t, w.value));
    }
    streams
}

/// `merged_samples` and `merged_streams` against the reference merge.
fn assert_merged_views(set: &DaemonSet, want: &[(u64, &Sent)]) {
    let got = set.merged_samples();
    assert_eq!(got.len(), want.len());
    for (g, &(t, w)) in got.iter().zip(want) {
        let expect = (w.link, &*w.metric, &*w.focus, w.wall, t, w.value);
        let actual = (
            g.daemon,
            g.metric.as_str(),
            g.focus.as_str(),
            g.wall,
            g.aligned_ns,
            g.value,
        );
        assert_eq!(actual, expect);
    }
    assert_eq!(
        format!("{:?}", *set.merged_streams()),
        format!("{:?}", reference_streams(want))
    );
}

#[test]
fn merged_views_match_a_naive_reference_over_a_seeded_mix() {
    // Three skewed links, one shard each. Phase 1 lands a seeded mix
    // under the default (zero) offsets; a mid-session clock sync then
    // realigns it; phase 2 sends stamps that land on the same
    // tool-clock instant on every link, plus telemetry rows. Every
    // merged view is checked against a reference built from the sent
    // samples alone: ties break shard first, then by arrival.
    let skews = [40_000_000i64, -25_000_000, 0];
    let (mut set, daemons) = set_with_skews(&skews);
    let mut t = Traffic::new(0x5EED_CAFE, skews.len());
    let app: Vec<(String, String)> = ["CPU time", "Summations", "Idle Time"]
        .iter()
        .flat_map(|m| {
            ["/", "/CMFarrays/bow.fcm", "/Machine/node#1"]
                .iter()
                .map(move |f| (m.to_string(), f.to_string()))
        })
        .collect();
    for _ in 0..40 {
        for (link, d) in daemons.iter().enumerate() {
            // Few distinct stamps, some tiny enough to clamp at zero
            // once realigned: plenty of ties within and across links.
            t.frame(d, link, &app, &mut |t| {
                [5, 1_000_000_000][t.next(2) as usize] + t.next(16) * 1_000
            });
        }
    }
    let phase1 = t.sent.len();
    assert_eq!(
        set.pump_until_samples(phase1, Duration::from_secs(5)),
        phase1
    );
    sync(&mut set, &daemons);
    let offsets: Vec<i64> = (0..skews.len())
        .map(|i| set.conn(i).clock().offset_ns)
        .collect();
    for (link, d) in daemons.iter().enumerate() {
        let label = obs_focus("daemon", &format!("fake#{link}"));
        let mut names = app.clone();
        for verb in ["send", "deliver"] {
            names.push((obs_count_metric("daemon", verb), label.clone()));
            names.push((obs_time_metric("daemon", verb), label.clone()));
        }
        let off = offsets[link];
        for _ in 0..40 {
            // Walls that align to one of a few shared tool-clock instants.
            t.frame(d, link, &names, &mut |t| {
                (2_000_000_000 + t.next(8) as i64 * 1_000 + off) as u64
            });
        }
    }
    let total = t.sent.len();
    assert_eq!(set.pump_until_samples(total, Duration::from_secs(5)), total);

    let want = reference(&t.sent, &offsets);
    assert_merged_views(&set, &want);
    assert!(
        want.windows(2)
            .any(|p| p[0].0 == p[1].0 && p[0].1.link != p[1].1.link),
        "the mix must contain cross-link ties"
    );
    let align = |s: &Sent| (s.wall as i64 - offsets[s.link]).max(0) as u64;

    for link in 0..skews.len() {
        let on_link: Vec<&Sent> = t.sent.iter().filter(|s| s.link == link).collect();
        assert_eq!(set.data().shard_stats(link).samples, on_link.len() as u64);
        let conn = set.conn(link);
        assert_eq!(conn.samples_received(), on_link.len() as u64);
        assert_eq!(conn.replays_suppressed(), t.replays[link]);
        drop(conn);
        let telemetry: Vec<&&Sent> = on_link
            .iter()
            .filter(|s| s.metric.starts_with("Obs "))
            .collect();
        let label = obs_focus("daemon", &format!("fake#{link}"));
        let node = set.fleet_health().node(&label).expect("node listed");
        assert_eq!((node.daemon, node.samples), (link, telemetry.len() as u64));
        assert_eq!(
            node.last_aligned_ns,
            telemetry.iter().map(|s| align(s)).max().unwrap()
        );
        for s in &telemetry {
            let last = telemetry
                .iter()
                .rev()
                .find(|r| r.metric == s.metric)
                .unwrap();
            assert_eq!(node.metric(&s.metric), Some(last.value), "{}", s.metric);
        }
    }
    assert_eq!(set.fleet_health().len(), skews.len());
    assert!(t.replays.iter().sum::<u64>() > 0, "the mix must replay");
}

#[test]
fn merged_views_match_the_reference_at_radix_scale() {
    // Streams far above the radix-sort cutoff, each landing out of time
    // order, with aligned ranges that need one ("narrow", one link), two
    // ("medium", one link) and three ("wide", every link) 11-bit digit
    // passes, plus a stream on one tool-clock instant across every link
    // ("instant") and one with few instants, tied within and across
    // links ("ties"). A clock sync runs between the two phases.
    const BASE: u64 = 10_000_000_000;
    let skews = [3_000_000i64, -2_000_000, 0];
    let (mut set, daemons) = set_with_skews(&skews);
    let mut t = Traffic::new(0x0BAD_5EED, skews.len());
    let phase = |t: &mut Traffic, offsets: Option<&[i64]>| {
        for _ in 0..30 {
            for (link, d) in daemons.iter().enumerate() {
                // Phase 1 stamps with the link's true skew; phase 2 with
                // its estimated offset, so tool-clock instants line up.
                let off = offsets.map_or(skews[link], |o| o[link]);
                let on_tool = |at: u64| (at as i64 + off) as u64;
                let kinds = if offsets.is_some() { 4 } else { 2 };
                let rows: Vec<(&str, &str, u64)> = (0..48)
                    .map(|_| match (t.next(kinds), link) {
                        (0, 0) => ("narrow", "/", BASE + t.next(2_000)),
                        (0, 1) => ("medium", "/", BASE + t.next(1 << 20)),
                        (0, _) | (1, _) => ("wide", "/", on_tool(BASE + t.next(1 << 30))),
                        (2, _) => ("instant", "/", on_tool(2 * BASE)),
                        _ => ("ties", "/", on_tool(2 * BASE + t.next(8) * 1_000)),
                    })
                    .collect();
                t.batch(d, link, &rows);
            }
        }
    };
    phase(&mut t, None);
    let phase1 = t.sent.len();
    assert_eq!(
        set.pump_until_samples(phase1, Duration::from_secs(5)),
        phase1
    );
    sync(&mut set, &daemons);
    let offsets: Vec<i64> = (0..skews.len())
        .map(|i| set.conn(i).clock().offset_ns)
        .collect();
    phase(&mut t, Some(&offsets));
    let total = t.sent.len();
    assert_eq!(set.pump_until_samples(total, Duration::from_secs(5)), total);

    let want = reference(&t.sent, &offsets);
    assert_merged_views(&set, &want);

    // The mix covers what the radix sort must get right.
    let streams = reference_streams(&want);
    let passes = |st: &Stream| {
        let (lo, hi) = st
            .samples
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &(t, _)| (lo.min(t), hi.max(t)));
        (u64::BITS - (hi - lo).leading_zeros()).div_ceil(11)
    };
    let mut need: Vec<(&str, u32)> = streams.iter().map(|st| (&*st.metric, passes(st))).collect();
    need.sort();
    assert_eq!(
        need,
        [
            ("instant", 0),
            ("medium", 2),
            ("narrow", 1),
            ("ties", 2),
            ("wide", 3)
        ]
    );
    for st in &streams {
        assert!(st.samples.len() >= 1_000, "{} is short", st.metric);
        let mut arrival: Vec<&Sent> = t.sent.iter().filter(|s| s.metric == st.metric).collect();
        arrival.sort_by_key(|s| (s.link, s.order));
        let aligned = |s: &&Sent| (s.wall as i64 - offsets[s.link]).max(0) as u64;
        assert!(
            st.metric == "instant" || !arrival.is_sorted_by_key(aligned),
            "{} lands already in time order",
            st.metric
        );
    }
    let ties: Vec<&(u64, &Sent)> = want.iter().filter(|w| w.1.metric == "ties").collect();
    let tied = |same_link: bool| {
        ties.windows(2)
            .any(|p| p[0].0 == p[1].0 && (p[0].1.link == p[1].1.link) == same_link)
    };
    assert!(tied(true) && tied(false), "ties within and across links");
}
