//! Process-level chaos: real `pdmapd` processes, one SIGKILLed
//! mid-session. The tool-side supervisor quarantines the dead node
//! (coverage 3/4, no panic, no silent zero), then readmits a respawned
//! process on a fresh port (coverage 4/4). Also exercises the distinct
//! exit codes and the shared-secret handshake end to end.

use paradyn_tool::{DaemonHealth, DaemonSet, DataManager, SupervisorPolicy};
use pdmap::model::Namespace;
use pdmap_transport::{ReconnectPolicy, TcpClient, Transport, TransportConfig};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One spawned `pdmapd` process plus the address it printed.
struct Proc {
    child: Child,
    addr: std::net::SocketAddr,
}

fn spawn_pdmapd(extra: &[&str]) -> Proc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pdmapd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--samples",
            "400",
            "--period-ms",
            "5",
            "--linger-ms",
            "15000",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pdmapd");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("PDMAPD LISTENING ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .parse()
        .expect("parse bound address");
    Proc { child, addr }
}

fn chaos_transport() -> TransportConfig {
    TransportConfig {
        liveness_timeout: Duration::from_millis(400),
        heartbeat_every: Duration::from_millis(50),
        reconnect: ReconnectPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            jitter_seed: 0xC0FFEE,
        },
        ..TransportConfig::default()
    }
}

fn chaos_policy() -> SupervisorPolicy {
    SupervisorPolicy {
        degrade_after: Duration::from_millis(200),
        quarantine_after: Duration::from_millis(400),
        retry: ReconnectPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(200),
            jitter_seed: 7,
        },
        retry_sync_rounds: 2,
        retry_sync_timeout: Duration::from_millis(500),
        ..SupervisorPolicy::default()
    }
}

#[test]
fn sigkill_one_of_four_processes_covered_then_restored() {
    let mut procs: Vec<Option<Proc>> = (0..4).map(|_| Some(spawn_pdmapd(&[]))).collect();
    let addrs: Vec<_> = procs.iter().map(|p| p.as_ref().unwrap().addr).collect();
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 4));
    let mut set = DaemonSet::connect(&addrs, chaos_transport(), data);
    set.set_policy(chaos_policy());
    set.clock_sync(4, Duration::from_secs(20))
        .expect("all four processes answer clock probes");
    set.pump_until_samples(8, Duration::from_secs(20));

    // SIGKILL process 1: the OS reclaims the socket, nothing is flushed.
    let mut victim = procs[1].take().unwrap();
    victim.child.kill().expect("kill pdmapd");
    victim.child.wait().expect("reap pdmapd");

    let deadline = Instant::now() + Duration::from_secs(20);
    while set.health(1) != DaemonHealth::Quarantined && Instant::now() < deadline {
        set.pump();
        set.supervise();
        std::thread::sleep(Duration::from_millis(10));
    }
    let cov = set.coverage();
    assert_eq!(
        (cov.nodes_reporting, cov.nodes_total),
        (3, 4),
        "killed process must show in coverage: {cov}"
    );

    // Respawn on a fresh port; point the reconnect factory at it.
    let replacement = spawn_pdmapd(&[]);
    let new_addr = replacement.addr;
    set.set_reconnect(
        1,
        Box::new(move || TcpClient::connect(new_addr, chaos_transport()) as Arc<dyn Transport>),
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while set.health(1) == DaemonHealth::Quarantined && Instant::now() < deadline {
        set.pump();
        set.supervise();
        std::thread::sleep(Duration::from_millis(10));
    }
    let cov = set.coverage();
    assert_eq!(
        (cov.nodes_reporting, cov.nodes_total),
        (4, 4),
        "respawned process must be readmitted: {cov}"
    );
    assert!(set.recoveries().iter().any(|r| r.daemon == 1));

    // Reap everything (the sessions end on their own linger; kill is fine
    // here, the assertions above are the point).
    for p in procs.iter_mut().flatten() {
        let _ = p.child.kill();
        let _ = p.child.wait();
    }
    let mut replacement = replacement;
    let _ = replacement.child.kill();
    let _ = replacement.child.wait();
}

#[test]
fn exit_codes_are_distinct_per_failure_class() {
    // Bad args → 2.
    let out = Command::new(env!("CARGO_BIN_EXE_pdmapd"))
        .arg("--no-such-flag")
        .output()
        .expect("run pdmapd");
    assert_eq!(out.status.code(), Some(2), "bad args exit 2");

    // Unbindable listen address → 3.
    let out = Command::new(env!("CARGO_BIN_EXE_pdmapd"))
        .args(["--listen", "203.0.113.1:1"]) // TEST-NET-3: never local
        .output()
        .expect("run pdmapd");
    assert_eq!(out.status.code(), Some(3), "bind failure exit 3");

    // Session error (no tool ever connects) → 4.
    let out = Command::new(env!("CARGO_BIN_EXE_pdmapd"))
        .args(["--listen", "127.0.0.1:0", "--connect-timeout-ms", "200"])
        .output()
        .expect("run pdmapd");
    assert_eq!(out.status.code(), Some(4), "no-tool session exit 4");
}

#[test]
fn wrong_secret_never_reaches_a_session() {
    // A daemon requiring a secret: a tool with the wrong passphrase is
    // rejected by the challenge/response handshake before any session
    // frame; the right passphrase syncs fine.
    let proc = spawn_pdmapd(&["--secret", "correct horse", "--connect-timeout-ms", "30000"]);
    let bad_cfg = TransportConfig {
        secret: Some(pdmap_transport::secret_from_str("wrong pony")),
        reconnect: ReconnectPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(50),
            jitter_seed: 3,
        },
        ..chaos_transport()
    };
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 1));
    let mut bad_set = DaemonSet::connect(&[proc.addr], bad_cfg, data);
    assert!(
        bad_set.clock_sync(2, Duration::from_millis(300)).is_err(),
        "wrong secret must never sync"
    );
    assert_eq!(bad_set.conn(0).samples_received(), 0);

    let good_cfg = TransportConfig {
        secret: Some(pdmap_transport::secret_from_str("correct horse")),
        ..chaos_transport()
    };
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 1));
    let mut good_set = DaemonSet::connect(&[proc.addr], good_cfg, data);
    good_set
        .clock_sync(3, Duration::from_secs(20))
        .expect("right secret syncs");
    good_set.pump_until_samples(2, Duration::from_secs(20));
    assert!(good_set.conn(0).samples_received() >= 2);

    let mut proc = proc;
    let _ = proc.child.kill();
    let _ = proc.child.wait();
}
