//! The Figure 9 metric catalogue, written in MDL.
//!
//! "We have used MDL to define many new metrics that are specific to CM
//! Fortran and CMRTS" (§6.3). Every row of Figure 9 appears below with the
//! paper's name and description; each can be constrained to parallel
//! arrays, subsections of arrays, parallel assignment statements, nodes, or
//! combinations — the constraint arrives as guard predicates at
//! instantiation time, not here.

use dyninst_sim::mdl::{parse_mdl, MdlFile, MetricDecl};

/// The MDL source for the full Figure 9 catalogue (plus file-I/O metrics,
/// which Figure 9's surrounding text mentions as CM Fortran verbs).
pub const FIGURE9_MDL: &str = r#"
// ------------------------- CM Fortran (CMF) level -------------------------

metric computations {
    name "Computations";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of computation operations.";
    foreach point "cmrts::compute:entry" { incrCounterArg; }
}

metric computation_time {
    name "Computation Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent computing results.";
    foreach point "cmrts::compute:entry" { startProcessTimer; }
    foreach point "cmrts::compute:exit" { stopProcessTimer; }
}

metric reductions {
    name "Reductions";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array reductions.";
    foreach point "cmrts::reduce:entry" { incrCounter 1; }
}

metric reduction_time {
    name "Reduction Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent reducing arrays.";
    foreach point "cmrts::reduce:entry" { startProcessTimer; }
    foreach point "cmrts::reduce:exit" { stopProcessTimer; }
}

metric summations {
    name "Summations";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array summations.";
    foreach point "cmrts::reduce:sum:entry" { incrCounter 1; }
}

metric summation_time {
    name "Summation Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent summing arrays.";
    foreach point "cmrts::reduce:sum:entry" { startProcessTimer; }
    foreach point "cmrts::reduce:sum:exit" { stopProcessTimer; }
}

metric maxval_count {
    name "MAXVAL Count";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of MAXVAL reductions.";
    foreach point "cmrts::reduce:max:entry" { incrCounter 1; }
}

metric maxval_time {
    name "MAXVAL Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent computing MAXVALs.";
    foreach point "cmrts::reduce:max:entry" { startProcessTimer; }
    foreach point "cmrts::reduce:max:exit" { stopProcessTimer; }
}

metric minval_count {
    name "MINVAL Count";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of MINVAL reductions.";
    foreach point "cmrts::reduce:min:entry" { incrCounter 1; }
}

metric minval_time {
    name "MINVAL Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent computing MINVALs.";
    foreach point "cmrts::reduce:min:entry" { startProcessTimer; }
    foreach point "cmrts::reduce:min:exit" { stopProcessTimer; }
}

metric array_transformations {
    name "Array Transformations";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array transformations.";
    foreach point "cmrts::xform:entry" { incrCounter 1; }
}

metric transformation_time {
    name "Transformation Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent transforming arrays.";
    foreach point "cmrts::xform:entry" { startProcessTimer; }
    foreach point "cmrts::xform:exit" { stopProcessTimer; }
}

metric rotations {
    name "Rotations";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array rotations.";
    foreach point "cmrts::rotate:entry" { incrCounter 1; }
}

metric rotation_time {
    name "Rotation Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent of rotations.";
    foreach point "cmrts::rotate:entry" { startProcessTimer; }
    foreach point "cmrts::rotate:exit" { stopProcessTimer; }
}

metric shifts {
    name "Shifts";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array shifts.";
    foreach point "cmrts::shift:entry" { incrCounter 1; }
}

metric shift_time {
    name "Shift Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent shifting arrays.";
    foreach point "cmrts::shift:entry" { startProcessTimer; }
    foreach point "cmrts::shift:exit" { stopProcessTimer; }
}

metric transposes {
    name "Transposes";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array transposes.";
    foreach point "cmrts::transpose:entry" { incrCounter 1; }
}

metric transpose_time {
    name "Transpose Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent transposing arrays.";
    foreach point "cmrts::transpose:entry" { startProcessTimer; }
    foreach point "cmrts::transpose:exit" { stopProcessTimer; }
}

metric scans {
    name "Scans";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array scans.";
    foreach point "cmrts::scan:entry" { incrCounter 1; }
}

metric scan_time {
    name "Scan Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent scanning arrays.";
    foreach point "cmrts::scan:entry" { startProcessTimer; }
    foreach point "cmrts::scan:exit" { stopProcessTimer; }
}

metric sorts {
    name "Sorts";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array sorts.";
    foreach point "cmrts::sort:entry" { incrCounter 1; }
}

metric sort_time {
    name "Sort Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent sorting arrays.";
    foreach point "cmrts::sort:entry" { startProcessTimer; }
    foreach point "cmrts::sort:exit" { stopProcessTimer; }
}

metric file_io_ops {
    name "File I/O Operations";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of file read/write operations.";
    foreach point "cmrts::io:entry" { incrCounter 1; }
}

metric file_io_time {
    name "File I/O Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent in file I/O.";
    foreach point "cmrts::io:entry" { startWallTimer; }
    foreach point "cmrts::io:exit" { stopWallTimer; }
}

// ------------------------ CM run-time (CMRTS) level ------------------------

metric argument_processing_time {
    name "Argument Processing Time";
    units seconds;
    aggregate sum;
    level "CMRTS";
    description "Time spent receiving arguments from CM-5 control processor.";
    foreach point "cmrts::args:entry" { startProcessTimer; }
    foreach point "cmrts::args:exit" { stopProcessTimer; }
}

metric broadcasts {
    name "Broadcasts";
    units operations;
    aggregate sum;
    level "CMRTS";
    description "Count of broadcast operations.";
    foreach point "cmrts::bcast:send" { incrCounter 1; }
}

metric broadcast_time {
    name "Broadcast Time";
    units seconds;
    aggregate sum;
    level "CMRTS";
    description "Time spent broadcasting.";
    foreach point "cmrts::bcast:send" { startWallTimer; }
    foreach point "cmrts::bcast:recv" { stopWallTimer; }
}

metric cleanups {
    name "Cleanups";
    units operations;
    aggregate sum;
    level "CMRTS";
    description "Count of resets of node vector units.";
    foreach point "cmrts::cleanup:entry" { incrCounter 1; }
}

metric cleanup_time {
    name "Cleanup Time";
    units seconds;
    aggregate sum;
    level "CMRTS";
    description "Time spent resetting node vector units.";
    foreach point "cmrts::cleanup:entry" { startProcessTimer; }
    foreach point "cmrts::cleanup:exit" { stopProcessTimer; }
}

metric idle_time {
    name "Idle Time";
    units seconds;
    aggregate sum;
    level "CMRTS";
    description "Time spent waiting for control processor.";
    foreach point "cmrts::idle:entry" { startProcessTimer; }
    foreach point "cmrts::idle:exit" { stopProcessTimer; }
}

metric node_activations {
    name "Node Activations";
    units operations;
    aggregate sum;
    level "CMRTS";
    description "Count of node activations by control processor.";
    foreach point "cmrts::node:activate" { incrCounter 1; }
}

metric p2p_operations {
    name "Point-to-Point Operations";
    units operations;
    aggregate sum;
    level "CMRTS";
    description "Count of inter-node communication operations.";
    foreach point "cmrts::msg:send" { incrCounter 1; }
}

metric p2p_time {
    name "Point-to-Point Time";
    units seconds;
    aggregate sum;
    level "CMRTS";
    description "Time spent sending data between parallel nodes.";
    foreach point "cmrts::msg:send" { startWallTimer; }
    foreach point "cmrts::msg:recv" { stopWallTimer; }
}

metric p2p_bytes {
    name "Point-to-Point Bytes";
    units bytes;
    aggregate sum;
    level "CMRTS";
    description "Bytes sent between parallel nodes.";
    foreach point "cmrts::msg:send" { incrCounterArg; }
}
"#;

/// Parses the catalogue. Panics only if the embedded source is broken
/// (covered by tests).
pub fn figure9_catalogue() -> MdlFile {
    parse_mdl(FIGURE9_MDL).expect("embedded Figure 9 MDL must parse")
}

/// The MDL source for the transport self-metric catalogue.
///
/// A measurement tool must be able to measure itself: the daemon links that
/// carry samples and forwarded sentences are themselves a potential
/// bottleneck, so every transport backend counts its own traffic and the
/// tool exports those counters as a "Transport" level beside Figure 9's
/// "CM Fortran" and "CMRTS" levels. The metric names here match
/// [`pdmap_transport::TransportStats::rows`] exactly; the point names are
/// the transport crate's internal events, not CMRTS points.
pub const TRANSPORT_MDL: &str = r#"
// ---------------------------- Transport level ----------------------------

metric transport_frames_sent {
    name "Transport Frames Sent";
    units operations;
    aggregate sum;
    level "Transport";
    description "Data frames accepted for delivery.";
    foreach point "transport::send" { incrCounter 1; }
}

metric transport_bytes_sent {
    name "Transport Bytes Sent";
    units bytes;
    aggregate sum;
    level "Transport";
    description "Encoded bytes of frames accepted for delivery.";
    foreach point "transport::send" { incrCounterArg; }
}

metric transport_frames_received {
    name "Transport Frames Received";
    units operations;
    aggregate sum;
    level "Transport";
    description "Data frames delivered to the receiving application.";
    foreach point "transport::recv" { incrCounter 1; }
}

metric transport_bytes_received {
    name "Transport Bytes Received";
    units bytes;
    aggregate sum;
    level "Transport";
    description "Encoded bytes of delivered frames.";
    foreach point "transport::recv" { incrCounterArg; }
}

metric transport_drops {
    name "Transport Drops";
    units operations;
    aggregate sum;
    level "Transport";
    description "Frames discarded by backpressure or link give-up.";
    foreach point "transport::drop" { incrCounterArg; }
}

metric transport_duplicates {
    name "Transport Duplicates";
    units operations;
    aggregate sum;
    level "Transport";
    description "Redelivered frames suppressed by sequence tracking.";
    foreach point "transport::duplicate" { incrCounter 1; }
}

metric transport_retries {
    name "Transport Retries";
    units operations;
    aggregate sum;
    level "Transport";
    description "Failed connection attempts.";
    foreach point "transport::retry" { incrCounter 1; }
}

metric transport_reconnects {
    name "Transport Reconnects";
    units operations;
    aggregate sum;
    level "Transport";
    description "Connections re-established after a loss.";
    foreach point "transport::reconnect" { incrCounter 1; }
}

metric transport_heartbeats_sent {
    name "Transport Heartbeats Sent";
    units operations;
    aggregate sum;
    level "Transport";
    description "Liveness probes sent on idle links.";
    foreach point "transport::heartbeat:send" { incrCounter 1; }
}

metric transport_heartbeats_received {
    name "Transport Heartbeats Received";
    units operations;
    aggregate sum;
    level "Transport";
    description "Liveness probes received, including echoes.";
    foreach point "transport::heartbeat:recv" { incrCounter 1; }
}

metric transport_acks_sent {
    name "Transport Acks Sent";
    units operations;
    aggregate sum;
    level "Transport";
    description "Delivery acknowledgements sent.";
    foreach point "transport::ack:send" { incrCounter 1; }
}

metric transport_acks_received {
    name "Transport Acks Received";
    units operations;
    aggregate sum;
    level "Transport";
    description "Delivery acknowledgements received.";
    foreach point "transport::ack:recv" { incrCounter 1; }
}

metric transport_max_queue_depth {
    name "Transport Max Queue Depth";
    units operations;
    aggregate sum;
    level "Transport";
    description "High-water mark of the bounded send queue.";
    foreach point "transport::queue:observe" { incrCounterArg; }
}

metric transport_auth_failures {
    name "Transport Auth Failures";
    units operations;
    aggregate sum;
    level "Transport";
    description "Peers rejected by the authenticated Hello handshake.";
    foreach point "transport::auth:reject" { incrCounter 1; }
}

metric transport_setup_failures {
    name "Transport Setup Failures";
    units operations;
    aggregate sum;
    level "Transport";
    description "Connection attempts dropped for want of a file descriptor or a reader thread.";
    foreach point "transport::conn:setup_fail" { incrCounter 1; }
}

metric transport_batched_samples_sent {
    name "Transport Batched Samples Sent";
    units operations;
    aggregate sum;
    level "Transport";
    description "Samples carried out in SampleBatch frames (per sample, not per frame).";
    foreach point "transport::batch:send" { incrCounterArg; }
}

metric transport_batched_samples_received {
    name "Transport Batched Samples Received";
    units operations;
    aggregate sum;
    level "Transport";
    description "Samples carried in by SampleBatch frames.";
    foreach point "transport::batch:recv" { incrCounterArg; }
}
"#;

/// Parses the transport catalogue. Panics only if the embedded source is
/// broken (covered by tests).
pub fn transport_catalogue() -> MdlFile {
    parse_mdl(TRANSPORT_MDL).expect("embedded transport MDL must parse")
}

/// Exports a transport snapshot as `(metric, value)` samples in catalogue
/// order, pairing each "Transport"-level metric with its counter. Rows whose
/// name has no catalogue entry are skipped (none exist today; a test pins
/// the two lists to each other).
pub fn export_transport_stats(stats: &pdmap_transport::TransportStats) -> Vec<(MetricDecl, u64)> {
    let catalogue = transport_catalogue();
    let rows = stats.rows();
    catalogue
        .metrics
        .into_iter()
        .filter_map(|m| {
            rows.iter()
                .find(|&&(name, _)| name == m.name)
                .map(|&(_, v)| (m, v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_parses() {
        let f = figure9_catalogue();
        assert!(f.metrics.len() >= 30, "got {}", f.metrics.len());
    }

    #[test]
    fn catalogue_covers_every_figure9_row() {
        let f = figure9_catalogue();
        let names: Vec<&str> = f.metrics.iter().map(|m| m.name.as_str()).collect();
        for expected in [
            "Computations",
            "Computation Time",
            "Reductions",
            "Reduction Time",
            "Summations",
            "Summation Time",
            "MAXVAL Count",
            "MAXVAL Time",
            "MINVAL Count",
            "MINVAL Time",
            "Array Transformations",
            "Transformation Time",
            "Rotations",
            "Rotation Time",
            "Shifts",
            "Shift Time",
            "Transposes",
            "Transpose Time",
            "Scans",
            "Scan Time",
            "Sorts",
            "Sort Time",
            "Argument Processing Time",
            "Broadcasts",
            "Broadcast Time",
            "Cleanups",
            "Cleanup Time",
            "Idle Time",
            "Node Activations",
            "Point-to-Point Operations",
            "Point-to-Point Time",
        ] {
            assert!(names.contains(&expected), "missing metric: {expected}");
        }
    }

    #[test]
    fn levels_split_cmf_and_cmrts() {
        let f = figure9_catalogue();
        let cmf = f.metrics.iter().filter(|m| m.level == "CM Fortran").count();
        let cmrts = f.metrics.iter().filter(|m| m.level == "CMRTS").count();
        assert!(cmf >= 22);
        assert!(cmrts >= 9);
    }

    #[test]
    fn catalogue_survives_emit_parse_roundtrip() {
        let f = figure9_catalogue();
        let reparsed = parse_mdl(&f.emit()).unwrap();
        assert_eq!(f, reparsed);
    }

    #[test]
    fn transport_catalogue_matches_stats_rows_exactly() {
        // Every TransportStats row must have a catalogue metric of the same
        // name, in the same order, and vice versa — the exporter relies on
        // the pairing.
        let f = transport_catalogue();
        let stats = pdmap_transport::TransportStats::default();
        let row_names: Vec<&str> = stats.rows().iter().map(|&(n, _)| n).collect();
        let metric_names: Vec<&str> = f.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(metric_names, row_names);
        for m in &f.metrics {
            assert_eq!(m.level, "Transport", "metric {} has wrong level", m.id);
        }
    }

    #[test]
    fn transport_exporter_pairs_every_counter() {
        let stats = pdmap_transport::TransportStats {
            frames_sent: 7,
            bytes_sent: 700,
            drops: 3,
            max_queue_depth: 12,
            ..Default::default()
        };
        let samples = export_transport_stats(&stats);
        assert_eq!(samples.len(), stats.rows().len());
        let lookup = |name: &str| {
            samples
                .iter()
                .find(|(m, _)| m.name == name)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert_eq!(lookup("Transport Frames Sent"), 7);
        assert_eq!(lookup("Transport Bytes Sent"), 700);
        assert_eq!(lookup("Transport Drops"), 3);
        assert_eq!(lookup("Transport Max Queue Depth"), 12);
        assert_eq!(lookup("Transport Reconnects"), 0);
    }

    #[test]
    fn transport_catalogue_survives_emit_parse_roundtrip() {
        let f = transport_catalogue();
        let reparsed = parse_mdl(&f.emit()).unwrap();
        assert_eq!(f, reparsed);
    }

    #[test]
    fn point_names_match_the_cmrts_registry() {
        // Every point the catalogue references must be a real CMRTS point.
        let reg = dyninst_sim::PointRegistry::new();
        let pts = cmrts_sim::CmrtsPoints::intern(&reg);
        let known: std::collections::BTreeSet<&str> = pts.all().iter().map(|&(n, _)| n).collect();
        let f = figure9_catalogue();
        for m in &f.metrics {
            for pa in &m.points {
                assert!(
                    known.contains(pa.point.as_str()),
                    "metric {} references unknown point {}",
                    m.id,
                    pa.point
                );
            }
        }
    }
}
