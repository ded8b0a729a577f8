//! The names of everything the benchmark measures: five workloads, the
//! end-to-end metrics every workload reports, and the per-layer metrics
//! of the traced pass. `BENCHMARK.json` at the repository root lists the
//! same names; the self-test keeps the two in step.

use crate::json::Value;

/// Seconds one run measures for; `BENCHMARK.json` names the same number.
pub const RUN_SECONDS: u64 = 15;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    WireRead,
    ReplicaRead,
    WireWrite,
    AdmissionTrickle,
    AnalysisSuite,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WireRead,
        Workload::ReplicaRead,
        Workload::WireWrite,
        Workload::AdmissionTrickle,
        Workload::AnalysisSuite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireRead => "wire_read",
            Workload::ReplicaRead => "replica_read",
            Workload::WireWrite => "wire_write",
            Workload::AdmissionTrickle => "admission_trickle",
            Workload::AnalysisSuite => "analysis_suite",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn bit(self) -> u8 {
        1 << self as u8
    }
}

const WR: u8 = 1 << Workload::WireRead as u8;
const RR: u8 = 1 << Workload::ReplicaRead as u8;
const WW: u8 = 1 << Workload::WireWrite as u8;
const AT: u8 = 1 << Workload::AdmissionTrickle as u8;
const AS: u8 = 1 << Workload::AnalysisSuite as u8;
/// Every workload that serves a monitor.
const SERVING: u8 = WR | RR | WW | AT;
const EVERY: u8 = SERVING | AS;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))] // BENCHMARK.json spells it; a test compares
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a caller of the system would see; every workload reports
/// every one of them from its untraced pass.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer, from the traced pass. A workload in which the
/// layer does no work reports 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))] // stated for the reader and for BENCHMARK.json
    pub better: Better,
    /// The workloads that measure it (bit set of [`Workload`]).
    workloads: u8,
}

impl PerLayer {
    pub fn measured_on(&self, workload: Workload) -> bool {
        self.workloads & workload.bit() != 0
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, workloads: u8) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        workloads,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 70] = [
    // wire: the codec, probed on the workload's own frames.
    layer("wire.encode_request_check_ns", "ns", Lower, WR | WW),
    layer("wire.decode_request_check_ns", "ns", Lower, WR | WW),
    layer("wire.encode_response_check_ns", "ns", Lower, WR | WW),
    layer("wire.decode_response_check_ns", "ns", Lower, WR | WW),
    layer("wire.encode_request_submit_ns", "ns", Lower, WR | WW),
    layer("wire.decode_request_submit_ns", "ns", Lower, WR | WW),
    layer("wire.encode_response_submit_ns", "ns", Lower, WR | WW),
    layer("wire.decode_response_submit_ns", "ns", Lower, WR | WW),
    layer("wire.bytes_per_check", "count", Lower, WR | WW),
    layer("wire.repl_delta_encode_ns", "ns", Lower, RR),
    layer("wire.repl_delta_decode_ns", "ns", Lower, RR),
    // daemon + client: the socket round trip and what the codec and the
    // in-process call do not explain of it.
    layer("daemon.noop_rtt_us", "us", Lower, WR | WW),
    layer("daemon.residual_us", "us", Lower, WR | WW),
    layer("client.send_us", "us", Lower, WW),
    layer("client.wait_us", "us", Lower, WW),
    layer("client.decode_us", "us", Lower, WW),
    layer("client.check_p99_us", "us", Lower, WR),
    layer("client.check_samples", "count", Higher, WR),
    layer("client.submit_p99_us", "us", Lower, WW),
    layer("client.submit_samples", "count", Higher, WW),
    // monitor: the in-process decision and publish paths.
    layer("monitor.check_hit_ns", "ns", Lower, SERVING),
    layer("monitor.check_miss_ns", "ns", Lower, SERVING),
    layer("monitor.read_scaling_2t", "ratio", Higher, RR | AT),
    layer("monitor.submit_batch_us", "us", Lower, SERVING),
    layer("monitor.incremental_share", "ratio", Higher, SERVING),
    layer("monitor.forced_deactivations", "count", Lower, SERVING),
    layer("arcswap.load_ns", "ns", Lower, RR | AT),
    layer("transition.step_ns", "ns", Lower, SERVING),
    layer("checksum.toggle_ns", "ns", Lower, SERVING),
    // core.snapshot / core.reach / core.admission, on the wide universe.
    layer("snapshot.next_us", "us", Lower, AT),
    layer("reach.apply_delta_ua_us", "us", Lower, AT),
    layer("reach.apply_delta_rh_add_us", "us", Lower, AT),
    layer("reach.apply_delta_rh_remove_us", "us", Lower, AT),
    layer("reach.build_ms", "ms", Lower, AT),
    layer("admission.interval_ms", "ms", Lower, AT | AS),
    layer("admission.evaluate_us", "us", Lower, AT),
    layer("admission.gated_over_ungated", "ratio", Lower, AT),
    layer("service.publish_per_s", "1/s", Higher, AT),
    layer("service.publish_p90_us", "us", Lower, AT),
    layer("service.publish_samples", "count", Higher, AT),
    // store + group_commit: the durable write path.
    layer("store.append_us", "us", Lower, WW),
    layer("store.sync_us", "us", Lower, WW),
    layer("store.execute_batch1_us", "us", Lower, WW),
    layer("store.execute_batch8_us", "us", Lower, WW),
    layer("store.wal_bytes_per_cmd", "count", Lower, WW),
    layer("store.open_replay_ms", "ms", Lower, WW),
    layer("group_commit.cmds_per_epoch", "ratio", Higher, WW),
    layer("group_commit.solo_overhead_us", "us", Lower, WW),
    // replication: primary ack, frame apply, replica visibility.
    layer("replication.ack_us", "us", Lower, RR),
    layer("replication.ack_to_visible_us", "us", Lower, RR),
    layer("replication.apply_us", "us", Lower, RR),
    layer("replication.bytes_per_epoch", "count", Lower, RR),
    layer("replication.bootstrap_ms", "ms", Lower, RR),
    layer("replication.visible_p50_us", "us", Lower, RR),
    layer("replication.visible_grant_p50_us", "us", Lower, RR),
    layer("replication.visible_revoke_p50_us", "us", Lower, RR),
    layer("replication.visible_p90_us", "us", Lower, RR),
    layer("replication.visible_samples", "count", Higher, RR),
    // The offline engines: one metric per analysis job.
    layer("search.bounded_ms", "ms", Lower, AS),
    layer("search.sliced_ms", "ms", Lower, AS),
    layer("search.states_expanded", "count", Lower, AS),
    layer("verify.saturation_ms", "ms", Lower, AS),
    layer("verify.bmc_ms", "ms", Lower, AS),
    layer("lint.report_ms", "ms", Lower, AS),
    layer("refinement.nonadmin_ms", "ms", Lower, AS),
    layer("refinement.simulation_ms", "ms", Lower, AS),
    layer("ordering.build_ms", "ms", Lower, AS),
    layer("ordering.decide_ns", "ns", Lower, AS),
    // The traced pass itself: spans recorded, and the throughput it ran at
    // (against the untraced `ops_per_s`, that is the tracing overhead).
    layer("trace.spans", "count", Higher, EVERY),
    layer("trace.ops_per_s", "ops/s", Higher, EVERY),
];

/// Named values collected during one workload run.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared metric"
        );
        assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the untraced pass: every end-to-end
    /// metric, or the name of one that was not measured.
    pub fn end_to_end(&self) -> Result<Value, String> {
        let mut fields = Vec::new();
        for m in &END_TO_END {
            let value = self
                .get(m.name)
                .ok_or_else(|| format!("end-to-end metric {} was not measured", m.name))?;
            fields.push((m.name, metric(value, m.unit)));
        }
        Ok(Value::obj(fields))
    }

    /// The `metrics` object of the traced pass: every per-layer metric;
    /// one the workload does not exercise reads 0, one it should have
    /// measured and did not is an error.
    pub fn per_layer(&self, workload: Workload) -> Result<Value, String> {
        let mut fields = Vec::new();
        for m in &PER_LAYER {
            let value = match (self.get(m.name), m.measured_on(workload)) {
                (Some(v), true) => v,
                (None, false) => 0.0,
                (None, true) => {
                    return Err(format!(
                        "{} was not measured on {}",
                        m.name,
                        workload.name()
                    ))
                }
                (Some(_), false) => {
                    return Err(format!("{} is not a metric of {}", m.name, workload.name()))
                }
            };
            fields.push((m.name, metric(value, m.unit)));
        }
        Ok(Value::obj(fields))
    }
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj(vec![
        ("value", Value::Num(value)),
        ("unit", Value::str(unit)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` and the tables above name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            file.get("run_seconds").unwrap().as_f64(),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(file.get("paths").unwrap().render(), r#"["benchmark"]"#);

        let names = |list: &str| -> Vec<Vec<String>> {
            file.get(list)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|entry| {
                    entry
                        .as_obj()
                        .unwrap()
                        .iter()
                        .map(|(_, v)| v.render())
                        .collect()
                })
                .collect()
        };
        let quoted = |s: &str| format!("\"{s}\"");
        let workloads: Vec<String> = names("workloads")
            .into_iter()
            .map(|w| w[0].clone())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| quoted(w.name())).collect();
        assert_eq!(workloads, ours);
        let ours: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|m| {
                vec![
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.name()),
                    m.bound.to_string(),
                ]
            })
            .collect();
        assert_eq!(names("end_to_end"), ours);
        let ours: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|m| vec![quoted(m.name), quoted(m.unit), quoted(m.better.name())])
            .collect();
        assert_eq!(names("per_layer"), ours);
    }

    #[test]
    fn unexercised_layers_read_zero_and_missing_measurements_are_errors() {
        let mut values = Values::default();
        assert!(values.end_to_end().is_err());
        for m in &PER_LAYER {
            if m.measured_on(Workload::AnalysisSuite) {
                values.set(m.name, 1.0);
            }
        }
        let metrics = values.per_layer(Workload::AnalysisSuite).unwrap();
        let value = |name| metrics.get(name).unwrap().get("value").unwrap().as_f64();
        assert_eq!(value("lint.report_ms"), Some(1.0));
        assert_eq!(value("store.sync_us"), Some(0.0));
        assert!(values.per_layer(Workload::WireRead).is_err());
    }
}
