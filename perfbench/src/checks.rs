//! Output checks on simulated results, and the digest that lets a
//! speed-only change show its outputs did not move.
//!
//! The model is unvalidated against real hardware, so the checks assert
//! invariants every correct run keeps and the shape of the paper's
//! Table III, not an accuracy figure.

use wmn_netsim::RunResult;

use crate::workloads::{Job, WorkloadId};

/// Invariants every run of `workload` must keep.
///
/// # Errors
///
/// Names the first violated invariant.
pub fn check_run(workload: WorkloadId, result: &RunResult) -> Result<(), String> {
    for (station, stats) in result.mac_stats.iter().enumerate() {
        if stats.acks_received > stats.data_frames_sent {
            return Err(format!(
                "station {station}: {} ACKs received for {} data frames sent",
                stats.acks_received, stats.data_frames_sent
            ));
        }
    }
    if !result.total_throughput_mbps.is_finite() {
        return Err("total throughput is not finite".into());
    }
    for flow in &result.flows {
        if !flow.throughput_mbps.is_finite() {
            return Err(format!("flow {}: throughput is not finite", flow.flow.index()));
        }
        if let Some(voip) = &flow.voip {
            if voip.received > voip.sent {
                return Err(format!(
                    "flow {}: {} VoIP datagrams received of {} sent",
                    flow.flow.index(),
                    voip.received,
                    voip.sent
                ));
            }
            if !(voip.mos.is_finite() && voip.loss_fraction.is_finite()) {
                return Err(format!("flow {}: MoS or loss is not finite", flow.flow.index()));
            }
        }
    }
    if workload == WorkloadId::HiddenFtp {
        check_main_flow(result)?;
    }
    Ok(())
}

/// The main FTP flow of `hidden_ftp` either delivers or is starved, never
/// silent. Under five saturated hidden senders a correct run may deliver
/// nothing: the first segment loses every MAC attempt, and TCP backs off
/// its 1 s initial RTO to 2 s and then 4 s, past the end of a 4 s run.
/// Such a run must show what starved it: data frames its source put on the
/// air and at least one RTO expiry.
fn check_main_flow(result: &RunResult) -> Result<(), String> {
    let main = &result.flows[0];
    let tcp = main.tcp.as_ref().ok_or("hidden_ftp: the main flow has no TCP result")?;
    if main.delivered_bytes > 0 && tcp.segments_arrived == 0 {
        return Err(format!(
            "hidden_ftp: the main flow delivered {} bytes but no segment arrived",
            main.delivered_bytes
        ));
    }
    let source_frames = result.mac_stats[0].data_frames_sent;
    if main.delivered_bytes == 0 && (tcp.timeouts == 0 || source_frames == 0) {
        return Err(format!(
            "hidden_ftp: the main flow delivered nothing with {} RTO expiries and {source_frames} \
             data frames sent by its source",
            tcp.timeouts
        ));
    }
    Ok(())
}

/// Mean MoS over every VoIP flow of the runs labelled `scheme`.
fn mean_mos(jobs: &[Job], results: &[RunResult], scheme: &str) -> f64 {
    let moses: Vec<f64> = jobs
        .iter()
        .zip(results)
        .filter(|(job, _)| job.scheme == scheme)
        .flat_map(|(_, r)| r.flows.iter().filter_map(|f| f.voip.map(|v| v.mos)))
        .collect();
    moses.iter().sum::<f64>() / moses.len().max(1) as f64
}

/// Checks across a whole batch: on `voip_table3`, the per-scheme mean MoS
/// must order DCF < AFR < RIPPLE-16, the shape of the paper's Table III at
/// 30 calls; on `hidden_ftp`, the main flow must deliver in some run, as a
/// starved run is rare (about 1 in 150).
///
/// # Errors
///
/// Reports the three means when the order does not hold, or that no
/// `hidden_ftp` run delivered.
pub fn check_batch(
    workload: WorkloadId,
    jobs: &[Job],
    results: &[RunResult],
) -> Result<(), String> {
    if workload == WorkloadId::HiddenFtp {
        return if results.iter().any(|r| r.flows[0].delivered_bytes > 0) {
            Ok(())
        } else {
            Err("hidden_ftp: the main FTP flow delivered nothing in any run of the batch".into())
        };
    }
    if workload != WorkloadId::VoipTable3 {
        return Ok(());
    }
    let [dcf, afr, ripple] = ["DCF", "AFR", "RIPPLE-16"].map(|s| mean_mos(jobs, results, s));
    if dcf < afr && afr < ripple {
        Ok(())
    } else {
        Err(format!(
            "Table III order broken: MoS DCF {dcf:.3}, AFR {afr:.3}, RIPPLE-16 {ripple:.3}"
        ))
    }
}

/// Checks that two runs of the same scenario gave the same result, bit for
/// bit.
///
/// # Errors
///
/// Names `what` was compared when they differ.
pub fn check_same(what: &str, a: &RunResult, b: &RunResult) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: results differ ({:016x} vs {:016x})", digest(a), digest(b)))
    }
}

/// Frames the run put on the air: data frames and ACKs of every station.
pub fn frames_on_air(result: &RunResult) -> u64 {
    result.mac_stats.iter().map(|s| s.data_frames_sent + s.ack_frames_sent).sum()
}

/// FNV-1a over the result's debug rendering, which prints every float in
/// its shortest round-trip form, so equal digests mean equal outputs.
pub fn digest(result: &RunResult) -> u64 {
    format!("{result:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{jobs, HIDDEN_DURATION};
    use wmn_netsim::run;
    use wmn_sim::SimDuration;

    /// A short batch of a workload: the real jobs, cut to `millis`.
    fn short_batch(workload: WorkloadId, millis: u64) -> (Vec<Job>, Vec<RunResult>) {
        let jobs = jobs(workload, 1);
        let results = jobs
            .iter()
            .map(|job| {
                let mut scenario = job.materialise();
                scenario.duration = SimDuration::from_millis(millis);
                run(&scenario)
            })
            .collect();
        (jobs, results)
    }

    #[test]
    fn genuine_results_pass_every_check() {
        let (jobs, results) = short_batch(WorkloadId::VoipTable3, 1_500);
        for r in &results {
            assert_eq!(check_run(WorkloadId::VoipTable3, r), Ok(()));
        }
        assert_eq!(check_batch(WorkloadId::VoipTable3, &jobs, &results), Ok(()));
    }

    #[test]
    fn inflated_acks_are_rejected() {
        let (_, mut results) = short_batch(WorkloadId::HiddenFtp, 50);
        let station = &mut results[0].mac_stats[0];
        station.acks_received = station.data_frames_sent + 1;
        assert!(check_run(WorkloadId::HiddenFtp, &results[0]).is_err());
    }

    #[test]
    fn voip_received_beyond_sent_and_nan_rates_are_rejected() {
        let (_, results) = short_batch(WorkloadId::VoipTable3, 300);
        let mut doctored = results[0].clone();
        let voip = doctored.flows[0].voip.as_mut().expect("a VoIP flow");
        voip.received = voip.sent + 1;
        assert!(check_run(WorkloadId::VoipTable3, &doctored).is_err());
        let mut doctored = results[0].clone();
        doctored.flows[1].throughput_mbps = f64::NAN;
        assert!(check_run(WorkloadId::VoipTable3, &doctored).is_err());
    }

    #[test]
    fn silent_main_flow_is_rejected() {
        let (jobs, mut results) = short_batch(WorkloadId::HiddenFtp, 50);
        assert_eq!(check_run(WorkloadId::HiddenFtp, &results[0]), Ok(()));
        assert_eq!(check_batch(WorkloadId::HiddenFtp, &jobs, &results), Ok(()));
        results[0].flows[0].delivered_bytes = 0;
        assert!(check_run(WorkloadId::HiddenFtp, &results[0]).is_err());
        for r in &mut results {
            r.flows[0].delivered_bytes = 0;
        }
        assert!(check_batch(WorkloadId::HiddenFtp, &jobs, &results).is_err());
    }

    #[test]
    fn starved_main_flow_passes_but_not_without_rto_expiries() {
        // Run seed 5_959_091_817 (workload seed 1_489_772_954) starves the
        // main flow for the whole 4 s run.
        let mut result = run(&crate::workloads::hidden_ftp(5_959_091_817, HIDDEN_DURATION));
        assert_eq!(result.flows[0].delivered_bytes, 0);
        assert_eq!(check_run(WorkloadId::HiddenFtp, &result), Ok(()));
        result.flows[0].tcp.as_mut().expect("a TCP flow").timeouts = 0;
        assert!(check_run(WorkloadId::HiddenFtp, &result).is_err());
    }

    #[test]
    fn inverted_mos_order_is_rejected() {
        let (mut jobs, results) = short_batch(WorkloadId::VoipTable3, 1_500);
        // Swap which runs count as DCF and which as RIPPLE-16.
        for job in &mut jobs {
            job.scheme = match job.scheme {
                "DCF" => "RIPPLE-16",
                "RIPPLE-16" => "DCF",
                other => other,
            };
        }
        assert!(check_batch(WorkloadId::VoipTable3, &jobs, &results).is_err());
    }

    #[test]
    fn two_shard_result_differing_from_one_shard_is_rejected() {
        let mut scenario = jobs(WorkloadId::Campus1kShard1, 1)[0].materialise();
        scenario.duration = SimDuration::from_millis(1);
        let one = run(&scenario);
        scenario.shards = Some(2);
        let two = run(&scenario);
        assert_eq!(check_same("k-invariance", &two, &one), Ok(()));
        let mut doctored = one.clone();
        doctored.mac_stats[0].timeouts += 1;
        assert!(check_same("k-invariance", &two, &doctored).is_err());
        assert_ne!(digest(&two), digest(&doctored));
    }
}
