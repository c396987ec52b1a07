//! Two-phase commit across consensus groups — Spanner's distributed
//! transactions.
//!
//! A multi-group transaction prepares on every participant (one consensus
//! round each, in parallel), then commits (a second round). The coordinator
//! waits for the *slowest* participant in each phase, which is exactly the
//! remote-work pattern that makes distributed writes the paper's
//! remote-heavy query class.

use hsdp_core::category::{CoreComputeOp, DatacenterTax, Platform, SystemTax};
use hsdp_core::request::RequestId;
use hsdp_rpc::span::{Span, SpanId, SpanKind, TraceId};
use hsdp_simcore::time::{SimDuration, SimTime};

use crate::costs;
use crate::exec::QueryExecution;
use crate::meter::WorkMeter;
use crate::spanner::Spanner;

/// One write of a distributed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnWrite {
    /// Index of the participant group.
    pub group: usize,
    /// Key to write.
    pub key: Vec<u8>,
    /// Value to write.
    pub value: Vec<u8>,
}

/// Executes a two-phase commit across `groups`.
///
/// Phase 1 replicates a prepare record in every participant group; phase 2
/// replicates the commit record and applies the writes. Each phase's
/// remote-work wait is the slowest participant's quorum wait (the phases
/// fan out in parallel).
///
/// # Panics
///
/// Panics if `writes` is empty or references a group out of range.
pub fn distributed_commit(
    groups: &mut [&mut Spanner],
    writes: &[TxnWrite],
    txn_id: u64,
) -> QueryExecution {
    assert!(!writes.is_empty(), "a transaction needs at least one write");
    let mut participants: Vec<usize> = writes.iter().map(|w| w.group).collect();
    participants.sort_unstable();
    participants.dedup();
    assert!(
        participants.iter().all(|&g| g < groups.len()),
        "write references an unknown group"
    );

    let mut meter = WorkMeter::new();
    let (prepare_wait, commit_wait, start) = {
        let mut op = meter.scope("spanner.2pc");
        {
            let mut coord = op.scope("coordinator");
            // Coordinator bookkeeping: transaction record, participant
            // tracking.
            coord.charge_ops(
                CoreComputeOp::Consensus,
                "txn_coordinator",
                participants.len() as u64,
                costs::CONSENSUS_NS_PER_MSG,
            );
            coord.charge_ops(
                DatacenterTax::Rpc,
                "rpc_dispatch",
                participants.len() as u64 * 2,
                costs::RPC_FIXED_NS,
            );
            coord.charge_ops(
                SystemTax::OperatingSystems,
                "sys_sendmsg",
                participants.len() as u64 * 2,
                costs::SYSCALL_NS,
            );
            coord.charge_ops(
                SystemTax::Multithreading,
                "fanout_tasks",
                participants.len() as u64,
                costs::THREAD_HANDOFF_NS,
            );
        }

        // Keep participant clocks coherent with the coordinator's view.
        let start = groups
            .iter()
            .map(|g| g.now())
            .fold(SimTime::ZERO, SimTime::max);
        for group in groups.iter_mut() {
            group.advance_clock_to(start);
        }

        // Phase 1: prepare everywhere; wait for the slowest group.
        let mut prepare_wait = SimDuration::ZERO;
        {
            let mut prepare = op.scope("prepare");
            for &g in &participants {
                let wait = groups[g].replicate_record(
                    &mut prepare,
                    format!("txn:{txn_id}:prepare").as_bytes(),
                    None,
                    txn_id ^ (g as u64) << 8,
                );
                prepare_wait = prepare_wait.max(wait);
            }
        }

        // Phase 2: commit records carry the actual writes.
        let mut commit_wait = SimDuration::ZERO;
        {
            let mut commit = op.scope("commit");
            for write in writes {
                let wait = groups[write.group].replicate_record(
                    &mut commit,
                    &write.key,
                    Some(&write.value),
                    txn_id ^ 0xC0 ^ (write.group as u64) << 8,
                );
                commit_wait = commit_wait.max(wait);
            }
        }
        (prepare_wait, commit_wait, start)
    };

    // Assemble the coordinator's trace.
    let trace = TraceId(u64::MAX ^ txn_id);
    let cpu_end = start + meter.total();
    let prepare_end = cpu_end + prepare_wait;
    let commit_end = prepare_end + commit_wait;
    let spans = vec![
        Span {
            trace,
            id: SpanId(1),
            parent: None,
            name: "spanner.2pc",
            kind: SpanKind::Container,
            start,
            end: commit_end,
        },
        Span {
            trace,
            id: SpanId(2),
            parent: Some(SpanId(1)),
            name: "cpu",
            kind: SpanKind::Cpu,
            start,
            end: cpu_end,
        },
        Span {
            trace,
            id: SpanId(3),
            parent: Some(SpanId(1)),
            name: "prepare_quorums",
            kind: SpanKind::RemoteWork,
            start: cpu_end,
            end: prepare_end,
        },
        Span {
            trace,
            id: SpanId(4),
            parent: Some(SpanId(1)),
            name: "commit_quorums",
            kind: SpanKind::RemoteWork,
            start: prepare_end,
            end: commit_end,
        },
    ];
    for group in groups.iter_mut() {
        group.advance_clock_to(commit_end);
    }

    QueryExecution {
        platform: Platform::Spanner,
        label: "2pc-commit",
        spans,
        cpu_work: meter.take(),
        request: RequestId::UNTAGGED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spanner::SpannerConfig;

    fn groups(n: usize) -> Vec<Spanner> {
        (0..n)
            .map(|i| Spanner::new(SpannerConfig::default(), 100 + i as u64))
            .collect()
    }

    #[test]
    fn writes_land_in_every_group() {
        let mut gs = groups(3);
        let mut refs: Vec<&mut Spanner> = gs.iter_mut().collect();
        let writes = vec![
            TxnWrite {
                group: 0,
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            },
            TxnWrite {
                group: 2,
                key: b"b".to_vec(),
                value: b"2".to_vec(),
            },
        ];
        let exec = distributed_commit(&mut refs, &writes, 7);
        assert_eq!(exec.label, "2pc-commit");
        assert_eq!(gs[0].lookup(b"a"), Some(b"1".to_vec()));
        assert_eq!(gs[2].lookup(b"b"), Some(b"2".to_vec()));
        assert_eq!(gs[1].lookup(b"a"), None, "uninvolved group untouched");
        // Both phases appear in the log of each participant.
        assert_eq!(gs[0].log_len(), 2, "prepare + commit records");
    }

    #[test]
    fn two_pc_pays_two_quorum_rounds() {
        let mut single = Spanner::new(SpannerConfig::default(), 5);
        let single_remote = single
            .commit(b"k".to_vec(), b"v".to_vec())
            .decomposition()
            .remote;

        let mut gs = groups(2);
        let mut refs: Vec<&mut Spanner> = gs.iter_mut().collect();
        let writes = vec![
            TxnWrite {
                group: 0,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            TxnWrite {
                group: 1,
                key: b"k2".to_vec(),
                value: b"v".to_vec(),
            },
        ];
        let exec = distributed_commit(&mut refs, &writes, 9);
        let d = exec.decomposition();
        // Two serialized phases, each waiting on the slowest group: clearly
        // more remote work than a single-group commit.
        assert!(
            d.remote.as_nanos() > single_remote.as_nanos() * 3 / 2,
            "2pc {} vs single {}",
            d.remote,
            single_remote
        );
        assert_eq!(d.remote_share() + d.cpu_share() + d.io_share(), 1.0);
    }

    #[test]
    fn classified_remote_heavy() {
        let mut gs = groups(2);
        let mut refs: Vec<&mut Spanner> = gs.iter_mut().collect();
        let writes = vec![TxnWrite {
            group: 1,
            key: b"x".to_vec(),
            value: b"y".to_vec(),
        }];
        let exec = distributed_commit(&mut refs, &writes, 11);
        let d = exec.decomposition();
        assert!(
            d.remote_share() > 0.3,
            "2pc is remote-work heavy: {}",
            d.remote_share()
        );
    }

    #[test]
    #[should_panic(expected = "at least one write")]
    fn empty_transaction_panics() {
        let mut gs = groups(1);
        let mut refs: Vec<&mut Spanner> = gs.iter_mut().collect();
        let _ = distributed_commit(&mut refs, &[], 1);
    }

    #[test]
    #[should_panic(expected = "unknown group")]
    fn out_of_range_group_panics() {
        let mut gs = groups(1);
        let mut refs: Vec<&mut Spanner> = gs.iter_mut().collect();
        let writes = vec![TxnWrite {
            group: 5,
            key: b"x".to_vec(),
            value: b"y".to_vec(),
        }];
        let _ = distributed_commit(&mut refs, &writes, 1);
    }
}
