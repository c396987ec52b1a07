//! Query populations.
//!
//! The paper's limit studies operate over *populations* of queries sampled
//! from production traces (Section 4.1). A [`QueryRecord`] captures one
//! query (or one weighted query class): its CPU / IO / remote-work phase
//! times and the CPU-time breakdown across fine categories. A
//! [`QueryPopulation`] aggregates them, classifies queries into the paper's
//! groups (Figure 2), and evaluates acceleration plans over the whole
//! population.

use crate::component::CpuBreakdown;
use crate::error::ModelError;
use crate::model::{speedup_ratio, QueryPhases};
use crate::plan::AccelerationPlan;
use crate::units::Seconds;

/// Query groups of Figure 2.
///
/// Classification thresholds per Section 4.2: CPU-heavy queries spend more
/// than 60% of end-to-end time on CPU; IO-heavy and remote-work-heavy queries
/// spend more than 30% on distributed storage or remote work, respectively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryGroup {
    /// More than 60% of time on CPU computation.
    CpuHeavy,
    /// More than 30% of time on distributed storage IO.
    IoHeavy,
    /// More than 30% of time waiting on remote workers.
    RemoteWorkHeavy,
    /// Everything else.
    Others,
}

impl QueryGroup {
    /// The four groups in the paper's presentation order.
    pub const ALL: [QueryGroup; 4] = [
        QueryGroup::CpuHeavy,
        QueryGroup::IoHeavy,
        QueryGroup::RemoteWorkHeavy,
        QueryGroup::Others,
    ];

    /// Classifies a query from its end-to-end time shares.
    ///
    /// CPU dominance is checked first; between IO and remote work the larger
    /// share wins (the paper's groups are disjoint).
    #[must_use]
    pub fn classify(cpu_share: f64, io_share: f64, remote_share: f64) -> QueryGroup {
        if cpu_share > 0.60 {
            QueryGroup::CpuHeavy
        } else if io_share > 0.30 && io_share >= remote_share {
            QueryGroup::IoHeavy
        } else if remote_share > 0.30 {
            QueryGroup::RemoteWorkHeavy
        } else {
            QueryGroup::Others
        }
    }
}

impl std::fmt::Display for QueryGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            QueryGroup::CpuHeavy => "CPU Heavy",
            QueryGroup::IoHeavy => "IO Heavy",
            QueryGroup::RemoteWorkHeavy => "Remote Work Heavy",
            QueryGroup::Others => "Others",
        };
        f.write_str(name)
    }
}

/// One query (or weighted query class) in a population.
///
/// The three phase times are disjoint, as the paper's trace attribution
/// makes them: overlapped time is charged to remote work, then IO, then CPU.
/// So the end-to-end time is their sum (Equation 1 with `f = 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// CPU time.
    pub cpu: Seconds,
    /// Distributed-storage IO time.
    pub io: Seconds,
    /// Remote-work time (consensus, compaction, shuffle waits).
    pub remote: Seconds,
    /// Absolute CPU-time breakdown across fine categories.
    pub breakdown: CpuBreakdown,
    /// Multiplicity weight of this record in the population.
    pub weight: f64,
}

impl QueryRecord {
    /// Non-CPU dependency time `t_dep = io + remote`.
    #[must_use]
    pub fn dep(&self) -> Seconds {
        self.io + self.remote
    }

    /// The phases for the analytical model.
    #[must_use]
    pub fn phases(&self) -> QueryPhases {
        QueryPhases::new(self.cpu, self.dep())
    }

    /// End-to-end time (Eq. 1).
    #[must_use]
    pub fn end_to_end(&self) -> Seconds {
        self.phases().end_to_end()
    }

    /// The query's group per the Figure 2 thresholds.
    #[must_use]
    pub fn group(&self) -> QueryGroup {
        let e2e = self.end_to_end();
        match e2e.ratio(e2e) {
            None => QueryGroup::Others, // zero-length query
            Some(_) => {
                let total = e2e.as_secs();
                QueryGroup::classify(
                    self.cpu.as_secs() / total,
                    self.io.as_secs() / total,
                    self.remote.as_secs() / total,
                )
            }
        }
    }
}

/// One row of the Figure 2 chart: a query group's population share and its
/// average end-to-end time composition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupBreakdown {
    /// The group.
    pub group: QueryGroup,
    /// Fraction of queries (by weight) in this group.
    pub query_fraction: f64,
    /// Share of the group's end-to-end time spent on CPU.
    pub cpu_share: f64,
    /// Share spent on remote work.
    pub remote_share: f64,
    /// Share spent on distributed-storage IO.
    pub io_share: f64,
}

/// A weighted population of queries for one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPopulation {
    records: Vec<QueryRecord>,
}

impl QueryPopulation {
    /// Builds a population.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyPopulation`] if `records` is empty.
    pub fn new(records: Vec<QueryRecord>) -> Result<Self, ModelError> {
        if records.is_empty() {
            return Err(ModelError::EmptyPopulation);
        }
        Ok(QueryPopulation { records })
    }

    /// The records.
    #[must_use]
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// Total weight.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.records.iter().map(|r| r.weight).sum()
    }

    /// Time-weighted aggregate speedup of a plan over the population:
    /// `Σ w_i * t_e2e_i  /  Σ w_i * t'_e2e_i`.
    ///
    /// This is the quantity the paper's Figures 9 and 13–15 plot per
    /// platform.
    #[must_use]
    pub fn aggregate_speedup(&self, plan: &AccelerationPlan) -> f64 {
        let mut original = Seconds::ZERO;
        let mut accelerated = Seconds::ZERO;
        for r in &self.records {
            let phases = r.phases();
            original += phases.end_to_end().scaled(r.weight);
            accelerated += plan.evaluate(&phases, &r.breakdown).scaled(r.weight);
        }
        speedup_ratio(original, accelerated)
    }

    /// Aggregate *co-design* speedup: the original system keeps its IO and
    /// remote work, while the accelerated system removes them entirely (the
    /// "Without Remote Work & IO" scenario of Figures 9–10, where
    /// software-hardware co-design eliminates the non-CPU dependencies).
    #[must_use]
    pub fn aggregate_codesign_speedup(&self, plan: &AccelerationPlan) -> f64 {
        let mut original = Seconds::ZERO;
        let mut accelerated = Seconds::ZERO;
        for r in &self.records {
            original += r.end_to_end().scaled(r.weight);
            let stripped = r.phases().without_dependencies();
            accelerated += plan.evaluate(&stripped, &r.breakdown).scaled(r.weight);
        }
        speedup_ratio(original, accelerated)
    }

    /// The largest per-query co-design speedup (the Figure 9 peaks).
    #[must_use]
    pub fn peak_codesign_speedup(&self, plan: &AccelerationPlan) -> f64 {
        self.records
            .iter()
            .map(|r| {
                let original = r.end_to_end();
                let stripped = r.phases().without_dependencies();
                let accelerated = plan.evaluate(&stripped, &r.breakdown);
                speedup_ratio(original, accelerated)
            })
            .fold(1.0, f64::max)
    }

    /// The sub-population belonging to one query group, or `None` if the
    /// group is unpopulated.
    #[must_use]
    pub fn group_population(&self, group: QueryGroup) -> Option<QueryPopulation> {
        let records: Vec<QueryRecord> = self
            .records
            .iter()
            .filter(|r| r.group() == group)
            .cloned()
            .collect();
        QueryPopulation::new(records).ok()
    }

    /// Figure 2 rows: per-group population share and average end-to-end time
    /// composition, in the paper's group order, followed by the overall
    /// average as a final row with `query_fraction = 1.0`.
    #[must_use]
    pub fn e2e_breakdown(&self) -> Vec<GroupBreakdown> {
        let total_weight = self.total_weight();
        let mut rows = Vec::with_capacity(QueryGroup::ALL.len() + 1);
        for group in QueryGroup::ALL {
            let members: Vec<&QueryRecord> =
                self.records.iter().filter(|r| r.group() == group).collect();
            let weight: f64 = members.iter().map(|r| r.weight).sum();
            let (cpu, io, remote, e2e) = weighted_phase_sums(&members);
            rows.push(GroupBreakdown {
                group,
                query_fraction: if total_weight > 0.0 {
                    weight / total_weight
                } else {
                    0.0
                },
                cpu_share: share(cpu, e2e),
                remote_share: share(remote, e2e),
                io_share: share(io, e2e),
            });
        }
        let all: Vec<&QueryRecord> = self.records.iter().collect();
        let (cpu, io, remote, e2e) = weighted_phase_sums(&all);
        rows.push(GroupBreakdown {
            group: QueryGroup::Others, // placeholder; callers treat the last row as "Overall"
            query_fraction: 1.0,
            cpu_share: share(cpu, e2e),
            remote_share: share(remote, e2e),
            io_share: share(io, e2e),
        });
        rows
    }

    /// The population's weighted fleet-level CPU breakdown: every record's
    /// breakdown summed with its weight. This is what the GWP-style profiler
    /// would observe (Figures 3–6).
    #[must_use]
    pub fn fleet_breakdown(&self) -> CpuBreakdown {
        let mut fleet = CpuBreakdown::new();
        for r in &self.records {
            for (category, time) in r.breakdown.iter() {
                fleet.add(category, time.scaled(r.weight));
            }
        }
        fleet
    }
}

fn weighted_phase_sums(records: &[&QueryRecord]) -> (Seconds, Seconds, Seconds, Seconds) {
    let mut cpu = Seconds::ZERO;
    let mut io = Seconds::ZERO;
    let mut remote = Seconds::ZERO;
    let mut e2e = Seconds::ZERO;
    for r in records {
        cpu += r.cpu.scaled(r.weight);
        io += r.io.scaled(r.weight);
        remote += r.remote.scaled(r.weight);
        e2e += r.end_to_end().scaled(r.weight);
    }
    (cpu, io, remote, e2e)
}

fn share(part: Seconds, whole: Seconds) -> f64 {
    part.ratio(whole).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::Speedup;
    use crate::category::{CoreComputeOp, CpuCategory, DatacenterTax};
    use crate::plan::InvocationModel;

    fn breakdown() -> CpuBreakdown {
        CpuBreakdown::from_shares(
            Seconds::new(1.0),
            &[
                (CpuCategory::from(CoreComputeOp::Read), 0.5),
                (CpuCategory::from(DatacenterTax::Protobuf), 0.5),
            ],
        )
        .unwrap()
    }

    /// A record whose breakdown is `breakdown()`'s shares rescaled to `cpu`.
    fn record(cpu: f64, io: f64, remote: f64, weight: f64) -> QueryRecord {
        let cpu = Seconds::new(cpu);
        QueryRecord {
            cpu,
            io: Seconds::new(io),
            remote: Seconds::new(remote),
            breakdown: breakdown().rescaled(cpu),
            weight,
        }
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(QueryGroup::classify(0.7, 0.2, 0.1), QueryGroup::CpuHeavy);
        assert_eq!(QueryGroup::classify(0.3, 0.5, 0.2), QueryGroup::IoHeavy);
        assert_eq!(
            QueryGroup::classify(0.3, 0.2, 0.5),
            QueryGroup::RemoteWorkHeavy
        );
        assert_eq!(QueryGroup::classify(0.5, 0.25, 0.25), QueryGroup::Others);
        // CPU dominance wins even when IO also crosses its threshold.
        assert_eq!(QueryGroup::classify(0.61, 0.35, 0.04), QueryGroup::CpuHeavy);
        // Ties between IO and remote go to IO (both above threshold).
        assert_eq!(QueryGroup::classify(0.2, 0.4, 0.4), QueryGroup::IoHeavy);
    }

    #[test]
    fn record_group_uses_phase_shares() {
        assert_eq!(record(7.0, 2.0, 1.0, 1.0).group(), QueryGroup::CpuHeavy);
        assert_eq!(record(1.0, 8.0, 1.0, 1.0).group(), QueryGroup::IoHeavy);
        assert_eq!(
            record(1.0, 1.0, 8.0, 1.0).group(),
            QueryGroup::RemoteWorkHeavy
        );
        assert_eq!(record(5.0, 2.5, 2.5, 1.0).group(), QueryGroup::Others);
    }

    #[test]
    fn empty_population_rejected() {
        assert!(matches!(
            QueryPopulation::new(vec![]).unwrap_err(),
            ModelError::EmptyPopulation
        ));
    }

    #[test]
    fn aggregate_speedup_weights_by_time() {
        let pop =
            QueryPopulation::new(vec![record(1.0, 0.0, 0.0, 1.0), record(1.0, 9.0, 0.0, 1.0)])
                .unwrap();
        let plan = AccelerationPlan::uniform(
            [
                CpuCategory::from(CoreComputeOp::Read),
                CpuCategory::from(DatacenterTax::Protobuf),
            ],
            Speedup::new(1e9).unwrap(),
            InvocationModel::Synchronous,
        )
        .unwrap();
        // Original total: 1 + 10 = 11. Accelerated: ~0 + 9 = 9.
        let s = pop.aggregate_speedup(&plan);
        assert!((s - 11.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn e2e_breakdown_rows_are_consistent() {
        let pop = QueryPopulation::new(vec![
            record(7.0, 2.0, 1.0, 6.0), // CPU heavy, weight 6
            record(1.0, 8.0, 1.0, 2.0), // IO heavy
            record(1.0, 1.0, 8.0, 1.0), // remote heavy
            record(5.0, 2.5, 2.5, 1.0), // others
        ])
        .unwrap();
        let rows = pop.e2e_breakdown();
        assert_eq!(rows.len(), 5);
        let fractions: f64 = rows[..4].iter().map(|r| r.query_fraction).sum();
        assert!((fractions - 1.0).abs() < 1e-9);
        assert!((rows[0].query_fraction - 0.6).abs() < 1e-9);
        // Every populated group's shares sum to ~1.
        for row in &rows[..4] {
            let total = row.cpu_share + row.remote_share + row.io_share;
            assert!((total - 1.0).abs() < 1e-9, "group {:?}", row.group);
        }
        // Overall row's CPU share reflects the dominant CPU-heavy weight.
        assert!(rows[4].cpu_share > 0.49);
    }

    #[test]
    fn group_population_roundtrip() {
        let pop =
            QueryPopulation::new(vec![record(7.0, 2.0, 1.0, 1.0), record(1.0, 8.0, 1.0, 1.0)])
                .unwrap();
        let cpu_pop = pop.group_population(QueryGroup::CpuHeavy).unwrap();
        assert_eq!(cpu_pop.records().len(), 1);
        assert!(pop.group_population(QueryGroup::RemoteWorkHeavy).is_none());
    }

    #[test]
    fn fleet_breakdown_weights_records() {
        let pop =
            QueryPopulation::new(vec![record(1.0, 0.0, 0.0, 3.0), record(2.0, 0.0, 0.0, 1.0)])
                .unwrap();
        let fleet = pop.fleet_breakdown();
        // Total CPU = 3*1 + 1*2 = 5, split evenly between the two categories.
        assert!((fleet.total().as_secs() - 5.0).abs() < 1e-9);
        assert!((fleet.share(CpuCategory::from(CoreComputeOp::Read)) - 0.5).abs() < 1e-9);
    }
}
