//! Query mixes: what fraction of traffic each operation type receives.

use hsdp_rng::Rng;

/// Database (Spanner/BigTable-style) operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbOp {
    /// Point read.
    Read,
    /// Point write / commit.
    Write,
    /// Small range scan.
    Scan,
    /// Read-modify-write transaction.
    ReadModifyWrite,
}

/// A database operation mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbMix {
    /// Fraction of point reads.
    pub read: f64,
    /// Fraction of writes.
    pub write: f64,
    /// Fraction of scans.
    pub scan: f64,
    /// Fraction of read-modify-write transactions.
    pub rmw: f64,
}

impl DbMix {
    /// Validates that fractions sum to ~1.
    #[must_use]
    pub fn is_normalized(&self) -> bool {
        (self.read + self.write + self.scan + self.rmw - 1.0).abs() < 1e-6
    }

    /// Draws an operation type.
    ///
    /// # Panics
    ///
    /// Panics if the mix is not normalized.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> DbOp {
        assert!(self.is_normalized(), "mix fractions must sum to 1");
        let u: f64 = rng.random();
        if u < self.read {
            DbOp::Read
        } else if u < self.read + self.write {
            DbOp::Write
        } else if u < self.read + self.write + self.scan {
            DbOp::Scan
        } else {
            DbOp::ReadModifyWrite
        }
    }
}

/// Analytics (BigQuery-style) query types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalyticsQuery {
    /// `SELECT ... WHERE pred` scan + filter + project.
    ScanFilter,
    /// `GROUP BY` aggregation with a distributed shuffle.
    GroupAggregate,
    /// Fact-to-dimension hash join.
    Join,
    /// Global sort / top-k.
    TopK,
}

/// An analytics query mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticsMix {
    /// Fraction of scan/filter queries.
    pub scan_filter: f64,
    /// Fraction of group-by aggregations.
    pub aggregate: f64,
    /// Fraction of joins.
    pub join: f64,
    /// Fraction of top-k sorts.
    pub topk: f64,
}

impl AnalyticsMix {
    /// A dashboard-style mix dominated by scans and aggregations.
    #[must_use]
    pub fn dashboard() -> Self {
        AnalyticsMix {
            scan_filter: 0.40,
            aggregate: 0.35,
            join: 0.15,
            topk: 0.10,
        }
    }

    /// Validates that fractions sum to ~1.
    #[must_use]
    pub fn is_normalized(&self) -> bool {
        (self.scan_filter + self.aggregate + self.join + self.topk - 1.0).abs() < 1e-6
    }

    /// Draws a query type.
    ///
    /// # Panics
    ///
    /// Panics if the mix is not normalized.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> AnalyticsQuery {
        assert!(self.is_normalized(), "mix fractions must sum to 1");
        let u: f64 = rng.random();
        if u < self.scan_filter {
            AnalyticsQuery::ScanFilter
        } else if u < self.scan_filter + self.aggregate {
            AnalyticsQuery::GroupAggregate
        } else if u < self.scan_filter + self.aggregate + self.join {
            AnalyticsQuery::Join
        } else {
            AnalyticsQuery::TopK
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_normalized() {
        assert!(AnalyticsMix::dashboard().is_normalized());
    }

    #[test]
    fn sampling_respects_fractions() {
        let mix = DbMix {
            read: 0.90,
            write: 0.05,
            scan: 0.025,
            rmw: 0.025,
        };
        let mut rng = hsdp_rng::StdRng::seed_from_u64(1);
        let mut reads = 0;
        for _ in 0..10_000 {
            if mix.sample(&mut rng) == DbOp::Read {
                reads += 1;
            }
        }
        assert!((8800..9200).contains(&reads), "{reads}");
    }

    #[test]
    fn analytics_sampling_covers_all_kinds() {
        let mix = AnalyticsMix::dashboard();
        let mut rng = hsdp_rng::StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(mix.sample(&mut rng));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn unnormalized_mix_panics() {
        let mix = DbMix {
            read: 0.5,
            write: 0.0,
            scan: 0.0,
            rmw: 0.0,
        };
        let mut rng = hsdp_rng::StdRng::seed_from_u64(3);
        let _ = mix.sample(&mut rng);
    }
}
