//! Rendering fleet profiles as aligned text tables — the output format of
//! the figure-regeneration benches.

use hsdp_core::category::{BroadCategory, Platform};

use crate::e2e::Figure2;
use crate::gwp::CycleProfile;

/// Renders a Figure 2-style table for one platform.
#[must_use]
pub fn render_figure2(platform: Platform, fig: &Figure2) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{platform}: end-to-end breakdown over {} queries\n",
        fig.queries
    ));
    out.push_str("  group               queries%   cpu%  remote%    io%\n");
    for row in &fig.groups {
        out.push_str(&format!(
            "  {:<18} {:>8.1} {:>6.1} {:>8.1} {:>6.1}\n",
            row.group.to_string(),
            row.query_fraction * 100.0,
            row.cpu_share * 100.0,
            row.remote_share * 100.0,
            row.io_share * 100.0,
        ));
    }
    out.push_str(&format!(
        "  {:<18} {:>8.1} {:>6.1} {:>8.1} {:>6.1}\n",
        "Overall Average",
        100.0,
        fig.overall.cpu_share * 100.0,
        fig.overall.remote_share * 100.0,
        fig.overall.io_share * 100.0,
    ));
    out
}

/// Renders the Figure 3 broad-category row for one platform.
#[must_use]
pub fn render_figure3(platform: Platform, profile: &CycleProfile) -> String {
    format!(
        "{platform}: core compute {:.1}% | datacenter taxes {:.1}% | system taxes {:.1}%  ({} samples)\n",
        profile.broad_share(BroadCategory::CoreCompute) * 100.0,
        profile.broad_share(BroadCategory::DatacenterTax) * 100.0,
        profile.broad_share(BroadCategory::SystemTax) * 100.0,
        profile.total_samples(),
    )
}

/// Renders a two-column (name, percent) category table.
#[must_use]
pub fn render_category_rows(title: &str, rows: &[(String, f64)]) -> String {
    let mut out = format!("{title}\n");
    for (name, share) in rows {
        out.push_str(&format!("  {name:<22} {:>6.1}%\n", share * 100.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::figure2;
    use crate::gwp::{GwpConfig, GwpProfiler, LeafWork};
    use hsdp_core::category::{CoreComputeOp, DatacenterTax};
    use hsdp_rpc::decompose::E2eDecomposition;
    use hsdp_simcore::time::SimDuration;

    #[test]
    fn figure2_rendering_contains_groups() {
        let d = E2eDecomposition {
            cpu: SimDuration::from_micros(70),
            io: SimDuration::from_micros(20),
            remote: SimDuration::from_micros(10),
            end_to_end: SimDuration::from_micros(100),
            idle: SimDuration::ZERO,
        };
        let fig = figure2(&[d]);
        let text = render_figure2(Platform::Spanner, &fig);
        assert!(text.contains("Spanner"));
        assert!(text.contains("CPU Heavy"));
        assert!(text.contains("Overall Average"));
    }

    #[test]
    fn figure3_rendering_has_all_shares() {
        let mut profiler = GwpProfiler::new(GwpConfig {
            sample_period: SimDuration::from_micros(1),
        });
        profiler.observe(&LeafWork::unstacked(
            CoreComputeOp::Read,
            "a",
            SimDuration::from_micros(50),
        ));
        profiler.observe(&LeafWork::unstacked(
            DatacenterTax::Rpc,
            "b",
            SimDuration::from_micros(50),
        ));
        let text = render_figure3(Platform::BigTable, &profiler.profile());
        assert!(text.contains("core compute"));
        assert!(text.contains("BigTable"));
    }

    #[test]
    fn category_rows_render() {
        let text = render_category_rows(
            "Datacenter taxes",
            &[("Protobuf".into(), 0.25), ("RPC".into(), 0.11)],
        );
        assert!(text.contains("Protobuf"));
        assert!(text.contains("25.0%"));
    }
}
