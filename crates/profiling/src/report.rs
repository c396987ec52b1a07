//! Rendering fleet profiles as aligned text tables — the Figure 2 block of
//! `hsdp figures`.

use hsdp_core::category::Platform;

use crate::e2e::Figure2;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::figure2;
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
}
