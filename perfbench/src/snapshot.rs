//! Daemon-side counters, read over the wire at window boundaries.

use engine::protocol::{WireStats, WireStatsV2};
use engine::{Client, Histogram};
use std::collections::BTreeMap;

/// One reading of both STATS frames.
pub struct Snapshot {
    /// STATS_V2: phase histograms and gauge blocks.
    pub v2: WireStatsV2,
    /// STATS (v1): frame and byte counters.
    pub v1: WireStats,
}

impl Snapshot {
    /// Read both frames over `ctl`.
    pub fn take(ctl: &mut Client) -> Result<Snapshot, String> {
        let v2 = ctl.stats_v2().map_err(|e| format!("STATS_V2: {e}"))?;
        let v1 = ctl.stats().map_err(|e| format!("STATS: {e}"))?;
        Ok(Snapshot { v2, v1 })
    }
}

/// The samples `after` holds beyond `before` (the same histogram read
/// twice). `max` is `after`'s, an upper bound on the delta's own.
pub fn hist_delta(after: &Histogram, before: &Histogram) -> Histogram {
    let mut buckets: BTreeMap<u16, u64> = after.nonzero_buckets().collect();
    for (i, c) in before.nonzero_buckets() {
        let slot = buckets.entry(i).or_default();
        *slot = slot.saturating_sub(c);
    }
    let buckets: Vec<(u16, u64)> = buckets.into_iter().filter(|&(_, c)| c > 0).collect();
    Histogram::from_parts(
        &buckets,
        after.count().saturating_sub(before.count()),
        after.sum().saturating_sub(before.sum()),
        after.max(),
    )
    .expect("bucket indices come from a valid histogram")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_keeps_only_the_new_samples() {
        let mut before = Histogram::new();
        before.record(10);
        let mut after = before.clone();
        after.record(1_000_000);
        after.record(1_000_000);
        let d = hist_delta(&after, &before);
        assert_eq!((d.count(), d.sum()), (2, 2_000_000));
        let p50 = d.percentile(50.0);
        assert!((900_000..=1_100_000).contains(&p50), "{p50}");
    }
}
