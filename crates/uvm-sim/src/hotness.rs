//! Per-block access-hotness tracking over logical time.
//!
//! Reproduces the data behind the paper's Fig. 13: access counts per 2 MiB
//! virtual block, binned by logical time (access-event index), revealing
//! long-lived hot blocks (parameters — prefetch/pin candidates) versus
//! short-lived bursts (transient data — eviction candidates).

use crate::page::{block_of_addr, BLOCK_SIZE};
use std::collections::BTreeMap;

/// Running hotness accumulator.
#[derive(Debug, Default, Clone)]
pub struct BlockHotness {
    /// (block index, time bin) → access records.
    counts: BTreeMap<(u64, u64), u64>,
    events_seen: u64,
    bin_events: u64,
    /// Per-event `(base, len, records)` log, kept only by *lane* trackers
    /// ([`BlockHotness::fork_recording`]). It lets [`append_from`] replay
    /// the lane's stream event by event on the merged clock, which is the
    /// only way to reproduce the sequential single-manager reference when
    /// the seam between streams does not land on a bin boundary — binned
    /// counts cannot be split across a bin cut after the fact.
    ///
    /// [`append_from`]: BlockHotness::append_from
    log: Option<Vec<(u64, u64, u64)>>,
}

impl BlockHotness {
    /// Creates a tracker that bins logical time every `bin_events` events.
    pub fn new(bin_events: u64) -> Self {
        BlockHotness {
            counts: BTreeMap::new(),
            events_seen: 0,
            bin_events: bin_events.max(1),
            log: None,
        }
    }

    /// Records `records` accesses spread uniformly over `[base, base+len)`.
    pub fn record(&mut self, base: u64, len: u64, records: u64) {
        if let Some(log) = &mut self.log {
            log.push((base, len, records));
        }
        let bin = self.events_seen / self.bin_events;
        self.events_seen += 1;
        if len == 0 || records == 0 {
            return;
        }
        let first = block_of_addr(base);
        let last = block_of_addr(base + len - 1);
        let nblocks = last - first + 1;
        let per_block = (records / nblocks).max(1);
        for b in first..=last {
            *self.counts.entry((b, bin)).or_insert(0) += per_block;
        }
    }

    /// Number of record() calls so far (the logical clock).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// The configured bin width, in events.
    pub fn bin_events(&self) -> u64 {
        self.bin_events
    }

    /// Folds another tracker's counts into this one, summing per
    /// (block, bin) cell. Both trackers keep their own logical clocks, so
    /// bin *t* of `other` lands in bin *t* here — the device-shard merge,
    /// where each shard binned its own device's access stream.
    pub fn merge_from(&mut self, other: &BlockHotness) {
        for (&key, &count) in &other.counts {
            *self.counts.entry(key).or_insert(0) += count;
        }
        self.events_seen += other.events_seen;
    }

    /// A fresh, state-empty tracker with the same bin width — the reset
    /// half of [`crate::UvmManager::reset_hotness`]. The fork keeps no
    /// event log, so a long-lived session accumulator stays O(bins).
    pub fn fork(&self) -> BlockHotness {
        BlockHotness::new(self.bin_events)
    }

    /// A fresh tracker with the same bin width that additionally logs
    /// every `record()` call — the hotness half of
    /// [`crate::UvmManager::fork`]. A lane lives for one parallel region,
    /// so the log is bounded by the lane's access count, and it buys the
    /// merge exact equality with the sequential reference at *any* seam
    /// (see [`BlockHotness::append_from`]).
    pub fn fork_recording(&self) -> BlockHotness {
        BlockHotness {
            log: Some(Vec::new()),
            ..BlockHotness::new(self.bin_events)
        }
    }

    /// Concatenates another tracker's logical time axis after this one —
    /// the deterministic per-lane UVM merge, laying lane streams one
    /// after another in merge (ascending device) order.
    ///
    /// When `other` carries an event log ([`fork_recording`]), the log is
    /// **replayed** through this tracker's own clock, reproducing a
    /// sequential single-manager reference run *exactly*: `other`'s first
    /// events continue this tracker's partial bin instead of being padded
    /// past it. (The padded concatenation shipped first — ISSUE 4 — was
    /// only equal to the reference when every lane stream happened to end
    /// on a bin boundary; off-boundary streams shifted every later bin.)
    ///
    /// A log-less `other` falls back to the padded concatenation:
    /// `other`'s bin *t* lands at `own_bins + t`, where `own_bins` is
    /// this tracker's clock rounded up to a bin boundary, and the clock
    /// pads to that boundary.
    ///
    /// [`fork_recording`]: BlockHotness::fork_recording
    pub fn append_from(&mut self, other: &BlockHotness) {
        if let Some(log) = &other.log {
            for &(base, len, records) in log {
                self.record(base, len, records);
            }
            return;
        }
        let offset = self.events_seen.div_ceil(self.bin_events);
        for (&(block, bin), &count) in &other.counts {
            *self.counts.entry((block, offset + bin)).or_insert(0) += count;
        }
        self.events_seen = offset * self.bin_events + other.events_seen;
    }

    /// Finalizes into a dense series for reporting.
    pub fn series(&self) -> HotnessSeries {
        let blocks: Vec<u64> = {
            let mut v: Vec<u64> = self.counts.keys().map(|&(b, _)| b).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let bins = self.counts.keys().map(|&(_, t)| t + 1).max().unwrap_or(0);
        let mut grid = vec![vec![0u64; bins as usize]; blocks.len()];
        for (&(b, t), &c) in &self.counts {
            // Audited expect: `blocks` is the sorted dedup of exactly
            // these keys' block components (built above), so every lookup
            // hits by construction — no input can make it miss.
            let bi = blocks.binary_search(&b).expect("block present");
            grid[bi][t as usize] += c;
        }
        HotnessSeries { blocks, grid }
    }
}

/// Dense (block × time-bin) hotness matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotnessSeries {
    /// Block indices (rows), ascending.
    pub blocks: Vec<u64>,
    /// `grid[row][bin]` = access records of `blocks[row]` in that bin.
    pub grid: Vec<Vec<u64>>,
}

impl HotnessSeries {
    /// Number of time bins.
    pub fn bins(&self) -> usize {
        self.grid.first().map_or(0, Vec::len)
    }

    /// Total records of one block across all bins.
    pub fn block_total(&self, row: usize) -> u64 {
        self.grid[row].iter().sum()
    }

    /// Fraction of bins in which the block was accessed at all; near 1.0
    /// means long-lived hot data (pin candidates), near 0 bursty data
    /// (eviction candidates).
    pub fn block_liveness(&self, row: usize) -> f64 {
        let bins = self.bins();
        if bins == 0 {
            return 0.0;
        }
        let live = self.grid[row].iter().filter(|&&c| c > 0).count();
        live as f64 / bins as f64
    }

    /// Rows whose liveness is at least `threshold`, i.e. the paper's
    /// "frequently accessed throughout the entire execution" blocks.
    pub fn persistent_blocks(&self, threshold: f64) -> Vec<u64> {
        (0..self.blocks.len())
            .filter(|&r| self.block_liveness(r) >= threshold)
            .map(|r| self.blocks[r])
            .collect()
    }

    /// Base address of row `row`'s block.
    pub fn block_addr(&self, row: usize) -> u64 {
        self.blocks[row] * BLOCK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_right_block_and_bin() {
        let mut h = BlockHotness::new(2);
        h.record(0, 100, 10); // block 0, bin 0
        h.record(BLOCK_SIZE, 100, 20); // block 1, bin 0
        h.record(0, 100, 30); // block 0, bin 1
        let s = h.series();
        assert_eq!(s.blocks, vec![0, 1]);
        assert_eq!(s.bins(), 2);
        assert_eq!(s.grid[0], vec![10, 30]);
        assert_eq!(s.grid[1], vec![20, 0]);
    }

    #[test]
    fn multi_block_ranges_spread_records() {
        let mut h = BlockHotness::new(10);
        h.record(0, 4 * BLOCK_SIZE, 400);
        let s = h.series();
        assert_eq!(s.blocks.len(), 4);
        for row in 0..4 {
            assert_eq!(s.block_total(row), 100);
        }
    }

    #[test]
    fn liveness_separates_persistent_from_bursty() {
        let mut h = BlockHotness::new(1);
        for _ in 0..10 {
            h.record(0, 100, 5); // block 0 hot in every bin
        }
        h.record(BLOCK_SIZE, 100, 500); // block 1 hot once
        let s = h.series();
        let b0 = s.blocks.iter().position(|&b| b == 0).unwrap();
        let b1 = s.blocks.iter().position(|&b| b == 1).unwrap();
        assert!(s.block_liveness(b0) > 0.8);
        assert!(s.block_liveness(b1) < 0.2);
        assert_eq!(s.persistent_blocks(0.8), vec![0]);
    }

    #[test]
    fn zero_records_only_advance_clock() {
        let mut h = BlockHotness::new(1);
        h.record(0, 0, 0);
        h.record(0, 100, 0);
        assert_eq!(h.events_seen(), 2);
        assert_eq!(h.series().blocks.len(), 0);
    }

    #[test]
    fn empty_series_is_sane() {
        let s = BlockHotness::new(4).series();
        assert_eq!(s.bins(), 0);
        assert!(s.persistent_blocks(0.5).is_empty());
    }

    #[test]
    fn fork_is_empty_with_same_bin_width() {
        let mut h = BlockHotness::new(7);
        h.record(0, 100, 10);
        let f = h.fork();
        assert_eq!(f.bin_events(), 7);
        assert_eq!(f.events_seen(), 0);
        assert!(f.series().blocks.is_empty());
    }

    #[test]
    fn append_concatenates_lane_time_axes() {
        // Lane 0: 2 events in bin 0 (bin width 2). Lane 1: 2 events,
        // also its own bin 0 — appended, they land in bin 1.
        let mut a = BlockHotness::new(2);
        a.record(0, 100, 10);
        a.record(0, 100, 10);
        let mut b = BlockHotness::new(2);
        b.record(BLOCK_SIZE, 100, 5);
        b.record(BLOCK_SIZE, 100, 5);
        a.append_from(&b);
        let s = a.series();
        assert_eq!(s.blocks, vec![0, 1]);
        assert_eq!(s.grid[0], vec![20, 0], "lane 0 stays in bin 0");
        assert_eq!(s.grid[1], vec![0, 10], "lane 1 shifted to bin 1");
        assert_eq!(a.events_seen(), 4);
    }

    #[test]
    fn append_equals_sequential_single_clock_on_bin_boundaries() {
        // When each lane's event count is a multiple of the bin width,
        // fork+append reproduces one tracker that processed the lanes
        // back to back — the sequential single-manager reference.
        let mut reference = BlockHotness::new(2);
        let mut lane0 = BlockHotness::new(2);
        let mut lane1 = BlockHotness::new(2);
        for i in 0..4u64 {
            reference.record(i * BLOCK_SIZE, 64, 3);
            lane0.record(i * BLOCK_SIZE, 64, 3);
        }
        for i in 0..6u64 {
            reference.record(i * BLOCK_SIZE, 64, 9);
            lane1.record(i * BLOCK_SIZE, 64, 9);
        }
        let mut merged = lane0.fork();
        merged.append_from(&lane0);
        merged.append_from(&lane1);
        assert_eq!(merged.series(), reference.series());
        assert_eq!(merged.events_seen(), reference.events_seen());
    }

    #[test]
    fn recorded_fork_replays_exactly_across_partial_bins() {
        // The ISSUE 5 satellite bugfix: lane streams that do NOT land on
        // bin boundaries. Bin width 4; the parent ends mid-bin (3 events)
        // and both lanes end mid-bin too (5 and 2 events). The padded
        // concatenation shifted every appended bin; the replay path must
        // be byte-identical to one tracker that saw the whole stream on a
        // single clock.
        let mut reference = BlockHotness::new(4);
        let mut parent = BlockHotness::new(4);
        for i in 0..3u64 {
            reference.record(i * BLOCK_SIZE, 64, 2);
            parent.record(i * BLOCK_SIZE, 64, 2);
        }
        let mut lane0 = parent.fork_recording();
        for i in 0..5u64 {
            reference.record(i * BLOCK_SIZE, 64, 7);
            lane0.record(i * BLOCK_SIZE, 64, 7);
        }
        let mut lane1 = parent.fork_recording();
        for i in 0..2u64 {
            reference.record((i + 1) * BLOCK_SIZE, 64, 11);
            lane1.record((i + 1) * BLOCK_SIZE, 64, 11);
        }
        parent.append_from(&lane0);
        parent.append_from(&lane1);
        assert_eq!(parent.series(), reference.series());
        assert_eq!(parent.events_seen(), reference.events_seen());
        assert_eq!(parent.events_seen(), 10, "no boundary padding");
    }

    #[test]
    fn recorded_fork_replays_zero_record_clock_ticks() {
        // Clock-only events (len/records 0) must survive the replay, or
        // the merged clock drifts from the reference.
        let mut reference = BlockHotness::new(2);
        reference.record(0, 64, 1);
        reference.record(0, 0, 0);
        reference.record(BLOCK_SIZE, 64, 3);
        let mut parent = BlockHotness::new(2);
        parent.record(0, 64, 1);
        let mut lane = parent.fork_recording();
        lane.record(0, 0, 0);
        lane.record(BLOCK_SIZE, 64, 3);
        parent.append_from(&lane);
        assert_eq!(parent.series(), reference.series());
        assert_eq!(parent.events_seen(), 3);
    }

    #[test]
    fn fork_recording_chains_through_intermediate_merges() {
        // A recording tracker that absorbed another recording tracker can
        // itself be appended later — the replay appends into the log.
        let mut a = BlockHotness::new(3);
        let mut b = a.fork_recording();
        let mut c = a.fork_recording();
        b.record(0, 64, 1);
        c.record(BLOCK_SIZE, 64, 2);
        b.append_from(&c);
        let mut reference = BlockHotness::new(3);
        reference.record(0, 64, 1);
        reference.record(BLOCK_SIZE, 64, 2);
        a.append_from(&b);
        assert_eq!(a.series(), reference.series());
    }

    #[test]
    fn append_rounds_a_partial_bin_up() {
        // 3 events at bin width 2 occupy bins 0..2; the appended lane
        // must start at bin 2, not overlap the partial bin 1.
        let mut a = BlockHotness::new(2);
        for _ in 0..3 {
            a.record(0, 64, 1);
        }
        let mut b = BlockHotness::new(2);
        b.record(0, 64, 1);
        a.append_from(&b);
        let s = a.series();
        assert_eq!(s.grid[0], vec![2, 1, 1]);
        assert_eq!(a.events_seen(), 5, "clock padded to the bin boundary");
    }
}
