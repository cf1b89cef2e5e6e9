//! The memory budget: when a job's pre-resolved stream fits a worker's
//! share, and how long its segments are when it does not.

use ebcp_sim::RunSpec;

/// Default per-process stream memory budget (~1.5 GB). The harness
/// divides it by the number of concurrent workers so N parallel
/// resident streams never exceed one budget.
pub const DEFAULT_MEM_BUDGET_BYTES: u64 = 1_500_000_000;

/// Peak resident bytes *per trace record* a streamed (segment-at-a-time)
/// worker charges against its budget share: one mmap'd trace-file
/// window at 17 B/record ([`ebcp_trace::segfile`]'s fixed-width
/// encoding) plus one packed pre-resolved event block at its 24 B/event
/// worst case (every record an L1 miss). The materialized path used to
/// count only the event stream; the streamed path's windows and blocks
/// are charged here so N concurrent streamed workers still fit one
/// process budget.
pub const STREAMED_BYTES_PER_RECORD: u64 = 17 + 24;

/// Headroom multiplier on [`STREAMED_BYTES_PER_RECORD`] covering decode
/// scratch (one `TraceRecord` chunk), the replay engine itself and
/// allocator slack.
pub const STREAMED_HEADROOM: u64 = 4;

/// Estimated materialized footprint of `spec`'s *pre-resolved* event
/// stream, from the spec alone (before any front-end pass has run).
/// Packed events are 24 B and only L1 misses plus gap fillers emit one;
/// 8 B/record is an upper bound across every workload preset at every
/// scale (observed densities are 1–5 B/record), so the harness errs
/// toward streaming — which is exact — never toward blowing the budget.
pub fn est_pre_bytes(spec: &RunSpec) -> u64 {
    (spec.warmup_insts + spec.measure_insts) * 8
}

/// The segment length (in trace records) that keeps one streamed
/// worker's peak resident set — mmap window + event block + headroom —
/// inside `per_worker_bytes`, clamped to `[64 Ki, 4 Mi]` records so
/// tiny budgets still make progress and huge ones don't defeat the
/// point of segmenting.
pub fn seg_records_for_budget(per_worker_bytes: u64) -> u64 {
    (per_worker_bytes / (STREAMED_HEADROOM * STREAMED_BYTES_PER_RECORD)).clamp(1 << 16, 4 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_sim::SimConfig;
    use ebcp_trace::WorkloadSpec;

    fn spec(records: u64) -> RunSpec {
        RunSpec {
            workload: WorkloadSpec::database().scaled(1, 16),
            seed: 5,
            warmup_insts: records / 2,
            measure_insts: records - records / 2,
            sim: SimConfig::scaled_down(16),
        }
    }

    #[test]
    fn seg_records_respects_budget_and_clamps() {
        // Inside the clamp range the charge stays within budget.
        let budget = 100_000_000;
        let seg = seg_records_for_budget(budget);
        assert!(seg * STREAMED_HEADROOM * STREAMED_BYTES_PER_RECORD <= budget);
        // Tiny and huge budgets clamp instead of degenerating.
        assert_eq!(seg_records_for_budget(0), 1 << 16);
        assert_eq!(seg_records_for_budget(u64::MAX / 8), 4 << 20);
    }

    #[test]
    fn est_pre_bytes_scales_with_records() {
        let s = spec(10_000);
        assert_eq!(est_pre_bytes(&s), 80_000);
    }
}
