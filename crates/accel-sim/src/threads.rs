//! Thread-budget resolution shared by every pooled surface.
//!
//! The `0 = available parallelism` rule appears on every knob of
//! `ParallelConfig` (lane pool, merge plan). It used to be
//! re-implemented privately by each consumer, which is exactly how such a
//! rule drifts; this is now the one copy (`pasta_core::merge` and
//! `dl_framework::lane_exec` both delegate here).

/// Resolves a thread budget: `0` means "available parallelism" (1 if the
/// OS will not say), any other value is taken literally.
pub fn resolve_threads(max_threads: usize) -> usize {
    if max_threads > 0 {
        max_threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_budget_is_literal_and_zero_asks_the_os() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1, "0 resolves to at least one");
    }
}
