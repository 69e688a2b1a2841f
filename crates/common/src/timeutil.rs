//! The retry backoff shared by the client's retry loops.

/// Backoff for retry attempt `attempt` (0-based): exponential in the attempt
/// number from `base_us`, capped at `cap_us`, with deterministic jitter drawn
/// from `salt` so that concurrent clients (different salts) spread out while
/// a fixed-seed test remains reproducible.  The jitter picks uniformly from
/// the upper half of the exponential window ("decorrelated jitter" shape).
/// Returns 0 when `base_us` is 0, letting callers yield instead of sleep.
pub fn retry_backoff_us(attempt: usize, base_us: u64, cap_us: u64, salt: u64) -> u64 {
    if base_us == 0 {
        return 0;
    }
    let exp = base_us
        .saturating_mul(1u64 << attempt.min(16))
        .min(cap_us.max(base_us));
    let half = exp / 2;
    let jitter = crate::ids::splitmix64(salt.wrapping_add(attempt as u64)) % (half + 1);
    half + jitter
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        // Exponential growth up to the cap.
        let a0 = retry_backoff_us(0, 100, 10_000, 7);
        let a4 = retry_backoff_us(4, 100, 10_000, 7);
        assert!((50..=100).contains(&a0), "a0={a0}");
        assert!((800..=1600).contains(&a4), "a4={a4}");
        // Capped: attempt 12 would be 100 << 12 = 409600 without the cap.
        let big = retry_backoff_us(12, 100, 10_000, 7);
        assert!(big <= 10_000, "big={big}");
        // Deterministic per (attempt, salt); different salts differ.
        assert_eq!(
            retry_backoff_us(3, 100, 10_000, 9),
            retry_backoff_us(3, 100, 10_000, 9)
        );
        assert_ne!(
            retry_backoff_us(3, 100, 10_000, 9),
            retry_backoff_us(3, 100, 10_000, 10)
        );
        // Zero base means "yield, don't sleep".
        assert_eq!(retry_backoff_us(5, 0, 10_000, 1), 0);
    }
}
