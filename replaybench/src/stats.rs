//! Order statistics and the record fingerprint.

use std::fmt::Write as _;

use prefillonly::RequestRecord;

/// Nearest-rank quantile (`q` in (0, 1]) of `values`; `None` when empty.  Sorts
/// in place.
pub fn nearest_rank<T: Copy + PartialOrd>(values: &mut [T], q: f64) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let rank = ((values.len() as f64) * q).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// Median of `values` (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// FNV-1a over the `Debug` rendering of every record: equal fingerprints mean
/// byte-identical record streams.
pub fn fingerprint<'a>(records: impl IntoIterator<Item = &'a RequestRecord>) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for byte in s.bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut hasher = Fnv(0xcbf2_9ce4_8422_2325);
    for record in records {
        write!(hasher, "{record:?};").expect("hashing cannot fail");
    }
    hasher.0
}

/// The highest offered rate whose P99 JCT meets `limit`: the highest rung that
/// meets it, interpolated linearly in P99 towards the next rung when that one
/// misses.  0 when no rung meets the limit.
pub fn slo_rate(ladder: &[(f64, f64)], limit: f64) -> f64 {
    let Some(best) = ladder.iter().rposition(|&(_, p99)| p99 <= limit) else {
        return 0.0;
    };
    let (rate, p99) = ladder[best];
    match ladder.get(best + 1) {
        Some(&(next_rate, next_p99)) => {
            rate + (next_rate - rate) * (limit - p99) / (next_p99 - p99)
        }
        None => rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_median() {
        let mut v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(nearest_rank(&mut v, 0.99), Some(5.0));
        assert_eq!(nearest_rank(&mut v, 0.5), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(nearest_rank::<f64>(&mut [], 0.5), None);
    }

    #[test]
    fn slo_rate_interpolates_between_the_straddling_rungs() {
        let ladder = [(1.0, 5.0), (2.0, 10.0), (3.0, 30.0)];
        assert_eq!(slo_rate(&ladder, 20.0), 2.5);
        assert_eq!(slo_rate(&ladder, 40.0), 3.0);
        assert_eq!(slo_rate(&ladder, 1.0), 0.0);
    }
}
