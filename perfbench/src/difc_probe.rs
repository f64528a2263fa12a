//! The difc replay probe: label widths, and the cost of a structural
//! against a memoized flow check on a workload's own label pairs.

use crate::measure::median;
use laminar_difc::SecPair;
use std::hint::black_box;
use std::time::Instant;

/// Tags in a pair's two labels together.
#[must_use]
pub fn width(p: &SecPair) -> usize {
    p.secrecy().len() + p.integrity().len()
}

/// Median and maximum width of `labels`.
#[must_use]
pub fn width_stats(labels: &[SecPair]) -> (f64, f64) {
    let ws: Vec<f64> = labels.iter().map(|p| width(p) as f64).collect();
    (median(&ws), ws.iter().copied().fold(0.0, f64::max))
}

/// Checks per timed round and kind.
const CHECKS_PER_ROUND: usize = 200_000;
const ROUNDS: usize = 5;

/// Replays `pairs` (flow from `.0` to `.1`) through
/// [`SecPair::flows_to`] and [`SecPair::flows_to_cached`], alternating the
/// two in rounds. Returns the median ns per check of each, in that order.
///
/// # Panics
/// If the two entry points disagree on a pair, or `pairs` is empty.
#[must_use]
pub fn flows_probe(pairs: &[(SecPair, SecPair)]) -> (f64, f64) {
    assert!(!pairs.is_empty(), "no label pairs to replay");
    for (a, b) in pairs {
        assert_eq!(
            a.flows_to(b),
            a.flows_to_cached(b),
            "cache disagrees on {a:?} -> {b:?}"
        );
    }
    let time = |cached: bool| {
        let t = Instant::now();
        for (a, b) in pairs.iter().cycle().take(CHECKS_PER_ROUND) {
            let (a, b) = (black_box(a), black_box(b));
            black_box(if cached { a.flows_to_cached(b) } else { a.flows_to(b) });
        }
        t.elapsed().as_nanos() as f64 / CHECKS_PER_ROUND as f64
    };
    let (mut plain, mut cached) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        plain.push(time(false));
        cached.push(time(true));
    }
    (median(&plain), median(&cached))
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_difc::{Label, TagAllocator};

    #[test]
    fn widths_and_probe_on_nested_labels() {
        let tags = TagAllocator::new();
        let chain: Vec<_> = (0..4).map(|_| tags.fresh()).collect();
        let labels: Vec<SecPair> = (0..=4)
            .map(|w| SecPair::secrecy_only(Label::from_tags(chain[..w].iter().copied())))
            .collect();
        assert_eq!(width_stats(&labels), (2.0, 4.0));
        let pairs: Vec<_> =
            labels.windows(2).map(|w| (w[0].clone(), w[1].clone())).collect();
        let (plain, cached) = flows_probe(&pairs);
        assert!(plain > 0.0 && cached > 0.0);
    }
}
