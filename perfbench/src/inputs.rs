//! Seeded input generation. One `--seed` derives every input: graph
//! generator seeds, edge weights, query sources, the arrival schedule
//! and the starved-request picks. Generation reads only the raw edge
//! lists, never anything the program under test computed.

use simdx_graph::{EdgeList, VertexId};

/// SplitMix64: tiny, seedable and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`tag`) of one benchmark seed.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut r = Self(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stream tags, one per input the seed derives.
pub mod tag {
    pub const GRAPH: u64 = 1;
    pub const WEIGHTS: u64 = 2;
    pub const SOURCES: u64 = 3;
    pub const ARRIVALS: u64 = 4;
    pub const STARVED: u64 = 5;
    pub const REQUESTS: u64 = 6;
}

/// `count` distinct vertices, uniformly among those with out-degree at
/// least `min_degree` in the raw edge list (so a traversal from them
/// reaches the bulk of the graph rather than stopping at once).
pub fn hub_sources(el: &EdgeList, min_degree: u32, count: usize, rng: &mut Rng) -> Vec<VertexId> {
    let mut degree = vec![0u32; el.num_vertices() as usize];
    for &(s, _) in el.edges() {
        degree[s as usize] += 1;
    }
    let mut pool: Vec<VertexId> = (0..el.num_vertices())
        .filter(|&v| degree[v as usize] >= min_degree)
        .collect();
    assert!(
        pool.len() >= count,
        "only {} candidate sources for {count} queries",
        pool.len()
    );
    // Partial Fisher-Yates: the first `count` slots end up a uniform
    // sample without replacement.
    for i in 0..count {
        let j = i + rng.below((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

/// `count` sources stratified along the long axis of a `width × height`
/// grid: source `i` sits in column stratum `i`, at a seeded column
/// within it and a seeded row. Traversal depth depends on where the
/// source sits along the strip, so stratifying keeps the per-seed mix
/// of shallow and deep queries the same.
pub fn strip_sources(width: u32, height: u32, count: usize, rng: &mut Rng) -> Vec<VertexId> {
    (0..count)
        .map(|i| {
            let x = ((i as f64 + rng.unit()) * f64::from(width) / count as f64) as u32;
            let y = rng.below(u64::from(height)) as u32;
            y * width + x.min(width - 1)
        })
        .collect()
}

/// Arrival offsets (seconds from the start) for `count` requests at
/// `rate` per second: request `i` arrives at a seeded point of its own
/// slot `[i, i + 1) / rate`. The rate is exact over any stretch longer
/// than a slot, so backlogs come from the service, not from bursts in
/// the schedule (a Poisson schedule's bursts would set the p99 by
/// themselves, differently on every seed).
pub fn slotted_offsets(count: usize, rate: f64, rng: &mut Rng) -> Vec<f64> {
    (0..count).map(|i| (i as f64 + rng.unit()) / rate).collect()
}

/// Exactly one seeded pick per block of `block` request indices (a
/// trailing partial block gets none), so every seed starves the same
/// number of requests.
pub fn one_per_block(count: usize, block: usize, rng: &mut Rng) -> Vec<bool> {
    let mut picked = vec![false; count];
    for start in (0..count / block).map(|b| b * block) {
        picked[start + rng.below(block as u64) as usize] = true;
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a: Vec<u64> = (0..4)
            .map(|_| Rng::new(7, tag::SOURCES).next_u64())
            .collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::new(7, tag::SOURCES).next_u64(),
            Rng::new(8, tag::SOURCES).next_u64()
        );
        let mut r = Rng::new(1, tag::STARVED);
        let picks = one_per_block(50, 16, &mut r);
        assert_eq!(picks.iter().filter(|&&p| p).count(), 3);
        assert!(!picks[48..].iter().any(|&p| p));
        let s = strip_sources(100, 4, 10, &mut r);
        for (i, v) in s.iter().enumerate() {
            assert_eq!((v % 100) / 10, i as u32);
        }
    }
}
