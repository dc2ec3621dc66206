//! The three workloads, one per operating point of the paper's Table II,
//! and the seeded generator of the text inputs the program reads.
//!
//! * `place-floor` (F): batch placement on a large tree with a short
//!   alignment at `memplan::floor_budget` — no lookup table, minimum
//!   slots, several chunks, so prescoring recomputes CLVs for every
//!   branch block of every chunk.
//! * `place-cliff-aa` (I): batch placement on a wide protein alignment at
//!   `memplan::lookup_floor_budget` — the lookup table just fits beside
//!   the minimum slots, so set-up is a lookup build under slot pressure
//!   with 20-state kernels.
//! * `serve-reads` (O): the `phyloplaced` daemon with no budget (all CLVs
//!   resident, lookup on) serving single reads and small batches.

use phyloplace::datasets::{generate, neotrop, pro_ref, serratus, DatasetSpec, Scale};
use phyloplace::seq::alphabet::AlphabetKind;
use phyloplace::seq::fasta;

/// Which memory budget a workload runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// `memplan::floor_budget`: no lookup table, minimum slots.
    Floor,
    /// `memplan::lookup_floor_budget`: lookup table plus minimum slots.
    LookupFloor,
    /// No budget: every CLV resident, lookup table on.
    Unbounded,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub point: Point,
    pub spec: DatasetSpec,
    /// Queries per chunk (`EpaConfig::chunk_size`).
    pub chunk: usize,
    /// Worker threads of the measured placement.
    pub threads: usize,
}

impl Workload {
    pub fn is_serve(&self) -> bool {
        self.point == Point::Unbounded
    }
}

pub const NAMES: [&str; 3] = ["place-floor", "place-cliff-aa", "serve-reads"];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    let w = match name {
        "place-floor" => {
            // pro_ref's leaves-to-sites ratio (20,000 : 1,582) at a size
            // where one placement of two chunks takes about 0.6 s.
            let mut spec = pro_ref(Scale::Bench);
            spec.leaves = 500;
            spec.sites = 40;
            spec.n_queries = 8;
            Workload { name: "place-floor", point: Point::Floor, spec, chunk: 4, threads: 2 }
        }
        "place-cliff-aa" => {
            let mut spec = serratus(Scale::Bench);
            spec.n_queries = 6;
            Workload {
                name: "place-cliff-aa",
                point: Point::LookupFloor,
                spec,
                chunk: 6,
                threads: 2,
            }
        }
        "serve-reads" => {
            let mut spec = neotrop(Scale::Bench);
            spec.n_queries = 96;
            Workload { name: "serve-reads", point: Point::Unbounded, spec, chunk: 5000, threads: 2 }
        }
        _ => return None,
    };
    Some(w)
}

/// The program's inputs as text, exactly as a user would hand them over.
pub struct Inputs {
    pub alphabet: AlphabetKind,
    pub tree: String,
    pub reference: String,
    /// One FASTA record per query, in generation order.
    pub queries: Vec<String>,
}

impl Inputs {
    /// All queries as one FASTA text.
    pub fn all_queries(&self) -> String {
        self.queries.concat()
    }
}

/// Queries the seed draws from, per query a run places.
const DRAW_POOL: usize = 8;

/// Generates the workload's inputs from `seed`. The reference (tree and
/// alignment) is the workload's own dataset at its fixed `DatasetSpec`
/// seed; the run's seed draws which of that dataset's queries are
/// placed, and in what order. Tree shape sets how many CLVs a run
/// recomputes, so a reference that changed with the seed would move
/// every metric by more than the run-to-run noise.
pub fn inputs(w: &Workload, seed: u64) -> Inputs {
    let mut spec = w.spec.clone();
    // Queries are drawn after the tree and the alignment, so a larger
    // pool leaves the reference unchanged.
    spec.n_queries *= DRAW_POOL;
    let ds = generate(&spec);
    let mut pool: Vec<usize> = (0..ds.queries.len()).collect();
    let mut rng = SplitMix64::new(seed ^ spec.seed);
    let queries = (0..w.spec.n_queries)
        .map(|_| {
            let q = &ds.queries[pool.swap_remove(rng.below(pool.len()))];
            fasta::to_string(std::slice::from_ref(q), 70)
        })
        .collect();
    Inputs {
        alphabet: spec.alphabet,
        tree: phyloplace::tree::newick::write(&ds.tree),
        reference: fasta::to_string(ds.reference.rows(), 70),
        queries,
    }
}

/// A small seeded generator for the benchmark's own draws (request
/// sizes and order), so they need no dependency.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = by_name("place-cliff-aa").unwrap();
        let (a, b, c) = (inputs(&w, 7), inputs(&w, 7), inputs(&w, 8));
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.reference, b.reference);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.reference, c.reference, "the reference is fixed per workload");
        assert_ne!(a.queries, c.queries, "the seed draws the queries");
        assert_eq!(a.queries.len(), w.spec.n_queries);
    }

    #[test]
    fn every_name_resolves() {
        for name in NAMES {
            assert_eq!(by_name(name).unwrap().name, name);
        }
        assert!(by_name("nope").is_none());
    }
}
