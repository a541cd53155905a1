//! Seeded input generation. Every byte and every op a workload submits
//! is built here, from the workload seed, before the timed region.

use hix_sim::Payload;
use hix_testkit::rng::Rng;

/// Transfer sizes of a `serve`/`recover` round.
pub const SIZES: [u64; 4] = [4 << 10, 64 << 10, 256 << 10, 1 << 20];
/// Distinct payloads generated per size; rounds draw from this pool.
pub const POOL: usize = 8;

/// One tenant's turn in a round.
#[derive(Debug, Clone, Copy)]
pub struct Turn {
    pub size_idx: usize,
    pub pool_idx: usize,
}

/// The op tape of `serve` and `recover`: `rounds` rounds of one turn per
/// tenant. Each round deals the four [`SIZES`] to the four tenants in a
/// seeded order, so every turn's size is uniform over the four and every
/// tape moves the same bytes whatever its seed.
pub struct Tape {
    pub rounds: Vec<Vec<Turn>>,
    /// `pool[size_idx][pool_idx]`: the payloads, built from the byte seed.
    pub pool: Vec<Vec<Payload>>,
}

impl Tape {
    pub fn new(shape_seed: u64, byte_seed: u64, rounds: usize, tenants: usize) -> Tape {
        assert_eq!(
            tenants,
            SIZES.len(),
            "a round deals each size to one tenant"
        );
        let mut shape = Rng::new(shape_seed);
        let rounds = (0..rounds)
            .map(|_| {
                let mut sizes: Vec<usize> = (0..SIZES.len()).collect();
                shape.shuffle(&mut sizes);
                sizes
                    .into_iter()
                    .map(|size_idx| Turn {
                        size_idx,
                        pool_idx: shape.gen_range_usize(0..POOL),
                    })
                    .collect()
            })
            .collect();
        let mut bytes = Rng::new(byte_seed.rotate_left(17) ^ 0xB17E5);
        let pool = SIZES
            .iter()
            .map(|&len| {
                (0..POOL)
                    .map(|_| Payload::from_bytes(bytes.bytes(len as usize)))
                    .collect()
            })
            .collect();
        Tape { rounds, pool }
    }

    pub fn payload(&self, turn: Turn) -> &Payload {
        &self.pool[turn.size_idx][turn.pool_idx]
    }
}
