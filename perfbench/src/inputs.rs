//! Seeded inputs: moduli, jobs, and the `direct`-engine oracle.
//!
//! The program under test only ever receives the generated jobs; every
//! random choice is made here, from the `--seed` argument.

use modsram_bigint::UBig;
use modsram_core::{home_tile_for, MulJob};
use modsram_modmul::{DirectEngine, ModMulEngine};

/// Jobs sharing one multiplicand and modulus arrive in runs of this
/// length, so LUT-based kernels see the reuse the paper's data-reuse
/// claim is about (one multiplicand load per eight multiplications).
pub const RUN: usize = 8;

/// Seed of the fixed modulus family. Moduli are part of a workload's
/// definition, not of its random draw: a seeded modulus set would move
/// the rendezvous split between tiles (and with it `jobs_per_s`) from
/// seed to seed by far more than any bound.
const MODULI_SEED: u64 = 0x4d6f_6453_5241_4d00;

/// SplitMix64: small, fast, and reproducible across platforms.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn bits(&mut self, bits: usize) -> UBig {
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| self.next_u64()).collect();
        let extra = limbs * 64 - bits;
        if extra > 0 {
            if let Some(top) = v.last_mut() {
                *top >>= extra;
            }
        }
        UBig::from_limbs(v)
    }

    /// Uniform in `[0, p)` by rejection over `p`'s bit length.
    pub fn below_ubig(&mut self, p: &UBig) -> UBig {
        loop {
            let v = self.bits(p.bit_len());
            if &v < p {
                return v;
            }
        }
    }
}

/// Everything one workload run multiplies.
pub struct Inputs {
    pub moduli: Vec<UBig>,
    /// Rendezvous home tile of each modulus in a `tiles`-tile cluster.
    pub homes: Vec<usize>,
    pub jobs: Vec<MulJob>,
    /// Index into `moduli` of each job's modulus.
    pub modulus_of: Vec<usize>,
    /// `direct`-engine product of each job.
    pub expected: Vec<UBig>,
    /// Per load thread, the job indices it submits, in order (cycled).
    pub streams: Vec<Vec<usize>>,
}

impl Inputs {
    /// `streams` load threads with `per_stream` jobs each over `moduli`
    /// fixed `bits`-bit odd moduli (top bit set).
    pub fn generate(
        seed: u64,
        bits: usize,
        moduli: usize,
        streams: usize,
        per_stream: usize,
        tiles: usize,
    ) -> Inputs {
        let mut family = SplitMix::new(MODULI_SEED ^ bits as u64);
        let moduli: Vec<UBig> = (0..moduli)
            .map(|_| {
                let p = family.bits(bits).with_bit(bits - 1, true);
                &p | &UBig::from(1u64)
            })
            .collect();
        let homes = moduli
            .iter()
            .map(|p| home_tile_for(p, tiles).expect("a cluster has at least one tile"))
            .collect();
        let mut rng = SplitMix::new(seed);
        let mut jobs = Vec::with_capacity(streams * per_stream);
        let mut modulus_of = Vec::with_capacity(streams * per_stream);
        let mut stream_ids = Vec::with_capacity(streams);
        for _ in 0..streams {
            let mut ids = Vec::with_capacity(per_stream);
            while ids.len() < per_stream {
                let m = rng.below(moduli.len());
                let p = &moduli[m];
                let b = rng.below_ubig(p);
                for _ in 0..RUN.min(per_stream - ids.len()) {
                    ids.push(jobs.len());
                    jobs.push(MulJob::new(rng.below_ubig(p), b.clone(), p.clone()));
                    modulus_of.push(m);
                }
            }
            stream_ids.push(ids);
        }
        let oracle: Vec<_> = moduli
            .iter()
            .map(|p| DirectEngine::new().prepare(p).expect("nonzero modulus"))
            .collect();
        let expected = jobs
            .iter()
            .zip(&modulus_of)
            .map(|(j, &m)| oracle[m].mod_mul(&j.a, &j.b).expect("direct oracle"))
            .collect();
        Inputs {
            moduli,
            homes,
            jobs,
            modulus_of,
            expected,
            streams: stream_ids,
        }
    }

    pub fn home_of(&self, job: usize) -> usize {
        self.homes[self.modulus_of[job]]
    }

    /// One job per modulus: the warm-up that makes every home tile
    /// prepare every modulus before timing starts.
    pub fn first_touch(&self) -> Vec<usize> {
        (0..self.moduli.len())
            .filter_map(|m| self.modulus_of.iter().position(|&x| x == m))
            .collect()
    }

    /// All jobs split by home tile and cut into batches of `size`, each
    /// sorted modulus-major the way the service's batcher sorts, so the
    /// stages below the service see the runs the service would hand them.
    pub fn tile_batches(&self, tiles: usize, size: usize) -> Vec<Vec<Batch>> {
        (0..tiles)
            .map(|t| {
                let mine: Vec<usize> = self
                    .streams
                    .iter()
                    .flatten()
                    .copied()
                    .filter(|&j| self.home_of(j) == t)
                    .collect();
                mine.chunks(size).map(|c| Batch::new(self, c)).collect()
            })
            .collect()
    }
}

/// A modulus-major batch with its kernel-ready operands precomputed.
pub struct Batch {
    pub jobs: Vec<usize>,
    /// `(modulus index, range into jobs)` of each single-modulus run.
    pub groups: Vec<(usize, std::ops::Range<usize>)>,
    pub pairs: Vec<(UBig, UBig)>,
    pub mul_jobs: Vec<MulJob>,
}

impl Batch {
    fn new(inputs: &Inputs, ids: &[usize]) -> Batch {
        let mut jobs = ids.to_vec();
        jobs.sort_by_key(|&j| (inputs.modulus_of[j], j));
        let mut groups: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        for (i, &j) in jobs.iter().enumerate() {
            let m = inputs.modulus_of[j];
            match groups.last_mut() {
                Some((gm, r)) if *gm == m => r.end = i + 1,
                _ => groups.push((m, i..i + 1)),
            }
        }
        let mul_jobs: Vec<MulJob> = jobs.iter().map(|&j| inputs.jobs[j].clone()).collect();
        let pairs = mul_jobs
            .iter()
            .map(|j| (j.a.clone(), j.b.clone()))
            .collect();
        Batch {
            jobs,
            groups,
            pairs,
            mul_jobs,
        }
    }
}
