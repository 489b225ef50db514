//! Deterministic random-number streams.
//!
//! A simulation run is parameterized by a single master seed. Every consumer
//! (each flow's start-jitter draw, each CCA's internal randomness, workload
//! generators, …) obtains its own independent stream from [`RngFactory`],
//! keyed by a stable `(label, index)` pair. Two properties follow:
//!
//! 1. **Reproducibility** — the same master seed always yields the same run.
//! 2. **Stability under refactoring** — adding a new consumer does not
//!    perturb the streams of existing consumers (unlike handing out draws
//!    from one shared generator in call order).
//!
//! Stream keys are mixed with SplitMix64, a well-distributed 64-bit finalizer
//! (Steele et al., "Fast Splittable Pseudorandom Number Generators").

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 finalizer: bijective, avalanching 64-bit mix.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over a byte string — the workspace's one stable hash:
/// RNG stream labels, scenario/outcome digests and checkpoint integrity
/// stamps all use it. Stable across platforms and compiler versions
/// (unlike `std::hash`'s unspecified `DefaultHasher`) and trivially
/// reimplementable by external tooling.
#[inline]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Streaming [`fnv1a_64`]: feeding the same bytes in any number of pieces
/// yields the same value. It is a `fmt::Write` and an `io::Write` sink, so
/// a digest of formatted text (`write!(h, "{x:?}")`) or of an encoder's
/// output never builds the bytes in memory. Neither write can fail.
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of the empty string (the FNV-1a offset basis).
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb `bytes`.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The hash of everything absorbed so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl std::fmt::Write for Fnv1a {
    #[inline]
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

impl std::io::Write for Fnv1a {
    #[inline]
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Factory deriving independent, stable RNG streams from one master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    master: u64,
}

impl RngFactory {
    /// Create a factory for the given master seed.
    pub fn new(master_seed: u64) -> Self {
        RngFactory {
            master: master_seed,
        }
    }

    /// The master seed this factory was built from.
    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// Derive the 64-bit seed for stream `(label, index)`.
    pub fn derive_seed(&self, label: &str, index: u64) -> u64 {
        let mut s = splitmix64(self.master ^ fnv1a_64(label.as_bytes()));
        s = splitmix64(s ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
        s
    }

    /// A fast non-cryptographic RNG for stream `(label, index)`.
    pub fn stream(&self, label: &str, index: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.derive_seed(label, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_key_same_stream() {
        let f = RngFactory::new(7);
        let a: Vec<u64> = f
            .stream("flow", 3)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u64> = f
            .stream("flow", 3)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_index_different_stream() {
        let f = RngFactory::new(7);
        assert_ne!(f.derive_seed("flow", 0), f.derive_seed("flow", 1));
    }

    #[test]
    fn different_label_different_stream() {
        let f = RngFactory::new(7);
        assert_ne!(f.derive_seed("flow", 0), f.derive_seed("start", 0));
    }

    #[test]
    fn different_master_different_stream() {
        assert_ne!(
            RngFactory::new(1).derive_seed("flow", 0),
            RngFactory::new(2).derive_seed("flow", 0)
        );
    }

    #[test]
    fn seeds_are_stable_constants() {
        // Guard against accidental changes to the derivation scheme: any
        // change here silently invalidates recorded experiment baselines.
        let f = RngFactory::new(0xDEADBEEF);
        assert_eq!(f.derive_seed("flow", 0), f.derive_seed("flow", 0));
        let s1 = f.derive_seed("flow", 1);
        let s2 = f.derive_seed("flow", 2);
        assert_ne!(s1, s2);
        // splitmix64 of 0 is a known vector.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("a") per the reference implementation.
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_64(b"ab"), fnv1a_64(b"ba"));
    }

    #[test]
    fn streamed_fnv_equals_one_shot_whatever_the_pieces() {
        use std::fmt::Write as _;
        let text = "RunOutcome { scenario: \"x\", seed: 7, trace: None }";
        let mut by_fmt = Fnv1a::new();
        write!(by_fmt, "{}", text).unwrap();
        let mut by_io = Fnv1a::default();
        for piece in text.as_bytes().chunks(5) {
            std::io::Write::write_all(&mut by_io, piece).unwrap();
        }
        assert_eq!(by_fmt.finish(), fnv1a_64(text.as_bytes()));
        assert_eq!(by_io.finish(), fnv1a_64(text.as_bytes()));
        assert_eq!(Fnv1a::new().finish(), fnv1a_64(b""));
    }
}
