//! The host's speed, measured by a fixed reference kernel.
//!
//! On a shared host the CPU time of the same work swings by tens of
//! percent, for seconds to hours at a time, with the load of the
//! host's other tenants. Every host-time figure of a plain `storm` or
//! `bulk` run, and every `setup_s` sample, is therefore scaled to the
//! speed of a reference host: multiplied by [`REFERENCE_LAP_S`] over
//! the CPU time of the kernel laps taken around it, on the same
//! thread. The kernel is the benchmark's own code, which no change to
//! the program touches, so a program that does its work faster still
//! reads faster.
//!
//! A lap is two halves of about equal time on one 32 KiB table: a
//! single dependent chain of hashing, table reads and unpredictable
//! branches, and four independent hash streams with table writes and
//! a predictable branch. Measured against single simulator cells
//! timed between them, this blend followed the cells' CPU time more
//! closely than either half alone, and more closely than kernels that
//! also walk a table larger than a core's private caches.

use crate::metrics::thread_cpu_s;
use std::hint::black_box;

/// Words in the table (32 KiB, resident in a core's L1 data cache).
const TABLE_WORDS: usize = 1 << 12;
/// Steps of the dependent half of a lap.
const CHAIN_STEPS: u64 = 1 << 21;
/// Steps of the independent half of a lap.
const STREAM_STEPS: u64 = 1 << 23;

/// CPU seconds of one lap on the reference host, a 2-vCPU Xeon virtual
/// machine (its median lap over an A/A record, rounded).
pub const REFERENCE_LAP_S: f64 = 0.06;

/// The reference kernel. Its table and generator state carry over
/// from lap to lap.
pub struct Reference {
    table: Vec<u64>,
    state: u64,
}

impl Reference {
    /// A kernel whose first lap has warmed its code and table.
    pub fn new() -> Self {
        let mut r = Reference {
            table: (0..TABLE_WORDS as u64).collect(),
            state: 0x5eed,
        };
        r.lap();
        r
    }

    /// Runs one lap and returns its CPU time in seconds.
    pub fn lap(&mut self) -> f64 {
        let cpu0 = thread_cpu_s();
        let chain = self.chain();
        let streams = self.streams();
        black_box((chain, streams));
        thread_cpu_s() - cpu0
    }

    /// The dependent half: each step's table index depends on the
    /// previous step's result, and its branch on a table word.
    fn chain(&mut self) -> u64 {
        let t = &mut self.table;
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..CHAIN_STEPS {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let h = (z ^ acc) as usize & (TABLE_WORDS - 1);
            let v = t[h];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v.rotate_left(13));
            } else {
                acc ^= v.wrapping_mul(z | 1);
            }
            t[h] = v ^ z;
        }
        self.state = x;
        acc
    }

    /// The independent half: four generators that do not wait on each
    /// other or on the table.
    fn streams(&mut self) -> u64 {
        let t = &mut self.table;
        let mask = TABLE_WORDS - 1;
        let (mut a, mut b, mut c, mut d) = (self.state | 1, 2u64, 3u64, 4u64);
        for step in 0..STREAM_STEPS {
            a = a
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            b = b.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
            c ^= c << 13;
            c ^= c >> 7;
            c ^= c << 17;
            d = d.rotate_left(5).wrapping_add(a);
            let i = (a >> 20) as usize & mask;
            let j = (c >> 11) as usize & mask;
            t[i] = t[i].wrapping_add(b);
            t[j] ^= d;
            if step & 7 == 0 {
                d ^= t[(b >> 30) as usize & mask];
            }
        }
        a ^ b ^ c ^ d
    }
}

/// The factor that scales a CPU time measured between two laps to the
/// reference host's speed.
pub fn to_reference(lap_before: f64, lap_after: f64) -> f64 {
    REFERENCE_LAP_S / ((lap_before + lap_after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_time_the_kernel() {
        let mut r = Reference::new();
        let lap = r.lap();
        assert!(lap.is_finite() && lap > 0.0);
        assert_eq!(to_reference(REFERENCE_LAP_S, REFERENCE_LAP_S), 1.0);
        assert_eq!(to_reference(lap, 3.0 * lap), REFERENCE_LAP_S / (2.0 * lap));
    }
}
