//! `ChaCha8Rng` as `rand_chacha 0.3.1` defines it: the ChaCha block function
//! at 8 rounds over a 256-bit key, a 64-bit block counter in words 12–13 and
//! a zero stream id in words 14–15, generated four blocks (64 words) at a
//! time and handed out through `rand_core`'s `BlockRng` index rules — a
//! `next_u64` straddling the buffer end takes its low word from the old
//! buffer and its high word from the new one.

use rand::{RngCore, SeedableRng};

const BUF_WORDS: usize = 64;
const BLOCKS_PER_REFILL: u64 = 4;

#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    buf: [u32; BUF_WORDS],
    index: usize,
}

impl PartialEq for ChaCha8Rng {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.counter == other.counter && self.index == other.index
    }
}

impl Eq for ChaCha8Rng {}

#[inline(always)]
fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

fn block(key: &[u32; 8], counter: u64, out: &mut [u32]) {
    let mut init = [0u32; 16];
    // "expand 32-byte k"
    init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    init[4..12].copy_from_slice(key);
    init[12] = counter as u32;
    init[13] = (counter >> 32) as u32;
    let mut x = init;
    for _ in 0..4 {
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (o, (w, i)) in out.iter_mut().zip(x.iter().zip(init.iter())) {
        *o = w.wrapping_add(*i);
    }
}

impl ChaCha8Rng {
    fn refill(&mut self, index: usize) {
        for b in 0..BLOCKS_PER_REFILL {
            let at = b as usize * 16;
            block(&self.key, self.counter.wrapping_add(b), &mut self.buf[at..at + 16]);
        }
        self.counter = self.counter.wrapping_add(BLOCKS_PER_REFILL);
        self.index = index;
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        // An exhausted buffer: the first draw generates.
        ChaCha8Rng { key, counter: 0, buf: [0; BUF_WORDS], index: BUF_WORDS }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill(0);
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < BUF_WORDS - 1 {
            self.index += 2;
            u64::from(self.buf[index + 1]) << 32 | u64::from(self.buf[index])
        } else if index >= BUF_WORDS {
            self.refill(2);
            u64::from(self.buf[1]) << 32 | u64::from(self.buf[0])
        } else {
            let lo = u64::from(self.buf[BUF_WORDS - 1]);
            self.refill(1);
            u64::from(self.buf[0]) << 32 | lo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// draft-strombergson-chacha-test-vectors TC1, 256-bit key, 8 rounds:
    /// all-zero key and IV, keystream blocks 0 and 1.
    #[test]
    fn zero_key_keystream_matches_the_published_vector() {
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        let expect: [u8; 32] = [
            0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
            0xa5, 0xa1, 0x2c, 0x84, 0x0e, 0xc3, 0xce, 0x9a, 0x7f, 0x3b, 0x18, 0x1b, 0xe1, 0x88,
            0xef, 0x71, 0x1a, 0x1e,
        ];
        let mut got = Vec::new();
        for _ in 0..8 {
            got.extend_from_slice(&rng.next_u32().to_le_bytes());
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn u64_reads_straddle_the_buffer_like_block_rng() {
        let mut words = ChaCha8Rng::seed_from_u64(9);
        let stream: Vec<u32> = (0..130).map(|_| words.next_u32()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for w in &stream[..63] {
            assert_eq!(rng.next_u32(), *w);
        }
        // index 63: low word is the last of this buffer, high the first of the next.
        assert_eq!(rng.next_u64(), u64::from(stream[64]) << 32 | u64::from(stream[63]));
        assert_eq!(rng.next_u64(), u64::from(stream[66]) << 32 | u64::from(stream[65]));
    }
}
