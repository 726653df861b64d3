//! The byte histogram the entropy coders build their models from.
//!
//! Quantization codes are dominated by one value, so a plain counting loop
//! increments the same counter byte after byte, and every increment waits
//! for the store of the one before it. Counting into four interleaved
//! sub-histograms gives four independent chains; they are summed at the end.

/// Counts every byte value of `data`.
pub(crate) fn byte_histogram(data: &[u8]) -> [u64; 256] {
    let mut lanes = [[0u64; 256]; 4];
    let (quads, tail) = data.as_chunks::<4>();
    for &[a, b, c, d] in quads {
        lanes[0][a as usize] += 1;
        lanes[1][b as usize] += 1;
        lanes[2][c as usize] += 1;
        lanes[3][d as usize] += 1;
    }
    for &b in tail {
        lanes[0][b as usize] += 1;
    }
    let mut hist = [0u64; 256];
    for (s, count) in hist.iter_mut().enumerate() {
        *count = lanes.iter().map(|lane| lane[s]).sum();
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn lanes_sum_to_a_plain_count() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let random: Vec<u8> = (0..10_007).map(|_| rng.gen()).collect();
        let peaked: Vec<u8> = (0..10_005)
            .map(|_| {
                if rng.gen::<f64>() < 0.99 {
                    128
                } else {
                    rng.gen()
                }
            })
            .collect();
        for data in [&random[..], &peaked[..], &[7u8; 9][..]] {
            for len in [0, 1, 2, 3, 4, 5, 7, 8, 9, data.len()] {
                let data = &data[..len.min(data.len())];
                let mut want = [0u64; 256];
                for &b in data {
                    want[b as usize] += 1;
                }
                assert_eq!(byte_histogram(data), want, "{len} bytes");
            }
        }
    }
}
