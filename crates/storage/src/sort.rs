//! The one sort kernel for keyed columns: a stable least-significant-digit
//! radix sort of integer keys, shared by index builds and ANALYZE.

/// Bits per radix digit: 2,048 counters per pass, which stay in L1.
const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Sort `keys` ascending and stably. Returns the sorted keys and, beside
/// each, its position in `keys` (a `u32`, as row ids are); equal keys keep
/// their input order, so positions ascend within every run of equal keys.
///
/// Digits are taken from `key - min` as an unsigned offset (exact for
/// every pair of `i64`s), 11 bits a pass, with as many passes as
/// `max - min` needs: none when every key is equal, two below a span of
/// 2^22, six for the full `i64` range. All digit counts come from one read
/// of the keys; each pass then scatters forward, which keeps it stable.
pub fn sort_keys<K: Copy + Into<i64>>(keys: &[K]) -> (Vec<i64>, Vec<u32>) {
    let mut keys: Vec<i64> = keys.iter().map(|&k| k.into()).collect();
    let mut rows: Vec<u32> = (0..keys.len() as u32).collect();
    let (Some(&min), Some(&max)) = (keys.iter().min(), keys.iter().max()) else {
        return (keys, rows);
    };
    let span = max.wrapping_sub(min) as u64;
    let passes = (u64::BITS - span.leading_zeros()).div_ceil(DIGIT_BITS);
    let digit = |k: i64, pass: u32| {
        ((k.wrapping_sub(min) as u64) >> (pass * DIGIT_BITS)) as usize & (BUCKETS - 1)
    };
    let mut starts = vec![[0usize; BUCKETS]; passes as usize];
    for &k in &keys {
        for (pass, counts) in (0..).zip(&mut starts) {
            counts[digit(k, pass)] += 1;
        }
    }
    let (mut out_keys, mut out_rows) = (vec![0; keys.len()], vec![0; keys.len()]);
    for (pass, next) in (0..).zip(&mut starts) {
        let mut at = 0;
        for c in next.iter_mut() {
            (*c, at) = (at, at + *c);
        }
        for (&k, &row) in keys.iter().zip(&rows) {
            let at = &mut next[digit(k, pass)];
            out_keys[*at] = k;
            out_rows[*at] = row;
            *at += 1;
        }
        std::mem::swap(&mut keys, &mut out_keys);
        std::mem::swap(&mut rows, &mut out_rows);
    }
    (keys, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::{rng_from_seed, Rng, RngCore};

    /// The definition: sort `(key, position)` pairs.
    fn oracle(keys: &[i64]) -> (Vec<i64>, Vec<u32>) {
        let mut pairs: Vec<(i64, u32)> = keys.iter().copied().zip(0..).collect();
        pairs.sort_unstable();
        pairs.into_iter().unzip()
    }

    fn check(keys: &[i64]) {
        assert_eq!(
            sort_keys(keys),
            oracle(keys),
            "{} keys, head {:?}",
            keys.len(),
            &keys[..keys.len().min(8)]
        );
    }

    #[test]
    fn sort_keys_matches_sorting_key_position_pairs() {
        let mut rng = rng_from_seed(51);
        // Spans of one value, one digit, a digit boundary, two and three
        // digits, negative keys, and the whole of `i64`.
        let draws: [fn(u64) -> i64; 7] = [
            |r| (r % 7) as i64,
            |r| (r % 2048) as i64 - 1024,
            |r| (r % 2049) as i64,
            |r| (r % 3_000_000) as i64,
            |r| -((r % 100_000_000) as i64) - 1,
            |r| (r >> 30) as i64 - (1 << 33),
            |r| r as i64,
        ];
        for len in (0..40).chain([63, 64, 65, 400, 1_023, 2_000]) {
            for draw in draws {
                let keys: Vec<i64> = (0..len).map(|_| draw(rng.next_u64())).collect();
                check(&keys);
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                check(&sorted);
                sorted.reverse();
                check(&sorted);
            }
            check(&vec![-5; len]);
            check(&vec![i64::MIN; len]);
            check(&vec![i64::MAX; len]);
            let ends = [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX - 1, i64::MAX];
            let ends: Vec<i64> = (0..len).map(|_| ends[rng.gen_index(ends.len())]).collect();
            check(&ends);
        }
    }

    #[test]
    fn sort_keys_takes_narrow_key_types() {
        let codes: Vec<u32> = vec![3, u32::MAX, 0, 3, 7, u32::MAX, 0];
        let wide: Vec<i64> = codes.iter().map(|&c| i64::from(c)).collect();
        assert_eq!(sort_keys(&codes), oracle(&wide));
        assert_eq!(sort_keys::<u32>(&[]), (vec![], vec![]));
    }
}
