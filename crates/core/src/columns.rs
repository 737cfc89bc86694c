//! Columnar (structure-of-arrays) sample storage — the one sample spine.
//!
//! A [`SampleColumns`] holds parallel `daemon`/`metric`/`focus`/`wall`/
//! `aligned`/`value` columns instead of a vector of per-sample structs.
//! Batches land via [`SampleColumns::extend_batch`]: the caller resolves
//! the frame's small (metric, focus) dictionary to [`Symbol`]s once, then
//! the sample columns are bulk-appended with skew correction applied as a
//! column pass — no per-sample string handling. Downstream stages stay
//! columnar: clock re-alignment ([`SampleColumns::realign_all`]), shard
//! concatenation ([`SampleColumns::append`]), the per-key fold with
//! histogram fills and coverage interval widening
//! ([`SampleColumns::fold`]), and the stable radix sort that orders each
//! per-key stream by time ([`radix_sort_by_key`]). String names are
//! materialized only at the render edge, via [`Symbol::as_str`].

use crate::intern::Symbol;
use crate::interval::Interval;
use crate::util::FxHashMap;
use pdmap_transport::BatchColumns;

/// Parallel sample columns. All six columns always have equal length;
/// every mutator preserves that invariant, which is why the columns are
/// private behind slice accessors.
#[derive(Clone, Debug, Default)]
pub struct SampleColumns {
    daemon: Vec<u32>,
    metric: Vec<Symbol>,
    focus: Vec<Symbol>,
    wall: Vec<u64>,
    aligned: Vec<u64>,
    value: Vec<f64>,
}

impl SampleColumns {
    /// Empty columns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.wall.len()
    }

    /// True when no samples have landed.
    pub fn is_empty(&self) -> bool {
        self.wall.is_empty()
    }

    /// Appends one sample row.
    pub fn push(
        &mut self,
        daemon: u32,
        metric: Symbol,
        focus: Symbol,
        wall: u64,
        aligned: u64,
        value: f64,
    ) {
        self.daemon.push(daemon);
        self.metric.push(metric);
        self.focus.push(focus);
        self.wall.push(wall);
        self.aligned.push(aligned);
        self.value.push(value);
    }

    /// Bulk-appends a decoded wire batch from `daemon`, applying the
    /// daemon's clock offset as it lands (`aligned = wall − offset`,
    /// clamped at zero). `dict[k]` is the resolved symbol pair of
    /// `batch.dict[k]`; each sample then costs four integer column pushes
    /// and one float push.
    pub fn extend_batch(
        &mut self,
        daemon: u32,
        offset_ns: i64,
        dict: &[(Symbol, Symbol)],
        batch: &BatchColumns,
    ) {
        let n = batch.len();
        self.daemon.resize(self.daemon.len() + n, daemon);
        self.metric.reserve(n);
        self.focus.reserve(n);
        self.value.extend_from_slice(&batch.value);
        self.wall.extend_from_slice(&batch.wall);
        self.aligned
            .extend(batch.wall.iter().map(|&w| align(w, offset_ns)));
        for &k in &batch.key {
            let (m, f) = dict[k as usize];
            self.metric.push(m);
            self.focus.push(f);
        }
    }

    /// One-pass skew correction for every daemon at once: `offsets` is
    /// indexed by daemon id (daemons beyond the table keep offset 0).
    pub fn realign_all(&mut self, offsets: &[i64]) {
        for i in 0..self.len() {
            let off = offsets.get(self.daemon[i] as usize).copied().unwrap_or(0);
            self.aligned[i] = align(self.wall[i], off);
        }
    }

    /// Appends all of `other` — the shard-merge concatenation step.
    pub fn append(&mut self, other: &SampleColumns) {
        self.daemon.extend_from_slice(&other.daemon);
        self.metric.extend_from_slice(&other.metric);
        self.focus.extend_from_slice(&other.focus);
        self.wall.extend_from_slice(&other.wall);
        self.aligned.extend_from_slice(&other.aligned);
        self.value.extend_from_slice(&other.value);
    }

    /// The daemon column.
    pub fn daemons(&self) -> &[u32] {
        &self.daemon
    }

    /// The interned metric column.
    pub fn metrics(&self) -> &[Symbol] {
        &self.metric
    }

    /// The interned focus column.
    pub fn foci(&self) -> &[Symbol] {
        &self.focus
    }

    /// The sender-clock wall column (nanoseconds).
    pub fn walls(&self) -> &[u64] {
        &self.wall
    }

    /// The skew-corrected tool-clock column (nanoseconds).
    pub fn aligneds(&self) -> &[u64] {
        &self.aligned
    }

    /// The value column.
    pub fn values(&self) -> &[f64] {
        &self.value
    }

    /// Folds the columns into one [`KeyFold`] per (metric, focus) key, in
    /// first-seen (row) order. "Last" means the last row folded: fold rows
    /// already in aligned-time order if it must mean "latest on the tool
    /// clock" rather than "latest delivered". Key comparisons are u32
    /// pairs; no strings are touched.
    pub fn fold(&self) -> Vec<((Symbol, Symbol), KeyFold)> {
        // The two u32 symbol ids pack into one u64 hash key, so the
        // per-sample lookup hashes a single integer.
        let mut index: FxHashMap<u64, usize> = FxHashMap::default();
        let mut out: Vec<((Symbol, Symbol), KeyFold)> = Vec::new();
        for i in 0..self.len() {
            let key = (self.metric[i], self.focus[i]);
            let packed = (key.0.index() as u64) << 32 | key.1.index() as u64;
            let slot = *index.entry(packed).or_insert_with(|| {
                out.push((key, KeyFold::default()));
                out.len() - 1
            });
            out[slot].1.observe(self.aligned[i], self.value[i]);
        }
        out
    }
}

/// Digit width of [`radix_sort_by_key`]: 11 bits, 2048 buckets, so a
/// pass's histogram (8 KiB of `u32`) stays in L1.
const RADIX_BITS: u32 = 11;
const RADIX_MASK: u64 = (1 << RADIX_BITS) - 1;

/// Inputs shorter than this go to `sort_by_key`, whose cost the 2048-bucket
/// histograms outweigh on short inputs: for three-pass (25-bit) keys on an
/// x86-64 host the crossover measured between 128 and 256 elements.
const RADIX_CUTOFF: usize = 256;

/// Stable LSD radix sort of `v` by `key`; the output equals
/// `v.sort_by_key(key)` exactly, equal keys included. Keys are rebased on
/// their minimum, so only as many 11-bit digit passes run as the key
/// *range* needs (none for a single instant), and a pass whose digit is
/// the same for every element is skipped. `scratch` is the ping-pong
/// buffer; reuse one across calls to sort many slices with one
/// allocation. Inputs below a small cutoff fall back to `sort_by_key`.
pub fn radix_sort_by_key<T: Copy>(v: &mut [T], scratch: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    if v.len() < RADIX_CUTOFF || v.len() > u32::MAX as usize {
        v.sort_by_key(key); // short, or too long for u32 bucket counts
        return;
    }
    let (lo, hi) = v.iter().fold((u64::MAX, 0), |(lo, hi), x| {
        let k = key(x);
        (lo.min(k), hi.max(k))
    });
    let passes = (u64::BITS - (hi - lo).leading_zeros()).div_ceil(RADIX_BITS);
    if passes == 0 {
        return; // all keys equal: already in order
    }
    // One counting pass fills every digit's histogram.
    let mut counts = vec![[0u32; 1 << RADIX_BITS]; passes as usize];
    for x in v.iter() {
        let k = key(x) - lo;
        for (p, c) in counts.iter_mut().enumerate() {
            c[(k >> (p as u32 * RADIX_BITS) & RADIX_MASK) as usize] += 1;
        }
    }
    scratch.clear();
    scratch.extend_from_slice(v);
    let mut in_v = true;
    for (p, c) in counts.iter_mut().enumerate() {
        let digit = |x: &T| ((key(x) - lo) >> (p as u32 * RADIX_BITS) & RADIX_MASK) as usize;
        let (src, dst): (&[T], &mut [T]) = if in_v { (v, scratch) } else { (scratch, v) };
        if c[digit(&src[0])] as usize == src.len() {
            continue; // every element shares this digit
        }
        let mut sum = 0;
        for n in c.iter_mut() {
            (*n, sum) = (sum, sum + *n);
        }
        for x in src {
            let d = digit(x);
            dst[c[d] as usize] = *x;
            c[d] += 1;
        }
        in_v = !in_v;
    }
    if !in_v {
        v.copy_from_slice(scratch);
    }
}

/// Skew correction: sender wall minus the estimated offset, clamped at
/// zero (a daemon whose clock runs behind the tool cannot produce samples
/// from before the session started).
#[inline]
fn align(wall: u64, offset_ns: i64) -> u64 {
    (wall as i64 - offset_ns).max(0) as u64
}

/// Per-key aggregate state produced by [`SampleColumns::fold`]: the
/// counts, extrema, latest reading, and a log2 histogram of value
/// magnitudes (bucket `k` holds values in `[2^k, 2^(k+1))`, bucket 0 also
/// holds everything below 1).
#[derive(Clone, Debug)]
pub struct KeyFold {
    /// Samples folded in.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Smallest value seen.
    pub min: f64,
    /// Largest value seen.
    pub max: f64,
    /// The most recently folded value.
    pub last: f64,
    /// Aligned time of the most recently folded value.
    pub last_aligned: u64,
    /// Log2 histogram of value magnitudes.
    pub hist: [u32; 64],
}

impl Default for KeyFold {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
            last_aligned: 0,
            hist: [0; 64],
        }
    }
}

impl KeyFold {
    /// Folds one sample in.
    #[inline]
    pub fn observe(&mut self, aligned: u64, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.last = value;
        self.last_aligned = aligned;
        // Bucket by the value's binary exponent, read straight from the
        // bit pattern: exact (floor(log2), no float rounding at bucket
        // edges) and branch-cheap on a per-sample path. NaN lands in the
        // top bucket with the infinities.
        let mag = value.abs();
        let bucket = if mag < 1.0 {
            0
        } else {
            (((mag.to_bits() >> 52) & 0x7FF) as usize - 1023).min(63)
        };
        self.hist[bucket] += 1;
    }

    /// The coverage-widened mass interval for this key: the folded sum is
    /// the proven lower bound, and each of `lost` samples could have
    /// carried at most `max_sample_cost` — the same pessimistic pricing
    /// the session's `Coverage::bound_mass` applies at the verdict edge.
    pub fn widened(&self, lost: u64, max_sample_cost: f64) -> Interval {
        Interval::new(self.sum, self.sum + lost as f64 * max_sample_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern;
    use crate::util::SplitMix64;

    fn batch() -> BatchColumns {
        BatchColumns {
            epoch: 1,
            seq: 5,
            sources: Vec::new(),
            dict: vec![
                ("Messages".into(), "<whole program>".into()),
                ("Messages".into(), "Machine/node#1".into()),
            ],
            key: vec![0, 1, 0, 0],
            wall: vec![1_000, 1_100, 1_200, 1_300],
            value: vec![1.0, 2.0, 3.0, 4.0],
        }
    }

    fn land(cols: &mut SampleColumns, daemon: u32, offset_ns: i64) {
        let b = batch();
        let dict: Vec<_> = b
            .dict
            .iter()
            .map(|(m, f)| (intern::sym(m), intern::sym(f)))
            .collect();
        cols.extend_batch(daemon, offset_ns, &dict, &b);
    }

    #[test]
    fn extend_batch_maps_the_dictionary_and_aligns_on_landing() {
        let mut cols = SampleColumns::new();
        land(&mut cols, 7, 100);
        assert_eq!(cols.len(), 4);
        assert_eq!(cols.daemons(), &[7, 7, 7, 7]);
        assert_eq!(cols.aligneds(), &[900, 1_000, 1_100, 1_200]);
        assert_eq!(cols.walls(), &[1_000, 1_100, 1_200, 1_300]);
        assert_eq!(cols.metrics()[0].as_str(), "Messages");
        assert_eq!(cols.foci()[1].as_str(), "Machine/node#1");
        // Repeated keys share one symbol pair.
        assert_eq!(cols.metrics()[0], cols.metrics()[2]);
        assert_eq!(cols.foci()[0], cols.foci()[2]);
        // Negative corrected times clamp at zero.
        let mut late = SampleColumns::new();
        land(&mut late, 0, 2_000);
        assert_eq!(late.aligneds()[0], 0);
    }

    #[test]
    fn realign_all_rewrites_each_daemon_with_its_own_offset() {
        let mut cols = SampleColumns::new();
        land(&mut cols, 0, 0);
        land(&mut cols, 1, 0);
        land(&mut cols, 5, 0);
        cols.realign_all(&[0, 500]);
        assert_eq!(cols.aligneds()[0], 1_000, "daemon 0 keeps offset 0");
        assert_eq!(cols.aligneds()[4], 500, "daemon 1 re-corrected");
        assert_eq!(cols.aligneds()[8], 1_000, "daemon past the table: offset 0");
    }

    #[test]
    fn fold_fills_histograms_and_widens_intervals() {
        let mut cols = SampleColumns::new();
        land(&mut cols, 0, 0);
        let folds = cols.fold();
        assert_eq!(folds.len(), 2, "two distinct keys, first-seen order");
        let (key, f) = &folds[0];
        assert_eq!(key.0.as_str(), "Messages");
        assert_eq!(key.1.as_str(), "<whole program>");
        assert_eq!(f.count, 3);
        assert_eq!(f.sum, 8.0);
        assert_eq!((f.min, f.max, f.last), (1.0, 4.0, 4.0));
        assert_eq!(f.last_aligned, 1_300);
        // Values 1, 3, 4 land in log2 buckets 0, 1, 2.
        assert_eq!((f.hist[0], f.hist[1], f.hist[2]), (1, 1, 1));
        // Widening: sum is the floor, each lost sample prices at the cap.
        let iv = f.widened(2, 0.5);
        assert_eq!((iv.lo, iv.hi), (8.0, 9.0));
        // No loss collapses to a point.
        assert!(f.widened(0, 0.5).is_point());
    }

    /// Seeded keys spanning `range` (at most), mostly distinct but with
    /// plenty of repeats; each element carries its input position so the
    /// order of equal keys is visible.
    fn keyed(seed: u64, n: usize, range: u64) -> Vec<(u64, usize)> {
        let mut rng = SplitMix64::new(seed);
        let base = rng.next_u64() % 1_000_000;
        (0..n)
            .map(|i| {
                let k = match rng.next_u64() % 4 {
                    0 => base, // a run of ties at the minimum
                    _ => base.saturating_add(rng.next_u64() % range.max(1)),
                };
                (k, i)
            })
            .collect()
    }

    fn check_radix(v: &[(u64, usize)], scratch: &mut Vec<(u64, usize)>) {
        let mut want = v.to_vec();
        want.sort_by_key(|&(k, _)| k);
        let mut got = v.to_vec();
        radix_sort_by_key(&mut got, scratch, |&(k, _)| k);
        assert_eq!(got, want, "n={}", v.len());
    }

    #[test]
    fn radix_sort_matches_sort_by_key_around_the_cutoff() {
        let mut scratch = Vec::new();
        for n in [
            0,
            1,
            2,
            RADIX_CUTOFF - 1,
            RADIX_CUTOFF,
            RADIX_CUTOFF + 1,
            3_000,
        ] {
            // One, two and three digit passes (odd and even counts), and
            // a single instant (no pass at all).
            for range in [0, 1 << 10, 1 << 21, 1 << 32] {
                check_radix(&keyed(n as u64 ^ range, n, range), &mut scratch);
            }
        }
    }

    #[test]
    fn radix_sort_handles_full_width_keys_and_sorted_input() {
        let mut scratch = Vec::new();
        let mut wide = keyed(7, 2_000, u64::MAX);
        wide[10].0 = 0;
        wide[1_500].0 = u64::MAX;
        wide[1_600].0 = u64::MAX;
        check_radix(&wide, &mut scratch);
        let mut sorted = keyed(8, 2_000, 1 << 40);
        sorted.sort_by_key(|&(k, _)| k);
        check_radix(&sorted, &mut scratch);
        // Reversed input with ties: every pass scatters.
        sorted.reverse();
        check_radix(&sorted, &mut scratch);
    }
}
