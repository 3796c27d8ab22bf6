//! The benchmark's own statistics: which percentile a sample supports,
//! backlog detection for open-loop steps, the rate-ladder search that
//! yields `max_rate_ops`, and which measured windows a figure is taken
//! over. Pure functions, unit-tested in `tests/stats.rs`.

/// Percentiles a latency summary may name, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Index of the nearest-rank `p`-th percentile in a sorted sample of `n`
/// (`n > 0`).
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9 / 100 * 10000 = 9990.000…02)
    // from pushing an exact rank up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p) - 1
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when not even the median
/// has.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending sample.
///
/// # Panics
///
/// On an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p)]
}

/// Median of an unsorted sample of floats (mean of the middle two for an
/// even count).
///
/// # Panics
///
/// On an empty sample.
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Fewest extra operations the backlog may hold at the end of a step,
/// over its start, before it counts as growing.
pub const MIN_BACKLOG_SLACK: f64 = 8.0;

/// The backlog growth a step of `arrivals` operations may show and still
/// count as steady: 1 % of its arrivals (at least
/// [`MIN_BACKLOG_SLACK`]). This absorbs a scheduling hiccup that the
/// next replies clear, at any rate; a system that does not keep up falls
/// behind by a share of the offered rate and exceeds it.
pub fn backlog_slack(arrivals: u64) -> f64 {
    (arrivals as f64 / 100.0).max(MIN_BACKLOG_SLACK)
}

/// Whether an open-loop step's backlog (operations due but not yet
/// completed, sampled at each completion) grew: the median of the last
/// quarter of the samples exceeds the median of the first quarter by
/// more than `slack`. A system that keeps up holds a flat backlog at any
/// load; one that does not accumulates it linearly. Medians let a brief
/// stall's spike pass, as long as it clears.
pub fn backlog_growing(outstanding: &[u32], slack: f64) -> bool {
    let q = outstanding.len() / 4;
    if q == 0 {
        return false;
    }
    let median = |s: &[u32]| median_f64(&s.iter().map(|&x| f64::from(x)).collect::<Vec<_>>());
    median(&outstanding[outstanding.len() - q..]) > median(&outstanding[..q]) + slack
}

/// What one ladder step measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Tail latency of the step, counted from each operation's due time;
    /// operations still outstanding at the end count as over any limit.
    pub p99_ns: u64,
    /// Operations that errored, timed out or came back wrong.
    pub failed: u64,
    /// [`backlog_growing`] over the step's backlog samples.
    pub backlog_growing: bool,
}

impl StepOutcome {
    /// A step meets the workload's limit when its p99 is within
    /// `limit_ns`, nothing failed and the backlog stayed flat.
    pub fn passes(&self, limit_ns: u64) -> bool {
        self.failed == 0 && !self.backlog_growing && self.p99_ns <= limit_ns
    }
}

/// A fixed geometric rate ladder: `base * ratio^i` for `i` in
/// `0..steps`.
pub fn ladder(base: f64, ratio: f64, steps: usize) -> Vec<f64> {
    (0..steps).map(|i| base * ratio.powi(i as i32)).collect()
}

/// Searches a rate ladder for the highest rate that meets the limit.
///
/// A bisection over the whole ladder first finds roughly where steps
/// stop passing, in about log2(ladder length) steps whatever the
/// capacity. A staircase then starts at the highest rate the bisection
/// saw pass and moves one rung up after a step that passes and one rung
/// down after a step that fails, so it settles around the edge of
/// capacity, and a noisy step moves it by one rung only. The answer is
/// the median over the staircase's passing steps. The caller measures a
/// fixed number of steps, so every run takes its answer from the same
/// amount of evidence.
///
/// A step through which the hypervisor stole much CPU time can fail for
/// that alone, but cannot pass for it. A failing step marked *stolen* is
/// therefore measured again at the same rate rather than moving the
/// search; a passing one counts either way.
#[derive(Debug, Clone)]
pub struct LadderSearch {
    rates: Vec<f64>,
    /// Bisection: highest index known to pass, plus one (0: none yet).
    lo: usize,
    /// Bisection: lowest index known to fail (`rates.len()`: none yet).
    hi: usize,
    /// Highest rate a bisection step passed at.
    bisect_best: Option<(f64, f64)>,
    /// The staircase's rung, once the bisection has ended.
    walk: Option<usize>,
    /// Rate and goodput of each passing staircase step.
    passed: Vec<(f64, f64)>,
}

impl LadderSearch {
    /// A search over `rates` (ascending, not empty).
    ///
    /// # Panics
    ///
    /// On an empty ladder.
    pub fn new(rates: Vec<f64>) -> LadderSearch {
        assert!(!rates.is_empty(), "an empty rate ladder");
        let hi = rates.len();
        LadderSearch { rates, lo: 0, hi, bisect_best: None, walk: None, passed: Vec::new() }
    }

    fn rung(&self) -> usize {
        self.walk.unwrap_or(self.lo + (self.hi - self.lo) / 2)
    }

    /// The rate to measure next.
    pub fn next_rate(&self) -> f64 {
        self.rates[self.rung()]
    }

    /// Whether the bisection has ended and the staircase is walking.
    pub fn walking(&self) -> bool {
        self.walk.is_some()
    }

    /// Records the outcome of the step at [`LadderSearch::next_rate`],
    /// whether the hypervisor stole much CPU time during it, and the
    /// goodput it delivered.
    pub fn record(&mut self, passed: bool, stolen: bool, goodput: f64) {
        if !passed && stolen {
            return;
        }
        let rung = self.rung();
        match self.walk {
            None => {
                if passed {
                    self.lo = rung + 1;
                    self.bisect_best = Some((self.rates[rung], goodput));
                } else {
                    self.hi = rung;
                }
                if self.lo >= self.hi {
                    self.walk = Some(self.lo.saturating_sub(1));
                }
            }
            Some(_) => {
                if passed {
                    self.passed.push((self.rates[rung], goodput));
                    self.walk = Some((rung + 1).min(self.rates.len() - 1));
                } else {
                    self.walk = Some(rung.saturating_sub(1));
                }
            }
        }
    }

    /// The medians of the rate and of the goodput over the staircase's
    /// passing steps; before any of those, the highest passing bisection
    /// step (`None` while no step passed).
    pub fn max_rate(&self) -> Option<(f64, f64)> {
        if self.passed.is_empty() {
            return self.bisect_best;
        }
        let col =
            |f: fn(&(f64, f64)) -> f64| median_f64(&self.passed.iter().map(f).collect::<Vec<_>>());
        Some((col(|p| p.0), col(|p| p.1)))
    }
}

/// Which measured windows a figure is taken over, given each window's
/// stolen milliseconds and whether that exceeded the steal limit: the
/// windows within the limit when they are at least half of all, else the
/// half (rounded up) with the least stolen time, ties in order. The flag
/// is set in the second case, where the figure partly shows the host.
pub fn kept_windows(stolen_ms: &[u64], heavy: &[bool]) -> (Vec<usize>, bool) {
    let clean: Vec<usize> = (0..heavy.len()).filter(|&i| !heavy[i]).collect();
    if 2 * clean.len() >= heavy.len() {
        return (clean, false);
    }
    let mut idx: Vec<usize> = (0..stolen_ms.len()).collect();
    idx.sort_by_key(|&i| stolen_ms[i]);
    idx.truncate(stolen_ms.len().div_ceil(2));
    idx.sort_unstable();
    (idx, true)
}
