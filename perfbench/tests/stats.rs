//! The benchmark's own statistics and load generator: the percentile
//! rule, open-loop latency counted from the due time, backlog detection,
//! the choice of `max_rate_ops` on the rate ladder, and which stolen
//! windows are set aside.

use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use perfbench::load::{self, ClientConn, PhaseResult, Schedule};
use perfbench::stats::{
    backlog_growing, backlog_slack, kept_windows, ladder, percentile, samples_beyond,
    tail_percentile, LadderSearch, StepOutcome,
};
use perfbench::workload::{FrameBuf, Inputs};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn percentile_rule_needs_ten_samples_beyond() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(999), Some(95.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(9999), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(samples_beyond(999, 99.0), 9);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 50.0), 50);
    assert_eq!(percentile(&v, 99.0), 99);
    assert_eq!(percentile(&v, 100.0), 100);
    assert_eq!(percentile(&[7], 99.9), 7);
}

/// Echoes frames, but holds every request that arrives before `until`
/// back until then: a server that stalls for a while, then recovers.
fn stalled_echo(listener: TcpListener, until: Instant, conns: usize) {
    for _ in 0..conns {
        let (mut s, _) = listener.accept().expect("accept");
        let mut fb = FrameBuf::default();
        while let Ok(frame) = fb.read_frame(&mut s) {
            let now = Instant::now();
            if now < until {
                std::thread::sleep(until - now);
            }
            if s.write_all(frame).is_err() {
                break;
            }
        }
    }
}

fn echo_inputs() -> Inputs {
    let requests = (0..4u8).map(|i| vec![0, 0, 0, 2, i, i]).collect();
    Inputs { requests, replies: None }
}

#[test]
fn pipelined_latency_counts_from_due_time_through_a_stall() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let inputs = echo_inputs();
    let start = Instant::now() + Duration::from_millis(20);
    let stall_end = start + Duration::from_millis(100);
    let server = std::thread::spawn(move || stalled_echo(listener, stall_end, 1));
    let mut r = PhaseResult::default();
    let mut c = ClientConn::connect(addr, StdRng::seed_from_u64(1), &mut r).unwrap();
    let interval = Duration::from_millis(10);
    let end = start + Duration::from_millis(200);
    let sched = Schedule { start, offset: Duration::ZERO, interval, end };
    let res = load::pipelined(&mut c, &inputs, sched);
    drop(c);
    server.join().unwrap();
    assert_eq!(res.failed, 0);
    assert_eq!(res.attempted, 20);
    assert_eq!(res.completed, 20);
    // Sends went out on time; the stall held the replies. Operation k
    // was due at 10k ms and answered at >= 100 ms, so its latency from
    // the due time is at least 100 - 10k ms.
    assert!(res.late_ns.iter().all(|&l| l < 50_000_000), "sends ran on schedule");
    for (k, &lat) in res.lat_ns.iter().enumerate().take(10) {
        let floor = (100 - 10 * k as u64) * 1_000_000;
        assert!(lat >= floor, "op {k}: {lat} ns < {floor} ns");
    }
}

#[test]
fn churn_latency_counts_the_wait_for_a_free_client() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let inputs = echo_inputs();
    let start = Instant::now() + Duration::from_millis(20);
    let stall_end = start + Duration::from_millis(100);
    let interval = Duration::from_millis(5);
    let end = start + Duration::from_millis(150);
    let ops = 30;
    let server = std::thread::spawn(move || stalled_echo(listener, stall_end, ops));
    let sched = Schedule { start, offset: Duration::ZERO, interval, end };
    let (next, completed) = (AtomicU64::new(0), AtomicU64::new(0));
    let res = std::thread::scope(|s| {
        let a = s.spawn(|| load::churn(addr, &inputs, 7, sched, &next, &completed));
        let b = s.spawn(|| load::churn(addr, &inputs, 7, sched, &next, &completed));
        let mut r = a.join().unwrap();
        r.merge(b.join().unwrap());
        r
    });
    server.join().unwrap();
    assert_eq!(res.failed, 0);
    assert_eq!(res.completed, ops as u64);
    // One server thread serves connections in turn, so both clients sit
    // in the stall; the 10 arrivals due in its first 50 ms wait >= 50 ms
    // counted from their due times, though their sends were late.
    let waited = res.lat_ns.iter().filter(|&&l| l >= 50_000_000).count();
    assert!(waited >= 10, "only {waited} operations counted the stall");
    assert!(res.late_ns.iter().any(|&l| l >= 50_000_000), "arrivals queued behind the stall");
}

#[test]
fn backlog_growth_is_detected() {
    let slack = backlog_slack(100);
    assert_eq!(slack, 8.0, "small steps get the minimum slack");
    assert!(!backlog_growing(&[], slack));
    assert!(!backlog_growing(&[0; 100], slack));
    let noisy: Vec<u32> = (0..100).map(|i| [0, 3, 1, 6, 2][i % 5]).collect();
    assert!(!backlog_growing(&noisy, slack), "a flat, noisy backlog is steady");
    let ramp: Vec<u32> = (0..100).collect();
    assert!(backlog_growing(&ramp, slack));
    let small: Vec<u32> = (0..100).map(|i| i / 20).collect();
    assert!(!backlog_growing(&small, slack), "growth within the slack is a hiccup");
    // At 30k arrivals a step tolerates a 300-operation hiccup (10 ms of
    // arrivals) but not falling behind by 2 % of them.
    let slack = backlog_slack(30_000);
    assert_eq!(slack, 300.0);
    let hiccup: Vec<u32> = (0..1000).map(|i| if i > 900 { 250 } else { 2 }).collect();
    assert!(!backlog_growing(&hiccup, slack));
    let behind: Vec<u32> = (0..1000).map(|i| i * 600 / 1000).collect();
    assert!(backlog_growing(&behind, slack));
}

#[test]
fn step_passes_only_within_limit_without_failures_or_backlog() {
    let ok = StepOutcome { p99_ns: 900, failed: 0, backlog_growing: false };
    assert!(ok.passes(1000));
    assert!(!ok.passes(899));
    assert!(!StepOutcome { failed: 1, ..ok }.passes(1000));
    assert!(!StepOutcome { backlog_growing: true, ..ok }.passes(1000));
}

/// Measures `steps` steps of a search over `rates`, with `passes`
/// deciding each and every step delivering a goodput of twice its rate;
/// returns the answer and the rates measured.
fn search(
    rates: Vec<f64>,
    steps: usize,
    mut passes: impl FnMut(f64) -> bool,
) -> (Option<(f64, f64)>, Vec<f64>) {
    let mut w = LadderSearch::new(rates);
    let mut measured = Vec::new();
    for _ in 0..steps {
        let rate = w.next_rate();
        measured.push(rate);
        w.record(passes(rate), false, 2.0 * rate);
    }
    (w.max_rate(), measured)
}

#[test]
fn max_rate_is_the_highest_passing_step_on_the_ladder() {
    let rates = ladder(100.0, 1.1, 8);
    assert!((rates[3] - 133.1).abs() < 1e-9);
    // Capacity 130: 100, 110 and 121 pass; 133.1 and above fail. The
    // bisection takes 3 steps, then the staircase alternates between
    // 121 (passes) and 133.1 (fails).
    let (max, measured) = search(rates.clone(), 13, |r| r <= 130.0);
    assert_eq!(max, Some((rates[2], 2.0 * rates[2])));
    assert_eq!(&measured[3..7], &[rates[2], rates[3], rates[2], rates[3]]);
    // Every capacity between two rungs maps to the rung below it.
    for (i, cap) in rates.iter().enumerate() {
        let (max, _) = search(rates.clone(), 20, |r| r <= cap + 1e-9);
        assert_eq!(max.map(|m| m.0), Some(rates[i]), "capacity {cap}");
    }
    // Nothing passing gives no answer; a search that has not reached its
    // staircase answers with the highest bisection step that passed.
    assert_eq!(search(rates.clone(), 20, |_| false).0, None);
    assert_eq!(search(rates.clone(), 2, |_| true).0, Some((rates[6], 2.0 * rates[6])));
}

#[test]
fn a_stolen_failure_is_measured_again_and_a_stolen_pass_counts() {
    let rates = ladder(100.0, 1.1, 8);
    let mut w = LadderSearch::new(rates.clone());
    let first = w.next_rate();
    w.record(false, true, 0.0);
    assert_eq!(w.next_rate(), first, "a stolen failure does not move the search");
    w.record(true, true, 1.0);
    assert!(w.next_rate() > first, "a stolen pass moves it up");
    // Under steal that lasts, the staircase holds its rung and the answer
    // stays what the clean steps said.
    let mut w = LadderSearch::new(rates.clone());
    for _ in 0..13 {
        let r = w.next_rate();
        w.record(r <= 130.0, false, r);
    }
    let before = w.max_rate();
    for _ in 0..20 {
        w.record(false, true, 0.0);
    }
    assert_eq!(w.max_rate(), before);
    assert_eq!(before.map(|m| m.0), Some(rates[2]));
}

#[test]
fn a_noisy_step_moves_the_answer_by_one_rung_at_most() {
    let rates = ladder(100.0, 1.05, 40);
    let cap = rates[20] + 1e-9;
    let clean = search(rates.clone(), 30, |r| r <= cap).0.unwrap().0;
    assert_eq!(clean, rates[20]);
    // A step that should have passed fails once, at each point of the
    // search in turn, as a burst of stolen time makes it do.
    for bad in 0..30 {
        let mut step = 0;
        let (max, _) = search(rates.clone(), 30, |r| {
            step += 1;
            step - 1 != bad && r <= cap
        });
        let max = max.unwrap().0;
        assert!(max >= rates[19] && max <= rates[20], "hiccup at step {bad}: {max}");
    }
}

#[test]
fn the_bisection_is_bounded_by_the_ladder_length() {
    // 86 rungs (a quarter to sixteen times nominal in 5 % steps): the
    // staircase starts after at most 7 bisection steps.
    let rates = ladder(1.0, 1.05, 86);
    for cap in [0.5, 3.0, 20.0, 60.0] {
        let mut w = LadderSearch::new(rates.clone());
        let mut steps = 0;
        while !w.walking() {
            let r = w.next_rate();
            w.record(r <= cap, false, r);
            steps += 1;
        }
        assert!(steps <= 7, "{steps} steps for capacity {cap}");
    }
}

#[test]
fn stolen_windows_are_set_aside_and_flagged_when_most_are() {
    let no = false;
    let yes = true;
    assert_eq!(kept_windows(&[], &[]), (vec![], false));
    // Clean windows are kept when they are at least half.
    assert_eq!(kept_windows(&[0, 90, 3, 70], &[no, yes, no, yes]), (vec![0, 2], false));
    assert_eq!(kept_windows(&[0, 1, 2], &[no, no, no]), (vec![0, 1, 2], false));
    // Otherwise the least stolen half, and the run is flagged.
    assert_eq!(
        kept_windows(&[90, 0, 40, 300, 60], &[yes, no, yes, yes, yes]),
        (vec![1, 2, 4], true)
    );
    assert_eq!(kept_windows(&[50, 50, 50, 50], &[yes; 4]), (vec![0, 1], true));
}
