//! The measurement loop every workload shares: repeated set-up, whole
//! rounds of timed operations until the run's time is up, spans around
//! each layer call in traced rounds, and the checks' pass/fail tally.

use crate::{alloc, yardstick};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tydi_obs::trace::{Event, Phase};

/// Set-up samples before the first round. `setup_s` is the median of
/// these and of the samples taken during the run, each scaled to the
/// reference speed (see `yardstick`).
const FIRST_SETUPS: usize = 3;

/// `peak_heap_mb` covers the set-ups and this many rounds: a fixed
/// amount of work. Process-wide memos in the compiler keep growing
/// over thousands of compiles, so a peak over the whole run would
/// depend on how many rounds the host's speed allowed.
const PEAK_ROUNDS: u64 = 20;

/// The command-line arguments every workload receives.
pub struct Args {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: u64,
    /// Record spans (in every other round) and report per-layer metrics.
    pub trace: bool,
}

#[derive(Default, Clone, Copy)]
struct LayerTotal {
    self_ns: u64,
    self_allocs: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    allocs_at_start: u64,
    child_ns: u64,
    child_allocs: u64,
}

/// Spans, counters and samples of one benchmark run.
///
/// In a traced run, odd rounds record spans and counters and even
/// rounds run untraced; the difference between the two round-time
/// medians is the tracing overhead. Each round is the root span, so
/// its self time is the part of the round no layer accounts for, and
/// the layers' self times plus that remainder add up to the round's
/// wall time by construction.
pub struct Recorder {
    trace_mode: bool,
    /// Spans record: a traced round is running.
    tracing: bool,
    /// Counters record: the latest round was traced (its outputs are
    /// counted after it ends).
    counting: bool,
    rounds: u64,
    epoch: Instant,
    open: Vec<Open>,
    last_closed: Option<&'static str>,
    events: Vec<Event>,
    layers: BTreeMap<&'static str, LayerTotal>,
    counts: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    traced_walls: Vec<f64>,
    untraced_walls: Vec<f64>,
    /// The latest round's wall time, if it ran untraced and has not
    /// been scaled yet.
    unscaled_round: Option<f64>,
    /// Untraced round times scaled to the reference speed, in ms.
    scaled_rounds: Vec<f64>,
    /// Yardstick wall times, in ms.
    yards: Vec<f64>,
    /// Time spent in `outside` during the current round.
    outside_ns: u64,
    setups: Vec<f64>,
    /// Set-up samples scaled to the reference speed, in s.
    scaled_setups: Vec<f64>,
    /// Peak live heap after `PEAK_ROUNDS` rounds.
    fixed_peak: Option<usize>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The first failure of the known fault, for the log.
    known: Option<String>,
}

impl Recorder {
    fn new(trace_mode: bool) -> Recorder {
        Recorder {
            trace_mode,
            tracing: false,
            counting: false,
            rounds: 0,
            epoch: Instant::now(),
            open: Vec::new(),
            last_closed: None,
            events: Vec::new(),
            layers: BTreeMap::new(),
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
            traced_walls: Vec::new(),
            untraced_walls: Vec::new(),
            unscaled_round: None,
            scaled_rounds: Vec::new(),
            yards: Vec::new(),
            outside_ns: 0,
            setups: Vec::new(),
            scaled_setups: Vec::new(),
            fixed_peak: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            known: None,
        }
    }

    /// True when the latest round was traced: count its outputs.
    pub fn counting(&self) -> bool {
        self.counting
    }

    fn event(&mut self, phase: Phase, name: &'static str, at: Instant) {
        let ts_ns = at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.events.push(Event {
            phase,
            cat: "perfbench",
            name: name.to_string(),
            ts_ns,
            tid: 0,
        });
    }

    fn begin(&mut self, name: &'static str) {
        if !self.tracing {
            return;
        }
        let start = Instant::now();
        self.event(Phase::Begin, name, start);
        self.open.push(Open {
            name,
            start,
            allocs_at_start: alloc::allocations(),
            child_ns: 0,
            child_allocs: 0,
        });
    }

    fn end(&mut self) {
        if !self.tracing {
            return;
        }
        let end = Instant::now();
        let allocs = alloc::allocations();
        let span = self.open.pop().expect("end() matches a begin()");
        let ns = end.duration_since(span.start).as_nanos() as u64;
        let span_allocs = allocs - span.allocs_at_start;
        let total = self.layers.entry(span.name).or_default();
        total.self_ns += ns.saturating_sub(span.child_ns);
        total.self_allocs += span_allocs.saturating_sub(span.child_allocs);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += ns;
            parent.child_allocs += span_allocs;
        }
        self.last_closed = Some(span.name);
        self.event(Phase::End, span.name, end);
    }

    /// Runs one call into a layer under a span named after the layer.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(layer);
        let out = f();
        self.end();
        out
    }

    /// Moves time the program itself attributes to stages inside the
    /// last closed span (its own stage records) from that span's self
    /// time to the named layers.
    pub fn split_last(&mut self, parts: &[(&'static str, Duration)]) {
        let Some(parent) = self.last_closed.filter(|_| self.tracing) else {
            return;
        };
        for &(layer, duration) in parts {
            let ns = duration.as_nanos() as u64;
            let from = self.layers.entry(parent).or_default();
            from.self_ns = from.self_ns.saturating_sub(ns);
            self.layers.entry(layer).or_default().self_ns += ns;
        }
    }

    /// Runs work inside a round that is no operation's (reducing an
    /// output to what its check needs, so that the next operation
    /// does not find it still on the heap). Its time is left out of
    /// the round's wall time, and its time and allocations out of
    /// every span's self figures.
    pub fn outside<T>(&mut self, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let start = Instant::now();
        let allocs_at_start = alloc::allocations();
        if self.tracing {
            self.event(Phase::Begin, "outside", start);
        }
        let out = f(self);
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        self.outside_ns += ns;
        if self.tracing {
            self.event(Phase::End, "outside", end);
            let allocs = alloc::allocations() - allocs_at_start;
            if let Some(parent) = self.open.last_mut() {
                parent.child_ns += ns;
                parent.child_allocs += allocs;
            }
        }
        out
    }

    /// Runs one timed round of operations.
    pub fn round<T>(&mut self, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.tracing = self.trace_mode && self.rounds % 2 == 1;
        self.counting = self.tracing;
        self.outside_ns = 0;
        let start = Instant::now();
        self.begin("round");
        let out = f(self);
        self.end();
        let wall = start
            .elapsed()
            .saturating_sub(Duration::from_nanos(self.outside_ns));
        let wall_ms = wall.as_secs_f64() * 1e3;
        if self.tracing {
            self.traced_walls.push(wall_ms);
        } else {
            self.untraced_walls.push(wall_ms);
            self.unscaled_round = Some(wall_ms);
        }
        self.tracing = false;
        self.rounds += 1;
        out
    }

    /// Adds to a per-round counter (traced rounds only).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.counting {
            *self.counts.entry(name).or_default() += value;
        }
    }

    /// Records one latency sample (untraced rounds and set-up only).
    pub fn sample(&mut self, name: &'static str, ms: f64) {
        if !self.counting {
            self.samples.entry(name).or_default().push(ms);
        }
    }

    /// Tallies one operation's check. `known_fault` marks the one
    /// operation expected to fail (a documented program fault); any
    /// other failure also makes the run incorrect.
    pub fn check(&mut self, ok: bool, known_fault: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if !known_fault {
                self.problems.push(what());
            } else if self.known.is_none() {
                self.known = Some(what());
            }
        }
    }

    /// Records a failed whole-run check that is not one operation.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    fn layer(&self, name: &str) -> LayerTotal {
        self.layers.get(name).copied().unwrap_or_default()
    }

    fn traced_rounds(&self) -> f64 {
        self.traced_walls.len().max(1) as f64
    }

    /// A layer's mean self time per traced round, in ms.
    pub fn layer_ms(&self, name: &str) -> f64 {
        self.layer(name).self_ns as f64 / 1e6 / self.traced_rounds()
    }

    /// A layer's mean self time per traced round, in ns.
    pub fn layer_ns(&self, name: &str) -> f64 {
        self.layer(name).self_ns as f64 / self.traced_rounds()
    }

    /// Allocations made in a layer's self time, per traced round.
    pub fn layer_allocs(&self, name: &str) -> f64 {
        self.layer(name).self_allocs as f64 / self.traced_rounds()
    }

    /// A counter's mean per traced round.
    pub fn per_round(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0) / self.traced_rounds()
    }

    /// Median of a latency sample, 0 when none was taken.
    pub fn sample_median(&self, name: &str) -> f64 {
        self.samples.get(name).map(|s| median(s)).unwrap_or(0.0)
    }

    /// Peak live heap over the set-ups and the first `PEAK_ROUNDS`
    /// rounds, in bytes.
    pub fn fixed_peak_bytes(&self) -> usize {
        self.fixed_peak.unwrap_or_else(alloc::peak_bytes)
    }

    /// Runs the yardstick after a timed item (a set-up sample of
    /// `setup_s` seconds per set-up, or else the latest round) and
    /// records the item scaled to the reference speed: its wall time
    /// times `yardstick::REF_MS` over the mean of the yardstick before
    /// it (`before_ms`) and this one. Returns this yardstick's time.
    fn settle(&mut self, setup_s: Option<f64>, before_ms: f64) -> f64 {
        let after_ms = yardstick::measure();
        self.yards.push(after_ms);
        let scale = yardstick::REF_MS / ((before_ms + after_ms) / 2.0);
        match setup_s {
            Some(seconds) => self.scaled_setups.push(seconds * scale),
            None => {
                if let Some(wall_ms) = self.unscaled_round.take() {
                    self.scaled_rounds.push(wall_ms * scale);
                }
            }
        }
        after_ms
    }

    /// Median set-up time at the reference speed, in s.
    pub fn setup_s(&self) -> f64 {
        median(&self.scaled_setups)
    }

    /// Median set-up wall time, in s.
    pub fn setup_wall_s(&self) -> f64 {
        median(&self.setups)
    }

    /// Median untraced round time at the reference speed, in ms.
    pub fn round_ref_ms(&self) -> f64 {
        median(&self.scaled_rounds)
    }

    /// Median yardstick wall time, in ms.
    pub fn yardstick_ms(&self) -> f64 {
        median(&self.yards)
    }

    /// A percentile of the untraced rounds' wall times, in ms.
    pub fn round_wall_ms(&self, percent: usize) -> f64 {
        percentile(&self.untraced_walls, percent)
    }

    /// The number of untraced rounds.
    pub fn untraced_rounds(&self) -> usize {
        self.untraced_walls.len()
    }

    /// Mean wall time of the traced rounds, in ms: what the layers'
    /// self times and `unattributed_ms` add up to.
    pub fn traced_round_ms(&self) -> f64 {
        self.traced_walls.iter().sum::<f64>() / self.traced_rounds()
    }

    /// Traced minus untraced median round time, in ms.
    pub fn overhead_ms(&self) -> f64 {
        median(&self.traced_walls) - median(&self.untraced_walls)
    }

    /// The recorded spans as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        tydi_obs::trace::chrome_trace(&self.events)
    }

    /// Operations attempted and failed, and the failures other than
    /// the known fault.
    pub fn tally(&self) -> (u64, u64, &[String]) {
        (self.attempted, self.failed, &self.problems)
    }

    /// The first failure of the known fault, if one showed.
    pub fn known_fault(&self) -> Option<&str> {
        self.known.as_deref()
    }
}

/// Nearest-rank percentile of a sample: the smallest value with at
/// least `percent`% of the sample at or below it.
pub fn percentile(values: &[f64], percent: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() * percent).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// How a workload's set-up is sampled: `per_sample` set-ups in a row
/// make one `setup_s` sample (their mean), enough for the sample to
/// last about 0.1 s or more, so that no sample rests on one short
/// operation; after every `renew_every` rounds a fresh sample replaces
/// the state, so the samples spread over the whole run.
pub struct Setups {
    pub per_sample: usize,
    pub renew_every: u64,
}

/// Runs a workload: `FIRST_SETUPS` set-up samples, then whole `round`s
/// until `args.seconds` have passed, with a fresh sample after every
/// `setups.renew_every` rounds, and the yardstick before the first
/// sample and after every sample and round. In a traced run the rounds
/// alternate untraced and traced, so at least two run. Returns the
/// recorder and the last state, for the workload's whole-run checks.
pub fn drive<S>(
    args: &Args,
    setups: Setups,
    mut setup: impl FnMut(&mut Recorder) -> Result<S, String>,
    mut round: impl FnMut(&mut S, &mut Recorder) -> Result<(), String>,
) -> Result<(Recorder, S), String> {
    let mut rec = Recorder::new(args.trace);
    let mut fresh = |state: &mut Option<S>, rec: &mut Recorder| {
        let mut spent = Duration::ZERO;
        for _ in 0..setups.per_sample {
            // Drop the previous state first so the peak heap holds one.
            drop(state.take());
            let started = Instant::now();
            *state = Some(setup(rec)?);
            spent += started.elapsed();
        }
        let seconds = spent.as_secs_f64() / setups.per_sample as f64;
        rec.setups.push(seconds);
        Ok::<f64, String>(seconds)
    };
    let mut state = None;
    let mut yard_ms = yardstick::measure();
    rec.yards.push(yard_ms);
    for _ in 0..FIRST_SETUPS {
        let seconds = fresh(&mut state, &mut rec)?;
        yard_ms = rec.settle(Some(seconds), yard_ms);
    }
    let window = Duration::from_secs(args.seconds);
    let min_rounds = if args.trace { 2 } else { 1 };
    let started = Instant::now();
    loop {
        round(state.as_mut().expect("set up before every round"), &mut rec)?;
        if rec.rounds == PEAK_ROUNDS {
            rec.fixed_peak = Some(alloc::peak_bytes());
        }
        yard_ms = rec.settle(None, yard_ms);
        if rec.rounds >= min_rounds && started.elapsed() >= window {
            break;
        }
        if rec.rounds.is_multiple_of(setups.renew_every) {
            let seconds = fresh(&mut state, &mut rec)?;
            yard_ms = rec.settle(Some(seconds), yard_ms);
        }
    }
    Ok((rec, state.expect("set up before every round")))
}

/// A splitmix64 stream: the benchmark's own seeded input generator.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per purpose by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut items: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
        items
    }
}
