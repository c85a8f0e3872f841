//! Host wall-clock benchmark of PASTA, one workload per process.
//!
//! ```sh
//! pasta-hostbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--setup-only] [--spans FILE]
//! ```
//!
//! A closed loop with one client (this thread): each iteration starts
//! when the previous one has finished and its oracle check has passed or
//! failed. Setup is the time from entry to the end of the first (cold)
//! iteration. After set-up and after every timed iteration the
//! [`calibration`] kernel runs (on the threads the workload keeps busy),
//! so each time comes with the host's speed at that moment. With `--trace 1` untraced and
//! traced iterations alternate, and the difference of their median times
//! is the tracing overhead. Prints one JSON object. It lists the wall
//! time and calibration time of every untraced timed iteration (`wall_ms`,
//! `cal_ms`), so that a run made of several processes can pool them.

mod calibration;
mod layers;
mod scenarios;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use layers::{Span, Tracer};
use scenarios::{Checked, Scenario};

/// Calibration runs after set-up; their median goes with `setup_s`.
const SETUP_CAL_RUNS: usize = 5;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => args.trace = value()? == "1",
            "--setup-only" => args.setup_only = true,
            "--spans" => args.spans = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Median of the samples (nearest rank; 0 when there are none).
pub(crate) fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// Restarts this process's peak-resident-set count from its current
/// resident set, so the peak read later covers the timed iterations only.
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Samples of one measured phase.
#[derive(Default)]
struct Phase {
    wall_ms: Vec<f64>,
    /// Calibration time right after each iteration, ms.
    cal_ms: Vec<f64>,
    events: u64,
    attempted: u64,
    failed: u64,
    /// Per traced iteration: layer metric -> value.
    layers: Vec<BTreeMap<String, f64>>,
}

struct Runner<S: Scenario> {
    scenario: S,
    /// Counts of the first iteration; every later one must repeat them.
    counts: BTreeMap<String, u64>,
    errors: Vec<String>,
}

impl<S: Scenario> Runner<S> {
    fn note(&mut self, e: String) {
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    /// One iteration: timed run, then the untimed oracle. Returns the
    /// wall time and the checked outcome (`None` when it failed).
    fn iterate(&mut self, tr: &Tracer) -> (Duration, Option<Checked>) {
        let t = Instant::now();
        let out = tr.span("iteration", || self.scenario.run(tr));
        let wall = t.elapsed();
        (wall, self.judge(out))
    }

    /// Runs the oracle on one iteration's output; the first iteration
    /// that passes fixes the counts every later one must repeat.
    fn judge(&mut self, out: Result<S::Out, String>) -> Option<Checked> {
        match out.and_then(|o| self.scenario.check(o)) {
            Ok(c) if self.counts.is_empty() => {
                self.counts = c.counts.clone();
                Some(c)
            }
            Ok(c) if c.counts == self.counts => Some(c),
            Ok(c) => {
                self.note(format!(
                    "counts changed: {:?} != {:?}",
                    c.counts, self.counts
                ));
                None
            }
            Err(e) => {
                self.note(e);
                None
            }
        }
    }

    /// Measures one iteration into `phase`.
    fn sample(&mut self, tr: &Tracer, phase: &mut Phase) {
        let mark = tr.mark();
        let (wall, checked) = self.iterate(tr);
        phase.attempted += 1;
        phase.wall_ms.push(wall.as_secs_f64() * 1e3);
        phase.cal_ms.push(calibration::run_ms(S::CAL_THREADS));
        match checked {
            Some(mut c) => {
                phase.events += c.events;
                if tr.on() {
                    for (name, ns) in tr.totals_since(mark) {
                        if name != "iteration" {
                            c.layers.insert(format!("{name}_ms"), ns as f64 / 1e6);
                        }
                    }
                    phase.layers.push(c.layers);
                }
            }
            None => phase.failed += 1,
        }
    }

    /// Iterates until `budget` is spent. With a tracer, untraced and
    /// traced iterations alternate, so both see the same host conditions
    /// and their difference is the tracing overhead.
    fn measure(&mut self, budget: Duration, tracer: Option<&Tracer>) -> (Phase, Option<Phase>) {
        let quiet = Tracer::new(false);
        let mut plain = Phase::default();
        let mut traced = tracer.map(|_| Phase::default());
        let start = Instant::now();
        while start.elapsed() < budget {
            self.sample(&quiet, &mut plain);
            if let (Some(tr), Some(phase)) = (tracer, traced.as_mut()) {
                self.sample(tr, phase);
            }
        }
        (plain, traced)
    }
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"thread\":{}}}",
            json_str(s.name),
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".into(), |p| p.to_string()),
            json_str(&s.thread),
        )?;
    }
    out.flush()
}

fn drive<S: Scenario>(scenario: S, args: &Args, entry: Instant) -> Result<String, String> {
    let mut runner = Runner {
        scenario,
        counts: BTreeMap::new(),
        errors: Vec::new(),
    };
    let quiet = Tracer::new(false);
    // Setup: inputs, session build and the first, cold iteration. The
    // oracle is prepared after it, untimed.
    let first = runner.scenario.run(&quiet);
    let setup_s = entry.elapsed().as_secs_f64();
    let setup_cal_ms = calibration::median_ms(S::CAL_THREADS, SETUP_CAL_RUNS);
    let mut out = format!(
        "{{\"setup_s\":{},\"setup_cal_ms\":{}",
        json_f(setup_s),
        json_f(setup_cal_ms)
    );
    if args.setup_only {
        first?;
        out.push('}');
        return Ok(out);
    }
    runner.scenario.prepare_oracle()?;
    let first_failed = u64::from(runner.judge(first).is_none());
    reset_peak_rss().map_err(|e| format!("resetting the peak resident set: {e}"))?;

    let budget = Duration::from_secs_f64(args.seconds);
    let tracer = Tracer::new(true);
    let (plain, traced) = runner.measure(budget, args.trace.then_some(&tracer));

    let attempted = 1 + plain.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    let failed = first_failed + plain.failed + traced.as_ref().map_or(0, |t| t.failed);
    let list = |v: &[f64]| v.iter().map(|&x| json_f(x)).collect::<Vec<_>>().join(",");
    let passed = plain.attempted - plain.failed;
    let iter_events = if passed > 0 {
        plain.events as f64 / passed as f64
    } else {
        0.0
    };
    let _ = write!(
        out,
        ",\"attempted\":{attempted},\"failed\":{failed},\"iter_events\":{},\
         \"wall_ms\":[{}],\"cal_ms\":[{}],\"peak_rss_mb\":{}",
        json_f(iter_events),
        list(&plain.wall_ms),
        list(&plain.cal_ms),
        json_f(peak_rss_mb()),
    );
    let counts: Vec<String> = runner
        .counts
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let _ = write!(out, ",\"counts\":{{{}}}", counts.join(","));

    if let Some(traced) = traced {
        let mut keys: Vec<&String> = traced.layers.iter().flat_map(|m| m.keys()).collect();
        keys.sort();
        keys.dedup();
        let mut layers: Vec<String> = keys
            .iter()
            .map(|k| {
                let v = median(
                    traced
                        .layers
                        .iter()
                        .map(|m| m.get(*k).copied().unwrap_or(0.0))
                        .collect(),
                );
                format!("{}:{}", json_str(k), json_f(v))
            })
            .collect();
        let overhead = median(traced.wall_ms.clone()) - median(plain.wall_ms.clone());
        layers.push(format!("\"tracing.overhead_ms\":{}", json_f(overhead)));
        layers.push(format!(
            "\"host.wall_ms_p50\":{},\"host.calibration_ms\":{}",
            json_f(median(plain.wall_ms.clone())),
            json_f(median(plain.cal_ms.clone()))
        ));
        let _ = write!(
            out,
            ",\"traced_samples\":{},\"layers\":{{{}}}",
            traced.wall_ms.len(),
            layers.join(",")
        );
        if let Some(path) = &args.spans {
            write_spans(path, &tracer.spans()).map_err(|e| format!("writing spans: {e}"))?;
        }
    }
    let errors: Vec<String> = runner.errors.iter().map(|e| json_str(e)).collect();
    let _ = write!(out, ",\"errors\":[{}]}}", errors.join(","));
    Ok(out)
}

fn main() {
    let entry = Instant::now();
    let result = parse_args().and_then(|args| {
        let seed = args.seed;
        match args.workload.as_str() {
            "moe-ep256" => drive(scenarios::MoeEp256::new(), &args, entry),
            "megatron2-trace" => drive(scenarios::Megatron2Trace::new(), &args, entry),
            "serve-oversub" => {
                let seed = seed.unwrap_or(scenarios::DEFAULT_SERVE_SEED);
                eprintln!("serve-oversub: request-trace seed {seed}");
                drive(scenarios::ServeOversub::new(seed), &args, entry)
            }
            "paper-quick" => drive(scenarios::PaperQuick, &args, entry),
            other => Err(format!("unknown workload {other:?}")),
        }
    });
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("pasta-hostbench: {e}");
            std::process::exit(1);
        }
    }
}
