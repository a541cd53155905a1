//! HIX benchmark: one command per workload run.
//!
//! ```text
//! cargo run --release --manifest-path hixbench/Cargo.toml -- \
//!     --workload <serve|churn|recover|paper> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that prints the per-layer
//! metrics. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! non-zero when an output check fails. See `hixbench/NOTES.md`.

mod churn;
mod paper;
mod probes;
mod report;
mod serve;
mod stats;
mod tape;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use hix_platform::Machine;

use crate::trace::Tracer;

/// The standard machine with every workload kernel installed.
pub fn rig() -> Machine {
    hix_driver::rig::standard_rig(hix_driver::rig::RigOptions {
        kernels: hix_workloads::all_kernels(),
        ..Default::default()
    })
}

/// Charged virtual-time categories of the program's ledger, in the
/// order the per-layer report lists them.
pub const CATEGORIES: [&str; 13] = [
    "init",
    "mmio",
    "ipc",
    "attestation",
    "security",
    "enclave-crypto",
    "dma",
    "gpu-crypto",
    "gpu-mem",
    "kernel",
    "ctx-switch",
    "fault",
    "other",
];

/// A virtual-time window over one machine: the clock and the charged
/// per-category ledger at its start.
pub struct Window {
    start_ns: u64,
    totals: BTreeMap<&'static str, u64>,
}

fn category_totals(m: &Machine) -> BTreeMap<&'static str, u64> {
    m.trace()
        .obs()
        .totals()
        .into_iter()
        .map(|(c, ns, _)| (c, ns))
        .collect()
}

impl Window {
    pub fn open(m: &Machine) -> Window {
        Window {
            start_ns: m.clock().now().as_nanos(),
            totals: category_totals(m),
        }
    }

    /// Closes the window: `(makespan_ns, per-category charged ns)`.
    pub fn close(&self, m: &Machine) -> (u64, BTreeMap<&'static str, u64>) {
        let end = category_totals(m);
        let delta = end
            .iter()
            .map(|(c, ns)| (*c, ns - self.totals.get(c).copied().unwrap_or(0)))
            .collect();
        (m.clock().now().as_nanos() - self.start_ns, delta)
    }
}

/// What one machine's program reported for one fixed op tape: the
/// virtual-time ledger of the tape window and the counters of the whole
/// instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    pub makespan_ns: u64,
    pub categories: BTreeMap<&'static str, u64>,
    pub counters: BTreeMap<String, u64>,
    /// `watchdog.recovery_latency_ns` histogram: (count, sum).
    pub recovery_vt: (u64, u64),
    /// Sessions connected on the machine.
    pub sessions: u64,
    /// Full deterministic metrics snapshot: the repeat-run fingerprint.
    pub snapshot: String,
}

impl Ledger {
    pub fn capture(m: &Machine, window: &Window, sessions: u64) -> Ledger {
        let (makespan_ns, categories) = window.close(m);
        let snapshot = m.trace().obs().snapshot();
        let counters = snapshot
            .lines()
            .filter_map(|l| l.strip_prefix("counter "))
            .filter_map(|l| {
                let (name, v) = l.rsplit_once(' ')?;
                Some((name.to_string(), v.parse().ok()?))
            })
            .collect();
        let recovery_vt = m
            .trace()
            .metrics()
            .hist("watchdog.recovery_latency_ns")
            .map_or((0, 0), |h| (h.count(), h.sum()));
        Ledger {
            makespan_ns,
            categories,
            counters,
            recovery_vt,
            sessions,
            snapshot,
        }
    }

    /// Adds the ledger of another machine's tape: `recover` reports the
    /// sum over its fault plans.
    pub fn add(&mut self, other: Ledger) {
        self.makespan_ns += other.makespan_ns;
        for (c, ns) in other.categories {
            *self.categories.entry(c).or_default() += ns;
        }
        for (name, v) in other.counters {
            *self.counters.entry(name).or_default() += v;
        }
        self.recovery_vt.0 += other.recovery_vt.0;
        self.recovery_vt.1 += other.recovery_vt.1;
        self.sessions += other.sessions;
        self.snapshot += &other.snapshot;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Work done in (part of) the measured region.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Host seconds.
    pub secs: f64,
    /// Virtual seconds simulated.
    pub vt_s: f64,
    /// Completed ops (see NOTES.md for what an op is on each workload).
    pub ops: u64,
    /// Sealed HtoD + DtoH payload bytes.
    pub bytes: u64,
    /// Sessions closed after a full lifecycle.
    pub sessions: u64,
}

/// Everything one benchmark run measured.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Violated output checks; any entry makes the run incorrect.
    pub violations: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Running totals of the measured region.
    pub totals: Totals,
    /// The totals of each instance (or pass); rates are their medians.
    pub slices: Vec<Totals>,
    /// Per-unit host latency (us) and whether the unit was traced.
    pub unit_us: Vec<(f64, bool)>,
    pub vt_unit_us: Vec<f64>,
    pub connect_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub fail_kinds: BTreeMap<String, u64>,
    pub reconnects: u64,
    pub journal_len_max: u64,
    pub peak_rss_mb: f64,
    /// The ledger of the first instance; later instances must match it.
    pub ledger: Option<Ledger>,
    pub fit_err_pts: f64,
    pub holdout_err_pct: f64,
}

impl Run {
    fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Run {
        Run {
            workload: workload.to_string(),
            seed,
            seconds,
            tracer: Tracer::new(trace),
            violations: Vec::new(),
            setup_s: Vec::new(),
            totals: Totals::default(),
            slices: Vec::new(),
            unit_us: Vec::new(),
            vt_unit_us: Vec::new(),
            connect_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            fail_kinds: BTreeMap::new(),
            reconnects: 0,
            journal_len_max: 0,
            peak_rss_mb: 0.0,
            ledger: None,
            fit_err_pts: 0.0,
            holdout_err_pct: 0.0,
        }
    }

    /// Closes one instance's slice of the measured region, opened when the
    /// totals were `start`.
    pub fn end_slice(&mut self, start: Totals) {
        let t = self.totals;
        self.slices.push(Totals {
            secs: t.secs - start.secs,
            vt_s: t.vt_s - start.vt_s,
            ops: t.ops - start.ops,
            bytes: t.bytes - start.bytes,
            sessions: t.sessions - start.sessions,
        });
    }

    /// Records a violated output check.
    pub fn violation(&mut self, msg: String) {
        if self.violations.len() < 20 {
            eprintln!("hixbench: CHECK FAILED: {msg}");
        }
        self.violations.push(msg);
    }

    /// Records one instance's ledger: the first is kept, every later one
    /// must be identical (the simulator is deterministic).
    pub fn instance_ledger(&mut self, ledger: Ledger) {
        match &self.ledger {
            None => self.ledger = Some(ledger),
            Some(first) if *first == ledger => {}
            Some(_) => self.violation(
                "a repeated instance on the same seed changed virtual time or counters".into(),
            ),
        }
    }

    /// Counts a failed unit under its error kind.
    pub fn record_failure(&mut self, kind: String) {
        self.failed += 1;
        self.note_error(kind);
    }

    /// Counts an error outside any unit (a close or reconnect) by kind.
    pub fn note_error(&mut self, kind: String) {
        *self.fail_kinds.entry(kind).or_default() += 1;
    }

    /// Runs `f` as a connect, recording its host latency.
    pub fn timed_connect<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = self.tracer.span("connect", f);
        self.connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out
    }
}

/// How many fixed-size instances make up a run of `seconds`: the run
/// length maps to an amount of work measured on the reference machine,
/// so sample counts (and with them the tail percentile) and memory do
/// not depend on the host's speed.
pub fn instances(seconds: f64, nominal_instance_s: f64, min: usize) -> usize {
    ((seconds / nominal_instance_s).round() as usize).max(min)
}

/// Classifies a failed operation by error kind.
pub fn error_kind(e: &hix_core::HixCoreError) -> String {
    let msg = e.to_string();
    if msg.contains("TDR recovery") {
        "tdr_exhausted".into()
    } else if msg.contains("journal replay allocated") {
        "replay_addr".into()
    } else if matches!(e, hix_core::HixCoreError::IntegrityFailure) {
        "integrity".into()
    } else {
        "other".into()
    }
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hixbench: {e}");
            std::process::exit(2);
        }
    };
    let mut run = Run::new(&args.workload, args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "serve" => serve::run(&mut run, false),
        "recover" => serve::run(&mut run, true),
        "churn" => churn::run(&mut run),
        "paper" => paper::run(&mut run),
        other => {
            eprintln!("hixbench: unknown workload {other} (serve, churn, recover, paper)");
            std::process::exit(2);
        }
    }
    let metrics = if args.trace {
        let probes = probes::run(&mut run);
        report::per_layer(&run, &probes)
    } else {
        let (fit, holdout) = paper::fidelity(&mut run);
        // paper computes the stamp twice: the model is deterministic, so
        // the repeat must give the same numbers.
        if run.workload == "paper" && paper::fidelity(&mut run) != (fit, holdout) {
            run.violation(
                "a repeated fidelity stamp changed fit_err_pts or holdout_err_pct".into(),
            );
        }
        run.fit_err_pts = fit;
        run.holdout_err_pct = holdout;
        report::end_to_end(&run)
    };
    report::print(&run, &metrics);
    if !run.violations.is_empty() {
        std::process::exit(1);
    }
}
