//! The Tydi-lang toolchain benchmark: four workloads driven through
//! the same public functions `tydic` calls, one JSON result line.
//!
//! ```text
//! perfbench --workload <tpch_compile|edit_loop|tpch_sim|stream_sim>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics, taken from spans the
//! benchmark records around each layer call, and the spans are written
//! as Chrome trace-event JSON to `out/trace-<workload>.json` in this
//! package's directory. See README.md for what each metric means.

mod alloc;
mod edit_loop;
mod harness;
mod stream_sim;
mod tpch_compile;
mod tpch_sim;
mod yardstick;

use harness::{Args, Recorder};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["tpch_compile", "edit_loop", "tpch_sim", "stream_sim"];

/// `TYDI_THREADS` for every timed layer call. One worker keeps the
/// allocation counts exact and the timings off the second core, whose
/// noise a parallel call would wait for; `tpch_compile` checks that
/// two workers give the same bytes.
const THREADS: &str = "1";

/// Where the benchmark writes its traces and its cache directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_args(argv: &[String]) -> Result<(String, Args), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload `{value}`; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let missing = |what| format!("--{what} is required");
    Ok((
        workload.ok_or_else(|| missing("workload"))?,
        Args {
            seed: seed.ok_or_else(|| missing("seed"))?,
            seconds: seconds.ok_or_else(|| missing("seconds"))?,
            trace: trace.ok_or_else(|| missing("trace"))?,
        },
    ))
}

/// The end-to-end metrics, reported with `--trace 0`. Times are at the
/// reference speed (see `yardstick`).
fn end_to_end(rec: &Recorder) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", rec.setup_s(), "s"),
        ("peak_heap_mb", mb(rec.fixed_peak_bytes()), "MB"),
        ("round_ms", rec.round_ref_ms(), "ms"),
    ]
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics, reported with `--trace 1`. Times are self
/// times per traced round; a layer a workload does not use reads 0.
fn per_layer(rec: &Recorder) -> Vec<(&'static str, f64, &'static str)> {
    let core_allocs: f64 = [
        "core.parse",
        "core.elaborate",
        "core.sugar",
        "core.drc",
        "cache.compile",
    ]
    .iter()
    .map(|layer| rec.layer_allocs(layer))
    .sum();
    let distinct = rec.per_round("spec.distinct_types");
    let cycles = rec.per_round("sim.cycles");
    let run_ns = rec.layer_ns("sim.run");
    vec![
        ("core.parse_ms", rec.layer_ms("core.parse"), "ms"),
        ("core.elaborate_ms", rec.layer_ms("core.elaborate"), "ms"),
        ("core.sugar_ms", rec.layer_ms("core.sugar"), "ms"),
        ("core.drc_ms", rec.layer_ms("core.drc"), "ms"),
        ("core.allocs", core_allocs, "count"),
        ("spec.distinct_types", distinct, "count"),
        (
            "spec.intern_hit_rate",
            100.0
                * ratio(
                    rec.per_round("spec.intern_hits"),
                    distinct + rec.per_round("spec.intern_hits"),
                ),
            "%",
        ),
        ("ir.impls", rec.per_round("ir.impls"), "count"),
        ("ir.connections", rec.per_round("ir.connections"), "count"),
        (
            "ir.sugar_inserted",
            rec.per_round("ir.sugar_inserted"),
            "count",
        ),
        ("vhdl.lower_ms", rec.layer_ms("vhdl.lower"), "ms"),
        ("rtl.emit_vhdl_ms", rec.layer_ms("rtl.emit_vhdl"), "ms"),
        ("rtl.emit_sv_ms", rec.layer_ms("rtl.emit_sv"), "ms"),
        ("rtl.modules", rec.per_round("rtl.modules"), "count"),
        ("rtl.vhdl_bytes", rec.per_round("rtl.vhdl_bytes"), "bytes"),
        ("rtl.sv_bytes", rec.per_round("rtl.sv_bytes"), "bytes"),
        ("cache.load_ms", rec.layer_ms("cache.load"), "ms"),
        ("cache.compile_ms", rec.layer_ms("cache.compile"), "ms"),
        ("cache.save_ms", rec.layer_ms("cache.save"), "ms"),
        ("cache.free_ms", rec.layer_ms("cache.free"), "ms"),
        (
            "cache.artifacts_decoded",
            rec.per_round("cache.artifacts_decoded"),
            "count",
        ),
        ("cache.elab_hits", rec.per_round("cache.elab_hits"), "count"),
        (
            "cache.decode_useful_ratio",
            ratio(
                rec.per_round("cache.elab_hits"),
                rec.per_round("cache.artifacts_decoded"),
            ),
            "ratio",
        ),
        (
            "cache.parse_reused",
            rec.per_round("cache.parse_reused"),
            "count",
        ),
        (
            "cache.disk_bytes",
            rec.per_round("cache.disk_bytes"),
            "bytes",
        ),
        ("edit.hit_ms", rec.sample_median("edit.hit"), "ms"),
        ("edit.miss_ms", rec.sample_median("edit.miss"), "ms"),
        ("edit.cold_ms", rec.sample_median("edit.cold"), "ms"),
        ("sim.build_ms", rec.layer_ms("sim.build"), "ms"),
        ("sim.run_ms", rec.layer_ms("sim.run"), "ms"),
        ("sim.cycles", cycles, "cycles"),
        (
            "sim.mcycles_per_s",
            ratio(cycles * 1e3, run_ns),
            "Mcycles/s",
        ),
        ("sim.ns_per_cycle", ratio(run_ns, cycles), "ns"),
        (
            "sim.ns_per_transfer",
            ratio(run_ns, rec.per_round("sim.transfers")),
            "ns",
        ),
        ("sim.transfers", rec.per_round("sim.transfers"), "count"),
        (
            "sim.refused_pushes",
            rec.per_round("sim.refused_pushes"),
            "count",
        ),
        (
            "sim.active_cycles",
            rec.per_round("sim.active_cycles"),
            "cycles",
        ),
        ("sim.components", rec.per_round("sim.components"), "count"),
        ("sim.channels", rec.per_round("sim.channels"), "count"),
        (
            "sim.allocs_per_cycle",
            ratio(rec.layer_allocs("sim.run"), cycles),
            "count",
        ),
        (
            "tpch.reference_ms",
            rec.sample_median("tpch.reference"),
            "ms",
        ),
        ("heap.run_peak_mb", mb(alloc::peak_bytes()), "MB"),
        ("round.median_ms", rec.round_wall_ms(50), "ms"),
        ("round.p80_ms", rec.round_wall_ms(80), "ms"),
        ("setup.wall_s", rec.setup_wall_s(), "s"),
        ("yardstick_ms", rec.yardstick_ms(), "ms"),
        ("round.count", rec.untraced_rounds() as f64, "count"),
        ("unattributed_ms", rec.layer_ms("round"), "ms"),
        ("trace.round_ms", rec.traced_round_ms(), "ms"),
        ("trace.overhead_ms", rec.overhead_ms(), "ms"),
    ]
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn result_line(rec: &Recorder, trace: bool) -> String {
    let (attempted, failed, problems) = rec.tally();
    let metrics = if trace {
        per_layer(rec)
    } else {
        end_to_end(rec)
    };
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty() && attempted > 0,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, args) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    // Set before any worker thread exists; every layer reads it per call.
    std::env::set_var("TYDI_THREADS", THREADS);
    let recorded = match workload.as_str() {
        "tpch_compile" => tpch_compile::run(&args),
        "edit_loop" => edit_loop::run(&args),
        "tpch_sim" => tpch_sim::run(&args),
        _ => stream_sim::run(&args),
    };
    let rec = match recorded {
        Ok(rec) => rec,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(known) = rec.known_fault() {
        eprintln!("perfbench: {workload}: known fault, counted as failed: {known}");
    }
    for problem in rec.tally().2 {
        eprintln!("perfbench: {workload}: check failed: {problem}");
    }
    if args.trace {
        let path = out_dir().join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, rec.chrome_trace()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&rec, args.trace));
    ExitCode::SUCCESS
}
