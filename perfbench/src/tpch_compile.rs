//! `tpch_compile`: the paper's Table IV programs (the six TPC-H query
//! sets of `tydi-tpch`, each with its Fletcher interface packages and
//! the standard library) compiled cold from source to VHDL and
//! SystemVerilog, with no artifact cache.
//!
//! One round compiles all six sets `PASSES` times; each compile's
//! outputs are checked and dropped before the next. The compiler
//! layers do all the work and the cache and the simulator none, so
//! this workload is the no-change control for cache and simulator
//! changes.

use crate::harness::{drive, Args, Recorder, Setups};
use std::hash::{DefaultHasher, Hash, Hasher};
use tydi_lang::{CompileOptions, Session};
use tydi_rtl::{emitter_for, Backend, EmittedFile};
use tydi_tpch::{all_queries, GenOptions, TpchData};
use tydi_vhdl::{lower_project_with, BuiltinRegistry, VhdlOptions};

/// Rows of the synthetic tables; they only size the constants the
/// query sources splice in. The same size as `tpch_sim`.
const ROWS: usize = 4096;

struct QuerySet {
    id: &'static str,
    sources: Vec<(String, String)>,
    options: CompileOptions,
}

/// Per query set: the digest of the first VHDL and SV that passed the
/// structural checks; every later compile must reproduce it.
type Digests = Vec<Option<u64>>;

/// Passes over the six sets per round. A single pass takes ~30 ms,
/// short enough for the host's sub-second jitter to set the spread of
/// round times; twelve make a round of ~0.35 s.
const PASSES: usize = 12;

/// Repeated back to back, a set-up takes ~2 ms: 80 of them make one
/// `setup_s` sample of well over 0.1 s.
const SETUPS: Setups = Setups {
    per_sample: 80,
    renew_every: 6,
};

struct State {
    sets: Vec<QuerySet>,
    registry: BuiltinRegistry,
}

struct Compiled {
    output: tydi_lang::CompileOutput,
    modules: usize,
    vhdl: Vec<EmittedFile>,
    sv: Vec<EmittedFile>,
}

pub fn run(args: &Args) -> Result<Recorder, String> {
    let mut digests: Digests = Vec::new();
    let (mut rec, state) = drive(
        args,
        SETUPS,
        |_| Ok(setup(args.seed)),
        |state, rec| round(state, &mut digests, rec),
    )?;
    finish(&state, &digests, &mut rec);
    Ok(rec)
}

fn setup(seed: u64) -> State {
    let data = TpchData::generate(GenOptions { rows: ROWS, seed });
    let sets = all_queries(&data)
        .into_iter()
        .map(|case| QuerySet {
            id: case.id,
            sources: case.sources(),
            options: case.options(),
        })
        .collect();
    let registry = tydi_stdlib::full_registry();
    tydi_fletcher::register_fletcher_rtl(&registry);
    State { sets, registry }
}

/// One cold compile of a query set: the `Session` stages, one
/// lowering, and both emitters.
fn compile(
    set: &QuerySet,
    registry: &BuiltinRegistry,
    rec: &mut Recorder,
) -> Result<Compiled, String> {
    let refs: Vec<(&str, &str)> = set
        .sources
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    let mut session = Session::new(set.options.clone());
    let packages = rec
        .span("core.parse", || session.parse(&refs))
        .map_err(|f| f.render())?;
    let (mut project, info) = rec
        .span("core.elaborate", || session.elaborate(packages))
        .map_err(|f| f.render())?;
    let sugar = rec.span("core.sugar", || session.sugar(&mut project));
    rec.span("core.drc", || session.drc(&project, &info))
        .map_err(|f| f.render())?;
    let output = session.finish(project, sugar, info);
    let netlist = rec
        .span("vhdl.lower", || {
            lower_project_with(
                &output.project,
                &output.index,
                registry,
                &VhdlOptions::default(),
            )
        })
        .map_err(|e| e.to_string())?;
    let vhdl = rec
        .span("rtl.emit_vhdl", || {
            emitter_for(Backend::Vhdl).emit_netlist(&netlist)
        })
        .map_err(|e| e.to_string())?;
    let sv = rec
        .span("rtl.emit_sv", || {
            emitter_for(Backend::SystemVerilog).emit_netlist(&netlist)
        })
        .map_err(|e| e.to_string())?;
    Ok(Compiled {
        output,
        modules: netlist.modules.len(),
        vhdl,
        sv,
    })
}

fn digest(compiled: &Compiled) -> u64 {
    let mut hasher = DefaultHasher::new();
    for file in compiled.vhdl.iter().chain(&compiled.sv) {
        file.name.hash(&mut hasher);
        file.contents.hash(&mut hasher);
    }
    hasher.finish()
}

/// Structural problems the VHDL and SV checkers find, one line each.
fn structural_issues(compiled: &Compiled) -> Vec<String> {
    let vhdl = compiled.vhdl.iter().flat_map(|f| {
        tydi_vhdl::check::check_vhdl(&f.contents)
            .into_iter()
            .map(move |i| format!("{}:{}: {}", f.name, i.line, i.message))
    });
    let sv = compiled.sv.iter().flat_map(|f| {
        tydi_rtl::check::check_verilog(&f.contents)
            .into_iter()
            .map(move |i| format!("{}:{}: {}", f.name, i.line, i.message))
    });
    vhdl.chain(sv).collect()
}

fn round(state: &mut State, digests: &mut Digests, rec: &mut Recorder) -> Result<(), String> {
    let registry = &state.registry;
    let sets = &state.sets;
    digests.resize(sets.len(), None);
    rec.round(|rec| {
        for _ in 0..PASSES {
            for (set, seen) in sets.iter().zip(digests.iter_mut()) {
                let result = compile(set, registry, rec);
                // Reduce the outputs to what the check needs and drop
                // them, so the heap holds one compile at a time.
                rec.outside(|rec| tally(rec, set, seen, result));
            }
        }
    });
    Ok(())
}

/// Checks one compile's outputs and, in a traced round, counts them.
fn tally(
    rec: &mut Recorder,
    set: &QuerySet,
    seen: &mut Option<u64>,
    result: Result<Compiled, String>,
) {
    let compiled = match result {
        Ok(compiled) => compiled,
        Err(e) => {
            rec.check(false, false, || format!("{}: compile failed: {e}", set.id));
            return;
        }
    };
    let hash = digest(&compiled);
    let problem = match *seen {
        Some(expected) if expected == hash => None,
        Some(_) => Some("output bytes differ between passes".to_string()),
        None => {
            let issues = structural_issues(&compiled);
            if issues.is_empty() {
                *seen = Some(hash);
                None
            } else {
                Some(format!("generated RTL fails the checks: {issues:?}"))
            }
        }
    };
    rec.check(problem.is_none(), false, || {
        format!("{}: {}", set.id, problem.clone().unwrap_or_default())
    });
    if rec.counting() {
        count_sizes(rec, &compiled);
    }
}

fn count_sizes(rec: &mut Recorder, compiled: &Compiled) {
    let output = &compiled.output;
    let stats = output.project.stats();
    let types = &output.elab_info.type_store;
    rec.count("spec.distinct_types", types.distinct_types as f64);
    rec.count("spec.intern_hits", types.intern_hits as f64);
    rec.count("ir.impls", stats.implementations as f64);
    rec.count("ir.connections", stats.connections as f64);
    let sugar = output.sugar_report;
    rec.count(
        "ir.sugar_inserted",
        (sugar.duplicators + sugar.voiders) as f64,
    );
    rec.count("rtl.modules", compiled.modules as f64);
    let bytes = |files: &[EmittedFile]| files.iter().map(|f| f.contents.len()).sum::<usize>();
    rec.count("rtl.vhdl_bytes", bytes(&compiled.vhdl) as f64);
    rec.count("rtl.sv_bytes", bytes(&compiled.sv) as f64);
}

/// The timed rounds ran with one worker; one more pass with
/// `TYDI_THREADS=2` (the parallel paths) must give the same bytes.
fn finish(state: &State, digests: &Digests, rec: &mut Recorder) {
    let threads = std::env::var("TYDI_THREADS").unwrap_or_default();
    std::env::set_var("TYDI_THREADS", "2");
    for (set, seen) in state.sets.iter().zip(digests) {
        match compile(set, &state.registry, rec) {
            Ok(compiled) if Some(digest(&compiled)) == *seen => {}
            Ok(_) => rec.problem(format!("{}: output differs at TYDI_THREADS=2", set.id)),
            Err(e) => rec.problem(format!("{}: compile failed at TYDI_THREADS=2: {e}", set.id)),
        }
    }
    std::env::set_var("TYDI_THREADS", threads);
}
