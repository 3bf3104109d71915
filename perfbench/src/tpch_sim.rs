//! `tpch_sim`: the six TPC-H designs simulated against seeded
//! synthetic tables, each result checked against `tydi-tpch`'s
//! software reference executor.
//!
//! One round simulates all six queries once. The graphs are wide (12
//! to 78 components) and fire on most cycles: builtin behaviours,
//! Fletcher readers and the scheduler do the work, and the
//! `simulation { }` interpreter none.
//!
//! Q19's translation never wires its `l_shipmode` test into the
//! clause AND, so its hardware over-counts revenue. It runs on fixed
//! inputs where that fault shows, and fails once in every round.

use crate::harness::{drive, Args, Recorder, Setups};
use std::time::Instant;
use tydi_ir::Project;
use tydi_sim::graph::{flatten, SimGraph};
use tydi_sim::{BehaviorRegistry, RunResult, Simulator};
use tydi_tpch::{all_queries, GenOptions, QueryCase, TpchData};

/// Rows of the seeded tables of Q1, Q1 without sugaring, Q3, Q5 and Q6.
const ROWS: usize = 1024;

/// Q19's fixed inputs, where its fault shows: the hardware reports a
/// revenue of 12948168 against the reference's 6757313.
const Q19_ROWS: usize = 2048;
const Q19_SEED: u64 = 13;

struct Query {
    id: &'static str,
    project: Project,
    graph: SimGraph,
    /// Index into `State::registries` (the tables the query reads).
    registry: usize,
    expected: Vec<(String, Vec<i64>)>,
    budget: u64,
    components: usize,
}

struct State {
    queries: Vec<Query>,
    registries: Vec<BehaviorRegistry>,
}

/// Repeated back to back, a set-up takes ~13 ms: 14 of them make one
/// `setup_s` sample of well over 0.1 s.
const SETUPS: Setups = Setups {
    per_sample: 14,
    renew_every: 4,
};

pub fn run(args: &Args) -> Result<Recorder, String> {
    Ok(drive(args, SETUPS, |rec| setup(args.seed, rec), round)?.0)
}

fn registry(data: &TpchData) -> BehaviorRegistry {
    let mut registry = BehaviorRegistry::with_std();
    tydi_fletcher::register_fletcher_behaviors(&mut registry, data.tables.clone());
    registry
}

fn prepare(
    case: QueryCase,
    registry: usize,
    rows: usize,
    registries: &[BehaviorRegistry],
) -> Result<Query, String> {
    let project = case.compile()?.project;
    let graph = flatten(&project, &case.top_impl, 2).map_err(|e| format!("{}: {e}", case.id))?;
    let probe = Simulator::from_graph(&project, graph.clone(), &registries[registry])
        .map_err(|e| format!("{}: {e}", case.id))?;
    Ok(Query {
        id: case.id,
        components: probe.component_paths().len(),
        project,
        graph,
        registry,
        expected: case.expected,
        // As `tydi_tpch::run_query`: a generous budget of cycles.
        budget: (rows as u64 + 64) * 64,
    })
}

/// Data, reference results, compiles, flattened graphs and one probe
/// simulator per query.
fn setup(seed: u64, rec: &mut Recorder) -> Result<State, String> {
    let data = TpchData::generate(GenOptions { rows: ROWS, seed });
    let fixed = TpchData::generate(GenOptions {
        rows: Q19_ROWS,
        seed: Q19_SEED,
    });
    // Building the cases runs the reference executor.
    let started = Instant::now();
    let seeded_cases = all_queries(&data);
    let fixed_cases = all_queries(&fixed);
    rec.sample("tpch.reference", started.elapsed().as_secs_f64() * 1e3);
    let registries = vec![registry(&data), registry(&fixed)];
    let mut queries = Vec::new();
    for case in seeded_cases.into_iter().filter(|c| c.id != "q19") {
        queries.push(prepare(case, 0, ROWS, &registries)?);
    }
    for case in fixed_cases.into_iter().filter(|c| c.id == "q19") {
        queries.push(prepare(case, 1, Q19_ROWS, &registries)?);
    }
    Ok(State {
        queries,
        registries,
    })
}

fn round(state: &mut State, rec: &mut Recorder) -> Result<(), String> {
    let State {
        queries,
        registries,
    } = &*state;
    let runs: Vec<Result<(Simulator, RunResult), String>> = rec.round(|rec| {
        queries
            .iter()
            .map(|q| {
                let mut sim = rec
                    .span("sim.build", || {
                        Simulator::from_graph(&q.project, q.graph.clone(), &registries[q.registry])
                    })
                    .map_err(|e| e.to_string())?;
                let result = rec.span("sim.run", || sim.run(q.budget));
                Ok((sim, result))
            })
            .collect()
    });
    let counting = rec.counting();
    for (q, run) in queries.iter().zip(runs) {
        let known_fault = q.id == "q19";
        let (sim, result) = match run {
            Ok(run) => run,
            Err(e) => {
                rec.check(false, known_fault, || {
                    format!("{}: cannot build simulator: {e}", q.id)
                });
                continue;
            }
        };
        let mut last_output = 0;
        let mut mismatch = None;
        for (port, expected) in &q.expected {
            let got: Vec<i64> = match sim.outputs(port) {
                Ok(packets) => {
                    last_output = packets.iter().map(|(c, _)| *c).fold(last_output, u64::max);
                    packets
                        .iter()
                        .filter(|(_, p)| !p.empty)
                        .map(|(_, p)| p.data)
                        .collect()
                }
                Err(e) => {
                    mismatch = Some(format!("{}: {port}: {e}", q.id));
                    break;
                }
            };
            if &got != expected {
                mismatch = Some(format!(
                    "{}: port {port}: expected {expected:?}, got {got:?}",
                    q.id
                ));
                break;
            }
        }
        rec.check(mismatch.is_none(), known_fault, || {
            mismatch.unwrap_or_default()
        });
        if counting {
            let channels = sim.channel_stats();
            rec.count("sim.cycles", result.cycles as f64);
            rec.count("sim.active_cycles", last_output as f64);
            rec.count(
                "sim.transfers",
                channels.iter().map(|c| c.transferred).sum::<u64>() as f64,
            );
            rec.count(
                "sim.refused_pushes",
                channels.iter().map(|c| c.refused_pushes).sum::<u64>() as f64,
            );
            rec.count("sim.channels", channels.len() as f64);
            rec.count("sim.components", q.components as f64);
        }
    }
    Ok(())
}
