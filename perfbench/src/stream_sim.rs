//! `stream_sim`: `cookbook/11_batch_sim.td`'s `pipeline_i` (a slow
//! doubler described in `simulation { }` code, then a passthrough),
//! run as `tydic sim` runs it: one `SimBatch` over scenarios with the
//! CLI's per-scenario backpressure schedule and seeded packet values.
//!
//! One round is one batch. At 5 simulated cycles per packet, the
//! interpreter and the event queue's skipping over `delay()` waits do
//! most of the work: the opposite use of the scheduler from
//! `tpch_sim`.

use crate::harness::{drive, Args, Recorder, Rng, Setups};
use tydi_ir::Project;
use tydi_lang::{compile, CompileOptions};
use tydi_sim::{BatchReport, BehaviorRegistry, Packet, Scenario, SimBatch, Simulator};

const SOURCE: &str = include_str!("../../cookbook/11_batch_sim.td");
const TOP: &str = "pipeline_i";

/// `tydic sim`'s default scenario count.
const SCENARIOS: usize = 4;
const PACKETS: usize = 5_000;

struct State {
    project: Project,
    behaviors: BehaviorRegistry,
    scenarios: Vec<Scenario>,
    /// Per scenario: the values fed to the one input port.
    fed: Vec<Vec<i64>>,
    output: String,
    components: usize,
    channels: usize,
}

/// Repeated back to back, a set-up takes ~0.6 ms: 300 of them make
/// one `setup_s` sample of well over 0.1 s.
const SETUPS: Setups = Setups {
    per_sample: 300,
    renew_every: 8,
};

pub fn run(args: &Args) -> Result<Recorder, String> {
    Ok(drive(args, SETUPS, |_| setup(args.seed), round)?.0)
}

/// Compile (with the standard library, as `tydic`), behaviours, one
/// probe simulator for the boundary ports, and the scenarios.
fn setup(seed: u64) -> Result<State, String> {
    let sources = [
        (tydi_stdlib::STDLIB_FILE_NAME, tydi_stdlib::stdlib_source()),
        ("11_batch_sim.td", SOURCE),
    ];
    let options = CompileOptions {
        project_name: "tydic_out".to_string(),
        enable_sugaring: true,
        run_drc: true,
    };
    let project = compile(&sources, &options).map_err(|f| f.render())?.project;
    let mut behaviors = BehaviorRegistry::with_std();
    tydi_fletcher::register_fletcher_behaviors(&mut behaviors, Default::default());
    let probe = Simulator::new(&project, TOP, &behaviors).map_err(|e| e.to_string())?;
    let (inputs, outputs) = (probe.input_ports(), probe.output_ports());
    let ([input], [output]) = (inputs.as_slice(), outputs.as_slice()) else {
        return Err(format!(
            "{TOP}: expected one input and one output, got {inputs:?} and {outputs:?}"
        ));
    };
    let mut rng = Rng::new(seed, 2);
    let fed: Vec<Vec<i64>> = (0..SCENARIOS)
        .map(|_| (0..PACKETS).map(|_| rng.below(1 << 28) as i64).collect())
        .collect();
    let scenarios = fed
        .iter()
        .enumerate()
        .map(|(k, values)| {
            Scenario::new(format!("scenario-{k}"))
                .with_max_cycles(PACKETS as u64 * 10)
                .with_feed(input, values.iter().map(|&v| Packet::data(v)))
                .with_backpressure(output, 1 + k as u64 % 4)
        })
        .collect();
    Ok(State {
        output: output.clone(),
        components: probe.component_paths().len(),
        channels: probe.channel_stats().len(),
        project,
        behaviors,
        scenarios,
        fed,
    })
}

fn round(state: &mut State, rec: &mut Recorder) -> Result<(), String> {
    let batch = rec.round(|rec| {
        rec.span("sim.run", || {
            SimBatch::new(&state.project, TOP, &state.behaviors).run(&state.scenarios)
        })
    });
    let report = batch.map_err(|e| format!("the batch could not run: {e}"))?;
    check(state, &report, rec);
    if rec.counting() {
        let runs = report.scenarios.len() as f64;
        let channels = report.scenarios.iter().flat_map(|s| &s.channels);
        let (transfers, refused) = channels.fold((0, 0), |(t, r), c| {
            (t + c.transferred, r + c.refused_pushes)
        });
        let last_output = report
            .scenarios
            .iter()
            .flat_map(|s| &s.outputs)
            .map(|(_, packets)| packets.last().map_or(0, |(cycle, _)| *cycle))
            .sum::<u64>();
        rec.count("sim.cycles", report.total_cycles() as f64);
        rec.count("sim.active_cycles", last_output as f64);
        rec.count("sim.transfers", transfers as f64);
        rec.count("sim.refused_pushes", refused as f64);
        rec.count("sim.channels", state.channels as f64 * runs);
        rec.count("sim.components", state.components as f64 * runs);
    }
    Ok(())
}

/// Every scenario completes and delivers exactly twice every fed
/// packet, in feed order: the `slow_double_i` → passthrough
/// specification.
fn check(state: &State, report: &BatchReport, rec: &mut Recorder) {
    for (scenario, fed) in state.scenarios.iter().zip(&state.fed) {
        let name = &scenario.name;
        let problem = if let Some(error) = report.errors.iter().find(|e| &e.scenario == name) {
            Some(format!("{name}: {}", error.error))
        } else if let Some(run) = report.scenarios.iter().find(|s| &s.scenario == name) {
            let got: Vec<i64> = run
                .outputs
                .iter()
                .filter(|(port, _)| port == &state.output)
                .flat_map(|(_, packets)| {
                    packets
                        .iter()
                        .filter(|(_, p)| !p.empty)
                        .map(|(_, p)| p.data)
                })
                .collect();
            let expected: Vec<i64> = fed.iter().map(|v| v * 2).collect();
            if !matches!(run.result.reason, tydi_sim::StopReason::Completed) {
                Some(format!("{name}: stopped with {:?}", run.result.reason))
            } else if got != expected {
                Some(format!(
                    "{name}: delivered {} packets, not twice the {} fed",
                    got.len(),
                    fed.len()
                ))
            } else {
                None
            }
        } else {
            Some(format!("{name}: missing from the batch report"))
        };
        rec.check(problem.is_none(), false, || problem.unwrap_or_default());
    }
}
