//! `edit_loop`: a seeded sequence of single-file edits to a ~100
//! package import DAG, each followed by one in-process `tydic build`
//! step through the on-disk artifact cache:
//! `ArtifactCache::load` → `compile_with_cache` → VHDL → `save`.
//!
//! One round is one meaning-preserving edit (a new trailing comment:
//! elaboration is reused) and one meaning-changing edit (a leaf
//! package's constant toggles: elaboration recomputes), each with its
//! build step. After every round, the cached path's IR text and VHDL
//! are compared with a cache-free compile of the same sources, and a
//! probe on fixed inputs shows the parse-cache fault (see `Probe`).

use crate::harness::{drive, Args, Recorder, Rng, Setups};
use std::path::PathBuf;
use std::time::Instant;
use tydi_lang::cache::{ELAB_CAPACITY, PARSE_CAPACITY};
use tydi_lang::{compile, compile_with_cache, ArtifactCache, CompileOptions, CompileOutput, Stage};
use tydi_rtl::{emitter_for, Backend, EmittedFile};
use tydi_vhdl::{lower_project_with, BuiltinRegistry, VhdlOptions};

/// DAG width: 64 leaf packages, 32 joins, a base and a main package.
const WIDTH: usize = 64;

/// Slot of the first DAG file (slot 0 is the standard library).
const FIRST: usize = 1;

/// The stdlib, `base`, the leaves, the joins and `zmain`.
const FILES: usize = FIRST + 1 + WIDTH + WIDTH / 2 + 1;

/// A set-up (a cold build and 15 cached builds) takes ~1.2 s, one
/// `setup_s` sample on its own. A fresh set-up (a fresh cache
/// directory) every 12 rounds spreads the samples over the run and
/// keeps the timed steps below `PARSE_CAPACITY` parse artifacts: every
/// step stores one, and once the cache is full every build that
/// elaborates fails (the fault `Probe` shows in every round), so timed
/// steps there would time the failure.
const SETUPS: Setups = Setups {
    per_sample: 1,
    renew_every: 12,
};
const _: () = assert!(FILES + ELAB_CAPACITY + 2 * SETUPS.renew_every as usize <= PARSE_CAPACITY);

/// The parse-cache fault on fixed inputs. Once the cache holds
/// `PARSE_CAPACITY` parse artifacts, storing a changed file's parse
/// evicts the oldest entry, an unchanged file of the same compile; on
/// the elaboration miss that follows, `materialize_packages` cannot
/// rebuild that file's AST and the build fails. The fixture is a cache
/// directory filled to capacity by comment edits after a cold build;
/// the probe, once per round after the timed steps, makes one
/// meaning-changing build on it (and never saves, so the fixture stays
/// as it is). It fails every time until the fault is mended.
struct Probe {
    dir: PathBuf,
    sources: Vec<(String, String)>,
    /// IR text of a cache-free compile of `sources`.
    expected_ir: String,
}

impl Drop for Probe {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct State {
    dir: PathBuf,
    /// Generated text of every file, before any edit.
    base: Vec<(String, String)>,
    /// Per file: whether its constant is toggled, and its edit count.
    toggled: Vec<bool>,
    revision: Vec<u64>,
    edits: u64,
    /// Meaning-changing edits toggle the odd leaves in this seeded
    /// order, so a project state recurs only after `WIDTH` of them,
    /// long after the elaboration cache evicted it: each one misses.
    miss_order: Vec<usize>,
    misses: usize,
    rng: Rng,
    options: CompileOptions,
    registry: BuiltinRegistry,
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct Step {
    output: CompileOutput,
    vhdl: Vec<EmittedFile>,
    loaded: usize,
    saved: bool,
}

pub fn run(args: &Args) -> Result<Recorder, String> {
    let probe = probe_fixture()?;
    let round = |state: &mut State, rec: &mut Recorder| {
        round(state, rec)?;
        run_probe(&probe, state, rec);
        Ok(())
    };
    Ok(drive(args, SETUPS, |rec| setup(args.seed, rec), round)?.0)
}

fn dag_sources() -> Vec<(String, String)> {
    let mut base = vec![(
        tydi_stdlib::STDLIB_FILE_NAME.to_string(),
        tydi_stdlib::stdlib_source().to_string(),
    )];
    base.extend(tydi_bench::package_dag_sources(WIDTH));
    assert_eq!(base.len(), FILES, "the DAG's file count changed");
    base
}

fn compile_options() -> CompileOptions {
    CompileOptions {
        project_name: "tydic_out".to_string(),
        enable_sugaring: true,
        run_drc: true,
    }
}

fn as_refs(sources: &[(String, String)]) -> Vec<(&str, &str)> {
    sources
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect()
}

/// Builds the probe's fixture (fixed inputs, no seed): a cold build of
/// the DAG, then comment edits to the DAG files in turn, each compiled
/// against the same cache, until it holds `PARSE_CAPACITY` parse
/// artifacts. Made once per process, before the set-ups, and not
/// timed: it is a check's fixture, not the workload's state.
fn probe_fixture() -> Result<Probe, String> {
    let dir = crate::out_dir().join(format!("edit-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let base = dag_sources();
    let options = compile_options();
    let mut cache = ArtifactCache::load(&dir);
    let mut fill = 0;
    while cache.parse_entries() < PARSE_CAPACITY {
        let mut sources = base.clone();
        if fill > 0 {
            let slot = FIRST + (fill - 1) % (FILES - FIRST);
            sources[slot].1.push_str(&format!("// fill {fill}\n"));
        }
        compile_with_cache(&as_refs(&sources), &options, &mut cache).map_err(|f| f.render())?;
        fill += 1;
    }
    cache
        .save(&dir)
        .map_err(|e| format!("cannot save the probe cache: {e}"))?;
    // An odd leaf's constant changes, as in the rounds: the build
    // must elaborate.
    let mut sources = base;
    let slot = FIRST + 1 + 1;
    let edited = sources[slot]
        .1
        .replace(&leaf_const(1, false), &leaf_const(1, true));
    assert_ne!(edited, sources[slot].1, "the leaf's constant moved");
    sources[slot].1 = edited;
    let expected = compile(&as_refs(&sources), &options).map_err(|f| f.render())?;
    Ok(Probe {
        dir,
        expected_ir: tydi_ir::text::emit_project(&expected.project),
        sources,
    })
}

/// One meaning-changing build on the full probe cache, checked
/// against a cache-free compile. Counted as the known fault when it
/// fails with the fault's error.
fn run_probe(probe: &Probe, state: &State, rec: &mut Recorder) {
    let mut cache = ArtifactCache::load(&probe.dir);
    let problem = match compile_with_cache(&as_refs(&probe.sources), &state.options, &mut cache) {
        Ok(output) if tydi_ir::text::emit_project(&output.project) == probe.expected_ir => None,
        Ok(_) => Some((
            false,
            "full parse cache: IR differs from a cache-free compile".to_string(),
        )),
        Err(f) => {
            let rendered = f.render();
            let known = rendered.contains("could not be rebuilt");
            Some((
                known,
                format!("full parse cache: build failed: {}", rendered.trim()),
            ))
        }
    };
    let known = problem.as_ref().is_some_and(|(known, _)| *known);
    rec.check(problem.is_none(), known, || {
        problem.map(|(_, what)| what).unwrap_or_default()
    });
}

fn leaf_const(k: usize, toggled: bool) -> String {
    format!("const c{k} : int = {};", 8 + k + usize::from(toggled))
}

impl State {
    fn text(&self, slot: usize) -> String {
        let (name, base) = &self.base[slot];
        let mut text = base.clone();
        if self.toggled[slot] {
            let k: usize = name
                .strip_prefix('p')
                .and_then(|n| n.strip_suffix(".td"))
                .and_then(|n| n.parse().ok())
                .expect("only leaf packages toggle");
            text = text.replace(&leaf_const(k, false), &leaf_const(k, true));
        }
        if self.revision[slot] > 0 {
            text.push_str(&format!("// revision {}\n", self.revision[slot]));
        }
        text
    }

    fn sources(&self) -> Vec<(String, String)> {
        (0..self.base.len())
            .map(|slot| (self.base[slot].0.clone(), self.text(slot)))
            .collect()
    }

    /// Applies one edit and returns the sources after it. Every edit
    /// leaves a text the cache has not seen, as an editor would.
    fn edit(&mut self, changes_meaning: bool) -> Vec<(String, String)> {
        self.edits += 1;
        let slot = if changes_meaning {
            let leaf = self.miss_order[self.misses % self.miss_order.len()];
            self.misses += 1;
            let slot = FIRST + 1 + leaf;
            self.toggled[slot] = !self.toggled[slot];
            slot
        } else {
            FIRST + self.rng.below((self.base.len() - FIRST) as u64) as usize
        };
        self.revision[slot] = self.edits;
        self.sources()
    }

    fn step(&self, sources: &[(String, String)], rec: &mut Recorder) -> Result<Step, String> {
        let refs = as_refs(sources);
        let mut cache = rec.span("cache.load", || ArtifactCache::load(&self.dir));
        let loaded = cache.elab_entries();
        let output = rec
            .span("cache.compile", || {
                compile_with_cache(&refs, &self.options, &mut cache)
            })
            .map_err(|f| f.render())?;
        // The program's own stage records split the compile call.
        let stages: Vec<(&'static str, std::time::Duration)> = output
            .stage_records
            .iter()
            .filter_map(|r| stage_layer(r.stage).map(|layer| (layer, r.duration)))
            .collect();
        rec.split_last(&stages);
        let netlist = rec
            .span("vhdl.lower", || {
                lower_project_with(
                    &output.project,
                    &output.index,
                    &self.registry,
                    &VhdlOptions::default(),
                )
            })
            .map_err(|e| e.to_string())?;
        let vhdl = rec
            .span("rtl.emit_vhdl", || {
                emitter_for(Backend::Vhdl).emit_netlist(&netlist)
            })
            .map_err(|e| e.to_string())?;
        // As `tydic build`: persist only a cache that changed.
        let saved = cache.is_dirty();
        if saved {
            rec.span("cache.save", || cache.save(&self.dir))
                .map_err(|e| format!("cannot save the cache: {e}"))?;
        }
        // Freeing the decoded artifacts is part of the cache's cost.
        rec.span("cache.free", || drop(cache));
        Ok(Step {
            output,
            vhdl,
            loaded,
            saved,
        })
    }
}

fn stage_layer(stage: Stage) -> Option<&'static str> {
    match stage {
        Stage::Parse => Some("core.parse"),
        Stage::Elaborate => Some("core.elaborate"),
        Stage::Sugar => Some("core.sugar"),
        Stage::Drc => Some("core.drc"),
        Stage::Analyze => None,
    }
}

/// A fresh cache directory, a cold build, then meaning-changing edits
/// until the cache holds its steady state of `ELAB_CAPACITY`
/// elaboration artifacts.
fn setup(seed: u64, rec: &mut Recorder) -> Result<State, String> {
    let dir = crate::out_dir().join(format!("edit-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let base = dag_sources();
    let mut rng = Rng::new(seed, 1);
    let odd_leaves: Vec<usize> = (0..WIDTH).filter(|k| k % 2 == 1).collect();
    let miss_order = rng
        .permutation(odd_leaves.len())
        .into_iter()
        .map(|i| odd_leaves[i])
        .collect();
    let registry = tydi_stdlib::full_registry();
    tydi_fletcher::register_fletcher_rtl(&registry);
    let files = base.len();
    let mut state = State {
        dir,
        base,
        toggled: vec![false; files],
        revision: vec![0; files],
        edits: 0,
        miss_order,
        misses: 0,
        rng,
        options: compile_options(),
        registry,
    };
    let mut sources = state.sources();
    for filled in 1..=ELAB_CAPACITY {
        let step = state.step(&sources, rec)?;
        if filled < ELAB_CAPACITY {
            sources = state.edit(true);
        } else if step.loaded + 1 != ELAB_CAPACITY {
            rec.problem(format!(
                "set-up left {} elaboration artifacts, not {ELAB_CAPACITY}",
                step.loaded + 1
            ));
        }
    }
    Ok(state)
}

fn round(state: &mut State, rec: &mut Recorder) -> Result<(), String> {
    let hit_sources = state.edit(false);
    let miss_sources = state.edit(true);
    let this: &State = state;
    let (hit, miss) = rec.round(|rec| {
        let started = Instant::now();
        let hit = this.step(&hit_sources, rec);
        rec.sample("edit.hit", started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let miss = this.step(&miss_sources, rec);
        rec.sample("edit.miss", started.elapsed().as_secs_f64() * 1e3);
        (hit, miss)
    });
    let counting = rec.counting();
    for (sources, step) in [(hit_sources, hit), (miss_sources, miss)] {
        let step = match step {
            Ok(step) => step,
            Err(e) => {
                rec.check(false, false, || format!("build step failed: {e}"));
                continue;
            }
        };
        let mismatch = compare_with_cold(state, &sources, &step, rec);
        rec.check(mismatch.is_none(), false, || mismatch.unwrap_or_default());
        if counting {
            count_step(rec, &step);
        }
    }
    if counting {
        rec.count("cache.disk_bytes", dir_bytes(&state.dir) as f64);
    }
    Ok(())
}

/// Compiles the same sources without any cache and compares the IR
/// text and the VHDL with the cached step's.
fn compare_with_cold(
    state: &State,
    sources: &[(String, String)],
    step: &Step,
    rec: &mut Recorder,
) -> Option<String> {
    let refs = as_refs(sources);
    let started = Instant::now();
    let cold = match compile(&refs, &state.options) {
        Ok(cold) => cold,
        Err(f) => return Some(format!("cache-free compile failed: {}", f.render())),
    };
    let vhdl = lower_project_with(
        &cold.project,
        &cold.index,
        &state.registry,
        &VhdlOptions::default(),
    )
    .map_err(|e| e.to_string())
    .and_then(|netlist| {
        emitter_for(Backend::Vhdl)
            .emit_netlist(&netlist)
            .map_err(|e| e.to_string())
    });
    rec.sample("edit.cold", started.elapsed().as_secs_f64() * 1e3);
    let vhdl = match vhdl {
        Ok(vhdl) => vhdl,
        Err(e) => return Some(format!("cache-free VHDL generation failed: {e}")),
    };
    if tydi_ir::text::emit_project(&cold.project)
        != tydi_ir::text::emit_project(&step.output.project)
    {
        return Some("cached IR text differs from a cache-free compile".to_string());
    }
    if vhdl != step.vhdl {
        return Some("cached VHDL differs from a cache-free compile".to_string());
    }
    None
}

fn count_step(rec: &mut Recorder, step: &Step) {
    let output = &step.output;
    let record = |stage: Stage| output.stage_records.iter().find(|r| r.stage == stage);
    let elab_hit = record(Stage::Elaborate).is_some_and(|r| r.reused > 0);
    rec.count("cache.elab_hits", f64::from(u8::from(elab_hit)));
    rec.count(
        "cache.parse_reused",
        record(Stage::Parse).map_or(0, |r| r.reused) as f64,
    );
    // `load` decodes every elaboration artifact in the manifest, and
    // `save` decodes them all again to merge with the disk state.
    let decoded = step.loaded * (1 + usize::from(step.saved));
    rec.count("cache.artifacts_decoded", decoded as f64);
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
    rec.count("rtl.modules", step.vhdl.len() as f64);
    let bytes: usize = step.vhdl.iter().map(|f| f.contents.len()).sum();
    rec.count("rtl.vhdl_bytes", bytes as f64);
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
