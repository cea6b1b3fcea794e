//! The `eval_s1` / `eval_s10` workloads: the Table IV grid from question to
//! score.
//!
//! One pass is what the `table4` binary does: SEED_gpt and SEED_deepseek
//! evidence for every dev question, then every (system, setting, question)
//! cell generated and scored through a fresh [`SharedPlanCache`]. An op is
//! one cell. Passes repeat identical work, so the timed phase runs whole
//! passes until the measuring time is used up.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use seed_core::few_shot::select_examples;
use seed_core::sample_sql::run_sample_sql;
use seed_core::schema_summary::summarize_if_needed;
use seed_core::{SeedPipeline, SeedVariant};
use seed_datasets::{bird::build_bird, Benchmark, CorpusConfig, Question, Split};
use seed_embedding::HashedEmbedder;
use seed_eval::{
    evaluate_pair_cached, score_set, EvidenceSetting, ExperimentRunner, PairEval, Scores, Table,
};
use seed_llm::{LanguageModel, ModelProfile, SimLlm, UsageStats};
use seed_sqlengine::{
    execute_with_stats_mode, parse_statement, Database, ExecStats, PlanMode, SharedPlanCache,
};
use seed_text2sql::value_retrieval::retrieve_values;
use seed_text2sql::{
    Chess, ChessConfig, CodeS, DailSql, GenerationContext, RslSql, Text2SqlSystem, C3,
};

use crate::trace::{trace_metrics, Tracer};
use crate::{
    end_to_end, engine_metrics, latency_metrics, op_kind, peak_rss_mb, percentile, thread_cpu_ns,
    trace_path, HostSpeed, Report, Reservoir, RunConfig, Stopwatch,
};

/// Above scale 1 the nested-loop oracle is too slow to run on every gold
/// query in every run (about 40 s at scale 10), so each run checks the gold
/// queries whose index is congruent to the seed modulo this stride; any
/// `NL_STRIDE` consecutive seeds cover them all.
const NL_STRIDE: usize = 16;

const VARIANTS: [SeedVariant; 2] = [SeedVariant::Gpt, SeedVariant::Deepseek];
const SETTINGS: [EvidenceSetting; 4] = [
    EvidenceSetting::WithoutEvidence,
    EvidenceSetting::BirdEvidence,
    EvidenceSetting::SeedGpt,
    EvidenceSetting::SeedDeepseek,
];
/// Latency samples kept of cells and of evidence calls: about sixty passes
/// of `eval_s1` in full, a uniform sample beyond.
const OP_SAMPLES: usize = 1 << 17;
const EVIDENCE_SAMPLES: usize = 1 << 13;
/// Cells each dev question contributes to a pass: 7 systems x 4 settings.
const CELLS_PER_QUESTION: u64 = 28;
/// Metric-name keys of the systems, in `table4` row order.
pub const SYSTEM_KEYS: [&str; 7] =
    ["chess_ir_cg_ut", "chess_ir_ss_cg", "rsl_sql", "codes_15b", "codes_7b", "dail_sql", "c3"];

/// `table4`'s stdout at scale 1 and the default corpus seed.
const TABLE4_GOLDEN: &str = include_str!("../golden/table4_scale1.txt");

/// A system under test, kept concrete so its model's usage can be read.
enum System {
    Chess(Chess),
    Rsl(RslSql),
    CodeS(CodeS),
    Dail(DailSql),
    C3(C3),
}

impl System {
    /// The seven Table IV systems in `table4` row order.
    fn all() -> Vec<System> {
        vec![
            System::Chess(Chess::new(ChessConfig::IrCgUt)),
            System::Chess(Chess::new(ChessConfig::IrSsCg)),
            System::Rsl(RslSql::new()),
            System::CodeS(CodeS::new(15)),
            System::CodeS(CodeS::new(7)),
            System::Dail(DailSql::new()),
            System::C3(C3::new()),
        ]
    }

    fn get(&self) -> &dyn Text2SqlSystem {
        match self {
            System::Chess(s) => s,
            System::Rsl(s) => s,
            System::CodeS(s) => s,
            System::Dail(s) => s,
            System::C3(s) => s,
        }
    }

    fn usage(&self) -> UsageStats {
        match self {
            System::Chess(s) => s.model().usage(),
            System::Rsl(s) => s.model().usage(),
            System::CodeS(s) => s.model().usage(),
            System::Dail(s) => s.model().usage(),
            System::C3(s) => s.model().usage(),
        }
    }

    /// Whether `generate` runs `value_retrieval::retrieve_values`.
    fn retrieves_values(&self) -> bool {
        matches!(self, System::Chess(_) | System::Rsl(_) | System::CodeS(_))
    }
}

/// The models a SEED variant's stages run on (sampler, generator), built
/// again so the traced run can replay the stages: `SeedPipeline` keeps its
/// own models private. [`Traced::evidence`] checks that every replay
/// reproduces the pipeline's trace, so a change of models there shows as a
/// problem.
fn stage_models(variant: SeedVariant) -> (SimLlm, SimLlm) {
    match variant {
        SeedVariant::Gpt => {
            (SimLlm::new(ModelProfile::gpt_4o_mini()), SimLlm::new(ModelProfile::gpt_4o()))
        }
        SeedVariant::Deepseek | SeedVariant::Revised => {
            (SimLlm::new(ModelProfile::deepseek_r1()), SimLlm::new(ModelProfile::deepseek_r1()))
        }
    }
}

/// The evidence a system sees under a setting, resolved the way
/// `ExperimentRunner::evidence_for` does for the four Table IV settings.
fn evidence_for<'a>(
    setting: EvidenceSetting,
    q: &'a Question,
    seed_evidence: &'a [Vec<String>; 2],
    i: usize,
) -> Option<&'a str> {
    let text = match setting {
        EvidenceSetting::WithoutEvidence => return None,
        EvidenceSetting::BirdEvidence => q.human_evidence.text.as_str(),
        EvidenceSetting::SeedGpt => seed_evidence[0][i].as_str(),
        EvidenceSetting::SeedDeepseek => seed_evidence[1][i].as_str(),
        other => unreachable!("{other:?} is not a Table IV setting"),
    };
    (!text.trim().is_empty()).then_some(text)
}

/// Per-layer totals the traced phase accumulates.
#[derive(Default)]
struct Layers {
    generate_ns: [u64; 7],
    value_retrieval_ns: u64,
    value_retrieval_calls: u64,
    grounded: u64,
    pipeline_ns: u64,
    schema_summary_ns: u64,
    sample_sql_ns: u64,
    probes: u64,
    few_shot_ns: u64,
    seed_llm_calls: u64,
    seed_prompt_tokens: u64,
    llm: UsageStats,
    score_ns: u64,
    scored: u64,
    invalid_preds: u64,
    parse_ns: u64,
    exec_ns: u64,
    op_ns: BTreeMap<&'static str, u64>,
    stats: ExecStats,
}

struct Traced {
    tracer: Tracer,
    layers: Layers,
    next_op: u64,
    /// Question ids of the evidence calls whose replayed SEED stages did not
    /// reproduce the pipeline's own trace.
    replay_mismatches: Vec<String>,
}

impl Traced {
    fn new() -> Self {
        Traced {
            tracer: Tracer::default(),
            layers: Layers::default(),
            next_op: 0,
            replay_mismatches: Vec::new(),
        }
    }

    fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// One question's SEED evidence, traced, with the stages replayed after
    /// the op's root span has closed.
    #[allow(clippy::too_many_arguments)]
    fn evidence(
        &mut self,
        pipeline: &SeedPipeline,
        models: &(SimLlm, SimLlm),
        embedder: &HashedEmbedder,
        q: &Question,
        db: &Database,
        train: &[&Question],
        has_descriptions: bool,
    ) -> Option<String> {
        let op = self.op();
        let root = self.tracer.open(op, None, "bench.evidence");
        let span = self.tracer.open(op, Some(root), "seed_core.pipeline");
        let generated =
            catch_unwind(AssertUnwindSafe(|| pipeline.generate(q, db, train, has_descriptions)));
        self.layers.pipeline_ns += self.tracer.close(span);
        self.tracer.close(root);
        let generated = generated.ok()?;
        let (sampler, generator) = models;
        let (summary, ns) = self.tracer.replay(span, "seed_core.schema_summary", || {
            summarize_if_needed(generator, &q.text, db.schema(), 3_000)
        });
        self.layers.schema_summary_ns += ns;
        let (samples, ns) = self.tracer.replay(span, "seed_core.sample_sql", || {
            run_sample_sql(sampler, &q.text, db, summary.kept_tables.as_deref())
        });
        self.layers.sample_sql_ns += ns;
        let (examples, ns) =
            self.tracer.replay(span, "seed_core.few_shot", || select_examples(embedder, q, train));
        self.layers.few_shot_ns += ns;
        let t = &generated.trace;
        if summary.kept_tables != t.kept_tables
            || samples.probes.len() != t.sample_queries
            || samples.grounded.len() != t.grounded_columns
            || examples.len() != t.few_shot_examples
        {
            self.replay_mismatches.push(q.id.clone());
        }
        self.layers.probes += generated.trace.sample_queries as u64;
        self.layers.seed_prompt_tokens += generated.trace.prompt_tokens as u64;
        Some(generated.evidence)
    }

    /// One cell, traced: generation, then scoring; value retrieval, parsing
    /// and profiled execution are replayed after the op's root span has
    /// closed.
    fn cell(
        &mut self,
        system: &System,
        s: usize,
        ctx: &GenerationContext<'_>,
        plans: &SharedPlanCache,
    ) -> Option<(PairEval, ExecStats)> {
        let op = self.op();
        let (q, db) = (ctx.question, ctx.database);
        let root = self.tracer.open(op, None, "bench.op");
        let generate = self.tracer.open(op, Some(root), "text2sql.generate");
        let predicted = catch_unwind(AssertUnwindSafe(|| system.get().generate(ctx)));
        self.layers.generate_ns[s] += self.tracer.close(generate);
        let score = self.tracer.open(op, Some(root), "eval.score");
        let scored = predicted.as_ref().ok().and_then(|predicted| {
            catch_unwind(AssertUnwindSafe(|| {
                evaluate_pair_cached(db, plans, &q.gold_sql, predicted)
            }))
            .ok()
        });
        let score_ns = self.tracer.close(score);
        self.tracer.close(root);

        let predicted = predicted.ok()?;
        if system.retrieves_values() {
            let (grounded, ns) = self
                .tracer
                .replay(generate, "text2sql.value_retrieval", || retrieve_values(&q.text, db));
            self.layers.value_retrieval_ns += ns;
            self.layers.value_retrieval_calls += 1;
            self.layers.grounded += grounded.len() as u64;
        }
        let (pair, stats) = scored?;
        self.layers.score_ns += score_ns;
        self.layers.scored += 1;
        self.layers.invalid_preds += u64::from(!pair.valid);
        self.layers.stats.merge(&stats);
        let sqls = [q.gold_sql.as_str(), predicted.as_str()];
        let ((), ns) = self.tracer.replay(score, "sqlengine.parse", || {
            for sql in sqls {
                let _ = parse_statement(sql);
            }
        });
        self.layers.parse_ns += ns;
        let (profiles, ns) = self.tracer.replay(score, "sqlengine.exec", || {
            sqls.map(|sql| plans.execute_profiled(db, sql, PlanMode::serving()).ok())
        });
        self.layers.exec_ns += ns;
        for (_, _, profile) in profiles.into_iter().flatten() {
            for p in profile.ops() {
                *self.layers.op_ns.entry(op_kind(&p.label)).or_insert(0) += p.nanos;
            }
        }
        Some((pair, stats))
    }
}

/// What one pass produced.
struct Pass {
    evidence: [Vec<String>; 2],
    /// CPU time of each evidence call and of each cell.
    evidence_ns: Vec<u64>,
    op_ns: Vec<u64>,
    /// One entry per (system, setting), system-major.
    scores: Vec<Scores>,
    cells: u64,
    attempted: u64,
    failed: u64,
}

struct Eval {
    bench: Benchmark,
}

impl Eval {
    fn db(&self, q: &Question) -> &Database {
        self.bench.database(&q.db_id).expect("every question's database is in the corpus")
    }

    /// Runs one pass. All of a pass's work happens inside this call, so its
    /// time is the pass's.
    fn pass(&self, mut traced: Option<&mut Traced>) -> Pass {
        let train = self.bench.split(Split::Train);
        let dev = self.bench.split(Split::Dev);
        let has_descriptions = self.bench.has_descriptions;
        let embedder = HashedEmbedder::default();
        let mut pass = Pass {
            evidence: [Vec::new(), Vec::new()],
            evidence_ns: Vec::with_capacity(2 * dev.len()),
            op_ns: Vec::with_capacity(CELLS_PER_QUESTION as usize * dev.len()),
            scores: Vec::with_capacity(CELLS_PER_QUESTION as usize),
            cells: 0,
            attempted: 0,
            failed: 0,
        };
        let mut seed_evidence: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for (v, variant) in VARIANTS.into_iter().enumerate() {
            let pipeline = SeedPipeline::new(variant);
            let models = stage_models(variant);
            for q in &dev {
                let db = self.db(q);
                pass.attempted += 1;
                let t0 = thread_cpu_ns();
                let evidence = match traced.as_deref_mut() {
                    None => catch_unwind(AssertUnwindSafe(|| {
                        pipeline.generate(q, db, &train, has_descriptions).evidence
                    }))
                    .ok(),
                    Some(t) => {
                        t.evidence(&pipeline, &models, &embedder, q, db, &train, has_descriptions)
                    }
                };
                pass.evidence_ns.push(thread_cpu_ns() - t0);
                if evidence.is_none() {
                    pass.failed += 1;
                }
                seed_evidence[v].push(evidence.unwrap_or_default());
            }
            if let Some(t) = traced.as_deref_mut() {
                t.layers.seed_llm_calls += pipeline.llm_calls();
            }
        }

        let plans = SharedPlanCache::new();
        let systems = System::all();
        for (s, system) in systems.iter().enumerate() {
            for setting in SETTINGS {
                let mut pairs = Vec::with_capacity(dev.len());
                for (i, q) in dev.iter().enumerate() {
                    let ctx = GenerationContext {
                        question: q,
                        database: self.db(q),
                        evidence: evidence_for(setting, q, &seed_evidence, i),
                        train_pool: &train,
                    };
                    pass.attempted += 1;
                    pass.cells += 1;
                    let t0 = thread_cpu_ns();
                    let outcome = match traced.as_deref_mut() {
                        None => catch_unwind(AssertUnwindSafe(|| {
                            let predicted = system.get().generate(&ctx);
                            evaluate_pair_cached(ctx.database, &plans, &q.gold_sql, &predicted)
                        }))
                        .ok(),
                        Some(t) => t.cell(system, s, &ctx, &plans),
                    };
                    pass.op_ns.push(thread_cpu_ns() - t0);
                    pass.failed += u64::from(outcome.is_none());
                    pairs.push(outcome.map(|(pair, _)| pair).unwrap_or(PairEval {
                        correct: false,
                        valid: false,
                        gold_cost: 1.0,
                        pred_cost: 1.0,
                    }));
                }
                pass.scores.push(score_set(&pairs));
            }
        }
        if let Some(t) = traced {
            for system in &systems {
                let u = system.usage();
                t.layers.llm.calls += u.calls;
                t.layers.llm.prompt_tokens += u.prompt_tokens;
            }
        }
        pass.evidence = seed_evidence;
        pass
    }
}

/// Builds the corpus and returns it with the build's CPU nanoseconds.
fn timed_build(corpus: &CorpusConfig) -> (Benchmark, u64) {
    let t0 = thread_cpu_ns();
    let bench = build_bird(corpus);
    (bench, thread_cpu_ns() - t0)
}

/// Benchmark seed 0 is the corpus every paper binary uses.
pub fn corpus_seed(seed: u64) -> u64 {
    CorpusConfig::default().seed.wrapping_add(seed)
}

/// Executes every gold query in serving mode and compares it with the
/// nested-loop oracle (a seed-chosen stride of them above scale 1).
/// Returns how many dev questions' gold queries fail.
pub(crate) fn check_gold(bench: &Benchmark, config: &RunConfig, report: &mut Report) -> u64 {
    let stride = if config.scale > 1.0 { NL_STRIDE } else { 1 };
    let mut dev_failures = 0;
    let mut checked = 0usize;
    for (i, q) in bench.questions.iter().enumerate() {
        let db = bench.database(&q.db_id).expect("every question's database is in the corpus");
        let served = execute_with_stats_mode(db, &q.gold_sql, PlanMode::serving());
        if let Err(e) = &served {
            report.problem(format!("gold query of {} fails: {e}", q.id));
        }
        if i % stride == (config.seed % stride as u64) as usize {
            checked += 1;
            let oracle = execute_with_stats_mode(db, &q.gold_sql, PlanMode::NestedLoop);
            let agree = match (&served, &oracle) {
                (Ok((a, _)), Ok((b, _))) => a.result_eq(b),
                (Err(_), Err(_)) => true,
                _ => false,
            };
            if !agree {
                report.problem(format!("gold query of {} disagrees with NestedLoop", q.id));
            }
        }
        dev_failures += u64::from(served.is_err() && q.split == Split::Dev);
    }
    report.record("gold_queries", bench.questions.len());
    report.record("gold_nested_loop_checked", checked);
    dev_failures
}

/// Checks a pass against `ExperimentRunner` on the same corpus, and at
/// scale 1 with the default seed against `table4`'s printed numbers.
fn check_scores(eval: &Eval, pass: &Pass, config: &RunConfig, report: &mut Report) {
    let runner = ExperimentRunner::new(&eval.bench, Split::Dev).with_seed_variants(&VARIANTS);
    for (v, variant) in VARIANTS.into_iter().enumerate() {
        for (q, mine) in runner.questions().iter().zip(&pass.evidence[v]) {
            if runner.cache().get(variant, &q.id).unwrap_or("") != mine {
                report.problem(format!("{} evidence for {} differs", variant.label(), q.id));
            }
        }
    }
    let labels: Vec<&str> = std::iter::once("system").chain(SETTINGS.map(|s| s.label())).collect();
    let mut ex = Table::new("Table IV (dev EX%): no evidence vs BIRD evidence vs SEED", &labels);
    let mut ves = Table::new("Table IV (dev VES%): no evidence vs BIRD evidence vs SEED", &labels);
    for (s, system) in System::all().iter().enumerate() {
        let mut ex_row = vec![system.get().name()];
        let mut ves_row = vec![system.get().name()];
        for (k, setting) in SETTINGS.into_iter().enumerate() {
            let expected = runner.evaluate(system.get(), setting).scores;
            let got = pass.scores[s * SETTINGS.len() + k];
            if got != expected {
                report.problem(format!(
                    "{} {}: EX/VES {:?} differ from ExperimentRunner::evaluate {:?}",
                    system.get().name(),
                    setting.label(),
                    got,
                    expected
                ));
            }
            ex_row.push(format!("{:.2}", got.ex));
            ves_row.push(format!("{:.2}", got.ves));
        }
        ex.row(ex_row);
        ves.row(ves_row);
    }
    if config.scale == 1.0 && config.seed == 0 {
        let printed = format!(
            "{}\n{}\nquestions evaluated per cell: {}\n",
            ex.render(),
            ves.render(),
            runner.questions().len()
        );
        let agrees = printed == TABLE4_GOLDEN;
        report.record("table4_golden_checked", agrees);
        if !agrees {
            report.problem("EX/VES differ from the numbers table4 prints");
        }
    }
}

pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::default();
    let corpus = CorpusConfig { scale: config.scale, seed: corpus_seed(config.seed) };
    let (bench, setup_ns) = timed_build(&corpus);
    let eval = Eval { bench };
    report.record("dev_questions", eval.bench.split(Split::Dev).len());
    report.record(
        "corpus_rows",
        eval.bench.databases.iter().map(Database::total_rows).sum::<usize>(),
    );

    // The timed phase runs whole passes. The first is kept for the output
    // checks and every later one is compared with it. Latencies go into
    // fixed-size samples allocated before the phase, so the benchmark's
    // memory does not grow with the number of passes. One set-up
    // repetition runs before each pass, so the set-up figure samples the
    // whole run rather than one moment of it.
    let mut op_ns = Reservoir::new(OP_SAMPLES, config.seed);
    let mut ev_ns = Reservoir::new(EVIDENCE_SAMPLES, !config.seed);
    let mut build_ns = vec![setup_ns];
    let mut speed = HostSpeed::default();
    let started = Instant::now();
    let mut first: Option<Pass> = None;
    let (mut passes, mut pass_ns_total, mut pass_wall_ns_total) = (0u64, 0u64, 0u64);
    let (mut cells, mut attempted, mut pass_failures) = (0u64, 0u64, 0u64);
    let mut diverged = false;
    while passes == 0 || started.elapsed() < config.measure {
        speed.sample();
        let (rebuilt, ns) = timed_build(&corpus);
        drop(rebuilt);
        build_ns.push(ns);
        let watch = Stopwatch::start();
        let pass = eval.pass(None);
        let (wall_ns, cpu_ns) = watch.lap();
        passes += 1;
        pass_ns_total += cpu_ns;
        pass_wall_ns_total += wall_ns;
        cells += pass.cells;
        attempted += pass.attempted;
        pass_failures += pass.failed;
        pass.op_ns.iter().for_each(|&ns| op_ns.push(ns));
        pass.evidence_ns.iter().for_each(|&ns| ev_ns.push(ns));
        match &first {
            None => first = Some(pass),
            Some(f) => diverged |= pass.scores != f.scores || pass.evidence != f.evidence,
        }
    }
    let peak_rss = peak_rss_mb();
    let first = first.expect("at least one pass");

    // Output checks, untimed and after the peak memory was read.
    if diverged {
        report.problem("passes over identical inputs produced different results");
    }
    check_scores(&eval, &first, config, &mut report);
    // A failing gold query fails every cell of its question.
    let gold_failures = check_gold(&eval.bench, config, &mut report) * CELLS_PER_QUESTION;
    report.attempted = attempted;
    report.failed = pass_failures + passes * gold_failures;
    report.record("passes", passes);
    report.record("ops", cells);
    report.record("cells_per_pass", first.cells);
    report.record("setup_repetitions", passes + 1);

    let setup_s = percentile(&mut build_ns, 0.5) as f64 / 1e9;
    if !config.trace {
        // Times are CPU times pooled over every pass and scaled to the
        // reference host: the throughput is the cells of all passes over
        // their whole time, SEED evidence and per-pass construction included.
        let ops_per_s = cells as f64 / (pass_ns_total as f64 / 1e9);
        end_to_end(&mut report, &speed, setup_s, ops_per_s);
        latency_metrics(&mut report, "op", &mut op_ns.samples().to_vec(), 0.99, &speed);
        let ev = &mut ev_ns.samples().to_vec();
        latency_metrics(&mut report, "evidence_or_write", ev, 0.90, &speed);
        report.metric("peak_rss_mb", peak_rss, "MiB");
        report.record("wall_ops_per_s", cells as f64 / (pass_wall_ns_total as f64 / 1e9));
        return report;
    }

    // Traced phase: whole passes for the same measuring time, spans
    // recorded; per-layer figures are per pass.
    let mut traced = Traced::new();
    let span = traced.tracer.open(0, None, "datasets.build");
    drop(build_bird(&corpus));
    traced.tracer.close(span);
    let started = Instant::now();
    let mut traced_passes = 0usize;
    while traced_passes == 0 || started.elapsed() < config.measure {
        let pass = eval.pass(Some(&mut traced));
        traced_passes += 1;
        report.attempted += pass.attempted;
        report.failed += pass.failed + gold_failures;
        if pass.scores != first.scores {
            report.problem("the traced pass produced different scores");
        }
    }
    let traced_ns = started.elapsed().as_nanos() as u64;
    if let Some(q) = traced.replay_mismatches.first() {
        report.problem(format!(
            "replayed SEED stages differ from the pipeline's trace in {} evidence calls, first {q}",
            traced.replay_mismatches.len()
        ));
    }
    report.record("traced_passes", traced_passes);
    let n = traced_passes as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let l = &traced.layers;
    let per_pass = |x: u64| x as f64 / n;
    report.record_str("per_layer_basis", "per pass");
    report.metric("datasets.build_ms", setup_s * 1e3, "ms");
    report.metric("text2sql.value_retrieval_ms", ms(l.value_retrieval_ns), "ms");
    report.metric("text2sql.value_retrieval.calls", per_pass(l.value_retrieval_calls), "count");
    report.metric(
        "text2sql.value_retrieval.grounded_per_call",
        l.grounded as f64 / l.value_retrieval_calls.max(1) as f64,
        "count",
    );
    report.metric("text2sql.generate_ms", ms(l.generate_ns.iter().sum()), "ms");
    for (key, ns) in SYSTEM_KEYS.iter().zip(l.generate_ns) {
        report.metric(format!("text2sql.generate_ms.{key}"), ms(ns), "ms");
    }
    report.metric("llm.calls", per_pass(l.llm.calls + l.seed_llm_calls), "count");
    report.metric(
        "llm.prompt_tokens",
        per_pass(l.llm.prompt_tokens + l.seed_prompt_tokens),
        "count",
    );
    report.metric("seed_core.pipeline_ms", ms(l.pipeline_ns), "ms");
    report.metric("seed_core.schema_summary_ms", ms(l.schema_summary_ns), "ms");
    report.metric("seed_core.sample_sql_ms", ms(l.sample_sql_ns), "ms");
    report.metric("seed_core.sample_sql.probes", per_pass(l.probes), "count");
    report.metric("seed_core.few_shot_ms", ms(l.few_shot_ns), "ms");
    let stages = l.schema_summary_ns + l.sample_sql_ns + l.few_shot_ns;
    report.metric("seed_core.residual_ms", ms(l.pipeline_ns.saturating_sub(stages)), "ms");
    report.metric("seed_core.llm_calls", per_pass(l.seed_llm_calls), "count");
    report.metric("eval.score_ms", ms(l.score_ns), "ms");
    report.metric(
        "eval.invalid_pred_share",
        l.invalid_preds as f64 / l.scored.max(1) as f64,
        "ratio",
    );
    engine_metrics(&mut report, l.parse_ns, l.exec_ns, &l.op_ns, &l.stats, n);
    trace_metrics(
        &mut report,
        &traced.tracer,
        n,
        pass_wall_ns_total as f64 / passes as f64,
        (traced_ns - traced.tracer.replay_ns()) as f64 / n,
    );
    if let Err(e) = traced.tracer.write_csv(&trace_path(config.workload)) {
        report.problem(format!("writing spans failed: {e}"));
    }
    report
}
