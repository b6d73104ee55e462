//! The sharded sweep executor.
//!
//! A [`SweepRunner`] expands a spec and distributes the cells over
//! `std::thread::scope` workers pulling from a shared atomic work
//! queue. Each cell is simulated independently with its own derived
//! seed, so the *execution* order is irrelevant: results are slotted
//! back by cell index and the assembled [`SweepReport`] is identical —
//! byte for byte in canonical JSON — whatever the worker count.
//!
//! Work is pulled in contiguous *chunks* of cells sized by the
//! evaluator: registry schemes run chunks of one, while batched
//! evaluators (e.g. a learned policy running one matmul across many
//! cells) claim whole chunks and amortize inference over them.
//! Chunking only changes scheduling — never results.
//!
//! Sweeps and competitions, cached and uncached, registry schemes and
//! learned policies all take one path: [`SweepRunner::run_in`] lowers
//! and expands the spec, picks the evaluator, and hands the cells to
//! one private executor that serves store hits, simulates the misses
//! and writes them back.
//!
//! Worker count resolution, highest priority first:
//! 1. [`SweepRunner::with_threads`],
//! 2. the `MOCC_SWEEP_THREADS` environment variable (a positive
//!    integer; anything else aborts with a clear error rather than
//!    silently falling back),
//! 3. [`std::thread::available_parallelism`].

use crate::cache::{
    competition_cell_key, sweep_cell_key, verified_hit, CacheStats, PolicyIdentity,
};
use crate::competition::{
    competition_report, CompetitionCell, CompetitionEvaluator, CompetitionSpec,
};
use crate::experiment::{ExperimentSpec, Workload};
use crate::report::{CellReport, SweepReport};
use crate::scheme::{SchemeCtx, SchemeRegistry, SchemeSpec, SpecError};
use crate::spec::{SweepCell, SweepSpec};
use mocc_netsim::cc::CongestionControl;
use mocc_netsim::{Scenario, Simulator};
use mocc_store::ResultStore;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the auto-detected worker count.
pub const THREADS_ENV: &str = "MOCC_SWEEP_THREADS";

/// Evaluates whole batches of cells at once — the hook that lets
/// learned policies batch inference across sweep cells (one forward
/// pass serves a chunk of simulators). Implementations must return one
/// report per input cell, in order, and must evaluate each cell
/// independently of its chunk-mates: the runner's byte-identity
/// contract (same report for any thread count or batch size) relies on
/// it. The runner never hands over an empty batch.
pub trait CellEvaluator: Sync {
    /// Preferred cells per chunk (≥ 1). The runner never hands a chunk
    /// larger than this.
    fn batch_size(&self) -> usize {
        1
    }

    /// Evaluates a contiguous batch of cells, returning one report per
    /// cell in input order.
    fn eval_batch(&self, cells: &[SweepCell]) -> Vec<CellReport>;
}

/// An evaluator for both cell kinds — what a learned policy hands
/// [`SweepRunner::run_in`] to serve an experiment's `mocc` flows
/// (`mocc_core::BatchMoccEvaluator` is one). Implemented for every
/// type that implements [`CellEvaluator`] and [`CompetitionEvaluator`].
pub trait PolicyEvaluator: CellEvaluator + CompetitionEvaluator {}

impl<T: CellEvaluator + CompetitionEvaluator> PolicyEvaluator for T {}

/// Registry schemes on every flow, one cell at a time: the sweep's
/// scheme on each flow of a sweep cell, each contender's own label in
/// a competition cell (and the `tcp_baseline` in its friendliness
/// control). Specs are validated before any cell runs, so a label the
/// registry cannot instantiate here is a bug, not an input error.
struct RegistryEvaluator<'a> {
    registry: &'a SchemeRegistry,
    /// The sweep's scheme label; competition cells carry their own.
    scheme: Option<&'a str>,
}

impl RegistryEvaluator<'_> {
    /// Instantiates `label` for a flow of `scenario`.
    fn make(&self, scenario: &Scenario, label: &str) -> Box<dyn CongestionControl> {
        let ctx = SchemeCtx {
            peak_rate_bps: scenario.link.trace.max_rate(),
        };
        self.registry
            .instantiate_label(label, &ctx)
            .unwrap_or_else(|e| panic!("{e} (spec not validated?)"))
    }
}

impl CellEvaluator for RegistryEvaluator<'_> {
    fn eval_batch(&self, cells: &[SweepCell]) -> Vec<CellReport> {
        let label = self.scheme.expect("sweep runs name their scheme");
        cells
            .iter()
            .map(|cell| {
                let ccs = (0..cell.scenario.flows.len())
                    .map(|_| self.make(&cell.scenario, label))
                    .collect();
                CellReport::from_sim(cell, &Simulator::new(cell.scenario.clone(), ccs).run())
            })
            .collect()
    }
}

impl CompetitionEvaluator for RegistryEvaluator<'_> {
    fn eval_batch(&self, cells: &[CompetitionCell]) -> Vec<CellReport> {
        cells
            .iter()
            .map(|cell| {
                let make = |label: &str| self.make(&cell.scenario, label);
                let ccs = cell.labels.iter().map(|l| make(l)).collect();
                let res = Simulator::new(cell.scenario.clone(), ccs).run();
                competition_report(cell, &res, &make)
            })
            .collect()
    }
}

/// The shared sharded executor: distributes contiguous chunks of
/// `batch` items over `threads` scoped workers pulling from an atomic
/// queue, slotting results back by item index. Scheduling order can
/// never change the output vector — the byte-identity foundation every
/// run builds on. No items means no worker and no `eval` call.
fn run_chunked<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    batch: usize,
    eval: &(dyn Fn(&[T]) -> Vec<R> + Sync),
) -> Vec<R> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let batch = batch.max(1);
    let chunks = n.div_ceil(batch);
    let workers = threads.min(chunks).max(1);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= chunks {
                    break;
                }
                let lo = c * batch;
                let hi = (lo + batch).min(n);
                let results = eval(&items[lo..hi]);
                assert_eq!(
                    results.len(),
                    hi - lo,
                    "evaluator must return one result per item"
                );
                let mut locked = slots.lock().expect("slot lock");
                for (i, r) in results.into_iter().enumerate() {
                    locked[lo + i] = Some(r);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("slot lock")
        .into_iter()
        .map(|r| r.expect("every item produced a result"))
        .collect()
}

/// The two cell kinds, as the executor sees them.
trait Cell: Clone + Sync {
    /// Position in the expansion order.
    fn index(&self) -> u64;
}

impl Cell for SweepCell {
    fn index(&self) -> u64 {
        self.index
    }
}

impl Cell for CompetitionCell {
    fn index(&self) -> u64 {
        self.index
    }
}

/// A cached run's store, ledger timestamp and cell-key function.
type Memo<'a, C> = (&'a ResultStore, u64, &'a dyn Fn(&C) -> String);

/// Parallel executor for sweep specs. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::auto()
    }
}

/// Parses a `MOCC_SWEEP_THREADS` value: `None` (unset) defers to
/// auto-detection, otherwise the value must be a positive integer.
/// Silent fallback on a typo would quietly run a different sharding
/// than the operator asked for, so malformed values are an error.
pub fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!(
                "{THREADS_ENV}={v:?} is not a positive integer; \
                 unset it for auto-detection or set N >= 1"
            )),
        },
    }
}

impl SweepRunner {
    /// A runner with the worker count resolved from the environment
    /// (`MOCC_SWEEP_THREADS`) or the machine's available parallelism.
    ///
    /// # Panics
    ///
    /// Panics with a clear message if `MOCC_SWEEP_THREADS` is set to
    /// anything but a positive integer.
    pub fn auto() -> Self {
        // audit:allow(env-discipline): strict-parse helper — the one reader of MOCC_SWEEP_THREADS
        let env = std::env::var(THREADS_ENV).ok();
        let threads = match parse_threads(env.as_deref()) {
            Ok(Some(n)) => n,
            Ok(None) => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Err(msg) => panic!("{msg}"),
        };
        SweepRunner { threads }
    }

    /// A runner with an explicit worker count (≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Validates and runs a declarative [`ExperimentSpec`] against the
    /// built-in scheme registry, returning the canonical report
    /// labelled with the experiment's name.
    ///
    /// `mocc` schemes need a policy engine this crate does not have:
    /// they come back as [`SpecError::NeedsPolicyEngine`] — run those
    /// specs through `mocc_core::run_experiment` (or the `mocc` CLI),
    /// which builds the batched evaluator and calls
    /// [`SweepRunner::run_in`].
    pub fn run(&self, exp: &ExperimentSpec) -> Result<SweepReport, SpecError> {
        self.run_in(exp, &SchemeRegistry::builtin(), None, None)
            .map(|(report, _)| report)
    }

    /// **The one spec entry point**: validates `exp` against
    /// `registry`, lowers and expands it, and evaluates every cell.
    ///
    /// - Registry labels — sweep schemes, contenders, the friendliness
    ///   control — instantiate through `registry`.
    /// - `policy` serves the `mocc` flows: the evaluator, and a
    ///   function returning the [`PolicyIdentity`] its cells are keyed
    ///   by. Only a cached run calls it (digesting a whole model costs
    ///   milliseconds an uncached run has no use for). A spec with
    ///   `mocc` labels and no policy is
    ///   [`SpecError::NeedsPolicyEngine`]; a spec without them ignores
    ///   the policy.
    /// - `cache` (`store`, ledger timestamp — the library never reads a
    ///   clock) serves every verified hit, simulates only the misses
    ///   and writes them back. The report is byte-identical to an
    ///   uncached run: hits are canonical blobs of exactly the reports
    ///   a cold run computes, assembled by the same index-sorted
    ///   [`SweepReport::new`]. Cache keys do not name the registry, so
    ///   registries binding one label to different controllers must
    ///   use separate stores. Uncached runs report zero hits and
    ///   misses.
    pub fn run_in(
        &self,
        exp: &ExperimentSpec,
        registry: &SchemeRegistry,
        policy: Option<(&dyn PolicyEvaluator, &dyn Fn() -> PolicyIdentity)>,
        cache: Option<(&ResultStore, u64)>,
    ) -> Result<(SweepReport, CacheStats), SpecError> {
        exp.validate_in(registry)?;
        let policy = policy.filter(|_| exp.needs_policy());
        if exp.needs_policy() && policy.is_none() {
            let label = exp
                .scheme_labels()
                .into_iter()
                .find(|l| SchemeSpec::parse(l).is_ok_and(|s| s.is_mocc()))
                .expect("needs_policy implies a mocc label");
            return Err(SpecError::NeedsPolicyEngine { label });
        }
        let fallback = RegistryEvaluator {
            registry,
            scheme: match &exp.workload {
                Workload::Sweep(w) => Some(w.scheme.label()),
                Workload::Competition(_) => None,
            },
        };
        let ev: &dyn PolicyEvaluator = match policy {
            Some((ev, _)) => ev,
            None => &fallback,
        };
        let identity = policy.zip(cache).map(|((_, identity), _)| identity());
        let (reports, stats) = match &exp.workload {
            Workload::Sweep(w) => {
                let spec = exp.to_sweep_spec().expect("sweep workload lowers");
                let key =
                    |c: &SweepCell| sweep_cell_key(c, w.scheme.label(), &spec, identity.as_ref());
                self.execute(
                    &spec.expand(),
                    CellEvaluator::batch_size(ev),
                    &|chunk| CellEvaluator::eval_batch(ev, chunk),
                    cache.map(|(store, ts)| (store, ts, &key as &dyn Fn(&SweepCell) -> String)),
                )
            }
            Workload::Competition(_) => {
                let spec = exp
                    .to_competition_spec()
                    .expect("competition workload lowers");
                let key = |c: &CompetitionCell| competition_cell_key(c, &spec, identity.as_ref());
                self.execute(
                    &spec.expand(),
                    CompetitionEvaluator::batch_size(ev),
                    &|chunk| CompetitionEvaluator::eval_batch(ev, chunk),
                    cache.map(|(store, ts)| {
                        (store, ts, &key as &dyn Fn(&CompetitionCell) -> String)
                    }),
                )
            }
        };
        Ok((
            SweepReport::new(&exp.name, exp.seed, exp.duration_s, reports),
            stats,
        ))
    }

    /// Programmatic escape hatch: runs every cell of a [`SweepSpec`]
    /// through a (possibly batched) [`CellEvaluator`], handing each
    /// worker contiguous chunks of [`CellEvaluator::batch_size`] cells
    /// so batched evaluators can amortize inference across a chunk.
    /// Results are slotted back by cell index: the report is
    /// byte-identical for any worker count and any batch size.
    pub fn run_cells(
        &self,
        spec: &SweepSpec,
        controller: &str,
        evaluator: &dyn CellEvaluator,
    ) -> SweepReport {
        let (reports, _) = self.execute(
            &spec.expand(),
            evaluator.batch_size(),
            &|chunk| evaluator.eval_batch(chunk),
            None,
        );
        SweepReport::new(controller, spec.seed, spec.duration_s, reports)
    }

    /// Programmatic escape hatch: runs every cell of a
    /// [`CompetitionSpec`] through a (possibly batched)
    /// [`CompetitionEvaluator`] — the hook that lets learned policies
    /// serve *competing* flows from batched forward passes. The report
    /// is byte-identical for any worker count and any batch size.
    pub fn run_competition_cells(
        &self,
        spec: &CompetitionSpec,
        controller: &str,
        evaluator: &dyn CompetitionEvaluator,
    ) -> SweepReport {
        let (reports, _) = self.execute(
            &spec.expand(),
            evaluator.batch_size(),
            &|chunk| evaluator.eval_batch(chunk),
            None,
        );
        SweepReport::new(controller, spec.seed, spec.duration_s, reports)
    }

    /// The one executor behind every run, for both cell kinds:
    /// evaluates `cells` in chunks of `batch` over the worker pool and
    /// returns their reports in cell order. With a `memo` it first
    /// serves every verified hit, simulates only the misses and writes
    /// their blobs back — best-effort: a full disk degrades the cache,
    /// never the run. Without one it computes no key and clones no
    /// cell.
    fn execute<C: Cell>(
        &self,
        cells: &[C],
        batch: usize,
        eval: &(dyn Fn(&[C]) -> Vec<CellReport> + Sync),
        memo: Option<Memo<'_, C>>,
    ) -> (Vec<CellReport>, CacheStats) {
        let Some((store, ts, key)) = memo else {
            let reports = run_chunked(cells, self.threads, batch, eval);
            return (reports, CacheStats::default());
        };
        let keys: Vec<String> = cells.iter().map(key).collect();
        let mut out: Vec<Option<CellReport>> = cells
            .iter()
            .zip(&keys)
            .map(|(cell, key)| verified_hit(store, key, ts, cell.index()))
            .collect();
        let missing: Vec<usize> = (0..cells.len()).filter(|&i| out[i].is_none()).collect();
        let miss_cells: Vec<C> = missing.iter().map(|&i| cells[i].clone()).collect();
        let computed = run_chunked(&miss_cells, self.threads, batch, eval);
        for (&slot, report) in missing.iter().zip(computed) {
            let blob = serde_json::to_string(&report).expect("report serializes");
            let _ = store.put(&keys[slot], &blob, ts);
            out[slot] = Some(report);
        }
        let stats = CacheStats {
            hits: (cells.len() - missing.len()) as u64,
            misses: missing.len() as u64,
        };
        let reports = out
            .into_iter()
            .map(|r| r.expect("every cell resolved"))
            .collect();
        (reports, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::competition::{contender_by_name, ContenderMix};
    use crate::experiment::PolicySpec;
    use crate::spec::{FlowLoad, TraceShape};
    use mocc_netsim::cc::Aimd;

    fn small_spec() -> SweepSpec {
        SweepSpec {
            bandwidth_mbps: vec![4.0, 8.0],
            owd_ms: vec![10, 30],
            queue_pkts: vec![100],
            loss: vec![0.0, 0.01],
            shapes: vec![TraceShape::Constant],
            loads: vec![FlowLoad::Steady(1)],
            duration_s: 5,
            ..SweepSpec::single_cell()
        }
    }

    fn aimd_registry() -> SchemeRegistry {
        SchemeRegistry::builtin().with_scheme("aimd", "test AIMD", |_| Box::new(Aimd::new()))
    }

    /// `spec` under AIMD on every flow, through the spec entry point.
    fn run_aimd(threads: usize, spec: &SweepSpec) -> SweepReport {
        let exp = ExperimentSpec::from_sweep("aimd", SchemeSpec::parse("aimd").unwrap(), spec);
        let (report, stats) = SweepRunner::with_threads(threads)
            .run_in(&exp, &aimd_registry(), None, None)
            .unwrap();
        assert_eq!(stats, CacheStats::default(), "uncached runs count nothing");
        report
    }

    /// AIMD on every flow, `batch` cells per chunk — a hand-wired
    /// evaluator independent of the registry path.
    struct Aimds {
        batch: usize,
    }

    impl CellEvaluator for Aimds {
        fn batch_size(&self) -> usize {
            self.batch
        }
        fn eval_batch(&self, cells: &[SweepCell]) -> Vec<CellReport> {
            cells
                .iter()
                .map(|c| {
                    let ccs = c
                        .scenario
                        .flows
                        .iter()
                        .map(|_| Box::new(Aimd::new()) as Box<dyn CongestionControl>)
                        .collect();
                    CellReport::from_sim(c, &Simulator::new(c.scenario.clone(), ccs).run())
                })
                .collect()
        }
    }

    #[test]
    fn parallel_report_is_byte_identical_to_serial() {
        let spec = small_spec();
        let serial = run_aimd(1, &spec);
        let parallel = run_aimd(4, &spec);
        assert_eq!(serial.to_canonical_json(), parallel.to_canonical_json());
    }

    #[test]
    fn runner_covers_every_cell_in_order() {
        let spec = small_spec();
        let rep = run_aimd(3, &spec);
        assert_eq!(rep.cells.len(), spec.cell_count());
        for (i, c) in rep.cells.iter().enumerate() {
            assert_eq!(c.index, i as u64);
            assert!(c.goodput_mbps > 0.0, "cell {i} produced no goodput");
        }
        assert_eq!(rep.summary.cells, spec.cell_count() as u64);
    }

    #[test]
    fn builtin_registry_runs_cubic() {
        let mut spec = small_spec();
        spec.bandwidth_mbps = vec![8.0];
        spec.owd_ms = vec![10];
        spec.loss = vec![0.0];
        let exp = ExperimentSpec::from_sweep("cubic", SchemeSpec::parse("cubic").unwrap(), &spec);
        let rep = SweepRunner::with_threads(2).run(&exp).unwrap();
        assert_eq!(rep.controller, "cubic");
        assert!(rep.cells[0].utilization > 0.5, "{:?}", rep.cells[0]);
    }

    /// An all-loss cell — configured loss rate 1.0, so every flow acks
    /// zero bytes in every window — must reduce to finite metrics and
    /// NaN-free canonical JSON: Jain degenerates to 1.0 (an all-zero
    /// share vector is trivially "fair"), friendliness/convergence
    /// stay `None`, and the bytes are deterministic across thread
    /// counts like any other cell.
    #[test]
    fn all_loss_cell_reduces_without_nan() {
        let mut spec = small_spec();
        spec.bandwidth_mbps = vec![4.0];
        spec.owd_ms = vec![10];
        spec.loss = vec![1.0];
        let rep = SweepRunner::with_threads(1).run_cells(&spec, "aimd", &Aimds { batch: 1 });
        assert_eq!(rep.cells.len(), 1);
        let c = &rep.cells[0];
        assert_eq!(c.goodput_mbps, 0.0, "nothing can be delivered");
        assert_eq!(c.loss_rate, 1.0);
        assert_eq!(c.jain, 1.0);
        assert_eq!(c.friendliness, None);
        assert_eq!(c.convergence_s, None);
        for (name, v) in [
            ("goodput_mbps", c.goodput_mbps),
            ("mean_rtt_ms", c.mean_rtt_ms),
            ("p95_rtt_ms", c.p95_rtt_ms),
            ("loss_rate", c.loss_rate),
            ("utilization", c.utilization),
            ("latency_ratio", c.latency_ratio),
            ("jain", c.jain),
            ("utility", c.utility),
        ] {
            assert!(v.is_finite(), "{name} = {v}");
        }
        let json = rep.to_canonical_json();
        assert!(!json.to_ascii_lowercase().contains("nan"), "{json}");
        let again = SweepRunner::with_threads(2).run_cells(&spec, "aimd", &Aimds { batch: 1 });
        assert_eq!(json, again.to_canonical_json());
    }

    #[test]
    fn thread_resolution() {
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
        assert!(SweepRunner::auto().threads() >= 1);
    }

    #[test]
    fn thread_env_parsing_is_strict() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("3")), Ok(Some(3)));
        for bad in ["0", "-1", "four", "4.5", ""] {
            let err = parse_threads(Some(bad)).unwrap_err();
            assert!(err.contains(THREADS_ENV), "{err}");
            assert!(err.contains("positive integer"), "{err}");
        }
    }

    /// Competition sweeps inherit the byte-identity contract: serial
    /// and 4-way parallel runs of a churning contender matrix produce
    /// identical canonical JSON, and the mix label rides the report's
    /// `mix` column.
    #[test]
    fn competition_parallel_matches_serial_byte_for_byte() {
        let mut spec = CompetitionSpec::quick();
        spec.mixes = vec![
            ContenderMix::duel("cubic", "vegas"),
            ContenderMix::staircase("bbr", 2, 2.0),
        ];
        spec.duration_s = 8;
        let exp = ExperimentSpec::from_competition("mix", &spec);
        let serial = SweepRunner::with_threads(1).run(&exp).unwrap();
        let quad = SweepRunner::with_threads(4).run(&exp).unwrap();
        assert_eq!(serial.to_canonical_json(), quad.to_canonical_json());
        assert_eq!(serial.cells.len(), 2);
        assert_eq!(serial.cells[0].load, "flows:2");
        assert_eq!(serial.cells[0].mix.as_deref(), Some("duel:cubic+vegas"));
        assert_eq!(serial.cells[1].load, "flows:2");
        assert_eq!(serial.cells[1].mix.as_deref(), Some("stair:bbr:2x2"));
    }

    /// Built-in baselines through `mocc_cc::by_name`, wired by hand —
    /// the competition side builds its friendliness control from
    /// `contender_by_name`, as a policy evaluator does.
    struct ByName;

    impl CellEvaluator for ByName {
        fn eval_batch(&self, _: &[SweepCell]) -> Vec<CellReport> {
            unreachable!("competition-only evaluator")
        }
    }

    impl CompetitionEvaluator for ByName {
        fn batch_size(&self) -> usize {
            2
        }
        fn eval_batch(&self, cells: &[CompetitionCell]) -> Vec<CellReport> {
            let make = |label: &str| contender_by_name(label).expect("built-in label");
            cells
                .iter()
                .map(|c| {
                    let ccs = c.labels.iter().map(|l| make(l)).collect();
                    let res = Simulator::new(c.scenario.clone(), ccs).run();
                    competition_report(c, &res, &make)
                })
                .collect()
        }
    }

    /// The spec entry point is behavior-preserving: a declarative
    /// sweep produces a report byte-identical to a hand-wired chunked
    /// evaluator, and a competition matches one that builds its
    /// friendliness control from `contender_by_name` instead of the
    /// registry.
    #[test]
    fn spec_entry_point_matches_hand_wired_evaluators() {
        let spec = small_spec();
        let exp = ExperimentSpec::from_sweep("aimd", SchemeSpec::parse("aimd").unwrap(), &spec);
        let (unified, _) = SweepRunner::with_threads(2)
            .run_in(&exp, &aimd_registry(), None, None)
            .unwrap();
        let by_hand = SweepRunner::with_threads(3).run_cells(&spec, "aimd", &Aimds { batch: 4 });
        assert_eq!(unified.to_canonical_json(), by_hand.to_canonical_json());

        let mut cspec = CompetitionSpec::quick();
        cspec.mixes = vec![
            ContenderMix::duel("cubic", "vegas"),
            ContenderMix::duel("cubic", "cubic"),
        ];
        cspec.duration_s = 8;
        let cexp = ExperimentSpec::from_competition("mix", &cspec);
        let unified = SweepRunner::with_threads(2).run(&cexp).unwrap();
        let by_hand = SweepRunner::with_threads(2).run_competition_cells(&cspec, "mix", &ByName);
        assert_eq!(unified.to_canonical_json(), by_hand.to_canonical_json());
    }

    /// `mocc` schemes cannot run without a policy engine: the unified
    /// entry point reports it as a typed error, not a panic.
    #[test]
    fn mocc_experiments_need_the_policy_engine() {
        let mut exp = ExperimentSpec::from_sweep(
            "mocc-thr",
            SchemeSpec::parse("mocc:thr").unwrap(),
            &small_spec(),
        );
        exp.policy = Some(PolicySpec::default());
        match SweepRunner::with_threads(1).run(&exp) {
            Err(SpecError::NeedsPolicyEngine { label }) => assert_eq!(label, "mocc:thr"),
            other => panic!("expected NeedsPolicyEngine, got {other:?}"),
        }
        // And without a policy section it fails validation first.
        exp.policy = None;
        assert!(matches!(
            SweepRunner::with_threads(1).run(&exp),
            Err(SpecError::InvalidSpec { .. })
        ));
    }

    /// Custom registry schemes drive spec-file experiments through
    /// `run_in`: a plugged-in constructor serves sweep flows,
    /// competition contenders and the friendliness control.
    #[test]
    fn custom_registry_schemes_run_experiments() {
        let exp =
            ExperimentSpec::from_sweep("aimd", SchemeSpec::parse("aimd").unwrap(), &small_spec());
        let (via_registry, _) = SweepRunner::with_threads(2)
            .run_in(&exp, &aimd_registry(), None, None)
            .unwrap();
        let via_evaluator =
            SweepRunner::with_threads(2).run_cells(&small_spec(), "aimd", &Aimds { batch: 1 });
        assert_eq!(
            via_registry.to_canonical_json(),
            via_evaluator.to_canonical_json()
        );
        // The builtin registry rejects the same spec up front.
        assert!(SweepRunner::with_threads(1).run(&exp).is_err());

        let mut cspec = CompetitionSpec::quick();
        cspec.mixes = vec![ContenderMix::duel("aimd", "cubic")];
        cspec.tcp_baseline = "aimd".to_string();
        cspec.duration_s = 8;
        let cexp = ExperimentSpec::from_competition("aimd-duel", &cspec);
        let (duel, _) = SweepRunner::with_threads(1)
            .run_in(&cexp, &aimd_registry(), None, None)
            .unwrap();
        let f = duel.cells[0].friendliness.expect("the AIMD control ran");
        assert!(f.is_finite() && f > 0.0, "{:?}", duel.cells[0]);
        assert!(SweepRunner::with_threads(1).run(&cexp).is_err());
    }

    /// A batched evaluator (chunks of 4) must produce a report
    /// byte-identical to the registry path's chunks of one — chunking
    /// is pure scheduling.
    #[test]
    fn chunked_evaluator_matches_registry_byte_for_byte() {
        let spec = small_spec();
        let via_registry = run_aimd(2, &spec);
        let via_chunks = SweepRunner::with_threads(3).run_cells(&spec, "aimd", &Aimds { batch: 4 });
        assert_eq!(
            via_registry.to_canonical_json(),
            via_chunks.to_canonical_json()
        );
    }

    /// No items, no worker and no evaluator call: an all-hit cached
    /// run has nothing to simulate.
    #[test]
    fn empty_input_never_reaches_the_evaluator() {
        let out: Vec<u8> = run_chunked(&[] as &[u8], 4, 8, &|_| panic!("called on empty input"));
        assert!(out.is_empty());
    }

    /// A stand-in policy: AIMD on every flow, counting the chunks it
    /// is handed and refusing an empty one.
    struct CountingPolicy {
        calls: AtomicUsize,
    }

    impl CellEvaluator for CountingPolicy {
        fn batch_size(&self) -> usize {
            4
        }
        fn eval_batch(&self, cells: &[SweepCell]) -> Vec<CellReport> {
            assert!(!cells.is_empty(), "evaluator handed an empty batch");
            self.calls.fetch_add(1, Ordering::Relaxed);
            Aimds { batch: 4 }.eval_batch(cells)
        }
    }

    impl CompetitionEvaluator for CountingPolicy {
        fn eval_batch(&self, _: &[CompetitionCell]) -> Vec<CellReport> {
            unreachable!("sweep-only evaluator")
        }
    }

    /// The cached policy path: a cold run simulates every cell and
    /// digests the policy once; a warm run serves every cell from the
    /// store, byte-identical, without one evaluator call; an uncached
    /// run never asks for the policy identity.
    #[test]
    fn cached_policy_runs_simulate_only_misses() {
        let mut exp = ExperimentSpec::from_sweep(
            "mocc-thr",
            SchemeSpec::parse("mocc:thr").unwrap(),
            &small_spec(),
        );
        exp.policy = Some(PolicySpec::default());
        let cells = exp.cell_count();
        let identity = || PolicyIdentity {
            digest: "d".repeat(64),
            preference: "bal".to_string(),
            initial_rate_frac: 0.3,
            fast_math: false,
        };
        let policy = CountingPolicy {
            calls: AtomicUsize::new(0),
        };
        let runner = SweepRunner::with_threads(2);
        let reg = SchemeRegistry::builtin();
        let never = || -> PolicyIdentity { panic!("an uncached run digested the policy") };
        let (uncached, _) = runner
            .run_in(&exp, &reg, Some((&policy, &never)), None)
            .unwrap();

        let dir =
            std::env::temp_dir().join(format!("mocc-runner-test-cached-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        policy.calls.store(0, Ordering::Relaxed);
        let (cold, s1) = runner
            .run_in(&exp, &reg, Some((&policy, &identity)), Some((&store, 1)))
            .unwrap();
        assert_eq!((s1.hits, s1.misses), (0, cells as u64));
        assert_eq!(policy.calls.load(Ordering::Relaxed), cells.div_ceil(4));
        assert_eq!(cold.to_canonical_json(), uncached.to_canonical_json());

        policy.calls.store(0, Ordering::Relaxed);
        let (warm, s2) = runner
            .run_in(&exp, &reg, Some((&policy, &identity)), Some((&store, 2)))
            .unwrap();
        assert!(s2.all_hits(), "{s2:?}");
        assert_eq!(policy.calls.load(Ordering::Relaxed), 0);
        assert_eq!(warm.to_canonical_json(), uncached.to_canonical_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
