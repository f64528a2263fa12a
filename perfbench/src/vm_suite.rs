//! `vm_suite`: the Figure 8 programs on the MiniVM.
//!
//! The programs of `laminar_bench::workloads::all()` run under
//! `BarrierMode::Cloning` (the §5.1 production design) with redundant
//! barrier elimination on. An op is one `Vm::call_by_name("main", n)` on
//! a program dealt from a seeded shuffled deck; its expected result is
//! the checksum the same call returns under `BarrierMode::None`, computed
//! at set-up. Each worker thread owns its own VMs. Two workers, rather
//! than one, because the two CPUs of a shared host slow down partly
//! independently: on a 2-vCPU share of a 2.1 GHz Xeon, two such workers'
//! 10 s rates were uncorrelated (r = 0.04) and their sum spread less
//! than either alone (quartile spread 0.08 of the median, against 0.10
//! and 0.18). The MiniVM heap is a bump heap
//! that is never collected, so each program's VM is replaced after a
//! fixed number of calls; that upkeep is not part of any op.

use crate::harness::{
    collect, run_one, run_threads, Check, Deck, Limit, LoopStats, Workload,
};
use crate::layers::{self, Counters};
use crate::trace::{stats_by_name, Probe};
use crate::{timed_setups, Config, Outcome};
use laminar_util::SplitMix64;
use laminar_vm::{BarrierMode, Program, Value, Vm, VmResult};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The size `n` of each program, small enough that a run makes thousands
/// of calls. Every call but `hash_churn`'s (whose table set-up alone takes
/// about 3 ms) costs about 0.3 ms on a 2.1 GHz Xeon, so per-call latency
/// has one main cluster and its median cannot jump between clusters from
/// run to run.
const SIZES: [(&str, i64); 6] = [
    ("list_sort", 84),
    ("hash_churn", 40),
    ("object_graph", 7),
    ("matrix_mult", 11),
    ("vec_grow", 1050),
    ("pseudojbb", 300),
];

/// Calls after which a program's VM (and its uncollected heap) is
/// replaced.
const REBUILD_EVERY: u32 = 8;

/// Ops replayed per mode for `vm.barrier_overhead_pct`, and rounds.
const OVERHEAD_OPS: u64 = 300;
const OVERHEAD_ROUNDS: usize = 3;

/// One program of the suite and its call.
#[derive(Debug)]
pub struct Entry {
    name: &'static str,
    program: Program,
    n: i64,
    /// `BarrierMode::None` result of `main(n)`.
    expected: Option<Value>,
}

/// One call: the index of its program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Call {
    /// Index into the suite.
    pub prog: usize,
}

/// The seeded deck over `programs` programs.
#[must_use]
pub fn call_deck(seed: u64, programs: usize) -> Deck {
    Deck::new(SplitMix64::new(seed ^ 0x9FB2_1C65_1E98_DF25), programs)
}

/// Draws the next call.
pub fn gen_op(deck: &mut Deck) -> Call {
    Call { prog: deck.draw() }
}

/// Checks a call's result against the no-barrier checksum.
#[must_use]
pub fn check_call(expected: &Option<Value>, obs: &VmResult<Option<Value>>) -> Check {
    Check::ok_if(matches!(obs, Ok(v) if v == expected))
}

/// VM counters summed over every VM a client used.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    calls: u64,
    instructions: u64,
    barriers: u64,
    dynamic_dispatches: u64,
}

impl Totals {
    fn add(self, o: Totals) -> Totals {
        Totals {
            calls: self.calls + o.calls,
            instructions: self.instructions + o.instructions,
            barriers: self.barriers + o.barriers,
            dynamic_dispatches: self.dynamic_dispatches + o.dynamic_dispatches,
        }
    }
}

/// The deck seed of worker `w`.
fn worker_seed(seed: u64, w: usize) -> u64 {
    seed ^ (w as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// One worker's client: one VM per program, in one barrier mode.
#[derive(Debug)]
pub struct Client {
    deck: Deck,
    mode: BarrierMode,
    suite: Arc<[Entry]>,
    vms: Vec<Vm>,
    calls_since: Vec<u32>,
    totals: Totals,
}

fn new_vm(program: &Program, mode: BarrierMode) -> Vm {
    let mut vm = Vm::new(program.clone(), vec![], mode);
    vm.set_optimize(true);
    vm
}

impl Client {
    fn new(suite: &Arc<[Entry]>, mode: BarrierMode, seed: u64) -> Client {
        Client {
            deck: call_deck(seed, suite.len()),
            mode,
            suite: Arc::clone(suite),
            vms: suite.iter().map(|e| new_vm(&e.program, mode)).collect(),
            calls_since: vec![0; suite.len()],
            totals: Totals::default(),
        }
    }

    fn absorb_stats(&mut self, p: usize) {
        let s = self.vms[p].stats();
        self.totals.instructions += s.instructions;
        self.totals.barriers += s.total_barriers();
        self.totals.dynamic_dispatches += s.dynamic_dispatches;
    }

    /// Counter totals, including those of the VMs still in use.
    fn totals(&mut self) -> Totals {
        for p in 0..self.vms.len() {
            self.absorb_stats(p);
            self.vms[p].reset_stats();
        }
        self.totals
    }
}

impl Workload for Client {
    type Op = Call;
    type Obs = VmResult<Option<Value>>;

    fn next_op(&mut self) -> Call {
        gen_op(&mut self.deck)
    }

    fn kind(_: &Call) -> &'static str {
        "op.vm_call"
    }

    fn exec<P: Probe>(&mut self, op: &Call, p: &mut P) -> Self::Obs {
        let n = self.suite[op.prog].n;
        let vm = &mut self.vms[op.prog];
        self.calls_since[op.prog] += 1;
        self.totals.calls += 1;
        p.call("vm.call", || vm.call_by_name("main", &[Value::Int(n)]))
    }

    fn check(&mut self, op: &Call, obs: &Self::Obs) -> Check {
        check_call(&self.suite[op.prog].expected, obs)
    }

    fn maintain(&mut self) -> Result<Duration, String> {
        let Some(p) = self.calls_since.iter().position(|&c| c >= REBUILD_EVERY) else {
            return Ok(Duration::ZERO);
        };
        let t = Instant::now();
        self.absorb_stats(p);
        self.vms[p] = new_vm(&self.suite[p].program, self.mode);
        self.calls_since[p] = 0;
        Ok(t.elapsed())
    }
}

/// Builds the suite, computes the expected checksums under
/// `BarrierMode::None`, and compiles every program under `Cloning` in
/// each of the `threads` clients (the warm-up). Returns the clients and
/// the compile-time barrier figures of the first client's warm VMs
/// (barriers eliminated, compile cost).
///
/// # Errors
/// A program that fails under either mode, or disagrees between them.
pub fn setup(
    seed: u64,
    threads: usize,
) -> Result<(Vec<Client>, LoopStats, u64, u64), String> {
    let mut suite = Vec::new();
    for (name, program, _) in laminar_bench::workloads::all() {
        let &(_, n) =
            SIZES.iter().find(|s| s.0 == name).ok_or(format!("no size for {name}"))?;
        let expected = new_vm(&program, BarrierMode::None)
            .call_by_name("main", &[Value::Int(n)])
            .map_err(|err| format!("{name}({n}) under no barriers: {err}"))?;
        suite.push(Entry { name, program, n, expected });
    }
    let suite: Arc<[Entry]> = suite.into();
    let mut clients: Vec<Client> = (0..threads.max(1))
        .map(|w| Client::new(&suite, BarrierMode::Cloning, worker_seed(seed, w)))
        .collect();
    let mut warmup = LoopStats::default();
    for client in &mut clients {
        for (e, vm) in suite.iter().zip(&mut client.vms) {
            let got = vm.call_by_name("main", &[Value::Int(e.n)]);
            warmup.attempted += 1;
            if !check_call(&e.expected, &got).ok {
                warmup.fail(format!("{}({}) under Cloning: {got:?}", e.name, e.n));
            }
        }
    }
    let first = clients[0].vms.iter().map(Vm::stats);
    let eliminated = first.clone().map(|s| s.barriers_eliminated).sum();
    let compile_cost = first.map(|s| s.compile_cost).sum();
    for vm in clients.iter_mut().flat_map(|c| &mut c.vms) {
        vm.reset_stats();
    }
    if warmup.failed > 0 {
        return Err(format!("vm_suite warm-up mismatches: {:?}", warmup.failures));
    }
    Ok((clients, warmup, eliminated, compile_cost))
}

/// Replays the first `OVERHEAD_OPS` calls of the stream under `Cloning`
/// and under `None`, alternating, and returns the median time ratio as
/// a percentage overhead, folding the replays' outcomes into `stats`.
fn barrier_overhead_pct(suite: &Arc<[Entry]>, seed: u64, stats: &mut LoopStats) -> f64 {
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..OVERHEAD_ROUNDS {
        for (i, mode) in [BarrierMode::Cloning, BarrierMode::None].into_iter().enumerate()
        {
            let t = Instant::now();
            let ran =
                run_one(Client::new(suite, mode, seed), Limit::ops(OVERHEAD_OPS), None);
            times[i].push(t.elapsed().as_secs_f64());
            stats.absorb(&ran.stats);
        }
    }
    let [cloning, none] = times.map(|t| crate::measure::median(&t));
    (cloning / none - 1.0) * 100.0
}

/// Runs the workload.
///
/// # Errors
/// Set-up failures.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let ((clients, warmup, eliminated, compile_cost), setup_s) =
        timed_setups(cfg.setup_reps, || setup(cfg.seed, cfg.threads))?;
    let suite = Arc::clone(&clients[0].suite);
    let before = Counters::read();
    laminar_obs::reset();
    let limits = vec![Limit::secs(cfg.seconds); clients.len()];
    let mut c = collect(run_threads(clients, &limits, cfg.trace));
    let mut out = Outcome::new(setup_s, &warmup, &c);
    if cfg.trace.is_none() {
        return Ok(out);
    }
    let ops = c.stats.attempted;
    let totals =
        c.workers.iter_mut().map(Client::totals).fold(Totals::default(), Totals::add);
    let v = &mut out.layer;
    layers::obs_metrics(laminar_obs::snapshot, ops, v);
    before.deltas(ops, None, None, v);
    let spans = stats_by_name(&c.tracers.iter().collect::<Vec<_>>());
    let call_ns = spans.get("vm.call").map_or(0.0, |s| s.total_ns);
    let per_call = |x: u64| x as f64 / totals.calls.max(1) as f64;
    v.insert("vm.instructions_per_call".into(), per_call(totals.instructions));
    v.insert("vm.ns_per_instruction".into(), call_ns / totals.instructions.max(1) as f64);
    v.insert("vm.barriers_per_call".into(), per_call(totals.barriers));
    v.insert(
        "vm.dynamic_dispatches_per_call".into(),
        per_call(totals.dynamic_dispatches),
    );
    v.insert("vm.barriers_eliminated".into(), eliminated as f64);
    v.insert("vm.compile_cost".into(), compile_cost as f64);
    let pct = barrier_overhead_pct(&suite, cfg.seed, &mut out.stats);
    out.layer.insert("vm.barrier_overhead_pct".into(), pct);
    out.tracers = std::mem::take(&mut c.tracers);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_call_stream() {
        let cards = SIZES.len();
        let calls = |seed| {
            let mut d = call_deck(seed, cards);
            (0..cards * 20).map(|_| gen_op(&mut d).prog).collect::<Vec<_>>()
        };
        assert_eq!(calls(1), calls(1));
        assert_ne!(calls(1), calls(2));
        assert_ne!(worker_seed(7, 0), worker_seed(7, 1));
        for pass in calls(1).chunks(cards) {
            let mut p = pass.to_vec();
            p.sort_unstable();
            assert_eq!(p, (0..cards).collect::<Vec<_>>());
        }
    }

    #[test]
    fn the_model_flags_a_wrong_checksum() {
        let want = Some(Value::Int(42));
        assert_eq!(check_call(&want, &Ok(Some(Value::Int(42)))), Check::OK);
        assert_eq!(check_call(&want, &Ok(Some(Value::Int(41)))), Check::FAILED);
        assert_eq!(check_call(&want, &Ok(None)), Check::FAILED);
    }
}
