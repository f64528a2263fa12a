//! The host speed probe.
//!
//! The benchmark's host is a share of a machine whose other tenants slow
//! it down by up to 2x, on both CPUs at once, in spells that last from
//! seconds to minutes; such a spell moves every time a run reports,
//! whatever the program does. So each timed loop also samples a probe: a
//! fixed amount of work, written here and sharing no code with the
//! crates under test (see `measure` for when it runs). Every time a run
//! reports is scaled to the reference host speed: multiplied (for a
//! rate) or divided (for a duration) by the probe's slowdown. A change to
//! the program moves the scaled figure; a spell on the host moves the
//! program and the probe alike and cancels out.
//!
//! The probe does the kind of work the workloads spend their time on:
//! bytecode dispatch, and hash map updates with small allocations. It is
//! timed in the thread's CPU time where the platform has it, so that it
//! measures how fast the CPU runs while this process holds it, not time
//! the hypervisor gave the CPU to another guest ("steal", which a short
//! op mostly escapes and the probe would not).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe rounds per second on the reference host (one vCPU of a 2-vCPU
/// share of a 2.1 GHz Xeon, in a quiet spell). Only the ratio to it
/// matters.
pub const REFERENCE_RATE: f64 = 50_000.0;

/// Probe rounds in one sample (about 20 ms at the reference rate).
const ROUNDS: u32 = 1000;

/// How much a workload's times move per unit the probe's time moves, in
/// logarithms. Over 24 runs of the four workloads in a noisy spell of
/// the reference host (probe slowdowns from 0.9 to 1.8), the end-to-end
/// times moved as the probe's time raised to 0.5-0.8 (`tenant_scale`,
/// whose ops are mostly block copies, 0.2-0.4); the scale uses one
/// exponent for all of them.
const SENSITIVITY: f64 = 0.7;

/// Time between two samples of a timed loop.
pub const PERIOD: Duration = Duration::from_millis(500);

#[derive(Clone, Copy)]
enum Op {
    Push(i64),
    Load(usize),
    Store(usize),
    Add,
    Mul,
    Lt,
    JumpIfZero(usize),
    Jump(usize),
    Get,
    Put,
}

/// `for i in 0..n { a[i % m] = a[i % m] * 31 + i }` for the interpreter
/// below; locals are `[i, n, tmp]`.
const LOOP: [Op; 19] = [
    Op::Load(0), // 0: while i < n
    Op::Load(1),
    Op::Lt,
    Op::JumpIfZero(19),
    Op::Load(0), // 4: tmp = a[i] * 31 + i
    Op::Get,
    Op::Push(31),
    Op::Mul,
    Op::Load(0),
    Op::Add,
    Op::Store(2),
    Op::Load(0), // 11: a[i] = tmp
    Op::Load(2),
    Op::Put,
    Op::Load(0), // 14: i += 1
    Op::Push(1),
    Op::Add,
    Op::Store(0),
    Op::Jump(0),
];

fn interpret(code: &[Op], n: i64, a: &mut [i64]) -> i64 {
    let mut stack: Vec<i64> = Vec::with_capacity(8);
    let mut locals = [0, n, 0];
    let mut pc = 0;
    let m = a.len();
    while pc < code.len() {
        match code[pc] {
            Op::Push(v) => stack.push(v),
            Op::Load(l) => stack.push(locals[l]),
            Op::Store(l) => locals[l] = stack.pop().unwrap_or(0),
            Op::Add | Op::Mul | Op::Lt => {
                let b = stack.pop().unwrap_or(0);
                let x = stack.pop().unwrap_or(0);
                stack.push(match code[pc] {
                    Op::Add => x.wrapping_add(b),
                    Op::Mul => x.wrapping_mul(b),
                    _ => i64::from(x < b),
                });
            }
            Op::JumpIfZero(t) => {
                if stack.pop().unwrap_or(0) == 0 {
                    pc = t;
                    continue;
                }
            }
            Op::Jump(t) => {
                pc = t;
                continue;
            }
            Op::Get => {
                let i = stack.pop().unwrap_or(0).unsigned_abs() as usize % m;
                stack.push(a[i]);
            }
            Op::Put => {
                let v = stack.pop().unwrap_or(0);
                let i = stack.pop().unwrap_or(0).unsigned_abs() as usize % m;
                a[i] = v;
            }
        }
        pc += 1;
    }
    a.iter().fold(0, |s, &x| s ^ x)
}

/// CPU time the calling thread has run, in seconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_secs() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec; on 64-bit Linux both
    // fields are 64-bit, matching the C layout.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_secs() -> Option<f64> {
    None
}

/// The probe's state, allocated once per loop.
pub struct Probe {
    a: Vec<i64>,
    map: HashMap<u64, Vec<u8>>,
    round: u64,
}

impl Default for Probe {
    fn default() -> Self {
        Probe { a: (0..64).collect(), map: HashMap::with_capacity(512), round: 0 }
    }
}

impl Probe {
    /// Runs one sample and returns the host's slowdown against the
    /// reference speed, as it bears on the workloads: above 1 when the
    /// host runs slower.
    pub fn sample(&mut self) -> f64 {
        let cpu = thread_cpu_secs();
        let t = Instant::now();
        for _ in 0..ROUNDS {
            self.round += 1;
            let mut sum = interpret(&LOOP, 400, &mut self.a);
            for k in 0..64u64 {
                let key = (self.round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k) % 512;
                let v = self.map.entry(key).or_default();
                v.push(k as u8);
                if v.len() > 16 {
                    self.map.remove(&key);
                }
            }
            sum ^= self.map.len() as i64;
            black_box(sum);
        }
        let wall = t.elapsed().as_secs_f64();
        let secs = match (cpu, thread_cpu_secs()) {
            (Some(a), Some(b)) if b > a => b - a,
            _ => wall,
        };
        let rate = f64::from(ROUNDS) / secs.max(1e-9);
        (REFERENCE_RATE / rate).powf(SENSITIVITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_interpreter_runs_the_loop() {
        let mut a = vec![0i64; 4];
        interpret(&LOOP, 8, &mut a);
        // a[i % 4] = a[i % 4] * 31 + i for i in 0..8.
        assert_eq!(a, vec![4, 31 + 5, 2 * 31 + 6, 3 * 31 + 7]);
    }

    #[test]
    fn a_sample_is_positive() {
        let s = Probe::default().sample();
        assert!(s.is_finite() && s > 0.0);
    }
}
