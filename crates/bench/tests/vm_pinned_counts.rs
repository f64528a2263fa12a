//! Pinned interpreter counts for the Figure 8 programs.
//!
//! Each program runs once, on a fresh VM, at a fixed `n` under the
//! `Cloning` and `Dynamic` barrier modes. The result and the `VmStats`
//! counts the `vm.*` per-layer benchmark metrics are built from must
//! equal the figures below, which were recorded on the recursive
//! interpreter this frame-stack one replaced. A change to how the
//! interpreter dispatches may change how fast it runs, never what it
//! counts: instructions executed, barriers run, dynamic dispatches,
//! compile cost and barriers eliminated.

use laminar_vm::{BarrierMode, Value, Vm};

/// `(program, n, mode, main(n), [instructions, total barriers,
/// dynamic dispatches, compile cost, barriers eliminated])`.
const PINS: [(&str, i64, BarrierMode, i64, [u64; 5]); 12] = [
    ("list_sort", 84, BarrierMode::Cloning, 161_379, [48_218, 2_142, 0, 262, 5]),
    ("list_sort", 84, BarrierMode::Dynamic, 161_379, [48_218, 2_142, 2_143, 422, 5]),
    ("hash_churn", 40, BarrierMode::Cloning, 780, [430_332, 32_968, 0, 293, 2]),
    ("hash_churn", 40, BarrierMode::Dynamic, 780, [430_332, 32_968, 32_970, 493, 2]),
    ("object_graph", 7, BarrierMode::Cloning, 1_500, [29_114, 1_275, 0, 144, 4]),
    ("object_graph", 7, BarrierMode::Dynamic, 1_500, [29_114, 1_275, 1_530, 284, 4]),
    ("matrix_mult", 11, BarrierMode::Cloning, 276_942, [43_513, 3_036, 0, 239, 0]),
    ("matrix_mult", 11, BarrierMode::Dynamic, 276_942, [43_513, 3_036, 3_039, 459, 0]),
    ("vec_grow", 1050, BarrierMode::Cloning, 1_412, [57_057, 5_131, 0, 165, 2]),
    ("vec_grow", 1050, BarrierMode::Dynamic, 1_412, [57_057, 5_131, 5_140, 325, 2]),
    ("pseudojbb", 300, BarrierMode::Cloning, 116_668, [28_633, 3_860, 0, 490, 11]),
    ("pseudojbb", 300, BarrierMode::Dynamic, 116_668, [28_633, 3_860, 4_163, 1_010, 11]),
];

#[test]
fn figure8_counts_match_the_recorded_values() {
    let programs = laminar_bench::workloads::all();
    for &(name, n, mode, result, want) in &PINS {
        let (_, program, _) = programs
            .iter()
            .find(|(p, _, _)| *p == name)
            .unwrap_or_else(|| panic!("no Figure 8 program named {name}"));
        let mut vm = Vm::new(program.clone(), vec![], mode);
        let got = vm.call_by_name("main", &[Value::Int(n)]);
        assert_eq!(got, Ok(Some(Value::Int(result))), "{name}({n}) under {mode:?}");
        let s = vm.stats();
        let counts = [
            s.instructions,
            s.total_barriers(),
            s.dynamic_dispatches,
            s.compile_cost,
            s.barriers_eliminated,
        ];
        assert_eq!(
            counts, want,
            "{name}({n}) under {mode:?}: [instructions, barriers, dynamic dispatches, \
             compile cost, barriers eliminated]"
        );
    }
}

#[test]
fn every_figure8_program_is_pinned_in_both_modes() {
    for (name, _, _) in laminar_bench::workloads::all() {
        for mode in [BarrierMode::Cloning, BarrierMode::Dynamic] {
            assert!(
                PINS.iter().any(|p| p.0 == name && p.2 == mode),
                "{name} under {mode:?} has no pinned counts"
            );
        }
    }
}
