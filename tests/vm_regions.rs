//! MiniVM integration tests: the paper's figures as bytecode programs,
//! the static-barrier failure mode, lazy label sync over the real
//! kernel bridge, statics restrictions and `copyAndLabel`.

use laminar::Laminar;
use laminar_difc::{
    CapKind, CapSet, Capability, Label, RegionDebt, RegionStack, SecPair, Tag,
};
use laminar_os::{OpenMode, TaskHandle, UserId};
use laminar_vm::{BarrierMode, ClassId, OsBridge, ProgramBuilder, Value, Vm, VmError};
use std::sync::{Arc, Mutex};

fn fresh_tag(n: u64) -> Tag {
    Tag::from_raw(n)
}

/// Figure 4: read a labeled calendar object in a `{S(a,b), I()}` region,
/// compute, then declassify inside a nested `{S(b)}` region using `a-`.
#[test]
fn figure4_calendar_flow() {
    let mut pb = ProgramBuilder::new();
    let cell = pb.add_class("Cell", 1);
    let _ = cell;

    // Inner region {S(b)} with C(a-): ret.val = copyAndLabel(s2, S(b)).
    let pair_b = pb.add_pair_spec(&[1], &[]);
    let inner = pb.region("declassify", 2, 3, |b| {
        // params: 0 = s2 (labeled {S(a,b)}), 1 = ret (labeled {S(b)})
        b.load(1); // ret
        b.load(0).copy_and_label(pair_b); // copy of s2 at {S(b)}
        b.get_field(0); // read the copy's field (labels {S(b)} ⊆ thread ✓)
        b.put_field(0); // ret.val = ...
        b.ret();
    });
    let inner_spec = pb.add_region_spec(pair_b, &[(0, CapKind::Minus)], None);

    // Outer region {S(a,b)} with C(a-).
    let pair_ab = pb.add_pair_spec(&[0, 1], &[]);
    let outer = pb.region("schedule", 2, 3, |b| {
        // params: 0 = cal {S(a,b)}, 1 = ret {S(b)}
        // s2 = new Cell (labels of region = {S(a,b)}); s2.val = cal.val * 2
        b.new_object(ClassId(0)).store(2);
        b.load(2);
        b.load(0).get_field(0).push_int(2).mul();
        b.put_field(0);
        b.load(2).load(1).call_secure(inner, inner_spec);
        b.ret();
    });
    let outer_spec = pb.add_region_spec(pair_ab, &[(0, CapKind::Minus)], None);

    pb.func("main", 2, false, 2, |b| {
        b.load(0).load(1).call_secure(outer, outer_spec).ret();
    });
    let program = pb.finish().unwrap();

    let (a, b) = (fresh_tag(1001), fresh_tag(1002));
    let mut vm = Vm::new(program, vec![a, b], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(a));
    caps.grant(Capability::plus(b));
    caps.grant(Capability::minus(a));
    vm.set_thread_caps(caps);

    let lab_ab = SecPair::secrecy_only(Label::from_tags([a, b]));
    let lab_b = SecPair::secrecy_only(Label::singleton(b));
    let cal = vm.host_alloc_object(ClassId(0), Some(lab_ab)).unwrap();
    vm.host_put_field(cal, 0, Value::Int(21)).unwrap();
    let ret = vm.host_alloc_object(ClassId(0), Some(lab_b.clone())).unwrap();

    vm.call_by_name("main", &[Value::Ref(cal), Value::Ref(ret)]).unwrap();
    assert_eq!(vm.host_get_field(ret, 0).unwrap(), Value::Int(42));
    assert!(vm.stats().copy_and_label == 1);
    assert_eq!(vm.stats().regions_entered, 2);
}

/// Figure 5 with the catch block: the invariant `y == 2x` is restored by
/// the catch after the implicit-flow exception.
#[test]
fn figure5_catch_restores_invariants() {
    // The paper's x, y live in the enclosing scope; our regions are
    // methods, so they live in a {S(h)}-labeled State{x, y} object the
    // region (and its catch) may freely update.
    let mut pb = ProgramBuilder::new();
    let _cell = pb.add_class("Cell", 1); // class 0: H and L holders
    let _state = pb.add_class("State", 2); // class 1: {x, y}

    // catch(H, L, state): y = 2 * x
    let catch = pb.region("catch", 3, 3, |b| {
        b.load(2);
        b.load(2).get_field(0).push_int(2).mul();
        b.put_field(1);
        b.ret();
    });
    // body(H, L, state): x++; if (H) L = true; y = 2*x
    let body = pb.region("body", 3, 3, |b| {
        b.load(2);
        b.load(2).get_field(0).push_int(1).add();
        b.put_field(0);
        b.load(0).get_field(0); // H.val (readable: region has S(h))
        let skip = b.new_label();
        b.jump_if_false(skip);
        b.load(1).push_bool(true).put_field(0); // L.val = true → violation
        b.bind(skip);
        b.load(2);
        b.load(2).get_field(0).push_int(2).mul();
        b.put_field(1);
        b.ret();
    });
    let pair_h = pb.add_pair_spec(&[0], &[]);
    let spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], Some(catch));
    pb.func("main", 3, false, 3, |b| {
        b.load(0).load(1).load(2).call_secure(body, spec).ret();
    });
    let program = pb.finish().unwrap();

    for h_value in [false, true] {
        let h = fresh_tag(7);
        let mut vm = Vm::new(program.clone(), vec![h], BarrierMode::Dynamic);
        let mut caps = CapSet::new();
        caps.grant(Capability::plus(h));
        vm.set_thread_caps(caps);
        let lab = SecPair::secrecy_only(Label::singleton(h));
        let h_obj = vm.host_alloc_object(ClassId(0), Some(lab.clone())).unwrap();
        vm.host_put_field(h_obj, 0, Value::Bool(h_value)).unwrap();
        let l_obj = vm.host_alloc_object(ClassId(0), None).unwrap();
        vm.host_put_field(l_obj, 0, Value::Bool(false)).unwrap();
        let state = vm.host_alloc_object(ClassId(1), Some(lab)).unwrap();
        vm.host_put_field(state, 0, Value::Int(10)).unwrap();
        vm.host_put_field(state, 1, Value::Int(20)).unwrap();

        vm.call_by_name(
            "main",
            &[Value::Ref(h_obj), Value::Ref(l_obj), Value::Ref(state)],
        )
        .unwrap();
        // Invariant y == 2x restored on both paths (via body or catch).
        let x = vm.host_get_field(state, 0).unwrap();
        let y = vm.host_get_field(state, 1).unwrap();
        assert_eq!(x, Value::Int(11), "H={h_value}");
        assert_eq!(y, Value::Int(22), "H={h_value}");
        // L never written.
        assert_eq!(vm.host_get_field(l_obj, 0).unwrap(), Value::Bool(false));
        // Exception suppressed exactly when H was true.
        assert_eq!(vm.stats().exceptions_suppressed > 0, h_value);
    }
}

/// Figure 7: reading two differently-labeled student records in a
/// `{S(s1,s2)}` region, then declassifying the sum with `s1-, s2-`.
#[test]
fn figure7_two_students() {
    let mut pb = ProgramBuilder::new();
    let _rec = pb.add_class("Rec", 1);

    let pair_empty = pb.add_pair_spec(&[], &[]);
    let inner = pb.region("declass", 2, 2, |b| {
        // params: 0 = obj {S(s1,s2)}, 1 = ret (unlabeled)
        b.load(1);
        b.load(0).copy_and_label(pair_empty);
        b.get_field(0);
        b.put_field(0);
        b.ret();
    });
    let inner_spec =
        pb.add_region_spec(pair_empty, &[(0, CapKind::Minus), (1, CapKind::Minus)], None);

    let pair_s12 = pb.add_pair_spec(&[0, 1], &[]);
    let outer = pb.region("sum", 3, 4, |b| {
        // params: 0 = student1, 1 = student2, 2 = ret
        b.new_object(ClassId(0)).store(3);
        b.load(3);
        b.load(0).get_field(0);
        b.load(1).get_field(0);
        b.add();
        b.put_field(0);
        b.load(3).load(2).call_secure(inner, inner_spec);
        b.ret();
    });
    let outer_spec = pb.add_region_spec(
        pair_s12,
        &[
            (0, CapKind::Plus),
            (1, CapKind::Plus),
            (0, CapKind::Minus),
            (1, CapKind::Minus),
        ],
        None,
    );
    pb.func("main", 3, false, 3, |b| {
        b.load(0).load(1).load(2).call_secure(outer, outer_spec).ret();
    });
    let program = pb.finish().unwrap();

    let (s1, s2) = (fresh_tag(11), fresh_tag(12));
    let mut vm = Vm::new(program, vec![s1, s2], BarrierMode::Static);
    let mut caps = CapSet::new();
    caps.grant_both(s1);
    caps.grant_both(s2);
    vm.set_thread_caps(caps);

    let m1 = vm
        .host_alloc_object(ClassId(0), Some(SecPair::secrecy_only(Label::singleton(s1))))
        .unwrap();
    vm.host_put_field(m1, 0, Value::Int(30)).unwrap();
    let m2 = vm
        .host_alloc_object(ClassId(0), Some(SecPair::secrecy_only(Label::singleton(s2))))
        .unwrap();
    vm.host_put_field(m2, 0, Value::Int(12)).unwrap();
    let ret = vm.host_alloc_object(ClassId(0), None).unwrap();

    vm.call_by_name("main", &[Value::Ref(m1), Value::Ref(m2), Value::Ref(ret)]).unwrap();
    assert_eq!(vm.host_get_field(ret, 0).unwrap(), Value::Int(42));
}

/// The static-barrier failure mode (§5.1): a method first compiled
/// outside a region, later called inside, is detected; dynamic barriers
/// handle the same program fine.
#[test]
fn static_barrier_context_mismatch() {
    let mut pb = ProgramBuilder::new();
    let _c = pb.add_class("C", 1);
    // A helper called from both contexts.
    let helper = pb.func("helper", 1, false, 1, |b| {
        b.load(0).get_field(0).pop().ret();
    });
    let body = pb.region("r", 1, 1, |b| {
        b.load(0).call(helper).ret();
    });
    let pair = pb.add_pair_spec(&[], &[]);
    let spec = pb.add_region_spec(pair, &[], None);
    pb.func("main", 1, false, 1, |b| {
        b.load(0).call(helper); // first call: compiled out-of-region
        b.load(0).call_secure(body, spec); // same method, now in-region
        b.ret();
    });
    let program = pb.finish().unwrap();

    let mk_obj = |vm: &mut Vm| {
        let o = vm.host_alloc_object(ClassId(0), None).unwrap();
        vm.host_put_field(o, 0, Value::Int(1)).unwrap();
        o
    };

    // Static mode: loud mismatch (the paper's approach would silently
    // run wrong barriers; we fail closed).
    let mut vm = Vm::new(program.clone(), vec![], BarrierMode::Static);
    let o = mk_obj(&mut vm);
    let err = vm.call_by_name("main", &[Value::Ref(o)]).unwrap_err();
    assert!(matches!(err, VmError::BarrierContextMismatch { .. }), "{err}");

    // Dynamic mode: fine.
    let mut vm = Vm::new(program.clone(), vec![], BarrierMode::Dynamic);
    let o = mk_obj(&mut vm);
    vm.call_by_name("main", &[Value::Ref(o)]).unwrap();
    assert!(vm.stats().dynamic_dispatches > 0);

    // Cloning mode (the §5.1 production design): also fine — the helper
    // is compiled once per context, with static-barrier dispatch and no
    // runtime context checks.
    let mut vm = Vm::new(program, vec![], BarrierMode::Cloning);
    let o = mk_obj(&mut vm);
    vm.call_by_name("main", &[Value::Ref(o)]).unwrap();
    assert_eq!(vm.stats().dynamic_dispatches, 0);
    // Two clones of `helper` plus the two callers were compiled.
    assert!(vm.stats().functions_compiled >= 4);
}

/// Labeled statics (the §5.1 "production implementation could support
/// labeling statics" extension): a `{S(g)}`-labeled static is writable
/// and readable only from regions whose labels permit the flow, and
/// inaccessible outside regions.
#[test]
fn labeled_statics_are_flow_checked() {
    let mut pb = ProgramBuilder::new();
    let pair_g = pb.add_pair_spec(&[0], &[]);
    let s = pb.add_static_labeled("secret_counter", pair_g);

    let bump = pb.region("bump", 0, 0, |b| {
        b.push_int(41).put_static(s);
        b.get_static(s).push_int(1).add().put_static(s).ret();
    });
    let spec_g = pb.add_region_spec(pair_g, &[(0, CapKind::Plus)], None);

    let leak = pb.region("leak", 0, 0, |b| {
        b.get_static(s).pop().ret();
    });
    let pair_empty = pb.add_pair_spec(&[], &[]);
    let spec_empty = pb.add_region_spec(pair_empty, &[], None);

    pb.func("init", 0, false, 0, |b| {
        // Outside any region a labeled static is unreachable; this
        // function exists to prove it (called under Dynamic mode).
        b.push_int(0).put_static(s).ret();
    });
    pb.func("run_bump", 0, false, 0, |b| {
        b.call_secure(bump, spec_g).ret();
    });
    pb.func("run_leak", 0, false, 0, |b| {
        b.call_secure(leak, spec_empty).ret();
    });
    let program = pb.finish().unwrap();

    let g = fresh_tag(77);
    let mut vm = Vm::new(program, vec![g], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(g));
    vm.set_thread_caps(caps);

    // Outside a region: denied (exception propagates to the host).
    let err = vm.call_by_name("init", &[]).unwrap_err();
    assert!(matches!(err, VmError::LabeledAccessOutsideRegion), "{err}");

    // Region carrying {S(g)}: read-modify-write succeeds.
    vm.call_by_name("run_bump", &[]).unwrap();
    assert_eq!(vm.stats().exceptions_suppressed, 0);

    // Unlabeled region: the read is a flow violation, confined.
    vm.call_by_name("run_leak", &[]).unwrap();
    assert_eq!(vm.stats().exceptions_suppressed, 1);
}

/// Statics restrictions (§5.1): secrecy regions may not write statics;
/// integrity regions may not read them.
#[test]
fn statics_restrictions_in_regions() {
    let mut pb = ProgramBuilder::new();
    let s = pb.add_static("g");
    let writer = pb.region("writer", 0, 0, |b| {
        b.push_int(1).put_static(s).ret();
    });
    let reader = pb.region("reader", 0, 0, |b| {
        b.get_static(s).pop().ret();
    });
    let secrecy = pb.add_pair_spec(&[0], &[]);
    let integrity = pb.add_pair_spec(&[], &[0]);
    let w_spec = pb.add_region_spec(secrecy, &[(0, CapKind::Plus)], None);
    let r_spec = pb.add_region_spec(integrity, &[(0, CapKind::Plus)], None);
    pb.func("main_w", 0, false, 0, |b| {
        b.call_secure(writer, w_spec).ret();
    });
    pb.func("main_r", 0, false, 0, |b| {
        b.call_secure(reader, r_spec).ret();
    });
    let program = pb.finish().unwrap();

    let t = fresh_tag(5);
    let mut vm = Vm::new(program, vec![t], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant_both(t);
    vm.set_thread_caps(caps);

    // Violations are suppressed at the region edge but counted.
    vm.call_by_name("main_w", &[]).unwrap();
    assert_eq!(vm.stats().exceptions_suppressed, 1);
    vm.call_by_name("main_r", &[]).unwrap();
    assert_eq!(vm.stats().exceptions_suppressed, 2);
}

/// Lazy VM→OS label sync over the real kernel (§4.4): a region that does
/// no syscall never touches the kernel; one that writes a file first
/// pushes its labels, and the kernel then enforces them.
#[test]
fn lazy_label_sync_through_kernel_bridge() {
    let system = Laminar::boot();
    system.add_user(UserId(1), "vmuser");
    let principal = system.login(UserId(1)).unwrap();
    let task = principal.task().clone();

    // Labeled destination file (pre-created) and a public one.
    let a = task.alloc_tag().unwrap();
    let sa = SecPair::secrecy_only(Label::singleton(a));
    let fd = task.create_file_labeled("secret.out", sa).unwrap();
    task.close(fd).unwrap();
    let fd = task.create("public.out").unwrap();
    task.close(fd).unwrap();

    let mut pb = ProgramBuilder::new();
    let secret_path = pb.add_string("secret.out");
    let public_path = pb.add_string("public.out");
    let quiet = pb.region("quiet", 0, 0, |b| {
        b.push_int(1).push_int(1).add().pop().ret();
    });
    let write_secret = pb.region("write_secret", 0, 0, |b| {
        b.push_int(42).os_write_byte(secret_path).ret();
    });
    let leak = pb.region("leak", 0, 0, |b| {
        b.push_int(9).os_write_byte(public_path).ret();
    });
    let pair_a = pb.add_pair_spec(&[0], &[]);
    let spec = pb.add_region_spec(pair_a, &[(0, CapKind::Plus)], None);
    pb.func("run_quiet", 0, false, 0, |b| {
        b.call_secure(quiet, spec).ret();
    });
    pb.func("run_write", 0, false, 0, |b| {
        b.call_secure(write_secret, spec).ret();
    });
    pb.func("run_leak", 0, false, 0, |b| {
        b.call_secure(leak, spec).ret();
    });
    let program = pb.finish().unwrap();

    let mut vm = Vm::new(program, vec![a], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(a));
    vm.set_thread_caps(caps);
    vm.set_bridge(Box::new(system.vm_bridge(&principal).unwrap()));

    // Syscall-free region: zero kernel syncs.
    vm.call_by_name("run_quiet", &[]).unwrap();
    assert_eq!(vm.stats().os_label_syncs, 0);
    assert_eq!(vm.stats().os_label_syncs_elided, 1);

    // Region writing the labeled file: sync happens, write lands.
    vm.call_by_name("run_write", &[]).unwrap();
    assert_eq!(vm.stats().os_label_syncs, 1);
    task.set_task_label(laminar_difc::LabelType::Secrecy, Label::singleton(a)).unwrap();
    let fd = task.open("secret.out", OpenMode::Read).unwrap();
    assert_eq!(task.read(fd, 4).unwrap(), vec![42]);
    task.close(fd).unwrap();
    task.set_task_label(laminar_difc::LabelType::Secrecy, Label::empty()).unwrap();

    // Region trying to write the public file: the kernel denies it (the
    // sync carried the taint), and the exception is confined.
    vm.call_by_name("run_leak", &[]).unwrap();
    assert!(vm.stats().exceptions_suppressed >= 1);
    let fd = task.open("public.out", OpenMode::Read).unwrap();
    assert_eq!(task.read(fd, 4).unwrap(), Vec::<u8>::new());
    task.close(fd).unwrap();

    // After the regions, the kernel task is unlabeled again.
    assert!(task.current_labels().unwrap().is_unlabeled());
}

/// A bridge that notes the kernel task's capabilities at each write.
struct CapsAtWrite {
    inner: laminar::KernelBridge,
    task: TaskHandle,
    seen: Arc<Mutex<Vec<CapSet>>>,
}

impl OsBridge for CapsAtWrite {
    fn sync_region(&mut self, regions: &mut RegionStack) -> Result<(), String> {
        self.inner.sync_region(regions)
    }
    fn settle_region(&mut self, debt: &RegionDebt) -> Result<(), String> {
        self.inner.settle_region(debt)
    }
    fn write_byte(&mut self, path: &str, byte: u8) -> Result<(), String> {
        self.seen.lock().unwrap().push(self.task.current_caps().unwrap());
        self.inner.write_byte(path, byte)
    }
    fn read_byte(&mut self, path: &str) -> Result<Option<u8>, String> {
        self.inner.read_byte(path)
    }
}

/// §4.4 for the MiniVM: a region that keeps only `a+` syscalls while
/// the kernel task holds no `a-`, and the task holds `a±` again after
/// the region exits.
#[test]
fn a_vm_region_syscalls_without_the_capabilities_it_dropped() {
    let system = Laminar::boot();
    system.add_user(UserId(1), "vmuser");
    let principal = system.login(UserId(1)).unwrap();
    let task = principal.task().clone();
    let a = principal.create_tag().unwrap();
    let sa = SecPair::secrecy_only(Label::singleton(a));
    let fd = task.create_file_labeled("secret.out", sa).unwrap();
    task.close(fd).unwrap();

    let mut pb = ProgramBuilder::new();
    let secret_path = pb.add_string("secret.out");
    let write = pb.region("write_secret", 0, 0, |b| {
        b.push_int(42).os_write_byte(secret_path).ret();
    });
    let pair_a = pb.add_pair_spec(&[0], &[]);
    let spec = pb.add_region_spec(pair_a, &[(0, CapKind::Plus)], None);
    pb.func("main", 0, false, 0, |b| {
        b.call_secure(write, spec).ret();
    });
    let mut vm = Vm::new(pb.finish().unwrap(), vec![a], BarrierMode::Dynamic);
    vm.set_thread_caps(principal.current_caps());
    let seen = Arc::new(Mutex::new(Vec::new()));
    let inner = system.vm_bridge(&principal).unwrap();
    let probe = CapsAtWrite { inner, task: task.clone(), seen: Arc::clone(&seen) };
    vm.set_bridge(Box::new(probe));

    vm.call_by_name("main", &[]).unwrap();
    assert_eq!(vm.stats().exceptions_suppressed, 0);
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 1);
    assert!(seen[0].can_add(a) && !seen[0].can_remove(a), "{:?}", seen[0]);
    let after = task.current_caps().unwrap();
    assert!(after.can_add(a) && after.can_remove(a), "{after:?}");
    assert!(task.current_labels().unwrap().is_unlabeled());
}

/// `copyAndLabel` alone cannot defeat the rules: label changes without
/// the minus capability raise (and are confined).
#[test]
fn copy_and_label_without_caps_fails() {
    let mut pb = ProgramBuilder::new();
    let _c = pb.add_class("C", 1);
    let pair_pub = pb.add_pair_spec(&[], &[]);
    let body = pb.region("steal", 1, 1, |b| {
        b.load(0).copy_and_label(pair_pub).pop().ret();
    });
    let pair_a = pb.add_pair_spec(&[0], &[]);
    // Region holds only a+ — classification, no declassification.
    let spec = pb.add_region_spec(pair_a, &[(0, CapKind::Plus)], None);
    pb.func("main", 1, false, 1, |b| {
        b.load(0).call_secure(body, spec).ret();
    });
    let program = pb.finish().unwrap();

    let a = fresh_tag(3);
    let mut vm = Vm::new(program, vec![a], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(a));
    vm.set_thread_caps(caps);
    let obj = vm
        .host_alloc_object(ClassId(0), Some(SecPair::secrecy_only(Label::singleton(a))))
        .unwrap();
    vm.call_by_name("main", &[Value::Ref(obj)]).unwrap();
    assert_eq!(vm.stats().exceptions_suppressed, 1);
    assert_eq!(vm.stats().copy_and_label, 0);
}

/// Secure termination (§4.3.3): a catchless region that faults after
/// mutating labeled state is *aborted* — every labeled write is rolled
/// back to the entry snapshot, so no partial update survives the fault.
#[test]
fn aborted_region_rolls_back_labeled_writes() {
    let mut pb = ProgramBuilder::new();
    let _state = pb.add_class("State", 2);
    // body(state): state.x = 99; state.y = 100; throw 7
    let body = pb.region("body", 1, 1, |b| {
        b.load(0).push_int(99).put_field(0);
        b.load(0).push_int(100).put_field(1);
        b.push_int(7).throw();
        b.ret();
    });
    let pair_h = pb.add_pair_spec(&[0], &[]);
    let spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], None);
    pb.func("main", 1, false, 1, |b| {
        b.load(0).call_secure(body, spec).ret();
    });
    let program = pb.finish().unwrap();

    let h = fresh_tag(41);
    let mut vm = Vm::new(program, vec![h], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(h));
    vm.set_thread_caps(caps);
    let lab = SecPair::secrecy_only(Label::singleton(h));
    let state = vm.host_alloc_object(ClassId(0), Some(lab)).unwrap();
    vm.host_put_field(state, 0, Value::Int(1)).unwrap();
    vm.host_put_field(state, 1, Value::Int(2)).unwrap();

    // Other tests in this binary abort regions concurrently, so assert a
    // monotonic delta on the global counter, not an absolute value.
    let global_before = laminar_vm::regions_aborted();
    vm.call_by_name("main", &[Value::Ref(state)]).unwrap();

    // The throw was suppressed at the boundary AND the region's writes
    // were undone: the labeled object is byte-for-byte as it was.
    assert_eq!(vm.stats().exceptions_suppressed, 1);
    assert_eq!(vm.stats().regions_aborted, 1);
    assert!(laminar_vm::regions_aborted() > global_before);
    assert_eq!(vm.host_get_field(state, 0).unwrap(), Value::Int(1));
    assert_eq!(vm.host_get_field(state, 1).unwrap(), Value::Int(2));
}

/// The catch-present contrast: with a catch block the region's writes
/// persist (the catch repairs invariants itself — Figure 5), so the undo
/// log must NOT fire.
#[test]
fn caught_region_keeps_writes_for_the_catch_to_repair() {
    let mut pb = ProgramBuilder::new();
    let _state = pb.add_class("State", 1);
    let catch = pb.region("catch", 1, 1, |b| {
        b.ret();
    });
    let body = pb.region("body", 1, 1, |b| {
        b.load(0).push_int(99).put_field(0);
        b.push_int(7).throw();
        b.ret();
    });
    let pair_h = pb.add_pair_spec(&[0], &[]);
    let spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], Some(catch));
    pb.func("main", 1, false, 1, |b| {
        b.load(0).call_secure(body, spec).ret();
    });
    let program = pb.finish().unwrap();

    let h = fresh_tag(42);
    let mut vm = Vm::new(program, vec![h], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(h));
    vm.set_thread_caps(caps);
    let lab = SecPair::secrecy_only(Label::singleton(h));
    let state = vm.host_alloc_object(ClassId(0), Some(lab)).unwrap();
    vm.host_put_field(state, 0, Value::Int(1)).unwrap();

    vm.call_by_name("main", &[Value::Ref(state)]).unwrap();
    assert_eq!(vm.stats().regions_aborted, 0);
    assert_eq!(vm.host_get_field(state, 0).unwrap(), Value::Int(99));
}

/// Nested regions: the inner region's normal exit commits its writes into
/// the outer scope, and an outer abort then rolls back *both* regions'
/// writes — the undo log is scoped per frame, not truncated on inner exit.
#[test]
fn outer_abort_undoes_committed_inner_region_writes() {
    let mut pb = ProgramBuilder::new();
    let _state = pb.add_class("State", 2);
    let pair_h = pb.add_pair_spec(&[0], &[]);
    // inner(state): state.y = 100 (runs to completion)
    let inner = pb.region("inner", 1, 1, |b| {
        b.load(0).push_int(100).put_field(1);
        b.ret();
    });
    let inner_spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], None);
    // outer(state): state.x = 99; inner(state); throw 7
    let outer = pb.region("outer", 1, 1, |b| {
        b.load(0).push_int(99).put_field(0);
        b.load(0).call_secure(inner, inner_spec);
        b.push_int(7).throw();
        b.ret();
    });
    let outer_spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], None);
    pb.func("main", 1, false, 1, |b| {
        b.load(0).call_secure(outer, outer_spec).ret();
    });
    let program = pb.finish().unwrap();

    let h = fresh_tag(43);
    let mut vm = Vm::new(program, vec![h], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(h));
    vm.set_thread_caps(caps);
    let lab = SecPair::secrecy_only(Label::singleton(h));
    let state = vm.host_alloc_object(ClassId(0), Some(lab)).unwrap();
    vm.host_put_field(state, 0, Value::Int(1)).unwrap();
    vm.host_put_field(state, 1, Value::Int(2)).unwrap();

    vm.call_by_name("main", &[Value::Ref(state)]).unwrap();
    assert_eq!(vm.stats().regions_aborted, 1);
    assert_eq!(vm.host_get_field(state, 0).unwrap(), Value::Int(1));
    assert_eq!(vm.host_get_field(state, 1).unwrap(), Value::Int(2));
}

/// Region-entry failures terminate (propagate) rather than suppress
/// (§5.1: "the program terminates at L1").
#[test]
fn region_entry_failure_propagates() {
    let mut pb = ProgramBuilder::new();
    let body = pb.region("r", 0, 0, |b| {
        b.ret();
    });
    let pair = pb.add_pair_spec(&[0], &[]);
    let spec = pb.add_region_spec(pair, &[(0, CapKind::Plus)], None);
    pb.func("main", 0, false, 0, |b| {
        b.call_secure(body, spec).ret();
    });
    let program = pb.finish().unwrap();
    // Thread has NO capabilities.
    let mut vm = Vm::new(program, vec![fresh_tag(8)], BarrierMode::Dynamic);
    let err = vm.call_by_name("main", &[]).unwrap_err();
    assert!(matches!(err, VmError::RegionEntry(_)), "{err}");
}

// --- frame isolation and call depth on the shared value stack ------------

/// A program whose `down(n)` recurses `n` plain calls deep:
/// `down(n) = n == 0 ? 0 : down(n - 1)`.
fn add_down(pb: &mut ProgramBuilder) -> laminar_vm::FuncId {
    let down = pb.declare_func("down", 1, true);
    pb.define_func(down, 1, |b| {
        let base = b.new_label();
        b.load(0).push_int(0).cmp_eq().jump_if_true(base);
        b.load(0).push_int(1).sub().call(down).ret();
        b.bind(base);
        b.push_int(0).ret();
    });
    down
}

/// Runs `f` on a thread with a 2 MiB stack, the smallest a Rust worker
/// thread gets by default: deep VM recursion must not need more.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap().join().unwrap()
}

/// Plain calls run in the interpreter's own frame stack, not on the host
/// stack: recursion far past where a host-recursive interpreter aborts
/// the process returns a typed error, and the VM keeps working.
#[test]
fn deep_recursion_is_a_typed_error_not_an_abort() {
    on_small_stack(|| {
        let mut pb = ProgramBuilder::new();
        add_down(&mut pb);
        let program = pb.finish().unwrap();
        for mode in [BarrierMode::Cloning, BarrierMode::Dynamic] {
            let mut vm = Vm::new(program.clone(), vec![], mode);
            let depth = laminar_vm::MAX_CALL_DEPTH as i64;
            assert_eq!(
                vm.call_by_name("down", &[Value::Int(depth)]),
                Ok(Some(Value::Int(0)))
            );
            for n in [depth + 1, 100_000] {
                assert_eq!(
                    vm.call_by_name("down", &[Value::Int(n)]),
                    Err(VmError::CallDepthExceeded(laminar_vm::MAX_CALL_DEPTH)),
                    "down({n}) under {mode:?}"
                );
            }
            assert_eq!(
                vm.call_by_name("down", &[Value::Int(3)]),
                Ok(Some(Value::Int(0)))
            );
        }
    });
}

/// Inside a region the depth error is a run-time exception like any
/// other: suppressed at the region boundary, and the region's labeled
/// writes are rolled back (§4.3.3).
#[test]
fn depth_error_in_a_region_is_suppressed_and_rolled_back() {
    on_small_stack(|| {
        let mut pb = ProgramBuilder::new();
        let _state = pb.add_class("State", 1);
        let down = add_down(&mut pb);
        // body(state): state.x = 99; down(100000)
        let body = pb.region("body", 1, 1, |b| {
            b.load(0).push_int(99).put_field(0);
            b.push_int(100_000).call(down).pop();
            b.ret();
        });
        let pair_h = pb.add_pair_spec(&[0], &[]);
        let spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], None);
        pb.func("main", 1, true, 1, |b| {
            b.push_int(5).load(0).call_secure(body, spec).push_int(1).add().ret();
        });
        let program = pb.finish().unwrap();

        let h = fresh_tag(51);
        let mut vm = Vm::new(program, vec![h], BarrierMode::Cloning);
        let mut caps = CapSet::new();
        caps.grant(Capability::plus(h));
        vm.set_thread_caps(caps);
        let lab = SecPair::secrecy_only(Label::singleton(h));
        let state = vm.host_alloc_object(ClassId(0), Some(lab)).unwrap();
        vm.host_put_field(state, 0, Value::Int(1)).unwrap();

        let out = vm.call_by_name("main", &[Value::Ref(state)]);
        assert_eq!(out, Ok(Some(Value::Int(6))), "the caller's operand survives");
        assert_eq!(vm.stats().exceptions_suppressed, 1);
        assert_eq!(vm.stats().regions_aborted, 1);
        assert_eq!(vm.host_get_field(state, 0).unwrap(), Value::Int(1));
    });
}

/// Nested `CallSecure` is bounded too: a region that enters itself
/// forever stops at `MAX_REGION_DEPTH` with the depth error, which the
/// enclosing region suppresses; only the refused level's write is undone.
#[test]
fn nested_regions_are_bounded() {
    on_small_stack(|| {
        let mut pb = ProgramBuilder::new();
        let _counter = pb.add_class("Counter", 1);
        let pair_h = pb.add_pair_spec(&[0], &[]);
        let spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], None);
        // again(c): c.n = c.n + 1; again(c) in a new region
        let again = pb.declare_region("again", 1);
        pb.define_func(again, 1, |b| {
            b.load(0);
            b.load(0).get_field(0).push_int(1).add();
            b.put_field(0);
            b.load(0).call_secure(again, spec);
            b.ret();
        });
        pb.func("main", 1, false, 1, |b| {
            b.load(0).call_secure(again, spec).ret();
        });
        let program = pb.finish().unwrap();

        let h = fresh_tag(52);
        for mode in [BarrierMode::Cloning, BarrierMode::Dynamic] {
            let mut vm = Vm::new(program.clone(), vec![h], mode);
            let mut caps = CapSet::new();
            caps.grant(Capability::plus(h));
            vm.set_thread_caps(caps);
            let lab = SecPair::secrecy_only(Label::singleton(h));
            let counter = vm.host_alloc_object(ClassId(0), Some(lab)).unwrap();
            vm.host_put_field(counter, 0, Value::Int(0)).unwrap();

            assert_eq!(vm.call_by_name("main", &[Value::Ref(counter)]), Ok(None));
            let max = laminar_vm::MAX_REGION_DEPTH;
            assert_eq!(vm.stats().regions_entered, max as u64);
            assert_eq!(vm.stats().exceptions_suppressed, 1);
            assert_eq!(vm.stats().regions_aborted, 1);
            // The innermost region's increment was rolled back.
            assert_eq!(
                vm.host_get_field(counter, 0).unwrap(),
                Value::Int(max as i64 - 1)
            );
            assert_eq!(vm.current_labels(), &SecPair::unlabeled());
        }
    });
}

/// A callee's non-parameter locals start as null even in slots an
/// earlier, deeper frame used — including a region body that held a
/// labeled object reference there.
#[test]
fn fresh_locals_never_see_an_earlier_frames_values() {
    let mut pb = ProgramBuilder::new();
    let cell = pb.add_class("Cell", 1);
    let pair_h = pb.add_pair_spec(&[0], &[]);
    let spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], None);
    // stash(): two labeled objects and two ints in its locals.
    let stash = pb.region("stash", 0, 4, |b| {
        b.new_object(cell).store(0);
        b.new_object(cell).store(1);
        b.push_int(7).store(2);
        b.push_int(8).store(3);
        b.ret();
    });
    // fill(): six ints in its locals.
    let fill = pb.func("fill", 0, false, 6, |b| {
        for l in 0..6 {
            b.push_int(100 + i64::from(l)).store(l);
        }
        b.ret();
    });
    // probe(x): are locals 1..6 all null?
    let probe = pb.func("probe", 1, true, 6, |b| {
        b.push_bool(true);
        for l in 1..6 {
            b.load(l).push_null().cmp_eq().and();
        }
        b.ret();
    });
    pb.func("main", 0, true, 0, |b| {
        b.call_secure(stash, spec);
        b.push_int(5).call(probe);
        b.call(fill);
        b.push_int(5).call(probe);
        b.and().ret();
    });
    let program = pb.finish().unwrap();

    let h = fresh_tag(53);
    for mode in [BarrierMode::Cloning, BarrierMode::Dynamic, BarrierMode::None] {
        let mut vm = Vm::new(program.clone(), vec![h], mode);
        let mut caps = CapSet::new();
        caps.grant(Capability::plus(h));
        vm.set_thread_caps(caps);
        assert_eq!(vm.call_by_name("main", &[]), Ok(Some(Value::Bool(true))), "{mode:?}");
        if mode != BarrierMode::None {
            assert_eq!(vm.stats().alloc_barriers, 2, "stash's objects were labeled");
        }
    }
}

/// A `Throw` three plain calls deep inside a region, with half-built
/// operand stacks at every level, is suppressed; the caller continues
/// with its own operands and locals intact, and the catch block gets the
/// argument values passed at the `CallSecure` site.
#[test]
fn suppressed_throw_leaves_the_callers_frame_intact() {
    let mut pb = ProgramBuilder::new();
    let _cell = pb.add_class("Cell", 1);
    // record(cell, v): cell.f = v
    let record = pb.func("record", 2, false, 2, |b| {
        b.load(0).load(1).put_field(0).ret();
    });
    let f3 = pb.func("f3", 1, true, 2, |b| {
        b.push_int(9).store(1);
        b.push_int(77).push_int(5);
        b.load(0).throw();
        b.push_int(0).ret();
    });
    let f2 = pb.func("f2", 1, true, 1, |b| {
        b.push_int(6);
        b.load(0).push_int(1).add().call(f3);
        b.add().ret();
    });
    let f1 = pb.func("f1", 0, true, 1, |b| {
        b.push_int(3).store(0);
        b.push_int(4).load(0).call(f2);
        b.add().ret();
    });
    let body = pb.region("body", 2, 3, |b| {
        b.push_int(1).call(f1).store(2);
        b.ret();
    });
    let pair = pb.add_pair_spec(&[], &[]);
    let spec = pb.add_region_spec(pair, &[], Some(record));
    // main(cell): 1 + 2 + l1 + l2 around a region call, where the
    // operands 1 and 2 are pushed before the region and summed after.
    pb.func("main", 1, true, 3, |b| {
        b.push_int(100).store(1);
        b.push_int(200).store(2);
        b.push_int(1).push_int(2);
        b.load(0).push_int(42).call_secure(body, spec);
        b.add().load(1).add().load(2).add().ret();
    });
    let program = pb.finish().unwrap();

    for mode in [BarrierMode::Cloning, BarrierMode::Dynamic] {
        let mut vm = Vm::new(program.clone(), vec![], mode);
        let cell = vm.host_alloc_object(ClassId(0), None).unwrap();
        let out = vm.call_by_name("main", &[Value::Ref(cell)]);
        assert_eq!(out, Ok(Some(Value::Int(303))), "{mode:?}");
        assert_eq!(vm.stats().exceptions_suppressed, 1);
        assert_eq!(vm.host_get_field(cell, 0).unwrap(), Value::Int(42), "{mode:?}");
    }
}

/// After a host call fails part-way, with frames and operands left on
/// the stacks, the next call gives the same result as on a fresh VM.
#[test]
fn a_failed_call_leaves_nothing_for_the_next() {
    let mut pb = ProgramBuilder::new();
    let down = add_down(&mut pb);
    // dig(n): push junk, recurse, throw at the bottom.
    let dig = pb.declare_func("dig", 1, true);
    pb.define_func(dig, 3, |b| {
        let bottom = b.new_label();
        b.push_int(11).store(1).push_int(12).store(2);
        b.push_int(13).push_int(14);
        b.load(0).push_int(0).cmp_eq().jump_if_true(bottom);
        b.load(0).push_int(1).sub().call(dig).ret();
        b.bind(bottom);
        b.push_int(9).throw();
        b.push_int(0).ret();
    });
    // main(mode): 0 = throw 40 deep, 1 = overflow, else count null locals.
    pb.func("main", 1, true, 4, |b| {
        let not_dig = b.new_label();
        let not_deep = b.new_label();
        b.load(0).push_int(0).cmp_eq().jump_if_false(not_dig);
        b.push_int(40).call(dig).ret();
        b.bind(not_dig);
        b.load(0).push_int(1).cmp_eq().jump_if_false(not_deep);
        b.push_int(1_000_000).call(down).ret();
        b.bind(not_deep);
        b.push_int(0);
        for l in 1..4 {
            let skip = b.new_label();
            b.load(l).push_null().cmp_eq().jump_if_false(skip);
            b.push_int(1).add();
            b.bind(skip);
        }
        b.ret();
    });
    let program = pb.finish().unwrap();
    let fresh = Vm::new(program.clone(), vec![], BarrierMode::Cloning)
        .call_by_name("main", &[Value::Int(2)]);
    assert_eq!(fresh, Ok(Some(Value::Int(3))));

    let mut vm = Vm::new(program, vec![], BarrierMode::Cloning);
    assert_eq!(vm.call_by_name("main", &[Value::Int(0)]), Err(VmError::Thrown(9)));
    assert_eq!(vm.call_by_name("main", &[Value::Int(2)]), fresh);
    assert_eq!(
        vm.call_by_name("main", &[Value::Int(1)]),
        Err(VmError::CallDepthExceeded(laminar_vm::MAX_CALL_DEPTH))
    );
    assert_eq!(vm.call_by_name("main", &[Value::Int(2)]), fresh);
}
