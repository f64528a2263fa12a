//! Security-region semantics of the `laminar` runtime: entry rules,
//! nesting, capability scoping, exception confinement, the two barrier
//! APIs, lazy VM→OS label sync, and multithreaded principals with
//! heterogeneous labels.

use laminar::{Labeled, Laminar, LaminarError, Principal, RegionParams, RuntimeStats};
use laminar_difc::{CapKind, CapSet, Capability, Label, LabelType, SecPair, Tag};
use laminar_os::{OpenMode, OsError, UserId};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn alice() -> (Arc<Laminar>, Principal) {
    let sys = Laminar::boot();
    sys.add_user(UserId(1), "alice");
    let p = sys.login(UserId(1)).unwrap();
    (sys, p)
}

fn tagged_params(t: Tag) -> RegionParams {
    RegionParams::new()
        .secrecy(Label::singleton(t))
        .grant(Capability::plus(t))
        .grant(Capability::minus(t))
}

#[test]
fn entry_rule_1_needs_capability_or_label() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    // With t+ entry succeeds.
    let params =
        RegionParams::new().secrecy(Label::singleton(t)).grant(Capability::plus(t));
    assert!(p.secure(&params, |_| Ok(()), |_| {}).is_ok());

    // A principal without the capability cannot enter.
    let stranger = p.spawn_thread(Some(CapSet::new())).unwrap();
    assert!(matches!(
        stranger.secure(&params, |_| Ok(()), |_| {}),
        Err(LaminarError::RegionEntry(_))
    ));
}

#[test]
fn entry_rule_2_region_caps_subset() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    let other = Tag::from_raw(424_242);
    let params = RegionParams::new().grant(Capability::plus(t)).grant(
        // A capability the thread does not hold.
        Capability::minus(other),
    );
    assert!(matches!(
        p.secure(&params, |_| Ok(()), |_| {}),
        Err(LaminarError::RegionEntry(_))
    ));
}

#[test]
fn labels_are_empty_outside_regions_and_restored_on_exit() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    assert!(p.current_labels().is_unlabeled());
    p.secure(
        &tagged_params(t),
        |g| {
            assert_eq!(g.current_label(LabelType::Secrecy), Label::singleton(t));
            Ok(())
        },
        |_| {},
    )
    .unwrap();
    assert!(p.current_labels().is_unlabeled());
    assert!(!p.in_region());
}

#[test]
fn nested_regions_restore_the_outer_context() {
    let (_sys, p) = alice();
    let a = p.create_tag().unwrap();
    let b = p.create_tag().unwrap();
    let outer = RegionParams::new()
        .secrecy(Label::from_tags([a, b]))
        .grant(Capability::plus(a))
        .grant(Capability::plus(b))
        .grant(Capability::minus(a));
    p.secure(
        &outer,
        |g| {
            let inner = RegionParams::new()
                .secrecy(Label::singleton(b))
                .grant(Capability::minus(a));
            // Inner entry: b ∈ SP, a- ⊆ CP ✓ (Fig. 4's L4).
            g.secure(
                &inner,
                |g2| {
                    assert_eq!(g2.current_label(LabelType::Secrecy), Label::singleton(b));
                    Ok(())
                },
                |_| {},
            )?;
            // Outer context restored.
            assert_eq!(g.current_label(LabelType::Secrecy), Label::from_tags([a, b]));
            Ok(())
        },
        |_| {},
    )
    .unwrap()
    .unwrap();
}

#[test]
fn figure5_implicit_flow_is_confined() {
    // The secure/catch program of Fig. 5: the attempted write of public
    // L never happens, the invariant-restoring catch runs, execution
    // continues, and code outside cannot distinguish H=true from false.
    let (_sys, p) = alice();
    let h = p.create_tag().unwrap();

    for h_value in [false, true] {
        let params =
            RegionParams::new().secrecy(Label::singleton(h)).grant(Capability::plus(h));
        let h_cell =
            p.secure(&params, |g| Ok(g.new_labeled(h_value)), |_| {}).unwrap().unwrap();
        let l_cell = Labeled::unlabeled(false);
        let mut catch_ran = false;

        let out = p
            .secure(
                &params,
                |g| {
                    let secret = h_cell.read(g, |v| *v)?;
                    if secret {
                        // Attempted implicit leak: write fails (region has
                        // secrecy; cell is public).
                        l_cell.write(g, |l| *l = true)?;
                    }
                    Ok(())
                },
                |_| catch_ran = true,
            )
            .unwrap();

        // L is untouched either way: no bit of H escaped.
        assert!(!l_cell.read_dyn(|v| *v).unwrap());
        // Whether the catch ran equals h_value — but that fact is only
        // visible to *this test* (the TCB); region code cannot export it.
        assert_eq!(catch_ran, h_value);
        assert_eq!(out.is_none(), h_value);
    }
}

#[test]
fn panics_inside_regions_are_confined() {
    let (_sys, p) = alice();
    let out = p
        .secure::<()>(&RegionParams::new(), |_| panic!("runtime exception"), |_| {})
        .unwrap();
    assert!(out.is_none());
    // The principal is fully usable afterwards.
    assert!(!p.in_region());
    assert_eq!(p.secure(&RegionParams::new(), |_| Ok(7), |_| {}).unwrap(), Some(7));
}

#[test]
fn catch_block_panics_are_also_confined() {
    let (_sys, p) = alice();
    let out = p
        .secure::<()>(
            &RegionParams::new(),
            |g| g.throw("first"),
            |_| panic!("catch panicked too"),
        )
        .unwrap();
    assert!(out.is_none());
    assert!(p.stats().exceptions_suppressed >= 2);
}

#[test]
fn static_barriers_check_labels() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    let cell =
        p.secure(&tagged_params(t), |g| Ok(g.new_labeled(41)), |_| {}).unwrap().unwrap();

    // Region carrying the label reads/writes fine.
    let v = p
        .secure(
            &tagged_params(t),
            |g| {
                cell.write(g, |v| *v += 1)?;
                cell.read(g, |v| *v)
            },
            |_| {},
        )
        .unwrap();
    assert_eq!(v, Some(42));

    // An unlabeled region cannot read it (suppressed).
    let out = p.secure(&RegionParams::new(), |g| cell.read(g, |v| *v), |_| {}).unwrap();
    assert!(out.is_none());
}

#[test]
fn dynamic_barriers_find_the_context_at_runtime() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    let cell =
        p.secure(&tagged_params(t), |g| Ok(g.new_labeled(5)), |_| {}).unwrap().unwrap();

    // Outside any region: denied.
    assert!(matches!(cell.read_dyn(|v| *v), Err(LaminarError::NotInRegion)));
    // Inside the right region: allowed, via the same call.
    let v = p.secure(&tagged_params(t), |_| cell.read_dyn(|v| *v), |_| {}).unwrap();
    assert_eq!(v, Some(5));
    assert!(p.stats().dynamic_dispatches > 0);
}

#[test]
fn integrity_regions_cannot_read_unendorsed_data() {
    let (_sys, p) = alice();
    let i = p.create_tag().unwrap();
    let plain = Labeled::unlabeled(1);
    let params =
        RegionParams::new().integrity(Label::singleton(i)).grant(Capability::plus(i));
    // Reading unendorsed data from a high-integrity region: suppressed.
    let out = p.secure(&params, |g| plain.read(g, |v| *v), |_| {}).unwrap();
    assert!(out.is_none());
    // Writing down is fine.
    let out = p.secure(&params, |g| plain.write(g, |v| *v = 2), |_| {}).unwrap();
    assert_eq!(out, Some(()));
}

#[test]
fn copy_and_label_requires_capabilities() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    let cell =
        p.secure(&tagged_params(t), |g| Ok(g.new_labeled(9)), |_| {}).unwrap().unwrap();

    // Without t-: declassification is rejected inside the region
    // (suppressed at the boundary).
    let no_minus =
        RegionParams::new().secrecy(Label::singleton(t)).grant(Capability::plus(t));
    let out = p
        .secure(
            &no_minus,
            |g| {
                g.copy_and_label(&cell, SecPair::unlabeled())?;
                Ok(())
            },
            |_| {},
        )
        .unwrap();
    assert!(out.is_none());

    // With t- it succeeds and the copy is public.
    let public = p
        .secure(
            &tagged_params(t),
            |g| g.copy_and_label(&cell, SecPair::unlabeled()),
            |_| {},
        )
        .unwrap()
        .unwrap();
    assert!(public.labels().is_unlabeled());
    assert_eq!(public.read_dyn(|v| *v).unwrap(), 9);
    // The original is untouched.
    assert!(!cell.labels().is_unlabeled());
}

#[test]
fn scoped_capability_drop_is_restored_global_is_not() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();

    // Scoped drop: gone inside, back outside.
    p.secure(
        &tagged_params(t),
        |g| {
            g.remove_capability(t, CapKind::Minus, false)?;
            assert!(!g.current_caps().can_remove(t));
            Ok(())
        },
        |_| {},
    )
    .unwrap()
    .unwrap();
    assert!(p.current_caps().can_remove(t));

    // Global drop: gone for good.
    p.secure(
        &tagged_params(t),
        |g| {
            g.remove_capability(t, CapKind::Minus, true)?;
            Ok(())
        },
        |_| {},
    )
    .unwrap()
    .unwrap();
    assert!(!p.current_caps().can_remove(t));
    assert!(p.current_caps().can_add(t));
}

/// A scoped drop of a capability the region never held gives the kernel
/// task nothing: its exit re-grants only what a sync suspended.
#[test]
fn a_scoped_drop_of_a_capability_never_held_grants_nothing() {
    let (sys, p) = alice();
    sys.add_user(UserId(2), "bob");
    let b = sys.login(UserId(2)).unwrap().create_tag().unwrap();
    p.secure(
        &RegionParams::new(),
        |g| g.remove_capability(b, CapKind::Minus, false),
        |_| {},
    )
    .unwrap()
    .unwrap();
    assert!(!p.current_caps().can_remove(b));
    let kernel_caps = p.task().current_caps().unwrap();
    assert!(!kernel_caps.can_remove(b), "{kernel_caps:?}");
}

#[test]
fn capabilities_gained_in_regions_persist_after_exit() {
    let (_sys, p) = alice();
    let gained = p
        .secure(&RegionParams::new(), |g| g.create_and_add_capability(), |_| {})
        .unwrap()
        .unwrap();
    // §4.4: "By default, a thread that gains a capability within a
    // security region retains the capability on exit".
    assert!(p.current_caps().can_add(gained));
    assert!(p.current_caps().can_remove(gained));
}

#[test]
fn lazy_label_sync_elides_syscall_free_regions() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    p.reset_stats();

    // No syscall: no kernel label traffic.
    p.secure(&tagged_params(t), |_| Ok(()), |_| {}).unwrap();
    assert_eq!(p.stats().os_syncs, 0);
    assert_eq!(p.stats().os_syncs_elided, 1);

    // With a syscall, exactly one sync happens.
    let fd = p.task().create("/tmp/pre.txt").unwrap(); // pre-create unlabeled? no — labels empty outside
    p.task().close(fd).unwrap();
    p.secure(
        &tagged_params(t),
        |g| {
            let os = g.os()?;
            // Kernel task now carries {S(t)}: writing the unlabeled file
            // is denied by the LSM — proving the sync took effect.
            let fd = os.open("/tmp/pre.txt", OpenMode::Write)?;
            let denied = os.write(fd, b"x").is_err();
            os.close(fd).ok();
            assert!(denied, "kernel must see the region's labels");
            Ok(())
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(p.stats().os_syncs, 1);

    // After exit the kernel task is unlabeled again.
    let fd = p.task().open("/tmp/pre.txt", OpenMode::Write).unwrap();
    p.task().write(fd, b"y").unwrap();
    p.task().close(fd).unwrap();
}

/// An outer tagged region syncs, then runs a nested tagged region that
/// makes no syscall. The kernel task still carries the outer region's
/// labels, so the outer exit must drop them: afterwards the principal
/// writes an unlabeled file, and the one sync and the one elided nested
/// sync are counted.
#[test]
fn a_syscall_free_nested_region_leaves_the_outer_sync_in_force() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    let fd = p.task().create("/tmp/public").unwrap();
    p.task().close(fd).unwrap();
    p.reset_stats();

    p.secure(
        &tagged_params(t),
        |g| {
            g.os()?.stat("/tmp")?;
            g.secure(&tagged_params(t), |_| Ok(()), |_| {})?;
            // The nested exit left the outer region's labels on the
            // kernel task (read through the task, which does not sync).
            let task = p.task();
            let write = task
                .open("/tmp/public", OpenMode::Write)
                .and_then(|fd| task.write(fd, b"x"));
            assert!(matches!(write, Err(OsError::FlowDenied(_))), "{write:?}");
            Ok(())
        },
        |_| {},
    )
    .unwrap()
    .unwrap();

    assert!(p.task().current_labels().unwrap().is_unlabeled());
    let fd = p.task().open("/tmp/public", OpenMode::Write).unwrap();
    p.task().write(fd, b"ok").unwrap();
    p.task().close(fd).unwrap();
    let stats = p.stats();
    assert_eq!((stats.os_syncs, stats.os_syncs_elided), (1, 1));
}

/// A nested region with empty labels inside a synced `{I(i)}` region
/// syncs too: its syscalls run without the outer region's integrity, so
/// it cannot write an `{I(i)}` file.
#[test]
fn an_unlabeled_nested_region_syscalls_without_the_outer_labels() {
    let (sys, p) = alice();
    let i = p.create_tag().unwrap();
    // Strict Biba traversal: an {I(i)} thread reaches an {I(i)} tree only
    // from inside it, so the installer makes one and the task moves in.
    let endorsed = SecPair::integrity_only(Label::singleton(i));
    sys.kernel().install_dir("/endorsed", endorsed.clone()).unwrap();
    sys.kernel().install_file("/endorsed/f", endorsed, b"").unwrap();
    p.task().chdir("/endorsed").unwrap();
    let outer = RegionParams::new()
        .integrity(Label::singleton(i))
        .grant(Capability::plus(i))
        .grant(Capability::minus(i));

    p.secure(
        &outer,
        |g| {
            let os = g.os()?;
            os.open("f", OpenMode::Write).and_then(|fd| os.write(fd, b"i"))?;
            let inner = g.secure(
                &RegionParams::new(),
                |g| {
                    let os = g.os()?;
                    Ok(os.open("f", OpenMode::Write).and_then(|fd| os.write(fd, b"x")))
                },
                |_| {},
            )?;
            assert!(matches!(inner, Some(Err(OsError::FlowDenied(_)))), "{inner:?}");
            Ok(())
        },
        |_| {},
    )
    .unwrap()
    .unwrap();
    assert!(p.task().current_labels().unwrap().is_unlabeled());
}

#[test]
fn heterogeneous_thread_labels_in_one_process() {
    // The workload OS-granularity DIFC cannot express: two threads of
    // one process simultaneously inside regions with different labels.
    let (_sys, p) = alice();
    let a = p.create_tag().unwrap();
    let b = p.create_tag().unwrap();
    let mut caps_a = CapSet::new();
    caps_a.grant_both(a);
    let mut caps_b = CapSet::new();
    caps_b.grant_both(b);
    let pa = p.spawn_thread(Some(caps_a)).unwrap();
    let pb = p.spawn_thread(Some(caps_b)).unwrap();
    // A thread gets no capability its spawner lacks; the kernel's own
    // check reports the same kind.
    let beyond = CapSet::from_caps([Capability::plus(b)]);
    assert!(matches!(
        pa.spawn_thread(Some(beyond)),
        Err(LaminarError::Os(OsError::PermissionDenied(_)))
    ));

    let cell_a = pa
        .secure(&tagged_params(a), |g| Ok(Arc::new(g.new_labeled(1))), |_| {})
        .unwrap()
        .unwrap();
    let cell_b = pb
        .secure(&tagged_params(b), |g| Ok(Arc::new(g.new_labeled(2))), |_| {})
        .unwrap()
        .unwrap();

    let (cb, ca) = (Arc::clone(&cell_b), Arc::clone(&cell_a));
    let ha = std::thread::spawn(move || {
        pa.secure(
            &tagged_params(a),
            |g| {
                // Own data: yes. Other thread's: no (suppressed if tried).
                let v = ca.read(g, |v| *v)?;
                assert!(cb.read(g, |v| *v).is_err());
                Ok(v)
            },
            |_| {},
        )
        .unwrap()
    });
    let hb = std::thread::spawn(move || {
        pb.secure(&tagged_params(b), |g| cell_b.read(g, |v| *v), |_| {}).unwrap()
    });
    assert_eq!(ha.join().unwrap(), Some(1));
    assert_eq!(hb.join().unwrap(), Some(2));
}

#[test]
fn labeled_cell_creation_requires_conformant_labels() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    // A {S(t)} region cannot mint a *public* cell directly (write-down).
    let out = p
        .secure(
            &tagged_params(t),
            |g| {
                g.new_labeled_with(1, SecPair::unlabeled())?;
                Ok(())
            },
            |_| {},
        )
        .unwrap();
    assert!(out.is_none());
    // But it can mint a more-secret cell (classification).
    let u = p.create_tag().unwrap();
    let stronger = SecPair::secrecy_only(Label::from_tags([t, u]));
    let out = p
        .secure(
            &tagged_params(t),
            |g| {
                g.new_labeled_with(1, stronger.clone())?;
                Ok(())
            },
            |_| {},
        )
        .unwrap();
    assert_eq!(out, Some(()));
}

/// Region entry, exit and every barrier count under the thread-state
/// lock; this pins each counter after a scripted sequence, so a change to
/// where or in which order they are bumped shows up field by field.
#[test]
fn runtime_stats_pin_a_scripted_region_sequence() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    assert_eq!(p.stats().caps_created, 1);
    p.reset_stats();
    let none = RegionParams::new();

    // A refused entry counts nothing, not even as entered.
    let beyond = RegionParams::new().grant(Capability::minus(Tag::from_raw(424_242)));
    assert!(matches!(
        p.secure(&beyond, |_| Ok(()), |_| {}),
        Err(LaminarError::RegionEntry(_))
    ));
    assert_eq!(p.stats(), RuntimeStats::default());

    // The body raises and the catch block panics: two suppressed
    // exceptions in one region.
    let out = p.secure(&none, |g| g.throw::<()>("body"), |_| panic!("catch")).unwrap();
    assert_eq!(out, None);

    // A {S(t)} cell minted in a syscall-free tagged region: one labeled
    // allocation and one elided label sync.
    let secret =
        p.secure(&tagged_params(t), |g| Ok(g.new_labeled(7)), |_| {}).unwrap().unwrap();

    // In an unlabeled region a denied static read counts nothing (static
    // barriers count after the flow check), an allowed static write
    // counts one write, and a denied dynamic read still counts its
    // dispatch and its read (dynamic barriers count before the check).
    // The dynamic denial is the region's one suppressed exception.
    let public = Labeled::unlabeled(0);
    let out = p
        .secure(
            &none,
            |g| {
                assert!(matches!(secret.read(g, |v| *v), Err(LaminarError::Flow(_))));
                public.write(g, |v| *v = 1)?;
                secret.read_dyn(|v| *v)
            },
            |_| {},
        )
        .unwrap();
    assert_eq!(out, None);

    // Nested regions: two entries, and only the outer one is timed. The
    // inner region sleeps, so double counting would push `region_ns`
    // past the wall time of the whole call. The principal is still in
    // its first 64 outermost regions, which are all timed exactly.
    let before = p.stats().region_ns;
    let started = Instant::now();
    p.secure(
        &none,
        |g| {
            g.secure(
                &none,
                |_| {
                    std::thread::sleep(Duration::from_millis(20));
                    Ok(())
                },
                |_| {},
            )
        },
        |_| {},
    )
    .unwrap();
    let wall = started.elapsed().as_nanos() as u64;
    let nested_ns = p.stats().region_ns - before;
    assert!((20_000_000..=wall).contains(&nested_ns), "{nested_ns} ns of {wall} ns");

    // A tagged region that makes a syscall syncs its labels once; it also
    // declassifies the secret and mints a tag.
    p.secure(
        &tagged_params(t),
        |g| {
            g.os()?.stat("/tmp")?;
            g.copy_and_label(&secret, SecPair::unlabeled())?;
            g.create_and_add_capability()?;
            Ok(())
        },
        |_| {},
    )
    .unwrap()
    .unwrap();

    let stats = p.stats();
    assert!(stats.region_ns >= nested_ns);
    let expected = RuntimeStats {
        regions_entered: 6,
        region_ns: stats.region_ns,
        regions_timed: 5,
        labeled_reads: 1,
        labeled_writes: 1,
        labeled_allocs: 2,
        copies: 1,
        dynamic_dispatches: 1,
        exceptions_suppressed: 3,
        os_syncs: 1,
        os_syncs_elided: 1,
        caps_created: 1,
    };
    assert_eq!(stats, expected);

    p.reset_stats();
    assert_eq!(p.stats(), RuntimeStats::default());
}

/// Outermost regions a principal times exactly after a stats reset.
const EXACT_REGIONS: u64 = 64;
/// Outermost regions after the exact phase in the sampling test.
const SAMPLED_REGIONS: u64 = 1_600;

/// Runs `EXACT_REGIONS + SAMPLED_REGIONS` outermost regions whose bodies
/// spin for 20 µs, every fourth with a nested region inside when
/// `nested`; returns the stats and the bodies' own measured total.
fn spin_regions(p: &Principal, nested: bool) -> (RuntimeStats, u64) {
    let none = RegionParams::new();
    let mut bodies_ns = 0;
    for i in 0..EXACT_REGIONS + SAMPLED_REGIONS {
        let body = p
            .secure(
                &none,
                |g| {
                    let started = Instant::now();
                    if nested && i % 4 == 0 {
                        g.secure(&none, |_| Ok(()), |_| {})?;
                    }
                    while started.elapsed() < Duration::from_micros(20) {}
                    Ok(started.elapsed())
                },
                |_| {},
            )
            .unwrap()
            .unwrap();
        bodies_ns += body.as_nanos() as u64;
    }
    (p.stats(), bodies_ns)
}

/// Past its first 64 outermost regions a principal times one in 16,
/// drawn from a fixed seed, and weights each sample by 16: the sample
/// size is the same in every run, nested regions neither add to it nor
/// shift the draw, and `region_ns` still estimates the time spent.
#[test]
fn the_region_timer_samples_past_the_exact_phase() {
    let (_sys, p) = alice();
    let flat = p.spawn_thread(None).unwrap();
    let mut ratios = Vec::new();
    // Three rounds, judged by the median: a round in which a sampled
    // region was preempted counts that pause sixteen times over.
    for _ in 0..3 {
        p.reset_stats();
        flat.reset_stats();
        let (stats, bodies_ns) = spin_regions(&p, true);
        assert_eq!(stats.regions_entered, EXACT_REGIONS + SAMPLED_REGIONS + 416);
        assert_eq!(stats.regions_timed, EXACT_REGIONS + 116);
        let (flat_stats, _) = spin_regions(&flat, false);
        assert_eq!(flat_stats.regions_entered, EXACT_REGIONS + SAMPLED_REGIONS);
        assert_eq!(flat_stats.regions_timed, stats.regions_timed);
        ratios.push(stats.region_ns as f64 / bodies_ns as f64);
    }
    ratios.sort_by(f64::total_cmp);
    assert!((0.5..=1.5).contains(&ratios[1]), "region_ns / bodies: {ratios:?}");
}
