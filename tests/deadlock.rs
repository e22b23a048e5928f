//! Fig. 12 behaviour: with two link failures creating a cyclic buffer
//! dependency, SIH deadlocks under fan-in congestion while DSH's extra
//! footroom avoids the pauses that close the cycle. A run is deadlocked
//! when a who-paused-whom cycle is still open at its end.
//!
//! Uses the same scenario code as the Fig. 12 experiment binary
//! (`dsh_bench::fig12`).

use dsh_bench::fig12::{run_many, run_once, Fig12Config};
use dsh_core::Scheme;
use dsh_simcore::Executor;
use dsh_transport::CcKind;

fn cfg() -> Fig12Config {
    let mut c = Fig12Config::small();
    // Test-size run: less traffic, and the stress point where SIH's
    // squeezed footroom wedges but DSH's does not.
    c.fan_in = 8;
    c.load = 0.5;
    c.arrival_jitter = dsh_simcore::Delta::from_us(100);
    c.horizon = dsh_simcore::Delta::from_ms(6);
    c.duration = dsh_simcore::Delta::from_ms(8);
    c
}

#[test]
fn dsh_survives_where_sih_deadlocks() {
    // Same seeds, same traffic: DSH must deadlock strictly less often
    // than SIH, and SIH must actually wedge somewhere (otherwise the
    // scenario is not exercising the CBD at all).
    let seeds = 3;
    let sih = run_many(Scheme::Sih, CcKind::Dcqcn, &cfg(), seeds, &Executor::new(0));
    let dsh = run_many(Scheme::Dsh, CcKind::Dcqcn, &cfg(), seeds, &Executor::new(0));
    let sih_hits = sih.iter().filter(|r| r.onset.is_some()).count();
    let dsh_hits = dsh.iter().filter(|r| r.onset.is_some()).count();
    assert!(sih_hits >= 1, "SIH never deadlocked; scenario too gentle");
    // On failure, name the open pause cycles of every DSH run so the
    // report says *where* the fabric stuck, not just that it did.
    let dsh_cycles: Vec<String> =
        dsh.iter().flat_map(|r| r.cycles.iter().map(ToString::to_string)).collect();
    assert!(
        dsh_hits < sih_hits || (dsh_hits == 0 && sih_hits >= 1),
        "DSH ({dsh_hits}/{seeds}) must deadlock less than SIH ({sih_hits}/{seeds}); \
         open cycles:\n{dsh_cycles:#?}"
    );
}

#[test]
fn no_failures_means_no_deadlock_even_for_sih() {
    // Same traffic without the link failures: shortest paths are direct
    // (no leaf bounce), so no cyclic buffer dependency can form.
    let r = run_once(Scheme::Sih, CcKind::Dcqcn, &Fig12Config { fail_links: false, ..cfg() }, 1);
    assert!(
        r.onset.is_none(),
        "deadlock without a CBD at {:?}; open cycles:\n{:#?}",
        r.onset,
        r.cycles
    );
}

#[test]
fn pfc_watchdog_breaks_the_deadlock_at_the_cost_of_drops() {
    // Industry mitigation (extension experiment): arm the watchdog on the
    // SIH fabric that deadlocks. The wedge is broken — no cycle that has
    // had its turn at the watchdog stays open — but only because frames
    // were dropped, which DSH avoids needing in the first place.
    let mut c = cfg();
    // Pick a seed that deadlocks without the watchdog.
    let base = run_many(Scheme::Sih, CcKind::Dcqcn, &c, 3, &Executor::new(0));
    let Some(wedged) = base.iter().find(|r| r.onset.is_some()) else {
        panic!("expected at least one SIH deadlock to mitigate");
    };
    c.watchdog = Some(dsh_simcore::Delta::from_us(400));
    let mitigated = run_once(Scheme::Sih, CcKind::Dcqcn, &c, wedged.seed);
    assert!(mitigated.onset.is_none(), "watchdog must break the deadlock: {:#?}", mitigated.cycles);
    assert!(mitigated.watchdog_drops > 0, "mitigation must have cost drops");
}

#[test]
fn an_open_cycle_is_a_deadlock_though_control_frames_still_cross_it() {
    // Default-scale DSH/PowerTCP seed 10: the cycle closes near 12 ms and
    // stays open to the end, with data queued behind class pauses on all
    // four switches while ACKs and PAUSE frames still leave those ports.
    let r = run_once(Scheme::Dsh, CcKind::PowerTcp, &Fig12Config::small(), 10);
    assert!(r.onset.is_some(), "seed 10 must deadlock");
    assert!(
        r.cycles.iter().any(|c| c.name.matches(" -> ").count() == 4),
        "expected a 4-switch cycle: {:#?}",
        r.cycles
    );
}
