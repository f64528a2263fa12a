//! **Table 3** — application characteristics.
//!
//! The paper reports, per case study: total LOC, the protected data, the
//! LOC added by the retrofit, and the fraction of execution time spent
//! inside security regions. LOC here are measured over this repo's
//! ports (total = secured module source; added ≈ secured − baseline,
//! the DIFC-specific code), and %-time-in-SRs is *measured* by the
//! runtime's region timer while running each app's workload. Each
//! workload runs five times on a fresh boot, and its row prints the
//! median share with the min-max of the five. The timer times each
//! principal's first 64 outermost regions and then samples one in 16,
//! so each row also prints `regions_timed`, the sample size behind its
//! share.
//!
//! Paper row targets: GradeSheet 6%, Battleship 54%, Calendar 1%,
//! FreeCS <1% of time in security regions.

use laminar::Laminar;
use laminar_apps::battleship::Battleship;
use laminar_apps::calendar::CalendarSystem;
use laminar_apps::freecs::ChatServer;
use laminar_apps::gradesheet::GradeSheet;
use std::time::Instant;

/// Runs of each app's workload. One run of FreeCS times a few ms, so
/// single runs of unchanged code spread by over a percentage point; the
/// row shows the median run's share and the spread of all of them.
const RUNS: usize = 5;

struct Row {
    app: &'static str,
    loc_total: usize,
    protected: &'static str,
    loc_added: usize,
    share: Share,
    paper_pct: &'static str,
}

/// The % of time in security regions over [`RUNS`] runs.
struct Share {
    median: f64,
    min: f64,
    max: f64,
    /// The median run's sample size (see the module docs).
    regions_timed: u64,
}

/// Runs `run`, which returns one run's % time in SRs and its
/// `regions_timed`, [`RUNS`] times.
fn share(mut run: impl FnMut() -> (f64, u64)) -> Share {
    let mut runs: Vec<(f64, u64)> = (0..RUNS).map(|_| run()).collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (median, regions_timed) = runs[RUNS / 2];
    Share { median, min: runs[0].0, max: runs[RUNS - 1].0, regions_timed }
}

/// Counts non-empty, non-comment lines in a source string.
fn loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("//!"))
        .count()
}

/// Lines of the baseline (unsecured) portion of a module, approximated
/// as everything from the `Baseline` struct definition to the test
/// module.
fn baseline_loc(src: &str) -> usize {
    let start = src.find("pub struct Baseline").unwrap_or(0);
    let end = src.find("#[cfg(test)]").unwrap_or(src.len());
    loc(&src[start..end])
}

fn main() {
    println!("Table 3: application characteristics");
    println!();

    let gradesheet_src = include_str!("../../apps/src/gradesheet.rs");
    let battleship_src = include_str!("../../apps/src/battleship.rs");
    let calendar_src = include_str!("../../apps/src/calendar.rs");
    let freecs_src = include_str!("../../apps/src/freecs.rs");

    let gradesheet = share(|| {
        let sys = Laminar::boot();
        let gs = GradeSheet::new(&sys, 12, 4).unwrap();
        gs.reset_stats();
        let t = Instant::now();
        gs.run_workload(400).unwrap();
        let total_ns = t.elapsed().as_nanos() as u64;
        let stats = gs.stats();
        (stats.pct_in_regions(total_ns), stats.regions_timed)
    });
    let battleship = share(|| {
        let sys = Laminar::boot();
        let game = Battleship::new(&sys, 17, false).unwrap();
        game.reset_stats();
        let t = Instant::now();
        for round in 0..6 {
            game.play(round).unwrap();
        }
        let total_ns = t.elapsed().as_nanos() as u64;
        let stats = game.stats();
        (stats.pct_in_regions(total_ns), stats.regions_timed)
    });
    let calendar = share(|| {
        let sys = Laminar::boot();
        let cal = CalendarSystem::new(&sys).unwrap();
        cal.reset_stats();
        let t = Instant::now();
        cal.run_workload(300).unwrap();
        let total_ns = t.elapsed().as_nanos() as u64;
        let stats = cal.stats();
        (stats.pct_in_regions(total_ns), stats.regions_timed)
    });
    let freecs = share(|| {
        let sys = Laminar::boot();
        let srv = ChatServer::new(&sys).unwrap();
        srv.login_user("owner", false).unwrap();
        srv.create_group("lobby", "owner").unwrap();
        for i in 0..64 {
            srv.login_user(&format!("u{i}"), false).unwrap();
        }
        srv.reset_stats();
        let t = Instant::now();
        srv.run_workload(64, "lobby").unwrap();
        let total_ns = t.elapsed().as_nanos() as u64;
        let stats = srv.stats();
        (stats.pct_in_regions(total_ns), stats.regions_timed)
    });

    let row = |app, src: &str, protected, share, paper_pct| Row {
        app,
        loc_total: loc(src),
        protected,
        loc_added: loc(src) - baseline_loc(src),
        share,
        paper_pct,
    };
    let rows = [
        row("GradeSheet", gradesheet_src, "Student grades", gradesheet, "6%"),
        row("Battleship", battleship_src, "Ship locations", battleship, "54%"),
        row("Calendar", calendar_src, "Schedules", calendar, "1%"),
        row("FreeCS", freecs_src, "Membership properties", freecs, "<1%"),
    ];

    let header = format!(
        "{:<12} {:>6} {:<24} {:>10} {:>14} {:>11} {:>8} {:>10}",
        "application",
        "LOC",
        "protected data",
        "LOC added",
        "%time in SRs",
        "min-max",
        "timed",
        "paper"
    );
    println!("{header}");
    laminar_bench::rule_for(&header);
    for r in rows {
        let spread = format!("{:.1}-{:.1}%", r.share.min, r.share.max);
        println!(
            "{:<12} {:>6} {:<24} {:>6} ({:>2.0}%) {:>12.1}% {:>11} {:>8} {:>10}",
            r.app,
            r.loc_total,
            r.protected,
            r.loc_added,
            100.0 * r.loc_added as f64 / r.loc_total as f64,
            r.share.median,
            spread,
            r.share.regions_timed,
            r.paper_pct
        );
    }
    println!();
    println!("(paper: all retrofits changed <=10% of each code base; our 'LOC added'");
    println!(" is the DIFC-specific portion of the port, secured minus baseline)");
}
