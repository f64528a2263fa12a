//! **Table 3** — application characteristics.
//!
//! The paper reports, per case study: total LOC, the protected data, the
//! LOC added by the retrofit, and the fraction of execution time spent
//! inside security regions. LOC here are measured over this repo's
//! ports (total = secured module source; added ≈ secured − baseline,
//! the DIFC-specific code), and %-time-in-SRs is *measured* by the
//! runtime's region timer while running each app's workload. The timer
//! times each principal's first 64 outermost regions and then samples
//! one in 16, so each row also prints `regions_timed`, the sample size
//! behind its share.
//!
//! Paper row targets: GradeSheet 6%, Battleship 54%, Calendar 1%,
//! FreeCS <1% of time in security regions.

use laminar::Laminar;
use laminar_apps::battleship::Battleship;
use laminar_apps::calendar::CalendarSystem;
use laminar_apps::freecs::ChatServer;
use laminar_apps::gradesheet::GradeSheet;
use std::time::Instant;

struct Row {
    app: &'static str,
    loc_total: usize,
    protected: &'static str,
    loc_added: usize,
    pct_in_sr: f64,
    regions_timed: u64,
    paper_pct: &'static str,
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

    let mut rows = Vec::new();

    // GradeSheet.
    {
        let sys = Laminar::boot();
        let gs = GradeSheet::new(&sys, 12, 4).unwrap();
        gs.reset_stats();
        let t = Instant::now();
        gs.run_workload(400).unwrap();
        let total_ns = t.elapsed().as_nanos() as u64;
        let stats = gs.stats();
        rows.push(Row {
            app: "GradeSheet",
            loc_total: loc(gradesheet_src),
            protected: "Student grades",
            loc_added: loc(gradesheet_src) - baseline_loc(gradesheet_src),
            pct_in_sr: stats.pct_in_regions(total_ns),
            regions_timed: stats.regions_timed,
            paper_pct: "6%",
        });
    }

    // Battleship.
    {
        let sys = Laminar::boot();
        let game = Battleship::new(&sys, 17, false).unwrap();
        game.reset_stats();
        let t = Instant::now();
        for round in 0..6 {
            game.play(round).unwrap();
        }
        let total_ns = t.elapsed().as_nanos() as u64;
        let stats = game.stats();
        rows.push(Row {
            app: "Battleship",
            loc_total: loc(battleship_src),
            protected: "Ship locations",
            loc_added: loc(battleship_src) - baseline_loc(battleship_src),
            pct_in_sr: stats.pct_in_regions(total_ns),
            regions_timed: stats.regions_timed,
            paper_pct: "54%",
        });
    }

    // Calendar.
    {
        let sys = Laminar::boot();
        let cal = CalendarSystem::new(&sys).unwrap();
        cal.reset_stats();
        let t = Instant::now();
        cal.run_workload(300).unwrap();
        let total_ns = t.elapsed().as_nanos() as u64;
        let stats = cal.stats();
        rows.push(Row {
            app: "Calendar",
            loc_total: loc(calendar_src),
            protected: "Schedules",
            loc_added: loc(calendar_src) - baseline_loc(calendar_src),
            pct_in_sr: stats.pct_in_regions(total_ns),
            regions_timed: stats.regions_timed,
            paper_pct: "1%",
        });
    }

    // FreeCS.
    {
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
        rows.push(Row {
            app: "FreeCS",
            loc_total: loc(freecs_src),
            protected: "Membership properties",
            loc_added: loc(freecs_src) - baseline_loc(freecs_src),
            pct_in_sr: stats.pct_in_regions(total_ns),
            regions_timed: stats.regions_timed,
            paper_pct: "<1%",
        });
    }

    let header = format!(
        "{:<12} {:>6} {:<24} {:>10} {:>14} {:>8} {:>10}",
        "application",
        "LOC",
        "protected data",
        "LOC added",
        "%time in SRs",
        "timed",
        "paper"
    );
    println!("{header}");
    laminar_bench::rule_for(&header);
    for r in rows {
        println!(
            "{:<12} {:>6} {:<24} {:>6} ({:>2.0}%) {:>12.1}% {:>8} {:>10}",
            r.app,
            r.loc_total,
            r.protected,
            r.loc_added,
            100.0 * r.loc_added as f64 / r.loc_total as f64,
            r.pct_in_sr,
            r.regions_timed,
            r.paper_pct
        );
    }
    println!();
    println!("(paper: all retrofits changed <=10% of each code base; our 'LOC added'");
    println!(" is the DIFC-specific portion of the port, secured minus baseline)");
}
