//! **Table 1** regenerator: 30-day consumer-hardware failure probabilities.
//!
//! Paper (from Nightingale et al., EuroSys'11):
//!
//! ```text
//! Failure          Pr[1st failure]   Pr[2nd fail | 1 fail]
//! CPU (MCE)        1 in 190          1 in 2.9
//! DRAM bit flip    1 in 1700         1 in 12
//! Disk failure     1 in 270          1 in 3.5
//! ```
//!
//! We simulate a fleet of consumer machines whose per-component hazard
//! rates are calibrated to the paper's first column and whose hazard jumps
//! after a first failure (latent defects). The simulated fleet must
//! reproduce both columns (see DESIGN.md substitution T1). The run exits 1
//! unless all six odds are within 10% of the paper's.

use eider_bench::failure_model::{simulate_table1, ComponentKind, FailureModel};
use eider_bench::Claims;

fn main() {
    let mut claims = Claims::new();
    let machines = 2_000_000;
    println!("Table 1: 30-day OS crash probability ({machines} simulated machines)\n");
    println!(
        "{:<16} {:>18} {:>18} {:>12} {:>12}",
        "Failure", "Pr[1st failure]", "Pr[2nd | 1 fail]", "paper 1st", "paper 2nd"
    );
    let within = |measured: f64, paper: f64| (measured - paper).abs() <= 0.10 * paper;
    let mut all_within = true;
    for report in simulate_table1(machines, 0x1EDC6F41) {
        let c = report.component;
        all_within &= within(report.first_failure_one_in(), c.paper_first_failure_odds())
            && within(report.second_failure_one_in(), c.paper_second_failure_odds());
        println!(
            "{:<16} {:>18} {:>18} {:>12} {:>12}",
            c.label(),
            format!("1 in {:.0}", report.first_failure_one_in()),
            format!("1 in {:.1}", report.second_failure_one_in()),
            format!("1 in {:.0}", c.paper_first_failure_odds()),
            format!("1 in {:.1}", c.paper_second_failure_odds()),
        );
    }
    println!("\nHazard multipliers after first failure (the \"two orders of magnitude\"):");
    for c in ComponentKind::ALL {
        let m = FailureModel::for_component(c);
        println!("  {:<16} x{:.0}", c.label(), m.hazard_multiplier());
    }
    claims.check("all six probabilities within 10% of the paper", all_within);
    claims.finish();
}
