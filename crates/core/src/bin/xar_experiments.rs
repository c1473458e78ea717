//! Regenerates every table and figure of the Xar-Trek paper's
//! evaluation (§4).
//!
//! ```text
//! xar-experiments [table1|table2|table3|table4|fig3|fig4|fig5|fig6|
//!                  fig7|fig8|fig9|fig10|ablations|all] [--runs N]
//! ```
//!
//! With no argument, runs `all`; `--runs` defaults to 5 and must be
//! positive. Absolute numbers come from the simulated testbed
//! (calibrated against the paper's Table 1); the claims to check are
//! the *shapes* — who wins, by what factor, where the crossovers fall
//! (`tests/experiment_shapes.rs` pins them).
//!
//! The tables go to stdout; each one's host wall-clock goes to stderr as
//! a `# <name>: <seconds> s` line, so stdout stays comparable byte for
//! byte across changes to the simulator's speed.

use xar_core::experiments as exp;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut runs: u64 = 5;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--runs" => {
                runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--runs needs a positive number"));
            }
            other if !other.starts_with('-') => which = other.to_string(),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let all = which == "all";
    let mut ran = false;
    let mut run = |name: &str, f: &dyn Fn() -> String| {
        if all || which == name {
            let start = std::time::Instant::now();
            println!("{}", f());
            eprintln!("# {name}: {:.3} s", start.elapsed().as_secs_f64());
            ran = true;
        }
    };
    run("table1", &|| exp::table1().render());
    run("table2", &|| exp::table2().render());
    run("table3", &exp::table3);
    run("table4", &|| exp::table4().render());
    run("fig3", &|| exp::fig3(runs).render());
    run("fig4", &|| exp::fig4(runs).render());
    run("fig5", &|| exp::fig5(runs).render());
    run("fig6", &|| exp::fig6().render());
    run("fig7", &|| exp::fig7().render());
    run("fig8", &|| exp::fig8().render());
    run("fig9", &|| exp::fig9().render());
    run("fig10", &|| exp::fig10().render());
    run("ablations", &|| {
        format!(
            "{}\n{}\n{}\n{}",
            exp::ablation_early_config().render(),
            exp::ablation_dynamic_update(runs).render(),
            exp::ablation_partitioning(runs).render(),
            exp::ablation_ethernet(runs.min(3)).render()
        )
    });
    if !ran {
        usage(&format!("unknown experiment {which}"));
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: xar-experiments [table1|table2|table3|table4|fig3..fig10|ablations|all] [--runs N]"
    );
    std::process::exit(2);
}
