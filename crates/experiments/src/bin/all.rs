//! Runs the complete reproduction suite (every table and figure) at the
//! scale selected by ECNSHARP_SCALE, writing CSVs under results/.

#![expect(
    clippy::disallowed_methods,
    reason = "host-side progress timing; the wall clock never feeds the simulation"
)]

use ecnsharp_experiments::{figures, perf};
fn run() {
    let scale = ecnsharp_experiments::Scale::from_env_or_exit();
    let t0 = std::time::Instant::now();
    for (name, f) in [
        (
            "table1",
            Box::new(move || figures::table1(scale)) as Box<dyn Fn() -> ecnsharp_stats::Table>,
        ),
        ("fig2", Box::new(move || figures::fig2(scale))),
        ("fig3", Box::new(move || figures::fig3(scale))),
        ("fig5", Box::new(figures::fig5)),
        ("fig6", Box::new(move || figures::fig6(scale))),
        ("fig7", Box::new(move || figures::fig7(scale))),
        ("fig8", Box::new(move || figures::fig8(scale))),
        ("fig9", Box::new(move || figures::fig9(scale))),
        ("fig10", Box::new(move || figures::fig10(scale))),
        ("fig11", Box::new(move || figures::fig11(scale))),
        ("fig12", Box::new(move || figures::fig12(scale))),
        ("fig13", Box::new(move || figures::fig13(scale))),
        ("tofino", Box::new(figures::tofino_report)),
    ] {
        println!("================ {name} ================");
        let t = perf::timed(f);
        print!("{}", t.result.render());
        eprintln!("{}", t.report(name));
        println!("[{name} done in {:.1}s]\n", t.wall_secs);
    }
    println!("full suite finished in {:.1}s", t0.elapsed().as_secs_f64());
}

fn main() -> std::process::ExitCode {
    // Supervision exit contract: a panic anywhere above becomes one
    // structured JSONL error line and exit 1 (see `runner::guarded_run`).
    ecnsharp_experiments::guarded_run("all", run)
}
