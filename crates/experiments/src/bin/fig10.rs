//! Regenerates Figure 10: queue-occupancy microscope around an incast
//! burst, plus the §5.4 headline numbers (avg queue pkts, drops).
fn run() {
    let scale = ecnsharp_experiments::Scale::from_env_or_exit();
    println!("Figure 10 — [Simulations] queue occupancy around a fanout burst");
    println!("paper headlines: DCTCP-RED-Tail ~182 pkts avg, ECN# ~8 pkts (95.6% lower), CoDel drops ~125 pkts");
    println!();
    let t = ecnsharp_experiments::perf::timed(|| ecnsharp_experiments::figures::fig10(scale));
    print!("{}", t.result.render());
    eprintln!("{}", t.report("fig10"));
}

fn main() -> std::process::ExitCode {
    // Supervision exit contract: a panic anywhere above becomes one
    // structured JSONL error line and exit 1 (see `runner::guarded_run`).
    ecnsharp_experiments::guarded_run("fig10", run)
}
