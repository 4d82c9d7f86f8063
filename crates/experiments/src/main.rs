//! `prop <experiment> [panel] [flags]` — every experiment of the
//! reproduction behind one command (`prop list` prints the index).

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    prop_experiments::cli::main(&argv)
}
