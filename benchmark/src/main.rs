//! The untraced binary: end-to-end metrics, system allocator.

fn main() -> std::process::ExitCode {
    prop_benchmark::cli::main()
}
