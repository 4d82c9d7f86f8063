//! The traced binary: the same program with the kernel's counting allocator
//! installed, so `core.allocs_per_trial` is measured.

#[global_allocator]
static ALLOC: prop_engine::CountingAllocator = prop_engine::CountingAllocator;

fn main() -> std::process::ExitCode {
    prop_benchmark::cli::main()
}
