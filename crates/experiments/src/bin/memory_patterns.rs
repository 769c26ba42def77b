//! DDR access-pattern study: sequential vs strided achieved bandwidth.
fn main() {
    let _trace = cq_par::start();
    println!("Memory patterns — achieved DDR utilization (1 MiB of reads)\n");
    print!("{}", cq_experiments::extensions::memory_patterns());
}
