//! Demonstrates the Table V instruction set via the disassembler.
fn main() {
    let _trace = cq_par::start();
    println!("Table V — The Cambricon-Q ISA\n");
    print!("{}", cq_experiments::tables::table5());
}
