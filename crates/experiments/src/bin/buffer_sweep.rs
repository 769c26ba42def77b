//! Buffer design-space study: SB capacity vs weight re-streaming.
fn main() {
    let _trace = cq_par::start();
    println!("Buffer sweep — forward-pass weight reload factor vs SB capacity\n");
    print!("{}", cq_experiments::extensions::buffer_sweep());
    println!("\n1.00x = every weight loads once; larger = re-streaming from DRAM.");
}
