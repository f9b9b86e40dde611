//! Root target: the protocol violations are the only findings.

fn main() {
    let mut p = tsqr_comm::Port;
    tsqr_comm::one_sided(&mut p);
    println!("{}", tsqr_comm::out_of_range(&mut p));
}
