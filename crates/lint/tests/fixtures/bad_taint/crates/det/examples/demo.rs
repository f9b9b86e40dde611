//! Root target: the indirect taint is the only finding.

fn main() {
    println!("{}", tsqr_det::entry());
}
