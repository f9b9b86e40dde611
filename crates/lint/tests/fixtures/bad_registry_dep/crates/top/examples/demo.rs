//! Root target: the registry dependency is the only finding.

fn main() {
    println!("{}", tsqr_top::two());
}
