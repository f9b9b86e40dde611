//! Root target: the layering violations are the only findings.

fn main() {
    println!("{}", tsqr_top::top());
}
