//! Root target for the crate `top` uses without declaring it.

fn main() {
    println!("{}", tsqr_extra::extra());
}
