//! Root target: the stale allow entries are the only findings.

fn main() {
    println!("{}", tsqr_solo::id(1));
}
