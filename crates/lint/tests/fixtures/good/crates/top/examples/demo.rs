//! Root target: reaches every public fn, so the reach pass stays quiet.

fn main() {
    println!("{}", tsqr_top::run());
    tsqr_base::watchdog();
}
