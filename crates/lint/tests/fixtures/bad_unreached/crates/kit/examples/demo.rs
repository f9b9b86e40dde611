//! Root target: reaches `used` by a call and `as_pointer` as a value.

fn main() {
    let v: Vec<u64> = [1, 2].into_iter().map(tsqr_kit::as_pointer).collect();
    println!("{} {v:?}", tsqr_kit::used(1));
}
