//! E6b — state entanglement: identical workloads through the monolithic
//! and sublayered stacks, comparing the field-sharing matrices (paper
//! §2.3). The workload and the report live in `bench::entangle`.

fn main() {
    print!("{}", bench::entangle::report());
}
