//! Checks the paper's Eq. 3/5/6 against the simulator (Eq. 5 on RA007's link).

fn main() {
    rescc_bench::experiments::analytic::run();
}
