//! One violation per rule of the lint chain. A marked line ends in a tilde
//! comment naming what must fire on it: `level[lint]` for clippy and rustc,
//! `[rule]` for simlint's token rules. `ci.sh` fails unless exactly the
//! marked set fires.

pub type Clock = std::time::Instant; //~ error[clippy::disallowed_types]
pub type Stamp = std::time::SystemTime; //~ error[clippy::disallowed_types]
pub type Map = std::collections::HashMap<u32, u32>; //~ error[clippy::disallowed_types]
pub type Set = std::collections::HashSet<u32>; //~ error[clippy::disallowed_types]

pub fn threads() {
    let _ = std::thread::spawn(|| 1); //~ error[clippy::disallowed_methods]
    std::thread::scope(|s| s.spawn(|| 1).is_finished()); //~ error[clippy::disallowed_methods] error[clippy::disallowed_methods]
    let _ = std::thread::Builder::new().spawn(|| 1); //~ error[clippy::disallowed_methods]
    let _ = std::thread::available_parallelism(); //~ error[clippy::disallowed_methods]
}

pub fn panics(v: &[u64], o: Option<u64>, i: usize, a: u64, b: u64) -> u64 {
    let x = o.unwrap() + o.expect("some"); //~ error[clippy::unwrap_used] error[clippy::expect_used]
    let n = a as u32; //~ warning[clippy::cast_possible_truncation]
    let e = v[i]; //~ warning[clippy::indexing_slicing]
    let q = a / b + a % b; //~ warning[clippy::integer_division_remainder_used] warning[clippy::integer_division_remainder_used]
    assert!(a < b); //~ warning[clippy::disallowed_macros]
    assert_eq!(a, b); //~ warning[clippy::disallowed_macros]
    assert_ne!(a, b); //~ warning[clippy::disallowed_macros]
    debug_assert!(a < b);
    match a {
        7 => panic!("seven"), //~ warning[clippy::panic]
        8 => unreachable!(), //~ warning[clippy::unreachable]
        9 => todo!(), //~ error[clippy::todo]
        10 => unimplemented!(), //~ error[clippy::unimplemented]
        _ => dbg!(x + u64::from(n) + e + q), //~ error[clippy::dbg_macro]
    }
}

pub fn count(m: &Map) -> u32 {
    let mut n = 0;
    for k in m.keys() { //~ error[clippy::iter_over_hash_type]
        n += k;
    }
    n
}

pub fn floats(x: f64, t_s: f64, n_bytes: f64, dt: f64) -> f64 {
    let mut t = if x == 0.0 { t_s + n_bytes } else { 0.0 }; //~ [float-eq] [unit-mixing]
    while t < x {
        t += dt; //~ [float-accum]
    }
    t
}

// simlint: allow(float-eq, reason = "nothing compares here") //~ [dead-pragma]
// simlint: allow(no-such-rule, reason = "an unknown rule") //~ [dead-pragma]
pub fn quiet() {}

/// # Safety
/// Nothing is unsafe here; the declaration alone is the violation.
pub unsafe fn trusted() {} //~ error[unsafe_code]

#[expect(clippy::indexing_slicing, reason = "nothing is indexed")] //~ warning[unfulfilled_lint_expectations]
pub fn unfulfilled() {}

#[allow(dead_code)] //~ error[clippy::allow_attributes_without_reason]
fn unused() {}
