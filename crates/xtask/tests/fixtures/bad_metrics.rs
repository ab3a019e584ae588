//! Seeded violations for the `metric-names` rule: mints series names
//! that no naming table documents (plus healthy names that are).

fn main() {
    let documented = "net/requests";
    let family = "net/conn7/round-trips";
    let segment = format!("seg/{}/label-writes", 3);
    let prefix_filter = "obs/op/";
    let undocumented = "obs/op/no_such_op";
    let undocumented_segment = "seg/2/bytes-in";
    let _ = (
        documented,
        family,
        segment,
        prefix_filter,
        undocumented,
        undocumented_segment,
    );
}
