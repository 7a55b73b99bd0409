//! The `counters!` declaration as downstream crates use it.

use esam_obs::{counters, Tally};

counters! {
    /// A leaf set.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Inner {
        /// First counter.
        pub frames: u64,
        /// Second counter.
        pub cycles: u64,
    }
}

counters! {
    /// A set nesting [`Inner`] between two plain counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Outer {
        /// Before the nested set.
        pub drops: u64,
        /// The nested set.
        pub tiles: Inner,
        /// After the nested set.
        pub retries: u64,
    }
}

fn outer(drops: u64, frames: u64, cycles: u64, retries: u64) -> Outer {
    let tiles = Inner { frames, cycles };
    Outer {
        drops,
        tiles,
        retries,
    }
}

/// The merge is a field-wise saturating sum, a declared set nests whole
/// inside another, and the visitor yields every counter in declaration
/// order.
#[test]
fn declared_sets_merge_field_wise_nest_and_visit_in_order() {
    let mut a = outer(1, 2, 30, 4);
    a.merge(&outer(10, 3, 70, 0));
    assert_eq!(a, outer(11, 5, 100, 4), "every field, nested ones too");

    let mut seen = Vec::new();
    a.visit(|name, value| seen.push(format!("{name}={value}")));
    // Declaration order; a nested set's names are joined by `_`.
    let expected = "drops=11 tiles_frames=5 tiles_cycles=100 retries=4";
    assert_eq!(seen.join(" "), expected);

    // Release builds saturate; debug builds assert instead (`tally_add`'s
    // own tests pin that).
    if cfg!(not(debug_assertions)) {
        a.merge(&outer(u64::MAX, 0, u64::MAX, 1));
        assert_eq!(a, outer(u64::MAX, 5, u64::MAX, 5));
    }
}
