//! Counter sets declared once: [`counters!`](crate::counters!) turns one
//! doc-commented field list into the struct, its saturating `merge` and a
//! [`Tally`] visitor, so a new field reaches the merge, and every exporter
//! built on the visitor, from its declaration alone.

use crate::tally_add;

/// A field of a [`counters!`](crate::counters!) set: a `u64` counter, or
/// another declared set nested whole.
pub trait Tally {
    /// Adds `other` into `self`: [`tally_add`] on every counter (exact
    /// sums, loud on overflow in debug builds, saturating in release).
    fn merge(&mut self, other: &Self);

    /// Calls `visit(name, value)` for every counter, in declaration order.
    /// A `u64` is one counter named `name`; a set names its fields
    /// `{name}_{field}`, or `field` when `name` is empty.
    fn visit_named(&self, name: &str, visit: &mut dyn FnMut(&str, u64));

    /// Calls `visit(name, value)` for every counter, in declaration order.
    /// A nested set's counters are named `{field}_{nested}`, so every name
    /// is distinct and valid in a Prometheus metric name.
    fn visit(&self, mut visit: impl FnMut(&str, u64)) {
        self.visit_named("", &mut visit);
    }
}

impl Tally for u64 {
    fn merge(&mut self, other: &Self) {
        tally_add(self, *other);
    }

    fn visit_named(&self, name: &str, visit: &mut dyn FnMut(&str, u64)) {
        visit(name, *self);
    }
}

/// Visits the field `field` of a set visited as `prefix` (the body
/// [`counters!`](crate::counters!) generates for [`Tally::visit_named`]).
#[doc(hidden)]
pub fn visit_field(
    value: &impl Tally,
    prefix: &str,
    field: &str,
    visit: &mut dyn FnMut(&str, u64),
) {
    if prefix.is_empty() {
        value.visit_named(field, visit);
    } else {
        value.visit_named(&format!("{prefix}_{field}"), visit);
    }
}

/// Declares a set of counters: the struct, with its attributes, field docs
/// and visibilities as written; an inherent `merge` (callers need no
/// import) that folds every field through [`tally_add`]; and a [`Tally`]
/// impl. Each field is a `u64` or another declared set.
///
/// ```
/// use esam_obs::{counters, Tally};
///
/// counters! {
///     /// Requests and their retries.
///     #[derive(Default)]
///     pub struct Requests {
///         /// Requests served.
///         pub served: u64,
///         /// Retries issued.
///         pub retries: u64,
///     }
/// }
///
/// let mut total = Requests { served: 3, retries: 1 };
/// total.merge(&Requests { served: 2, retries: 0 });
/// let mut seen = Vec::new();
/// total.visit(|name, value| seen.push(format!("{name}={value}")));
/// assert_eq!(seen, ["served=5", "retries=1"]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$field_attr:meta])* $field_vis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $( $(#[$field_attr])* $field_vis $field: $ty, )*
        }

        impl $name {
            /// Adds another set's counts into this one, field by field
            /// (exact sums; loud on overflow in debug builds, saturating in
            /// release — see `esam_obs::tally_add`).
            pub fn merge(&mut self, other: &Self) {
                $( $crate::Tally::merge(&mut self.$field, &other.$field); )*
            }
        }

        impl $crate::Tally for $name {
            fn merge(&mut self, other: &Self) {
                // The inherent `merge` above: inherent items take precedence.
                $name::merge(self, other);
            }

            fn visit_named(&self, name: &str, visit: &mut dyn FnMut(&str, u64)) {
                $( $crate::counters::visit_field(&self.$field, name, stringify!($field), visit); )*
            }
        }
    };
}
