//! One declaration per counter set.
//!
//! Every stats struct of the stack ([`crate::FlashStats`],
//! [`crate::ChipCounters`], and the region/engine ones upstream) is
//! declared through [`counters!`](crate::counters!), which generates the
//! struct and its [`Counters`] impl from the same field list. A field is
//! written once; merging, interval deltas, resets and the snapshot JSON
//! (rendered from [`Counters::walk`]) cannot miss it.

use crate::stats::LatencyHistogram;

/// One field of a counter set as [`Counters::walk`] reports it. The variant
/// is the field's rule in the `counters!` declaration.
#[derive(Debug, Clone, Copy)]
pub enum CounterValue<'a> {
    /// A monotone count: merges by addition.
    Sum(u64),
    /// A high-water mark: merges by maximum.
    Max(u64),
    /// A latency histogram: merges bucket-wise.
    Hist(&'a LatencyHistogram),
}

/// Mutable access to one field, as [`Counters::walk_mut`] hands it out.
#[derive(Debug)]
pub enum CounterSlot<'a> {
    /// A `sum` or `max` field.
    Count(&'a mut u64),
    /// A `hist` field.
    Hist(&'a mut LatencyHistogram),
}

/// The operations every `counters!` struct gets from its field list.
pub trait Counters: Default {
    /// Accumulate `other` into `self`: `sum` fields add, `max` fields keep
    /// the larger value, `hist` fields merge bucket-wise.
    fn merge(&mut self, other: &Self);

    /// Interval counters `self - earlier`, both taken from the same
    /// monotonically growing set. Counts subtract (saturating), histograms
    /// take [`LatencyHistogram::diff`].
    fn delta_since(&self, earlier: &Self) -> Self;

    /// Visit every field in declaration order as `(name, value)`.
    fn walk<'a>(&'a self, f: impl FnMut(&'static str, CounterValue<'a>));

    /// Visit every field in declaration order for writing.
    fn walk_mut(&mut self, f: impl FnMut(&'static str, CounterSlot<'_>));

    /// Zero every field (warm-up boundary).
    fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Declare a counter struct and derive its [`Counters`] impl.
///
/// The body is an ordinary struct declaration (attributes, docs and
/// visibility pass through unchanged; the struct is also made
/// `#[must_use]` — a measurement that is taken and dropped is a bug). A
/// `u64` field is a `sum` counter
/// unless tagged `as max`; a [`LatencyHistogram`] field is tagged `as hist`:
///
/// ```
/// ipa_flash::counters! {
///     /// Example.
///     #[derive(Debug, Clone, Default)]
///     pub struct Demo {
///         /// Operations seen.
///         pub ops: u64,
///         /// Deepest queue seen.
///         pub depth: u64 as max,
///     }
/// }
/// use ipa_flash::Counters;
/// let mut a = Demo { ops: 2, depth: 3 };
/// a.merge(&Demo { ops: 5, depth: 1 });
/// assert_eq!((a.ops, a.depth), (7, 3));
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty $(as $rule:ident)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[must_use]
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::Counters for $name {
            fn merge(&mut self, other: &Self) {
                $( $crate::counters!(@merge [$($rule)?] self.$field, other.$field); )*
            }

            fn delta_since(&self, earlier: &Self) -> Self {
                $name {
                    $( $field: $crate::counters!(@delta [$($rule)?] self.$field, earlier.$field), )*
                }
            }

            fn walk<'a>(&'a self, mut f: impl FnMut(&'static str, $crate::CounterValue<'a>)) {
                $( f(stringify!($field), $crate::counters!(@value [$($rule)?] self.$field)); )*
            }

            fn walk_mut(&mut self, mut f: impl FnMut(&'static str, $crate::CounterSlot<'_>)) {
                $( f(stringify!($field), $crate::counters!(@slot [$($rule)?] self.$field)); )*
            }
        }
    };
    (@merge [] $a:expr, $b:expr) => { $a += $b };
    (@merge [max] $a:expr, $b:expr) => { $a = $a.max($b) };
    (@merge [hist] $a:expr, $b:expr) => { $a.merge(&$b) };
    (@delta [hist] $a:expr, $b:expr) => { $a.diff(&$b) };
    (@delta [$($count:ident)?] $a:expr, $b:expr) => { $a.saturating_sub($b) };
    (@value [] $a:expr) => { $crate::CounterValue::Sum($a) };
    (@value [max] $a:expr) => { $crate::CounterValue::Max($a) };
    (@value [hist] $a:expr) => { $crate::CounterValue::Hist(&$a) };
    (@slot [hist] $a:expr) => { $crate::CounterSlot::Hist(&mut $a) };
    (@slot [$($count:ident)?] $a:expr) => { $crate::CounterSlot::Count(&mut $a) };
}
