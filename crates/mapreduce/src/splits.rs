//! Split sources: how map tasks get their input.
//!
//! [`run_job`](crate::run_job) reads its splits through [`SplitSource`]
//! and materializes a split only while a map attempt is actually
//! executing it (the attempt's copy is dropped when the attempt
//! finishes). Because map inputs must be replayable for the
//! retry/speculation/re-execution ladder, a source must return
//! byte-identical data for the same index on every call — the same purity
//! contract UDFs already obey.
//!
//! Two kinds of source cover the workspace:
//!
//! * `[Vec<In>]` and `Vec<Vec<In>>` — pre-materialized splits, lent to
//!   each attempt without copying.
//! * [`FnSplits`] — regenerates a split on demand from a deterministic
//!   recipe, e.g. a seeded [`skymr_datagen::stream`] chunk. Queued jobs
//!   under the multi-tenant executor hold only the recipe, so they do not
//!   pin their whole input in RAM while they wait.

/// One split's data, borrowed from a materialized source or owned by an
/// on-demand one. Derefs to `[In]` so the driver reads both the same way.
#[derive(Debug)]
pub enum SplitData<'a, In> {
    /// A view into a pre-materialized split.
    Borrowed(&'a [In]),
    /// A split regenerated for this attempt; dropped when it finishes.
    Owned(Vec<In>),
}

impl<In> std::ops::Deref for SplitData<'_, In> {
    type Target = [In];

    fn deref(&self) -> &[In] {
        match self {
            SplitData::Borrowed(s) => s,
            SplitData::Owned(v) => v,
        }
    }
}

/// A replayable source of map-task input splits.
///
/// `Sync` because map attempts run concurrently on host threads; the
/// source is only read. Implementations must be *pure*: `load(i)` returns
/// the same records in the same order every time it is called, or retries
/// and speculative attempts would diverge from their originals.
pub trait SplitSource<In>: Sync {
    /// Number of splits (= map tasks).
    fn num_splits(&self) -> usize;

    /// Record count of split `index` without materializing it. The skip-
    /// bad-records protocol and the task model need lengths cheaply.
    fn split_len(&self, index: usize) -> usize;

    /// Materializes split `index` for one map attempt.
    fn load(&self, index: usize) -> SplitData<'_, In>;
}

/// Pre-materialized input: one `Vec` per split.
impl<In: Sync> SplitSource<In> for [Vec<In>] {
    fn num_splits(&self) -> usize {
        self.len()
    }

    fn split_len(&self, index: usize) -> usize {
        self[index].len()
    }

    fn load(&self, index: usize) -> SplitData<'_, In> {
        SplitData::Borrowed(&self[index])
    }
}

impl<In: Sync> SplitSource<In> for Vec<Vec<In>> {
    fn num_splits(&self) -> usize {
        self.as_slice().num_splits()
    }

    fn split_len(&self, index: usize) -> usize {
        self.as_slice().split_len(index)
    }

    fn load(&self, index: usize) -> SplitData<'_, In> {
        self.as_slice().load(index)
    }
}

/// Splits regenerated on demand from a deterministic recipe.
///
/// `lens[i]` must equal `make(i).len()` — the constructor is handed the
/// lengths up front so queued jobs can report their shape without
/// generating a single record.
pub struct FnSplits<F> {
    lens: Vec<usize>,
    make: F,
}

impl<F> FnSplits<F> {
    /// A source of `lens.len()` splits, where split `i` holds `lens[i]`
    /// records produced by `make(i)`.
    pub fn new(lens: Vec<usize>, make: F) -> Self {
        Self { lens, make }
    }
}

impl<F> std::fmt::Debug for FnSplits<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnSplits")
            .field("lens", &self.lens)
            .finish()
    }
}

impl<In, F> SplitSource<In> for FnSplits<F>
where
    F: Fn(usize) -> Vec<In> + Sync,
{
    fn num_splits(&self) -> usize {
        self.lens.len()
    }

    fn split_len(&self, index: usize) -> usize {
        self.lens[index]
    }

    fn load(&self, index: usize) -> SplitData<'_, In> {
        let split = (self.make)(index);
        debug_assert_eq!(
            split.len(),
            self.lens[index],
            "FnSplits: declared length of split {index} disagrees with its recipe"
        );
        SplitData::Owned(split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_splits_borrow_without_copying() {
        let data = vec![vec![1u32, 2], vec![3]];
        let source: &[Vec<u32>] = &data;
        assert_eq!(source.num_splits(), 2);
        assert_eq!(source.split_len(0), 2);
        assert_eq!(source.split_len(1), 1);
        assert_eq!(&*source.load(0), &[1, 2]);
        assert!(matches!(source.load(1), SplitData::Borrowed(_)));
        assert_eq!(data.num_splits(), 2, "a Vec of splits is a source too");
        assert!(matches!(data.load(0), SplitData::Borrowed(s) if s == [1, 2]));
    }

    #[test]
    fn fn_splits_regenerate_identically_on_every_load() {
        let source = FnSplits::new(vec![3, 2], |i| {
            (0..(3 - i)).map(|n| (i * 10 + n) as u32).collect()
        });
        assert_eq!(source.num_splits(), 2);
        let first = source.load(0);
        let again = source.load(0);
        assert_eq!(
            &*first, &*again,
            "replayed attempts must see identical input"
        );
        assert_eq!(&*source.load(1), &[10, 11]);
        assert!(matches!(source.load(1), SplitData::Owned(_)));
    }
}
