//! Parallel iterators over splittable sources.
//!
//! The design mirrors rayon's producer/consumer split, specialised to the
//! piece scheduler in [`crate::pool`]:
//!
//! * A [`Producer`] is a splittable description of a data source (a range,
//!   a slice, an owned `Vec`, chunk views, zips, …). `drive` cuts one
//!   into [`pool::piece_count`] pieces at deterministic boundaries and
//!   fans the pieces out over the worker pool.
//! * A [`Consumer`] folds one piece's sequential iterator into a partial
//!   result. Adapters (`map`, `filter`, …) never materialise anything:
//!   they wrap the downstream consumer so the composed pipeline runs
//!   fused, once, over each piece.
//! * Terminal operations combine the per-piece partial results **in piece
//!   order** on the calling thread. Piece boundaries depend only on input
//!   length — never on the thread count — so every terminal result is
//!   bit-identical no matter how many workers run (including
//!   floating-point reductions, whose association is fixed by the piece
//!   structure).
//!
//! The public entry points are [`IntoParallelIterator`] (`into_par_iter`),
//! [`IntoParallelRefIterator`] (`par_iter`),
//! [`IntoParallelRefMutIterator`] (`par_iter_mut`) and the slice methods
//! in [`slice`](crate::slice); all hand back a [`ParIter`] whose adapter
//! and terminal methods come from [`ParallelIterator`].

use crate::pool;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Producer: a splittable source.
// ---------------------------------------------------------------------------

/// A splittable, exactly-sized description of a data source.
pub trait Producer: Sized + Send {
    /// Element type produced.
    type Item: Send;
    /// Sequential iterator over one piece.
    type IntoIter: Iterator<Item = Self::Item>;

    /// Remaining element count.
    fn len(&self) -> usize;
    /// Splits into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);
    /// Degenerates into a sequential iterator.
    fn into_seq(self) -> Self::IntoIter;
}

/// A consumer folds one piece's sequential iterator into a partial result.
pub trait Consumer<T>: Sync {
    /// Per-piece partial result.
    type Result: Send;
    /// Folds a piece.
    fn consume<I: Iterator<Item = T>>(&self, iter: I) -> Self::Result;
}

/// Splits `producer` into `k` pieces at [`pool::piece_bounds`] boundaries.
/// Splitting proceeds right-to-left so producers whose `split_at` copies the
/// tail (the owned-`Vec` producer) move each element at most once.
fn split_pieces<P: Producer>(producer: P, k: usize, len: usize) -> Vec<P> {
    let mut pieces: Vec<P> = Vec::with_capacity(k);
    let mut rest = producer;
    for i in (1..k).rev() {
        let (start, _) = pool::piece_bounds(len, k, i);
        let (head, tail) = rest.split_at(start);
        pieces.push(tail);
        rest = head;
    }
    pieces.push(rest);
    pieces.reverse();
    pieces
}

/// Runs `consumer` over every piece of `producer` on the pool and returns
/// the per-piece partial results in piece order.
pub(crate) fn drive<P: Producer, C: Consumer<P::Item>>(
    producer: P,
    consumer: &C,
) -> Vec<C::Result> {
    let len = producer.len();
    let k = pool::piece_count(len);
    if k <= 1 {
        return vec![consumer.consume(producer.into_seq())];
    }
    let pieces: Vec<Mutex<Option<P>>> = split_pieces(producer, k, len)
        .into_iter()
        .map(|p| Mutex::new(Some(p)))
        .collect();
    let results: Vec<Mutex<Option<C::Result>>> = (0..k).map(|_| Mutex::new(None)).collect();
    pool::run_pieces(k, |i| {
        // Chaos hook: perturb when this piece's consumer starts, on top of
        // the pool-level claim reordering (no-op when chaos is off).
        pool::chaos_piece_pause(i);
        let piece = pieces[i]
            .lock()
            .unwrap()
            .take()
            .expect("piece claimed twice");
        let r = consumer.consume(piece.into_seq());
        *results[i].lock().unwrap() = Some(r);
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("piece result missing"))
        .collect()
}

// ---------------------------------------------------------------------------
// The parallel-iterator trait: adapters + terminals.
// ---------------------------------------------------------------------------

/// A parallel iterator: something that can push its elements through a
/// [`Consumer`] piece-by-piece on the worker pool.
pub trait ParallelIterator: Sized + Send {
    /// Element type.
    type Item: Send;

    /// Feeds every piece through `consumer`; returns partial results in
    /// piece order.
    fn drive<C: Consumer<Self::Item>>(self, consumer: &C) -> Vec<C::Result>;

    // ---- adapters -------------------------------------------------------

    /// Maps each element.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Keeps elements satisfying `pred`.
    fn filter<F>(self, pred: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter { base: self, pred }
    }

    /// Combined filter + map.
    fn filter_map<R, F>(self, f: F) -> FilterMap<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> Option<R> + Sync + Send,
    {
        FilterMap { base: self, f }
    }

    /// Maps each element to a *sequential* iterator and flattens (rayon's
    /// `flat_map_iter`).
    fn flat_map_iter<U, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(Self::Item) -> U + Sync + Send,
    {
        FlatMapIter { base: self, f }
    }

    /// Copies out of references.
    fn copied<'a, T>(self) -> Copied<Self>
    where
        Self: ParallelIterator<Item = &'a T>,
        T: 'a + Copy + Send + Sync,
    {
        Copied { base: self }
    }

    /// Clones out of references.
    fn cloned<'a, T>(self) -> Cloned<Self>
    where
        Self: ParallelIterator<Item = &'a T>,
        T: 'a + Clone + Send + Sync,
    {
        Cloned { base: self }
    }

    /// Granularity hint; piece sizing is fixed in this shim, so a no-op.
    fn with_min_len(self, _min: usize) -> Self {
        self
    }

    /// Granularity hint; piece sizing is fixed in this shim, so a no-op.
    fn with_max_len(self, _max: usize) -> Self {
        self
    }

    // ---- terminals ------------------------------------------------------

    /// Applies `f` to every element.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        self.drive(&ForEachConsumer { f });
    }

    /// Collects into a collection (only `Vec` in this shim; pieces are
    /// concatenated in piece order).
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    /// Sums the elements (per piece, then across pieces in piece order).
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        self.drive(&SumConsumer::<S>(PhantomData)).into_iter().sum()
    }

    /// Counts the elements.
    fn count(self) -> usize {
        self.drive(&CountConsumer).into_iter().sum()
    }

    /// Maximum element, if any.
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        self.drive(&MaxConsumer).into_iter().flatten().max()
    }

    /// Minimum element, if any.
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        self.drive(&MinConsumer).into_iter().flatten().min()
    }

    /// Whether all elements satisfy `pred` (no short-circuit guarantee).
    fn all<F>(self, pred: F) -> bool
    where
        F: Fn(Self::Item) -> bool + Sync + Send,
    {
        self.drive(&AllConsumer { pred }).into_iter().all(|b| b)
    }

    /// Whether any element satisfies `pred` (no short-circuit guarantee).
    fn any<F>(self, pred: F) -> bool
    where
        F: Fn(Self::Item) -> bool + Sync + Send,
    {
        self.drive(&AnyConsumer { pred }).into_iter().any(|b| b)
    }

    /// Some element satisfying `pred`, if any (first match in piece order
    /// here, which makes it deterministic across thread counts).
    fn find_any<F>(self, pred: F) -> Option<Self::Item>
    where
        F: Fn(&Self::Item) -> bool + Sync + Send,
    {
        self.drive(&FindConsumer { pred })
            .into_iter()
            .flatten()
            .next()
    }

    /// Rayon-style reduction: `identity()` seeds every piece, `op` folds
    /// within and then across pieces in piece order. Deterministic across
    /// thread counts because the piece structure is fixed by input length.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        let parts = self.drive(&ReduceConsumer {
            identity: &identity,
            op: &op,
        });
        parts.into_iter().fold(identity(), &op)
    }
}

/// Conversion into a parallel iterator (owned sources: ranges, `Vec`).
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// The resulting parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// `.par_iter()` — by-shared-reference parallel iteration.
pub trait IntoParallelRefIterator<'data> {
    /// Element type (a reference).
    type Item: Send + 'data;
    /// The resulting parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Parallel iterator over `&self`.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoParallelIterator,
{
    type Item = <&'data C as IntoParallelIterator>::Item;
    type Iter = <&'data C as IntoParallelIterator>::Iter;

    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// `.par_iter_mut()` — by-mutable-reference parallel iteration.
pub trait IntoParallelRefMutIterator<'data> {
    /// Element type (a mutable reference).
    type Item: Send + 'data;
    /// The resulting parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Parallel iterator over `&mut self`.
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefMutIterator<'data> for C
where
    &'data mut C: IntoParallelIterator,
{
    type Item = <&'data mut C as IntoParallelIterator>::Item;
    type Iter = <&'data mut C as IntoParallelIterator>::Iter;

    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// Collections buildable from a parallel iterator.
pub trait FromParallelIterator<T: Send> {
    /// Builds the collection.
    fn from_par_iter<P: ParallelIterator<Item = T>>(par: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(par: P) -> Self {
        let mut parts = par.drive(&CollectConsumer);
        if parts.len() == 1 {
            return parts.pop().unwrap_or_default();
        }
        let total: usize = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The source iterator: a producer with index-preserving combinators.
// ---------------------------------------------------------------------------

/// A source parallel iterator directly backed by a [`Producer`]. Unlike the
/// adapter types it still knows element *positions*, so `zip` and
/// `enumerate` live here (rayon's "indexed" iterators).
pub struct ParIter<P: Producer>(pub(crate) P);

impl<P: Producer> ParallelIterator for ParIter<P> {
    type Item = P::Item;

    fn drive<C: Consumer<P::Item>>(self, consumer: &C) -> Vec<C::Result> {
        drive(self.0, consumer)
    }
}

impl<P: Producer> ParIter<P> {
    /// Zips element-wise with another source iterator (stops at the shorter).
    pub fn zip<Q: Producer>(self, other: ParIter<Q>) -> ParIter<ZipProducer<P, Q>> {
        ParIter(ZipProducer {
            a: self.0,
            b: other.0,
        })
    }

    /// Pairs elements with their global index.
    pub fn enumerate(self) -> ParIter<EnumerateProducer<P>> {
        ParIter(EnumerateProducer {
            base: self.0,
            offset: 0,
        })
    }
}

// ---------------------------------------------------------------------------
// Adapter types.
// ---------------------------------------------------------------------------

/// See [`ParallelIterator::map`].
pub struct Map<B, F> {
    base: B,
    f: F,
}

struct MapConsumer<'c, F, C: ?Sized> {
    f: F,
    inner: &'c C,
}

impl<T, R, F, C> Consumer<T> for MapConsumer<'_, F, C>
where
    F: Fn(T) -> R + Sync,
    C: Consumer<R>,
{
    type Result = C::Result;

    fn consume<I: Iterator<Item = T>>(&self, iter: I) -> C::Result {
        self.inner.consume(iter.map(|x| (self.f)(x)))
    }
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync + Send,
{
    type Item = R;

    fn drive<C: Consumer<R>>(self, consumer: &C) -> Vec<C::Result> {
        self.base.drive(&MapConsumer {
            f: self.f,
            inner: consumer,
        })
    }
}

/// See [`ParallelIterator::filter`].
pub struct Filter<B, F> {
    base: B,
    pred: F,
}

struct FilterConsumer<'c, F, C: ?Sized> {
    pred: F,
    inner: &'c C,
}

impl<T, F, C> Consumer<T> for FilterConsumer<'_, F, C>
where
    F: Fn(&T) -> bool + Sync,
    C: Consumer<T>,
{
    type Result = C::Result;

    fn consume<I: Iterator<Item = T>>(&self, iter: I) -> C::Result {
        self.inner.consume(iter.filter(|x| (self.pred)(x)))
    }
}

impl<B, F> ParallelIterator for Filter<B, F>
where
    B: ParallelIterator,
    F: Fn(&B::Item) -> bool + Sync + Send,
{
    type Item = B::Item;

    fn drive<C: Consumer<B::Item>>(self, consumer: &C) -> Vec<C::Result> {
        self.base.drive(&FilterConsumer {
            pred: self.pred,
            inner: consumer,
        })
    }
}

/// See [`ParallelIterator::filter_map`].
pub struct FilterMap<B, F> {
    base: B,
    f: F,
}

struct FilterMapConsumer<'c, F, C: ?Sized> {
    f: F,
    inner: &'c C,
}

impl<T, R, F, C> Consumer<T> for FilterMapConsumer<'_, F, C>
where
    F: Fn(T) -> Option<R> + Sync,
    C: Consumer<R>,
{
    type Result = C::Result;

    fn consume<I: Iterator<Item = T>>(&self, iter: I) -> C::Result {
        self.inner.consume(iter.filter_map(|x| (self.f)(x)))
    }
}

impl<B, R, F> ParallelIterator for FilterMap<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> Option<R> + Sync + Send,
{
    type Item = R;

    fn drive<C: Consumer<R>>(self, consumer: &C) -> Vec<C::Result> {
        self.base.drive(&FilterMapConsumer {
            f: self.f,
            inner: consumer,
        })
    }
}

/// See [`ParallelIterator::flat_map_iter`].
pub struct FlatMapIter<B, F> {
    base: B,
    f: F,
}

struct FlatMapIterConsumer<'c, F, C: ?Sized> {
    f: F,
    inner: &'c C,
}

impl<T, U, F, C> Consumer<T> for FlatMapIterConsumer<'_, F, C>
where
    U: IntoIterator,
    F: Fn(T) -> U + Sync,
    C: Consumer<U::Item>,
{
    type Result = C::Result;

    fn consume<I: Iterator<Item = T>>(&self, iter: I) -> C::Result {
        self.inner.consume(iter.flat_map(|x| (self.f)(x)))
    }
}

impl<B, U, F> ParallelIterator for FlatMapIter<B, F>
where
    B: ParallelIterator,
    U: IntoIterator,
    U::Item: Send,
    F: Fn(B::Item) -> U + Sync + Send,
{
    type Item = U::Item;

    fn drive<C: Consumer<U::Item>>(self, consumer: &C) -> Vec<C::Result> {
        self.base.drive(&FlatMapIterConsumer {
            f: self.f,
            inner: consumer,
        })
    }
}

/// See [`ParallelIterator::copied`].
pub struct Copied<B> {
    base: B,
}

struct CopiedConsumer<'c, C: ?Sized> {
    inner: &'c C,
}

impl<'a, T, C> Consumer<&'a T> for CopiedConsumer<'_, C>
where
    T: 'a + Copy + Send,
    C: Consumer<T>,
{
    type Result = C::Result;

    fn consume<I: Iterator<Item = &'a T>>(&self, iter: I) -> C::Result {
        self.inner.consume(iter.copied())
    }
}

impl<'a, T, B> ParallelIterator for Copied<B>
where
    T: 'a + Copy + Send + Sync,
    B: ParallelIterator<Item = &'a T>,
{
    type Item = T;

    fn drive<C: Consumer<T>>(self, consumer: &C) -> Vec<C::Result> {
        self.base.drive(&CopiedConsumer { inner: consumer })
    }
}

/// See [`ParallelIterator::cloned`].
pub struct Cloned<B> {
    base: B,
}

struct ClonedConsumer<'c, C: ?Sized> {
    inner: &'c C,
}

impl<'a, T, C> Consumer<&'a T> for ClonedConsumer<'_, C>
where
    T: 'a + Clone + Send,
    C: Consumer<T>,
{
    type Result = C::Result;

    fn consume<I: Iterator<Item = &'a T>>(&self, iter: I) -> C::Result {
        self.inner.consume(iter.cloned())
    }
}

impl<'a, T, B> ParallelIterator for Cloned<B>
where
    T: 'a + Clone + Send + Sync,
    B: ParallelIterator<Item = &'a T>,
{
    type Item = T;

    fn drive<C: Consumer<T>>(self, consumer: &C) -> Vec<C::Result> {
        self.base.drive(&ClonedConsumer { inner: consumer })
    }
}

// ---------------------------------------------------------------------------
// Terminal consumers.
// ---------------------------------------------------------------------------

struct ForEachConsumer<F> {
    f: F,
}

impl<T, F: Fn(T) + Sync> Consumer<T> for ForEachConsumer<F> {
    type Result = ();

    fn consume<I: Iterator<Item = T>>(&self, iter: I) {
        for x in iter {
            (self.f)(x);
        }
    }
}

struct CollectConsumer;

impl<T: Send> Consumer<T> for CollectConsumer {
    type Result = Vec<T>;

    fn consume<I: Iterator<Item = T>>(&self, iter: I) -> Vec<T> {
        iter.collect()
    }
}

struct SumConsumer<S>(PhantomData<fn() -> S>);

impl<T, S: Send + std::iter::Sum<T>> Consumer<T> for SumConsumer<S> {
    type Result = S;

    fn consume<I: Iterator<Item = T>>(&self, iter: I) -> S {
        iter.sum()
    }
}

struct CountConsumer;

impl<T> Consumer<T> for CountConsumer {
    type Result = usize;

    fn consume<I: Iterator<Item = T>>(&self, iter: I) -> usize {
        iter.count()
    }
}

struct MaxConsumer;

impl<T: Ord + Send> Consumer<T> for MaxConsumer {
    type Result = Option<T>;

    fn consume<I: Iterator<Item = T>>(&self, iter: I) -> Option<T> {
        iter.max()
    }
}

struct MinConsumer;

impl<T: Ord + Send> Consumer<T> for MinConsumer {
    type Result = Option<T>;

    fn consume<I: Iterator<Item = T>>(&self, iter: I) -> Option<T> {
        iter.min()
    }
}

struct AllConsumer<F> {
    pred: F,
}

impl<T, F: Fn(T) -> bool + Sync> Consumer<T> for AllConsumer<F> {
    type Result = bool;

    fn consume<I: Iterator<Item = T>>(&self, mut iter: I) -> bool {
        iter.all(|x| (self.pred)(x))
    }
}

struct AnyConsumer<F> {
    pred: F,
}

impl<T, F: Fn(T) -> bool + Sync> Consumer<T> for AnyConsumer<F> {
    type Result = bool;

    fn consume<I: Iterator<Item = T>>(&self, mut iter: I) -> bool {
        iter.any(|x| (self.pred)(x))
    }
}

struct FindConsumer<F> {
    pred: F,
}

impl<T: Send, F: Fn(&T) -> bool + Sync> Consumer<T> for FindConsumer<F> {
    type Result = Option<T>;

    fn consume<I: Iterator<Item = T>>(&self, mut iter: I) -> Option<T> {
        iter.find(|x| (self.pred)(x))
    }
}

struct ReduceConsumer<'o, ID, OP> {
    identity: &'o ID,
    op: &'o OP,
}

impl<T, ID, OP> Consumer<T> for ReduceConsumer<'_, ID, OP>
where
    T: Send,
    ID: Fn() -> T + Sync,
    OP: Fn(T, T) -> T + Sync,
{
    type Result = T;

    fn consume<I: Iterator<Item = T>>(&self, iter: I) -> T {
        iter.fold((self.identity)(), |a, b| (self.op)(a, b))
    }
}

// ---------------------------------------------------------------------------
// Producers.
// ---------------------------------------------------------------------------

/// Producer over an integer range.
pub struct RangeProducer<T> {
    range: Range<T>,
}

macro_rules! range_producer {
    ($($t:ty),*) => {$(
        impl Producer for RangeProducer<$t> {
            type Item = $t;
            type IntoIter = Range<$t>;

            fn len(&self) -> usize {
                if self.range.end > self.range.start {
                    (self.range.end - self.range.start) as usize
                } else {
                    0
                }
            }

            fn split_at(self, index: usize) -> (Self, Self) {
                let mid = self.range.start + index as $t;
                (
                    RangeProducer { range: self.range.start..mid },
                    RangeProducer { range: mid..self.range.end },
                )
            }

            fn into_seq(self) -> Range<$t> {
                self.range
            }
        }

        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Iter = ParIter<RangeProducer<$t>>;

            fn into_par_iter(self) -> Self::Iter {
                ParIter(RangeProducer { range: self })
            }
        }
    )*};
}

range_producer!(u32, u64, usize, i32, i64);

/// Producer over `&[T]`.
pub struct SliceProducer<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> Producer for SliceProducer<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(index);
        (SliceProducer { slice: a }, SliceProducer { slice: b })
    }

    fn into_seq(self) -> Self::IntoIter {
        self.slice.iter()
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = ParIter<SliceProducer<'a, T>>;

    fn into_par_iter(self) -> Self::Iter {
        ParIter(SliceProducer { slice: self })
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<SliceProducer<'a, T>>;

    fn into_par_iter(self) -> Self::Iter {
        ParIter(SliceProducer { slice: self })
    }
}

/// Producer over `&mut [T]`.
pub struct SliceMutProducer<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> Producer for SliceMutProducer<'a, T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(index);
        (SliceMutProducer { slice: a }, SliceMutProducer { slice: b })
    }

    fn into_seq(self) -> Self::IntoIter {
        self.slice.iter_mut()
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Item = &'a mut T;
    type Iter = ParIter<SliceMutProducer<'a, T>>;

    fn into_par_iter(self) -> Self::Iter {
        ParIter(SliceMutProducer { slice: self })
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Item = &'a mut T;
    type Iter = ParIter<SliceMutProducer<'a, T>>;

    fn into_par_iter(self) -> Self::Iter {
        ParIter(SliceMutProducer { slice: self })
    }
}

/// Producer over an owned `Vec<T>`. `split_at` peels the tail into its own
/// allocation (`Vec::split_off`), so `drive`'s right-to-left splitting
/// moves each element at most once overall.
pub struct VecProducer<T> {
    vec: Vec<T>,
}

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn len(&self) -> usize {
        self.vec.len()
    }

    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.vec.split_off(index);
        (self, VecProducer { vec: tail })
    }

    fn into_seq(self) -> Self::IntoIter {
        self.vec.into_iter()
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<VecProducer<T>>;

    fn into_par_iter(self) -> Self::Iter {
        ParIter(VecProducer { vec: self })
    }
}

/// Producer over `slice.chunks(size)`; element unit is one chunk.
pub struct ChunksProducer<'a, T> {
    pub(crate) slice: &'a [T],
    pub(crate) size: usize,
}

impl<'a, T: Sync> Producer for ChunksProducer<'a, T> {
    type Item = &'a [T];
    type IntoIter = std::slice::Chunks<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at(mid);
        (
            ChunksProducer {
                slice: a,
                size: self.size,
            },
            ChunksProducer {
                slice: b,
                size: self.size,
            },
        )
    }

    fn into_seq(self) -> Self::IntoIter {
        self.slice.chunks(self.size)
    }
}

/// Producer over `slice.chunks_mut(size)`; element unit is one chunk.
pub struct ChunksMutProducer<'a, T> {
    pub(crate) slice: &'a mut [T],
    pub(crate) size: usize,
}

impl<'a, T: Send> Producer for ChunksMutProducer<'a, T> {
    type Item = &'a mut [T];
    type IntoIter = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(mid);
        (
            ChunksMutProducer {
                slice: a,
                size: self.size,
            },
            ChunksMutProducer {
                slice: b,
                size: self.size,
            },
        )
    }

    fn into_seq(self) -> Self::IntoIter {
        self.slice.chunks_mut(self.size)
    }
}

/// Producer over `slice.windows(size)`; element unit is one window.
pub struct WindowsProducer<'a, T> {
    pub(crate) slice: &'a [T],
    pub(crate) size: usize,
}

impl<'a, T: Sync> Producer for WindowsProducer<'a, T> {
    type Item = &'a [T];
    type IntoIter = std::slice::Windows<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().saturating_sub(self.size - 1)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        // Window i covers elements [i, i + size); the left part needs the
        // overlap up to window index - 1's last element.
        let left_end = (index + self.size - 1).min(self.slice.len());
        (
            WindowsProducer {
                slice: &self.slice[..left_end],
                size: self.size,
            },
            WindowsProducer {
                slice: &self.slice[index..],
                size: self.size,
            },
        )
    }

    fn into_seq(self) -> Self::IntoIter {
        self.slice.windows(self.size)
    }
}

/// Producer zipping two producers element-wise (length = the shorter).
pub struct ZipProducer<A, B> {
    a: A,
    b: B,
}

impl<A: Producer, B: Producer> Producer for ZipProducer<A, B> {
    type Item = (A::Item, B::Item);
    type IntoIter = std::iter::Zip<A::IntoIter, B::IntoIter>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a1, a2) = self.a.split_at(index);
        let (b1, b2) = self.b.split_at(index);
        (ZipProducer { a: a1, b: b1 }, ZipProducer { a: a2, b: b2 })
    }

    fn into_seq(self) -> Self::IntoIter {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

/// Producer pairing elements with their global index.
pub struct EnumerateProducer<P> {
    base: P,
    offset: usize,
}

impl<P: Producer> Producer for EnumerateProducer<P> {
    type Item = (usize, P::Item);
    type IntoIter = EnumerateIter<P::IntoIter>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            EnumerateProducer {
                base: a,
                offset: self.offset,
            },
            EnumerateProducer {
                base: b,
                offset: self.offset + index,
            },
        )
    }

    fn into_seq(self) -> Self::IntoIter {
        EnumerateIter {
            inner: self.base.into_seq(),
            idx: self.offset,
        }
    }
}

/// Sequential iterator for [`EnumerateProducer`]: enumeration starting at a
/// piece-dependent offset.
pub struct EnumerateIter<I> {
    inner: I,
    idx: usize,
}

impl<I: Iterator> Iterator for EnumerateIter<I> {
    type Item = (usize, I::Item);

    fn next(&mut self) -> Option<(usize, I::Item)> {
        let x = self.inner.next()?;
        let i = self.idx;
        self.idx += 1;
        Some((i, x))
    }
}
