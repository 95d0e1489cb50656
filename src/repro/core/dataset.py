"""SpangleDataset: multi-attribute arrays as a column store (Section III-A).

Each attribute maps to its own ArrayRDD; the dataset optionally shares a
MaskRDD. With the MaskRDD enabled (the default), Filter and Subarray
transform only the mask — evaluation reconciles attributes lazily. With
it disabled, every operator eagerly rewrites every attribute, which is
the expensive path Fig. 9b quantifies.

Both paths reconcile through :meth:`MaskRDD.apply_to`, which builds a
:class:`~repro.core.plan.ChunkPlan` (a ``MaskApplySource`` + drop-empty
kernel). Lazily, the per-attribute restriction therefore fuses with any
chunk-local operators the caller chains after :meth:`evaluate`; eagerly,
``materialize()`` collapses the same plan in a single pass.
"""

from __future__ import annotations

from repro.core.array_rdd import ArrayRDD
from repro.core.mask_rdd import MaskRDD
from repro.errors import AttributeMismatchError, ShapeMismatchError


class SpangleDataset:
    """A named collection of co-dimensional attributes."""

    def __init__(self, attributes: dict, mask: MaskRDD = None,
                 use_mask_rdd: bool = True, _pristine: bool = None):
        if not attributes:
            raise AttributeMismatchError("dataset needs >= 1 attribute")
        first = next(iter(attributes.values()))
        for name, arr in attributes.items():
            if arr.meta.shape != first.meta.shape \
                    or arr.meta.chunk_shape != first.meta.chunk_shape:
                raise ShapeMismatchError(
                    f"attribute {name!r} geometry differs from the rest"
                )
        self.attributes = dict(attributes)
        self.context = first.context
        self.use_mask_rdd = use_mask_rdd
        if use_mask_rdd and mask is None:
            # initial global view: a cell is valid when every attribute
            # carries data for it (the "global positions of null values"
            # of Section III-B-1); built lazily — no job runs here
            mask = MaskRDD.from_array_rdd(first)
            for arr in attributes.values():
                if arr is first:
                    continue
                mask = mask.and_(MaskRDD.from_array_rdd(arr))
        self.mask = mask if use_mask_rdd else None
        # pristine: no filter/subarray has constrained the mask yet, so
        # evaluation can skip the reconcile join entirely
        if _pristine is None:
            _pristine = True
        self._pristine = _pristine

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def attribute_names(self) -> list:
        return sorted(self.attributes)

    @property
    def meta(self):
        return next(iter(self.attributes.values())).meta

    def attribute(self, name: str) -> ArrayRDD:
        try:
            return self.attributes[name]
        except KeyError:
            raise AttributeMismatchError(
                f"no attribute {name!r}; have {self.attribute_names}"
            ) from None

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------

    def filter(self, attr: str, predicate) -> "SpangleDataset":
        """Filter on one attribute; the condition constrains all of them.

        MaskRDD path: one mask transformation, attributes untouched.
        Eager path: the passing-mask is joined into *every* attribute now.
        """
        anchor = self.attribute(attr)
        if self.use_mask_rdd:
            new_mask = self.mask.filter_on(anchor, predicate)
            return SpangleDataset(self.attributes, mask=new_mask,
                                  use_mask_rdd=True, _pristine=False)
        # eager path (Fig. 9b's "without MaskRDD"): collect every
        # attribute's mask, AND them all, and rewrite every attribute
        # now — the rewritten attributes are materialized immediately
        # (that is what "evaluated eagerly" means)
        combined = self._eager_global_mask().filter_on(anchor, predicate)
        new_attrs = {
            name: combined.apply_to(arr).materialize()
            for name, arr in self.attributes.items()
        }
        return SpangleDataset(new_attrs, use_mask_rdd=False)

    def _eager_global_mask(self) -> MaskRDD:
        """AND of every attribute's bitmask, computed now (no laziness)."""
        attrs = list(self.attributes.values())
        mask = MaskRDD.from_array_rdd(attrs[0])
        for arr in attrs[1:]:
            mask = mask.and_(MaskRDD.from_array_rdd(arr))
        return mask

    def subarray(self, lo, hi) -> "SpangleDataset":
        """Range-restrict the dataset (all attributes)."""
        if self.use_mask_rdd:
            if self._pristine and len(self.attributes) == 1:
                # single-attribute pushdown: restricting the attribute
                # directly is the same plan minus the reconcile join
                name, arr = next(iter(self.attributes.items()))
                return SpangleDataset({name: arr.subarray(lo, hi)},
                                      use_mask_rdd=True)
            return SpangleDataset(self.attributes,
                                  mask=self.mask.subarray(lo, hi),
                                  use_mask_rdd=True, _pristine=False)
        combined = self._eager_global_mask().subarray(lo, hi)
        new_attrs = {
            name: combined.apply_to(arr).materialize()
            for name, arr in self.attributes.items()
        }
        return SpangleDataset(new_attrs, use_mask_rdd=False)

    def join(self, other: "SpangleDataset", how: str = "and") -> "SpangleDataset":
        """Combine two datasets' attributes over shared dimensions.

        The result carries the union of the attribute sets (Section
        V-A-3); validity is the AND (and-join) or OR (or-join) of the two
        masks.
        """
        overlap = set(self.attributes) & set(other.attributes)
        if overlap:
            raise AttributeMismatchError(
                f"attribute name clash in join: {sorted(overlap)}"
            )
        attrs = {**self.attributes, **other.attributes}
        if self.use_mask_rdd and other.use_mask_rdd:
            mask = self.mask.and_(other.mask) if how == "and" \
                else self.mask.or_(other.mask)
            return SpangleDataset(attrs, mask=mask, use_mask_rdd=True,
                                  _pristine=False)
        return SpangleDataset(attrs, use_mask_rdd=False)

    def with_attribute(self, name: str, array: ArrayRDD
                       ) -> "SpangleDataset":
        """Add a co-dimensional attribute (column-store append).

        The new attribute joins under the dataset's *current* mask: any
        filters already applied constrain it too.
        """
        if name in self.attributes:
            raise AttributeMismatchError(
                f"attribute {name!r} already exists"
            )
        first = next(iter(self.attributes.values()))
        if array.meta.shape != first.meta.shape \
                or array.meta.chunk_shape != first.meta.chunk_shape:
            raise ShapeMismatchError(
                f"attribute {name!r} geometry differs from the dataset"
            )
        attrs = {**self.attributes, name: array}
        if self.use_mask_rdd:
            return SpangleDataset(attrs, mask=self.mask,
                                  use_mask_rdd=True,
                                  _pristine=self._pristine)
        return SpangleDataset(attrs, use_mask_rdd=False)

    def drop_attribute(self, name: str) -> "SpangleDataset":
        """Remove an attribute column; the mask is untouched."""
        if name not in self.attributes:
            raise AttributeMismatchError(
                f"no attribute {name!r}; have {self.attribute_names}"
            )
        if len(self.attributes) == 1:
            raise AttributeMismatchError(
                "cannot drop the only attribute"
            )
        attrs = {k: v for k, v in self.attributes.items() if k != name}
        if self.use_mask_rdd:
            return SpangleDataset(attrs, mask=self.mask,
                                  use_mask_rdd=True,
                                  _pristine=self._pristine)
        return SpangleDataset(attrs, use_mask_rdd=False)

    def derive(self, name: str, source: str, func) -> "SpangleDataset":
        """Compute a new attribute from an existing one, cell-wise."""
        derived = self.attribute(source).map_values(func)
        derived.meta = derived.meta.with_attribute(name)
        return self.with_attribute(name, derived)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, attr: str) -> ArrayRDD:
        """Reconcile one attribute with the dataset's pending mask.

        The result carries a pending mask-apply plan: chunk-local
        operators chained onto it fuse with the reconciliation itself.
        """
        arr = self.attribute(attr)
        if self.use_mask_rdd and not self._pristine:
            return self.mask.apply_to(arr)
        return arr

    def evaluate_all(self) -> dict:
        """Reconcile every attribute (the expensive eager step)."""
        return {name: self.evaluate(name) for name in self.attributes}

    def aggregate(self, attr: str, aggregator="avg"):
        return self.evaluate(attr).aggregate(aggregator)

    def count_valid(self, attr: str) -> int:
        return self.evaluate(attr).count_valid()

    def __repr__(self) -> str:
        mask = "MaskRDD" if self.use_mask_rdd else "eager"
        return (
            f"SpangleDataset(attrs={self.attribute_names}, mode={mask})"
        )
