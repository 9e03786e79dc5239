"""Monotone piecewise-linear functions with jumps.

The whole library runs on one data structure: a nondecreasing, right
continuous, piecewise-linear function on a closed interval.  Quantile
functions, restricted CDFs and embedding profiles are all instances.

Representation: ``breaks`` is a strictly increasing array of length
m+1.  Segment k lives on the half-open cell ``[breaks[k], breaks[k+1])``
and runs linearly from the attained value ``yl[k]`` up to the left limit
``yr[k]``.  The value at the top break is ``yr[-1]`` by convention.
Jumps are encoded by ``yr[k] < yl[k+1]``; flat pieces have
``yl[k] == yr[k]`` bit for bit, so constants survive every round trip
exactly (interpolation multiplies by a zero slope instead of averaging).

All arithmetic that feeds exactness guarantees elsewhere (dyadic
corpora, involution identities) either shuffles existing floats or is
exact in binary; anything else is plain IEEE double work guarded to
stay monotone.

Every ``PLF`` array is read-only.  ``PLF(...)`` validates and copies;
``PLF._trusted`` stores read-only views unchecked, for results finite and
monotone by construction: ``on_grid`` (each cell ends on its segment's
``yr``, a cell that starts a segment starts on its ``yl``, and every
other node is pinned in its segment), ``restrict``/``canonical`` (parts
of a valid function), ``inverse`` (after its tiling check, or of a step
function, whose runs tile the range by construction),
``minimum``/``maximum`` (pointwise extremes of monotone nodes),
``concat_plfs`` (after its seam checks), the M_n element that
``interval.mn_element`` builds after its checks and
``interval.nearest_in_mn`` builds from positions clipped to [0, 1] and
made nondecreasing by a running maximum (one atom per run of equal
positions, on the breaks k/m), ``Measure``'s clip into [0, 1] (clipping
is monotone) and ``sampling.random_unit_measure`` (sorted draws with the
zero-width cells dropped).

Values nondecreasing by construction that an overflow or a non-finite
factor can still spoil go through ``_finite_ends``, which checks the two
end nodes alone: ``map_values`` (x -> shift + scale*x with scale >= 0 is
nondecreasing under rounding), ``_blend`` with nonnegative coefficients
(a sum of nondecreasing terms stays nondecreasing under rounding),
behind ``plf_combine``, ``Translation``, ``convex_hull_combination`` and
``geodesic_point`` for s in [0, 1], and ``_without_empty_cells``
(nondecreasing breaks and values), behind the reflections,
``SplitEmbedding``, the midpoint probe's junction shifts and the quantile
of ``measures.from_atoms``/``DiscreteMeasure.to_measure`` (sorted
distinct atoms on cumulative weights clamped at one).  A signed
blend (geodesic extrapolation) may decrease: ``_repair_monotone``
flattens rounding noise and ``PLF(...)`` validates the result.

A step function (every cell flat, as the quantile of a discrete measure)
is a PLF whose ``yl`` and ``yr`` are one array object.

- *Made* by ``PLF(...)`` (validated, one copy stored) and ``PLF._trusted``
  given one array for both sides: by ``const_plf``, ``measures``' discrete
  constructors, ``interval``'s M_n elements and the ``inverse`` of a step
  function, so by ``padded_inverse`` and ``flip`` of a discrete measure.
- *Kept* by ``on_grid`` (one gather serves both sides),
  ``_without_empty_cells``, ``concat_plfs`` when every piece is one, and
  ``canonical`` when no two neighbours are equal (it returns ``self``).
  A merged run builds two arrays, since a run of zeros of both signs
  keeps -0.0 on the left and 0.0 on the right.
- *Read* by ``inverse`` (a closed form, with no tiling check), ``eval``
  (a gather), ``canonical`` (one compare of neighbours), ``_on_window``
  (no window extension), ``abs_pow_gap`` on two step functions (one
  difference for both ends of its cells), ``abs_pow_cells`` and
  ``_power_cells`` given ``b is a`` (the flat formula alone) and
  ``Measure.is_discrete`` (it holds at once).

``PLF(...)``, ``PLF._trusted`` and the functions under *Kept* and *Read*
are the only ones that branch on it, as
``test_every_step_function_branch_is_a_listed_site`` checks.
Every other operation builds two arrays; equal arrays still hold equal
values, so only the cheap path is lost.  No bit moves: on a step
function the general ``on_grid`` computes a ``yl`` equal to ``yr`` bit
for bit, the differences at both ends are then equal and d = 0 sends
every cell to the flat formula; the interleaved inverse picks the
floats of the closed form; the pinned interpolation of a flat cell
returns its value, zero sign included; and the general ``canonical``
merges exactly the equal neighbours.

Each numeric idea has one private home: ``_nodes`` (the values in level
order), ``_envelope`` (min or max of a pair from ``_with_crossings``),
``_without_empty_cells`` (the zero-width cell drop) and ``_power_cells``
(cells of |affine|^r or sign(affine)|affine|^r, for the distances and
the M_n projection alike).  In the kernel, unsigned r = 2 is the
polynomial w*(m^2 + d^2/12) of the cell's midpoint value m and rise d,
with no masks, no power calls and nothing to cancel; other orders take
whole arrays when every cell is steep or every cell is flat, and masks
only when both kinds occur.  ``abs_pow_cells`` takes p = 1 as trapezoids
and computes the zero-crossing formula only when some cell crosses.
``abs_pow_gap`` works one window of at most ``_GAP_BLOCK`` breaks of the
finer function at a time, so that no full-length temporary is built:
two functions with different breaks merge, regrid and take the kernel
per window, and a shared grid takes the kernel in blocks of
``_GAP_BLOCK`` cells.  A grid of at most one block is one merge and one
kernel call.  Every node and cell is the one the whole grid gives (a
window's merge keeps the first copy of a tie, and ``on_grid``
interpolates from each segment's own anchors), the cells go into one
array, and one sum over it keeps the pairwise-summation tree, so the
sum has the bits of a single pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotMonotone

# keys and interior breaks from which _segment_index searches in sorted
# order; with fewer breaks the binary search stays in cache and sorting
# the keys costs more than it saves
_SORTED_SEARCH_MIN = 2048

# breaks of the finer function per window of abs_pow_gap, and cells per
# block of a shared grid: the temporaries of a window fit in L2
_GAP_BLOCK = 2**14


def _as_floats(x, what: str) -> np.ndarray:
    """``x`` as a float64 array; an entry that is not a number raises
    ``InvalidInput`` naming ``what``, as a builtin error would not."""
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{what} must be numbers: {exc}") from exc


def _as_float_array(x) -> np.ndarray:
    a = _as_floats(x, "PLF arrays")
    if a.ndim != 1:
        raise InvalidInput("expected a one-dimensional array")
    return a


@dataclass(frozen=True, eq=False)
class PLF:
    """One monotone piecewise-linear function; see the module docstring."""

    breaks: np.ndarray
    yl: np.ndarray
    yr: np.ndarray

    def __post_init__(self) -> None:
        step = self.yl is self.yr
        breaks = _as_float_array(self.breaks)
        yl = _as_float_array(self.yl)
        yr = yl if step else _as_float_array(self.yr)
        if len(breaks) != len(yl) + 1 or len(yl) != len(yr):
            raise InvalidInput("segment arrays do not match the break count")
        if len(yl) == 0:
            raise InvalidInput("a PLF needs at least one segment")
        # every entry takes part in one of these comparisons and a NaN fails
        # it, and in increasing order only an end can be infinite, so the
        # full finiteness scan runs only to name the fault; one array for
        # both sides has only its neighbours to compare
        rising = (breaks[1:] > breaks[:-1]).all()
        if step:
            monotone = (yl[1:] >= yl[:-1]).all()
        else:
            monotone = (yr >= yl).all() and (yl[1:] >= yr[:-1]).all()
        if not (rising and monotone):
            for a in (breaks, yl, yr):
                if not np.isfinite(a).all():
                    raise InvalidInput("non-finite entry in a PLF array")
            if not rising:
                raise NotMonotone("breakpoints must be strictly increasing")
            raise NotMonotone("segment values must be nondecreasing")
        if not all(map(math.isfinite, (breaks[0], breaks[-1], yl[0], yr[-1]))):
            raise InvalidInput("non-finite entry in a PLF array")
        yl = yl.copy()
        self.__dict__.update(breaks=breaks.copy(), yl=yl, yr=yl if step else yr.copy())
        for a in self.__dict__.values():
            a.setflags(write=False)

    @classmethod
    def _trusted(cls, breaks: np.ndarray, yl: np.ndarray, yr: np.ndarray) -> "PLF":
        """Read-only views of float arrays valid by construction; no checks,
        no copies.  One array passed as both ``yl`` and ``yr`` stays one."""
        self = object.__new__(cls)
        v = yl.view()
        self.__dict__.update(breaks=breaks.view(), yl=v, yr=v if yr is yl else yr.view())
        for a in self.__dict__.values():
            a.setflags(write=False)
        return self

    # ------------------------------------------------------------------
    # basic queries

    @property
    def num_segments(self) -> int:
        return len(self.yl)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.breaks[0]), float(self.breaks[-1])

    @property
    def value_range(self) -> tuple[float, float]:
        return float(self.yl[0]), float(self.yr[-1])

    def equals(self, other: "PLF") -> bool:
        """Equality of the three arrays, value by value (0.0 == -0.0).

        The lengths and the end values reject before any array pass, and
        ``yl`` before ``breaks``, which equal-weight measures share."""
        a, b = self, other
        if len(a.yl) != len(b.yl) or a.yl[0] != b.yl[0] or a.yr[-1] != b.yr[-1]:
            return False
        return bool((a.yl == b.yl).all() and (a.breaks == b.breaks).all() and (a.yr == b.yr).all())

    # ------------------------------------------------------------------
    # evaluation

    def _segment_index(self, y: np.ndarray, side: str) -> np.ndarray:
        """Segment of each key: ``searchsorted(breaks, y, side) - 1``,
        clipped to the segment range, which is a search among the
        interior breaks alone.

        At least ``_SORTED_SEARCH_MIN`` keys that are not already
        nondecreasing, into at least as many interior breaks, are searched
        in sorted order and the indices scattered back: NumPy narrows each
        search to the bounds of the previous key, so sorted keys cost far
        less than scattered ones, and the integers are the same.
        """
        inner = self.breaks[1:-1]
        flat = y.ravel()
        if min(y.size, len(inner)) < _SORTED_SEARCH_MIN or np.all(flat[1:] >= flat[:-1]):
            return np.searchsorted(inner, y, side=side)
        order = np.argsort(flat)
        k = np.empty(flat.size, dtype=np.intp)
        k[order] = np.searchsorted(inner, flat[order], side=side)
        return k.reshape(y.shape)

    def _interp(self, k: np.ndarray, y: np.ndarray) -> np.ndarray:
        b, lo, hi = self.breaks[k], self.yl[k], self.yr[k]
        v = lo + (hi - lo) * ((y - b) / (self.breaks[k + 1] - b))
        # rounding may poke past a segment endpoint; pin it back
        return np.minimum(np.maximum(v, lo), hi)

    def _points(self, y, what: str) -> np.ndarray:
        """``y`` as floats, every one in the domain, or ``InvalidInput``."""
        arr = np.asarray(y, dtype=np.float64)
        if not np.all((arr >= self.breaks[0]) & (arr <= self.breaks[-1])):  # NaN fails too
            raise InvalidInput(f"{what} point outside the domain")
        return arr

    def eval(self, y):
        """Right-continuous evaluation; the top break returns ``yr[-1]``."""
        arr = self._points(y, "evaluation")
        k = self._segment_index(arr, "right")
        if self.yl is self.yr:  # every cell is flat, the top one included
            v = self.yl[k]
        else:
            v = self._interp(k, arr)
            v = np.where(arr == self.breaks[k], self.yl[k], v)
            v = np.where(arr == self.breaks[-1], self.yr[-1], v)
        return v if arr.ndim else float(v)

    def left_limit(self, y):
        """Limit from the left; at the bottom break returns ``yl[0]``."""
        arr = self._points(y, "evaluation")
        k = self._segment_index(arr, "left")
        v = self._interp(k, arr)
        v = np.where(arr == self.breaks[k + 1], self.yr[k], v)
        v = np.where(arr <= self.breaks[0], self.yl[0], v)
        return v if arr.ndim else float(v)

    # ------------------------------------------------------------------
    # regridding

    def on_grid(self, grid: np.ndarray, k: np.ndarray | None) -> "PLF":
        """Re-express on ``grid``, a strictly increasing array that starts
        and ends on breaks and holds every break between: the whole domain,
        or the window of whole segments ``k[0]`` to ``k[-1]``, which gives
        the restriction to it.

        ``k`` is the segment of each grid cell, ``_segment_index(grid[:-1],
        "right")``, as ``common_grid`` returns it (``None`` only when the
        grid is the breaks, which returns ``self``, as does a whole grid
        as long as the breaks); nothing is searched.

        Every cell ends on ``yr[k]``, one gather.  Since the grid holds
        every break, a cell starts a segment exactly where ``k`` steps, and
        each segment has one such cell, which starts on ``yl`` in order;
        the other cells start on an inserted node.  An inserted node is
        interpolated once, and the value serves both cells that meet
        there, so the two sides agree bit for bit and refinement never
        introduces spurious jumps.  Only nodes inserted inside rising
        segments are interpolated; one inserted inside a flat segment
        takes ``yr`` directly, which is what the pinned interpolation
        returns there (including the sign of a zero).
        """
        b = self.breaks
        if k is None or (len(grid) == len(b) and grid[0] == b[0] and grid[-1] == b[-1]):
            return self
        nyr = self.yr[k]
        if self.yl is self.yr:  # a step function: every cell is flat
            return PLF._trusted(grid, nyr, nyr)
        nyl = nyr.copy()
        step = np.empty(len(k), dtype=bool)
        step[0] = True
        np.not_equal(k[1:], k[:-1], out=step[1:])
        starts = step.nonzero()[0]
        # a boolean-mask store is 3x slower on 10^6 cells
        nyl[starts] = self.yl if len(starts) == len(self.yl) else self.yl[k[0] : k[-1] + 1]
        rising = self.yl[k] != nyr  # per cell, whether its segment rises
        if rising.any():
            # cells whose left node is inserted inside a rising segment;
            # the cell before ends on the same node, inside the same segment
            i = (rising & ~step).nonzero()[0]
            nyl[i] = nyr[i - 1] = self._interp(k[i], grid[i])
        return PLF._trusted(grid, nyl, nyr)

    def refine(self, points) -> "PLF":
        pts = self._points(points, "refinement").ravel()
        if pts.size == 0:
            return self
        return self.on_grid(*common_grid(self, points=[pts]))

    def restrict(self, lo: float, hi: float) -> "PLF":
        """The same function viewed on the window [lo, hi]; the whole
        domain returns ``self``."""
        lo, hi = float(lo), float(hi)
        if not (self.breaks[0] <= lo < hi <= self.breaks[-1]):
            raise InvalidInput("window must sit inside the domain")
        if lo == self.breaks[0] and hi == self.breaks[-1]:
            return self
        h = self.refine(np.array([lo, hi]))
        i0 = int(np.searchsorted(h.breaks, lo, side="left"))
        i1 = int(np.searchsorted(h.breaks, hi, side="left"))
        return PLF._trusted(h.breaks[i0 : i1 + 1], h.yl[i0:i1], h.yr[i0:i1])

    # ------------------------------------------------------------------
    # algebra

    def map_values(self, scale: float, shift: float) -> "PLF":
        """Affine action on values; ``scale`` must be nonnegative.

        Rounding keeps x -> shift + scale*x nondecreasing for scale >= 0,
        so only an overflow or a non-finite scale or shift can make the
        result invalid, and ``_finite_ends`` sees either."""
        if scale < 0:
            raise InvalidInput("negative scale would reverse monotonicity")
        return _finite_ends(self.breaks, shift + scale * self.yl, shift + scale * self.yr)

    # ------------------------------------------------------------------
    # min / max / clip

    def minimum(self, other) -> "PLF":
        return _envelope(*_with_crossings(self, _coerce(other, self)), np.minimum)

    def maximum(self, other) -> "PLF":
        return _envelope(*_with_crossings(self, _coerce(other, self)), np.maximum)

    # ------------------------------------------------------------------
    # integrals

    def _cell_areas(self) -> np.ndarray:
        w = np.diff(self.breaks)
        return w * ((self.yl + self.yr) * 0.5)

    def integral(self, lo: float | None = None, hi: float | None = None) -> float:
        """Exact trapezoid integral over [lo, hi] (default: whole domain).

        Flat cells contribute w * value with no averaging error, which is
        what the dyadic exactness guarantees elsewhere rely on.
        """
        b0, bm = self.support
        lo = b0 if lo is None else float(lo)
        hi = bm if hi is None else float(hi)
        if not (b0 <= lo <= hi <= bm):
            raise InvalidInput("integration window outside the domain")
        if lo == hi:
            return 0.0
        return float(np.sum(self.restrict(lo, hi)._cell_areas()))

    def prefix_integrals(self, points) -> np.ndarray:
        """Integral from the bottom break up to each point, vectorized."""
        t = self._points(points, "integration")
        cum = np.concatenate([[0.0], np.cumsum(self._cell_areas())])
        k = self._segment_index(t, "right")
        vt = self._interp(k, t)
        part = (t - self.breaks[k]) * ((self.yl[k] + vt) * 0.5)
        return cum[k] + part

    # ------------------------------------------------------------------
    # inversion

    def inverse(self) -> "PLF":
        """Generalized inverse under the supremum convention.

        g(v) = sup{t : f(t) <= v}.  Rising pieces swap their roles
        verbatim (no arithmetic, so inverting twice is a bitwise
        involution), flats turn into jumps, and jumps turn into flats
        sitting at the jump location.

        Interleaving the value nodes ``yl[0], yr[0], yl[1], ...`` with the
        level nodes ``b[0], b[1], b[1], b[2], ...`` turns every segment and
        every junction into one slot; the rising slots are the pieces.

        A step function rises only at its junctions: with ``j`` the cells
        whose next value is higher, its inverse is the step function on
        the breaks ``y[j]`` and ``y[j[-1] + 1]`` with the levels
        ``b[j + 1]``.  These are the floats that the interleaved slots
        pick, zero signs included, and the runs tile the range by
        construction, so there is nothing to check.
        """
        if self.yl[0] == self.yr[-1]:
            raise InvalidInput("a constant function has a degenerate inverse")
        if self.yl is self.yr:
            y = self.yl
            j = np.flatnonzero(y[1:] != y[:-1])
            levels = self.breaks[j + 1]
            return PLF._trusted(np.append(y[j], y[j[-1] + 1]), levels, levels)
        nodes = _nodes(self.yl, self.yr)
        levels = np.repeat(self.breaks, 2)[1:-1]
        k = np.flatnonzero(nodes[1:] != nodes[:-1])
        if np.any(nodes[k[:-1] + 1] != nodes[k[1:]]):
            raise AssertionError("inverse pieces failed to tile the range")
        vb = np.append(nodes[k], nodes[k[-1] + 1])
        return PLF._trusted(vb, levels[k], levels[k + 1])

    def padded_inverse(self, lo: float, hi: float) -> "PLF":
        """``inverse()`` extended to the value window [lo, hi].

        Below the value range it is the constant ``breaks[0]``, above it
        ``breaks[-1]``; a constant function becomes a single jump at its
        value.  Of a quantile this is the CDF, of an embedding profile
        its band of the image quantile.
        """
        v0, v1 = self.value_range
        if not (lo <= v0 and v1 <= hi and lo < hi):
            raise InvalidInput("the window must contain the value range")
        if v0 == v1:  # the jump sits at yl[0]; yr[-1] may be a zero of the other sign
            v1 = v0
        pieces = [const_plf(lo, v0, self.breaks[0])] if lo < v0 else []
        if v0 < v1:
            pieces.append(self.inverse())
        if v1 < hi:
            pieces.append(const_plf(v1, hi, self.breaks[-1]))
        return concat_plfs(pieces)

    # ------------------------------------------------------------------
    # canonical form

    def canonical(self) -> "PLF":
        """Merge adjacent continuous collinear segments.

        Collinearity is decided by exact cross multiplication of the
        increments, so pieces produced by splitting one segment at an
        exactly representable point merge back.  Two mathematically
        distinct products can in principle round to the same double; the
        resulting glue moves the function by at most one ulp, far below
        every library tolerance, and the test is deterministic so equal
        inputs always canonicalize identically.
        """
        if self.num_segments == 1:
            return self
        # a step function merges exactly its equal neighbours
        if self.yl is self.yr and (self.yl[1:] != self.yl[:-1]).all():
            return self
        w = np.diff(self.breaks)
        dy = self.yr - self.yl
        cont = self.yr[:-1] == self.yl[1:]
        collinear = dy[:-1] * w[1:] == dy[1:] * w[:-1]
        merge = cont & collinear
        if not merge.any():
            return self
        # a rise times a width below 2**-1075 rounds to zero, so a rising
        # piece can test collinear with a flat neighbour
        merge &= (dy[:-1] == 0.0) == (dy[1:] == 0.0)
        if not merge.any():
            return self
        keep = np.concatenate([[True], ~merge])
        starts = np.flatnonzero(keep)
        ends = np.concatenate([starts[1:] - 1, [self.num_segments - 1]])
        nb = np.concatenate([self.breaks[starts], self.breaks[-1:]])
        return PLF._trusted(nb, self.yl[starts], self.yr[ends])


# ----------------------------------------------------------------------
# module-level constructors and binary operations


def const_plf(lo: float, hi: float, value: float) -> PLF:
    v = np.array([value])
    return PLF(np.array([lo, hi]), v, v)


def concat_plfs(pieces: list[PLF]) -> PLF:
    """Join PLFs with contiguous domains into one; seams must be monotone.
    Step functions join into one."""
    if not pieces:
        raise InvalidInput("nothing to concatenate")
    breaks = [pieces[0].breaks]
    for prev, nxt in zip(pieces, pieces[1:]):
        if prev.breaks[-1] != nxt.breaks[0]:
            raise InvalidInput("pieces do not tile the domain")
        if not prev.yr[-1] <= nxt.yl[0]:
            raise NotMonotone("pieces decrease across a seam")
        breaks.append(nxt.breaks[1:])
    yl = np.concatenate([p.yl for p in pieces])
    step = all(p.yl is p.yr for p in pieces)
    return PLF._trusted(np.concatenate(breaks), yl, yl if step else np.concatenate([p.yr for p in pieces]))


def _without_empty_cells(breaks: np.ndarray, yl: np.ndarray, yr: np.ndarray) -> PLF:
    """PLF on finite nondecreasing ``breaks`` and nondecreasing values,
    with the cells of zero width dropped.  A dropped cell's values lie
    between its neighbours', so the function stays monotone, and
    ``_finite_ends`` checks the values for an overflow."""
    keep = breaks[1:] > breaks[:-1]
    if not keep.all():
        breaks = np.append(breaks[:-1][keep], breaks[-1])
        step = yr is yl
        yl = yl[keep]
        yr = yl if step else yr[keep]
    return _finite_ends(breaks, yl, yr)


def common_grid(*fns: PLF, points: list[np.ndarray] | tuple = ()) -> tuple:
    """The union of the breaks of ``fns`` and of the ``points`` arrays,
    and the segment of each function that holds each of its cells.

    Returns ``(grid, k, ...)``, one ``k = searchsorted(f.breaks, grid[:-1],
    "right") - 1`` per function f; equal breaks and no points return
    ``(f.breaks, None, ...)``.  Points must lie in the common domain.  One
    stable argsort merges the concatenated arrays, in linear time when each
    is sorted; a value in several arrays is one node, the copy that comes
    first (``fns`` before ``points``).  The number of f's breaks up to a
    node is a running count over the merge, at the node's last position.
    """
    same = not points
    for h in fns[1:]:
        b0, b = fns[0].breaks, h.breaks
        _same_domain(b0, b)
        same = same and len(b) == len(b0) and (b == b0).all()
    if same:
        return (fns[0].breaks,) + (None,) * len(fns)
    return _merged([h.breaks for h in fns] + list(points), len(fns))


def _same_domain(b0: np.ndarray, b: np.ndarray) -> None:
    if b[0] != b0[0] or b[-1] != b0[-1]:
        raise InvalidInput("functions live on different domains")


def _merged(arrays: list[np.ndarray], nfns: int) -> tuple:
    """``common_grid``'s merge of sorted ``arrays``, the first ``nfns``
    of them a function's breaks each: the grid, and per function the
    number of its entries up to each node below the top one, less one."""
    both = np.concatenate(arrays)
    order = both.argsort(kind="stable")
    nodes = both[order]
    del both
    # per function: is each merged entry its own or an earlier function's
    upto_end, end = [], 0
    for i, a in enumerate(arrays[:nfns]):
        end += len(a)
        # the last array owns every entry past the others: no mask
        upto_end.append(None if i == len(arrays) - 1 else order < end)
    del order
    first = np.empty(len(nodes), dtype=bool)
    first[0] = True
    np.not_equal(nodes[1:], nodes[:-1], out=first[1:])
    grid = nodes[first]
    del nodes
    # the last merged position of every node below the top one
    last = first[1:].nonzero()[0]
    del first
    # k is a function's own merged entries up to those positions, less one
    ks, below = [], 0
    for mask in upto_end:
        if mask is None:
            ks.append(last - below)
        else:
            upto = mask.cumsum()[last]
            ks.append(upto - (below + 1))
            below = upto
    return (grid, *ks)


def on_common_grid(f: PLF, g: PLF) -> tuple[PLF, PLF]:
    grid, kf, kg = common_grid(f, g)
    return f.on_grid(grid, kf), g.on_grid(grid, kg)


def _coerce(other, like: PLF) -> PLF:
    if isinstance(other, PLF):
        return other
    lo, hi = like.support
    return const_plf(lo, hi, float(other))


def _with_crossings(f: PLF, g: PLF) -> tuple[PLF, PLF]:
    """Common refinement with sign changes of f-g added as nodes.

    After this, f-g has one sign per cell, so pointwise min/max of the
    node arrays represents min/max of the functions (the crossing
    location itself carries at most one ulp of error).
    """
    F, G = on_common_grid(f, g)
    dl = F.yl - G.yl
    dr = F.yr - G.yr
    hit = (dl * dr) < 0.0
    if np.any(hit):
        a = F.breaks[:-1][hit]
        w = np.diff(F.breaks)[hit]
        # a crossing that rounds past its cell's right end stays in its
        # cell: on that end it adds no node
        tau = np.minimum(a + w * (dl[hit] / (dl[hit] - dr[hit])), F.breaks[1:][hit])
        grid, kf, kg = common_grid(f, g, points=[tau])
        F, G = f.on_grid(grid, kf), g.on_grid(grid, kg)
    return F, G


def _envelope(F: PLF, G: PLF, extreme) -> PLF:
    """``np.minimum`` or ``np.maximum`` of a pair from ``_with_crossings``."""
    return PLF._trusted(F.breaks, extreme(F.yl, G.yl), extreme(F.yr, G.yr))


def _clipped(f: PLF, v: float) -> tuple[PLF, PLF]:
    """``f.minimum(v)`` and ``f.maximum(v)`` from one crossing pass."""
    pair = _with_crossings(f, _coerce(v, f))
    return _envelope(*pair, np.minimum), _envelope(*pair, np.maximum)


def plf_combine(fns: list[PLF], coeffs) -> PLF:
    """sum_i coeffs[i] * fns[i] on the common grid.

    Nonnegative coefficients keep monotonicity automatically.  Signed
    combinations (geodesic extrapolation) can produce one-ulp decreases
    in exact-zero cells; those are flattened, anything larger raises.
    """
    if len(fns) != len(np.atleast_1d(coeffs)) or not fns:
        raise InvalidInput("need one coefficient per function")
    grid, *ks = common_grid(*fns)
    return _blend(grid, (h.on_grid(grid, k) for h, k in zip(fns, ks)), coeffs)


def _blend(grid: np.ndarray, fns, coeffs) -> PLF:
    """``plf_combine`` of functions already on ``grid``.

    With nonnegative coefficients every term and every partial sum stays
    nondecreasing under rounding, so ``_finite_ends`` is the only check
    left.  A signed blend may decrease: it is repaired and validated."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    yl = yr = np.zeros(len(grid) - 1)
    for c, h in zip(coeffs, fns):
        yl = yl + c * h.yl
        yr = yr + c * h.yr
    if np.any(coeffs < 0.0):
        return PLF(grid, *_repair_monotone(yl, yr))
    return _finite_ends(grid, yl, yr)


def _finite_ends(breaks: np.ndarray, yl: np.ndarray, yr: np.ndarray) -> PLF:
    """``PLF._trusted`` of strictly increasing ``breaks`` and values that
    are nondecreasing unless some of them overflowed or are NaN.  In a
    nondecreasing sequence the two end nodes bound every other one, and
    an inf or NaN that an overflow, an infinite or a NaN factor puts
    anywhere also reaches an end node, so the ends are checked alone."""
    if not (math.isfinite(yl[0]) and math.isfinite(yr[-1])):
        raise InvalidInput("non-finite entry in a PLF array")
    return PLF._trusted(breaks, yl, yr)


def _nodes(yl: np.ndarray, yr: np.ndarray) -> np.ndarray:
    """The value nodes in level order: ``yl[0], yr[0], yl[1], ...``."""
    nodes = np.empty(2 * len(yl))
    nodes[0::2] = yl
    nodes[1::2] = yr
    return nodes


def _repair_monotone(yl: np.ndarray, yr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nodes = _nodes(yl, yr)
    fixed = np.maximum.accumulate(nodes)
    slack = float(np.max(fixed - nodes))
    if slack > 1e-9 * max(1.0, float(np.max(np.abs(nodes)))):
        raise NotMonotone("combination is decreasing beyond rounding noise")
    return fixed[0::2], fixed[1::2]


def plf_splice(low: PLF, high: PLF, t: float) -> PLF:
    """``low`` strictly below level t, ``high`` from t on.

    Both inputs must share the full domain; the seam has to be
    nondecreasing (low's left limit at t at most high's value at t).
    """
    t = float(t)
    _same_domain(low.breaks, high.breaks)
    lo, hi = low.support
    if t <= lo:
        return high
    if t >= hi:
        return low
    if low.left_limit(t) > high.eval(t):
        raise NotMonotone("splice seam would decrease")
    a = low.restrict(lo, t)
    b = high.restrict(t, hi)
    return concat_plfs([a, b])


# ----------------------------------------------------------------------
# exact cells of |affine|^p


def _power_cells(w: np.ndarray, a: np.ndarray, b: np.ndarray, r: float, signed: bool) -> np.ndarray:
    """Per cell the integral of |l|^r, or of sign(l)|l|^r when ``signed``,
    for l affine from a to b over width w.

    Unsigned r = 2 is the polynomial w*(m^2 + d^2/12), with m = (a+b)/2
    and d = b-a: the exact integral of l^2 as a sum of two nonnegative
    terms, so nothing cancels, crossing cells included, and a flat cell
    gives fl(m^2) as the midpoint rule does.  Other orders take the
    divided difference of the power primitive on steep cells only; where
    |b-a| <= 1e-9*max(|a|,|b|) it would cancel catastrophically, and the
    midpoint value of the integrand (exact in the limit) takes over.  r
    may be negative (r > -1, integrable), as in the curvature
    (p-1)|l|^(p-2) of the M_n projection at p < 2; a flat cell at zero
    then gives inf.

    ``b is a`` (both ends one array, as on two step functions) makes
    d = 0, so every cell is flat: only the flat formula is computed."""
    if r == 2.0 and not signed:
        # in place on the two fresh temporaries
        m = a + b
        m *= 0.5
        m *= m
        if b is a:
            return w * m
        d = b - a
        d *= d
        d /= 12.0
        m += d
        return w * m

    def power(u: np.ndarray, e: float, odd: bool) -> np.ndarray:  # |u|^e, or sign(u)|u|^e
        m = np.abs(u) ** e
        return np.sign(u) * m if odd else m

    def divided(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:  # steep cells
        e = r + 1.0
        return (power(b, e, not signed) / e - power(a, e, not signed) / e) / d

    def midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # flat cells
        return power((a + b) * 0.5, r, signed)

    if b is a and a.ndim == 1:  # all flat; 1-d for the array power, as below
        return w * midpoint(a, b)
    d = b - a
    steep = np.abs(d) > 1e-9 * np.maximum(np.abs(a), np.abs(b))
    # cells all of one kind take whole arrays, for equal 1-d operands only:
    # a 0-d operand would reach NumPy's scalar power, which can differ from
    # the array power in the last ulp
    if a.ndim == 1 and a.shape == b.shape:
        if steep.all():
            return w * divided(a, b, d)
        if not steep.any():
            return w * midpoint(a, b)
    elif a.shape != d.shape or b.shape != d.shape:  # the masks below need full arrays
        a, b = np.broadcast_to(a, d.shape), np.broadcast_to(b, d.shape)
    flat = ~steep
    out = np.empty(d.shape)
    out[steep] = divided(a[steep], b[steep], d[steep])
    out[flat] = midpoint(a[flat], b[flat])
    return w * out


def abs_pow_cells(w, a, b, p: float) -> np.ndarray:
    """Exact integral of |l(t)|^p per cell, for l affine from a to b over
    width w.  Inputs broadcast against each other.

    For p = 1 the cells are the trapezoid 0.5*w*(|a|+|b|) when a and b
    share a sign and w*(a^2+b^2)/(2(|a|+|b|)) when l crosses zero; both
    are free of cancellation, and when no cell crosses the trapezoids are
    returned without the crossing formula.  Other orders are
    ``_power_cells``, which takes p = 2 as a polynomial.  ``b is a`` (flat
    cells) takes the trapezoid, or ``_power_cells``' flat formula, alone.
    """
    w = np.asarray(w, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if p == 1.0:
        if b is a:
            s = np.abs(a)
            return 0.5 * w * (s + s)
        s = np.abs(a) + np.abs(b)
        cross = (a * b) < 0.0
        straight = 0.5 * w * s
        if not cross.any():
            return straight
        denom = np.where(cross, s, 1.0)
        bent = w * (a * a + b * b) / (2.0 * denom)
        return np.where(cross, bent, straight)
    return _power_cells(w, a, b, p, False)


def _merged_windows(f: PLF, g: PLF):
    """f and g on their merged grid, one window at a time: per window the
    grid and the four value arrays, its cells the merged cells in order.

    The window edges are every ``_GAP_BLOCK``-th break of the one with
    more breaks (f on a tie), the lead; the other's breaks go to the
    window at or above whose edge they lie (``side="left"``), so a value
    in both arrays is merged in one window, where the first copy (f's)
    stays the node.  A window merges the lead's breaks up to and with its
    right edge, where its last cell ends, and the other's below it; its
    ``k`` count from the slices' starts, so each node is interpolated from
    its segment's own anchors, as on the whole grid."""
    fb, gb = f.breaks, g.breaks
    _same_domain(fb, gb)
    f_leads = len(fb) >= len(gb)
    lead, other = (fb, gb) if f_leads else (gb, fb)
    starts = np.arange(0, len(lead) - 1, _GAP_BLOCK)
    edges = np.append(np.searchsorted(other, lead[starts], side="left"), len(other))
    for s, o, o_end in zip(starts.tolist(), edges[:-1].tolist(), edges[1:].tolist()):
        a, b = lead[s : s + _GAP_BLOCK + 1], other[o:o_end]
        grid, kf, kg = _merged([a, b] if f_leads else [b, a], 2)
        kf += s if f_leads else o
        kg += o if f_leads else s
        yield (grid, *_on_window(f, grid, kf), *_on_window(g, grid, kg))


def _on_window(h: PLF, grid: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``yl`` and ``yr`` of h on the cells of a window grid.  Where an end
    of the window lies inside one of h's segments, ``on_grid`` gets the
    grid extended to that segment's break, so that the end node is an
    inserted node like any other, and the extra cell is dropped.  A step
    function needs no extension: its cells take ``yr`` alone."""
    if h.yl is not h.yr:
        b, lo, hi = h.breaks, k[0], k[-1] + 1
        head, tail = int(b[lo] < grid[0]), int(grid[-1] < b[hi])
        if head or tail:
            grid = np.concatenate((b[lo : lo + head], grid, b[hi : hi + tail]))
            k = np.concatenate((k[:head], k, k[len(k) - tail :]))
            H = h.on_grid(grid, k)
            return H.yl[head : len(H.yl) - tail], H.yr[head : len(H.yr) - tail]
    H = h.on_grid(grid, k)
    return H.yl, H.yr


def _in_one_array(parts, n: int) -> np.ndarray:
    """The arrays of ``parts``, at most n entries in all, in order in one array."""
    out, e = np.empty(n), 0
    for c in parts:
        out[e : e + len(c)] = c
        e += len(c)
    return out[:e]


def abs_pow_gap(f: PLF, g: PLF, p: float) -> float:
    """integral of |f - g|^p over the domain, exact per cell.

    Functions of at most ``_GAP_BLOCK`` segments each, and functions on
    one grid, take ``on_common_grid``: one merge, then one kernel call, or
    for a larger shared grid one per block of ``_GAP_BLOCK`` cells.  Other
    functions merge, regrid and take the kernel one window at a time
    (``_merged_windows``), so no full-length grid, segment index, sort
    order, mask or regridded value array is built and the temporaries of
    a window stay in cache.  Equal break counts that agree on the first
    block are taken for one grid, which ``common_grid`` then checks in
    full.  Every cell is the value the one-pass computation gives, the
    cells go into one array, and the one sum over it keeps NumPy's
    pairwise-summation tree, so the result has the same bits.

    On two step functions one difference serves both ends of every cell.
    A gap that overflows at both ends of a cell makes the p = 2
    polynomial's rise inf - inf; such a cell's integral is inf, as the
    flat formula gives, so a NaN total at p = 2 reads inf.
    """
    step = f.yl is f.yr and g.yl is g.yr

    def block(x, fl, fr, gl, gr) -> np.ndarray:
        a = fl - gl
        return abs_pow_cells(x[1:] - x[:-1], a, a if step else fr - gr, p)

    fb, gb, m = f.breaks, g.breaks, _GAP_BLOCK
    if (len(fb) <= m + 1 and len(gb) <= m + 1) or (len(fb) == len(gb) and (fb[:m] == gb[:m]).all()):
        F, G = on_common_grid(f, g)
        x, fl, fr, gl, gr = F.breaks, F.yl, F.yr, G.yl, G.yr
        n = len(fl)
        if n <= m:
            cells = block(x, fl, fr, gl, gr)
        else:
            blocks = ((x[s : s + m + 1], fl[s : s + m], fr[s : s + m], gl[s : s + m], gr[s : s + m])
                      for s in range(0, n, m))
            cells = _in_one_array((block(*w) for w in blocks), n)
    else:
        # two such break arrays merge to at most len(fb) + len(gb) - 3 cells
        cells = _in_one_array((block(*w) for w in _merged_windows(f, g)), len(fb) + len(gb) - 3)
    total = float(cells.sum())
    return math.inf if p == 2.0 and math.isnan(total) else total
