"""Differential forms on coordinate charts.

Forms are stored sparsely: a degree-p form maps strictly increasing
p-tuples of coordinate indices to polynomial coefficients.  An
11-dimensional 4-form has at most C(11,4) = 330 components and the ones
appearing here are mostly monomial, so sparse maps keep everything tiny.

Every form lives on exactly one chart.  Forms on a factor chart of a
product are moved onto the product chart explicitly with
``lift_to_product`` (coefficients unchanged, indices renamed), which
keeps the bookkeeping of mixed base/fiber wedges auditable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

from .polyring import NAME, Polynomial, sum_of_products

Index = Tuple[int, ...]


class ChartError(ValueError):
    """Chart mismatch or ill-formed chart data."""


class DegreeError(ValueError):
    """Degree out of range for the requested operation."""


class Frozen:
    """An immutable record: ``__init__`` sets the slots once, in their
    declared order, and any later assignment raises."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Chart(Frozen):
    """Named coordinate chart of ``polyring.NAME`` coordinates, whose order fixes the orientation.

    Two charts are equal, and hash alike, when name and coordinates agree."""

    __slots__ = ("name", "coordinates")

    def __init__(self, name: str, coordinates: Iterable[str]):
        coordinates = tuple(coordinates)
        for i, c in enumerate(coordinates):
            if c in coordinates[:i]:
                raise ChartError(f"duplicate coordinate {c!r}")
            if not NAME.fullmatch(c):
                raise ChartError(f"coordinate {c!r} is not a variable name")
        super().__init__(name, coordinates)

    def __eq__(self, other) -> bool:
        if type(other) is not Chart:
            return NotImplemented
        return self is other or (self.name == other.name and self.coordinates == other.coordinates)

    def __hash__(self):
        return hash((self.name, self.coordinates))

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    def basis_label(self, idx: Index) -> str:
        """The basis form of an index tuple as ``dx^dy``; empty for the empty tuple."""
        return "^".join(f"d{self.coordinates[i]}" for i in idx)

    def index_of(self, coordinate: str) -> int:
        try:
            return self.coordinates.index(coordinate)
        except ValueError:
            raise ChartError(f"{coordinate!r} is not a coordinate of chart {self.name!r}") from None


def _sort_with_sign(indices: Iterable[int]) -> Tuple[Index, int]:
    """Sort an index tuple, returning (sorted tuple, permutation sign).

    Returns sign 0 when an index repeats.
    """
    seq = list(indices)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and seq[j - 1] == seq[j]:
            return tuple(seq), 0
    return tuple(seq), sign


class DifferentialForm(Frozen):
    """Degree-p form: strictly increasing index tuples -> polynomials."""

    __slots__ = ("chart", "degree", "components")

    def __init__(self, chart: Chart, degree: int, components: Mapping[Index, Polynomial] | None = None):
        if degree < 0:
            raise DegreeError("negative form degree")
        if degree > chart.dim and components:
            raise DegreeError(f"degree {degree} exceeds dim {chart.dim}")
        clean: Dict[Index, Polynomial] = {}
        if components:
            for idx, poly in components.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise DegreeError(f"index tuple {idx} has wrong length for degree {degree}")
                if any(i < 0 or i >= chart.dim for i in idx):
                    raise ChartError(f"index out of range in {idx}")
                if list(idx) != sorted(set(idx)):
                    raise ValueError(f"index tuple {idx} is not strictly increasing")
                if not poly.is_zero():
                    clean[idx] = poly
        # set directly rather than through Frozen.__init__: forms are built in the inner loops
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", clean)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(chart: Chart, degree: int) -> "DifferentialForm":
        return DifferentialForm(chart, degree, {})

    @staticmethod
    def function(chart: Chart, value: Polynomial) -> "DifferentialForm":
        return DifferentialForm(chart, 0, {(): value})

    @staticmethod
    def coordinate_differential(chart: Chart, coordinate: str) -> "DifferentialForm":
        """The 1-form dx for a chart coordinate x."""
        return DifferentialForm(chart, 1, {(chart.index_of(coordinate),): Polynomial.constant(1)})

    @staticmethod
    def monomial(chart: Chart, coordinates: Iterable[str], coeff: Polynomial) -> "DifferentialForm":
        """coeff * dx^{i1} ^ ... ^ dx^{ip} given by coordinate names."""
        raw = tuple(chart.index_of(c) for c in coordinates)
        idx, sign = _sort_with_sign(raw)
        if sign == 0:
            return DifferentialForm.zero(chart, len(raw))
        return DifferentialForm(chart, len(raw), {idx: coeff * sign})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.chart, self.degree, frozenset(self.components.items())))

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check_compatible(other)
        out = dict(self.components)
        for idx, poly in other.components.items():
            s = out.get(idx)
            out[idx] = poly if s is None else s + poly
        return DifferentialForm(self.chart, self.degree, out)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(self.chart, self.degree, {i: -p for i, p in self.components.items()})

    def __mul__(self, scalar) -> "DifferentialForm":
        if isinstance(scalar, (int, Fraction, Polynomial)):
            return DifferentialForm(
                self.chart, self.degree, {i: p * scalar for i, p in self.components.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def _check_compatible(self, other: "DifferentialForm"):
        if self.chart != other.chart:
            raise ChartError(f"chart mismatch: {self.chart.name} vs {other.chart.name}")
        if self.degree != other.degree:
            raise DegreeError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __str__(self) -> str:
        if not self.components:
            return "0"
        return " + ".join(
            f"({self.components[idx]}) {self.chart.basis_label(idx) or '1'}"
            for idx in sorted(self.components)
        )

    def __repr__(self) -> str:
        return f"DifferentialForm<{self.chart.name}, deg {self.degree}: {self}>"


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Exact wedge product; degree overflow is an error, not a silent zero."""
    if a.chart != b.chart:
        raise ChartError(f"chart mismatch: {a.chart.name} vs {b.chart.name}")
    degree = a.degree + b.degree
    if degree > a.chart.dim:
        raise DegreeError(
            f"wedge degree {a.degree}+{b.degree} exceeds dim {a.chart.dim} of chart {a.chart.name}"
        )
    products: Dict[Index, list] = {}
    for ia, pa in a.components.items():
        for ib, pb in b.components.items():
            idx, sign = _sort_with_sign(ia + ib)
            if sign:  # 0 when ia and ib share an index
                products.setdefault(idx, []).append((sign, pa, pb))
    return DifferentialForm(a.chart, degree, {i: sum_of_products(p) for i, p in products.items()})


def wedge_all(*forms: DifferentialForm) -> DifferentialForm:
    result = forms[0]
    for f in forms[1:]:
        result = wedge(result, f)
    return result


def exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    """d, computed component-wise with sorted-insertion signs.

    From top degree up, d is the empty form one degree up: no component has a free index.
    """
    chart = a.chart
    out: Dict[Index, Polynomial] = {}
    for idx, poly in a.components.items():
        occupied = set(idx)
        for k, name in enumerate(chart.coordinates):
            if k in occupied:
                continue
            dp = poly.partial(name)
            if dp.is_zero():
                continue
            new_idx, sign = _sort_with_sign((k,) + idx)
            term = dp if sign > 0 else -dp
            prev = out.get(new_idx)
            out[new_idx] = term if prev is None else prev + term
    return DifferentialForm(chart, a.degree + 1, out)


def interior_product(a: DifferentialForm, coordinate: str) -> DifferentialForm:
    """Contraction with the coordinate field d/d(coordinate).

    A component holding that index drops it with sign (-1)^position, its
    position in the increasing index tuple; each component gives its own
    output index, so nothing is multiplied or accumulated.
    """
    if a.degree == 0:
        raise DegreeError("interior product of a 0-form")
    i = a.chart.index_of(coordinate)
    out: Dict[Index, Polynomial] = {}
    for idx, poly in a.components.items():
        if i in idx:
            pos = idx.index(i)
            out[idx[:pos] + idx[pos + 1:]] = -poly if pos % 2 else poly
    return DifferentialForm(a.chart, a.degree - 1, out)


def lift_to_product(a: DifferentialForm, target: Chart) -> DifferentialForm:
    """Reindex a factor-chart form into a product chart containing its coordinates."""
    source = a.chart
    missing = [c for c in source.coordinates if c not in target.coordinates]
    if missing:
        raise ChartError(
            f"chart {source.name!r} is not a factor of {target.name!r}: missing {missing}"
        )
    mapping = [target.index_of(c) for c in source.coordinates]
    out: Dict[Index, Polynomial] = {}
    for idx, poly in a.components.items():
        new_idx, sign = _sort_with_sign(tuple(mapping[i] for i in idx))
        out[new_idx] = poly if sign > 0 else -poly
    return DifferentialForm(target, a.degree, out)
