"""JSON interchange for convolution elements and contractions.

A multilinear operation is serialized as

    {"arity": n, "degree": d,
     "entries": [[[[deg, idx], ...inputs], [deg, idx], "p/q"], ...]}

a structure element as ``{"space": ..., "truncation": A, "operations": [...]}``
and a contraction as a record of the two spaces plus the maps d, i, p, h in
the entry-list format of the multicomplex module.
"""

from __future__ import annotations

from ..combination import add_into
from ..errors import BoundsError, ValidationError
from ..linalg import GradedSpace
from ..multicomplex import (
    json_coeff,
    json_int,
    json_list,
    json_object,
    map_entries_from_list,
    map_entries_to_list,
    space_and_truncation,
    space_from_dict,
    space_to_dict,
)
from .convolution import ConvElement, MultiOp
from .transfer import Contraction

# bound on the truncation arity of an element read from JSON: transfer and
# find_trivializer take seconds at 8 and grow about fivefold per arity
MAX_TRUNCATION = 8


def multiop_to_dict(op: MultiOp) -> dict:
    return {
        "arity": op.arity,
        "degree": op.degree,
        "entries": [
            [[list(b) for b in ins], list(out), str(coeff)]
            for (ins, out), coeff in sorted(op.entries.items())
        ],
    }


def multiop_from_dict(data: dict, source: GradedSpace, target: GradedSpace) -> MultiOp:
    try:
        arity, degree = json_int(data["arity"], '"arity"'), json_int(data["degree"], '"degree"')
        op = MultiOp(source, target, arity, degree)
        for ins, out, coeff in json_list(data.get("entries", ()), '"entries"'):
            key = (tuple(tuple(json_int(x, "a basis key") for x in b) for b in ins),
                   tuple(json_int(x, "a basis key") for x in out))
            op[key[0], key[1]] = op.entries.get(key, 0) + json_coeff(coeff, "a coefficient")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad operation record: {exc}") from None
    return op


def element_to_dict(elt: ConvElement) -> dict:
    return {
        "space": space_to_dict(elt.source),
        "target_space": space_to_dict(elt.target),
        "truncation": elt.truncation,
        "degree": elt.degree,
        "operations": [multiop_to_dict(elt.component(a)) for a in sorted(elt.components)],
    }


def element_from_dict(data: dict, source=None, target=None, truncation=None, degree=-1) -> ConvElement:
    """The element of a JSON record, whose space and truncation are read as
    :func:`space_and_truncation` says, with ``source`` as the space; the
    target space defaults to the source and ``degree`` applies to a record
    that names none.  Operations of one arity are summed."""
    json_object(data, "the structure")
    source, truncation = space_and_truncation(data, truncation, source)
    if truncation > MAX_TRUNCATION:
        raise BoundsError(f"truncation arity must be <= {MAX_TRUNCATION}, got {truncation}")
    if target is None:
        target = space_from_dict(data["target_space"]) if "target_space" in data else source
    degree = json_int(data.get("degree", degree), '"degree"')
    components = {}
    for op_data in json_list(data.get("operations", ()), '"operations"'):
        op = multiop_from_dict(op_data, source, target)
        if op.arity > truncation:
            raise ValidationError(
                f"operation of arity {op.arity} above the truncation {truncation}"
            )
        if op.degree != degree:
            raise ValidationError(
                f"operation of degree {op.degree} in a degree-{degree} element"
            )
        add_into(components, op.arity, op)
    return ConvElement(source, target, truncation, degree, components)


def contraction_to_dict(c: Contraction) -> dict:
    return {
        "big_space": space_to_dict(c.big),
        "small_space": space_to_dict(c.small),
        "d": map_entries_to_list(c.d),
        "i": map_entries_to_list(c.incl),
        "p": map_entries_to_list(c.proj),
        "h": map_entries_to_list(c.h),
    }


def contraction_from_dict(data: dict) -> Contraction:
    json_object(data, "the contraction")
    try:
        big = space_from_dict(data["big_space"])
        small = space_from_dict(data["small_space"])
    except KeyError as exc:
        raise ValidationError(f"contraction record is missing {exc}") from None
    return Contraction(
        big,
        small,
        map_entries_from_list(data.get("d", ()), big, big, -1),
        map_entries_from_list(data.get("i", ()), small, big, 0),
        map_entries_from_list(data.get("p", ()), big, small, 0),
        map_entries_from_list(data.get("h", ()), big, big, 1),
    )
