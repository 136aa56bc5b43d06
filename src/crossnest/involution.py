"""The crossing/nesting interchanging involution on signed permutations.

It is a rank mirror over the vertex line.  Scan -n, ..., -1, 1, ..., n
left to right and keep the arcs still open, oldest first: one list for
the source diagram and one for the image.  At each closer, the
partner's rank r among the open source arcs is mirrored: the image
closes the arc of rank k-1-r among its own k open arcs.  Closing the
j-th oldest of k open arcs makes k-j crossings and j-1 nestings with
the arcs left open, so the mirror swaps the two counts at every closer.

A positive vertex that opens joins the lists before it closes, so its
loop is the newest choice, nested by every open arc.  A negative
vertex that opens joins them after it closes.  Openers, closers and
transients keep their places, so the map fixes the degree sequence,
weak exceedances and negative entries.  Mirroring twice gives the
identity, so the map is an involution by construction.

This scalar map serves `crossnest involute` and is the reference for
`_kernels.pair_involution_batch`, the same scan on blocks of arc tables
that the exhaustive property suite runs.  The kernel visits only the
closers, in closing order: the source rank r counts the older arcs that
end later, and the image's open list is a mask over the arcs.
"""

from __future__ import annotations

from .core import SignedPermutation, upper_diagram, vertices
from .errors import Desynchronized


def crossing_nesting_involution(p: SignedPermutation) -> SignedPermutation:
    """Swap (crossing number, nesting number), preserving weak
    exceedances, negative entries and the degree sequence."""
    d = upper_diagram(p)
    partner = {a.end: a.start for a in d.arcs}
    opens = {a.start for a in d.arcs}
    source: list[int] = []     # open arcs by start, oldest first
    image: list[int] = []
    values = [0] * d.n
    for v in vertices(d.n):
        if v > 0 and v in opens:
            source.append(v)
            image.append(v)
        if v in partner:
            if partner[v] not in source:
                raise Desynchronized(f"closer {v}: partner {partner[v]} is not open")
            r = source.index(partner[v])
            del source[r]
            # the image arc (start, v) gives the entry of magnitude |start|
            start = image.pop(len(image) - 1 - r)
            values[abs(start) - 1] = v if start > 0 else -v
        if v < 0 and v in opens:
            source.append(v)
            image.append(v)
    return SignedPermutation(tuple(values))
