"""Test-side reader of the text form ``rooslab.io.render_invariants`` writes.

No production route reads invariants back from text; the tests use this to
check that the rendering is canonical and loses nothing.
"""

from __future__ import annotations

from rooslab.io import DocumentError
from rooslab.linalg import GroupInvariants


def parse_invariants(text: str) -> GroupInvariants:
    """The group of "0" or of "Z^r", "Z" and "Z/d" factors joined by "+";
    a DocumentError for any other text or a torsion list that is not a
    divisor chain."""
    text = text.strip()
    if text == "0":
        return GroupInvariants.trivial()
    free = 0
    torsion = []
    for part in text.split("+"):
        part = part.strip()
        try:
            if part.startswith("Z^"):
                free += int(part[2:])
            elif part.startswith("Z/"):
                torsion.append(int(part[2:]))
            elif part == "Z":
                free += 1
            else:
                raise DocumentError(f"invariants: unrecognized factor {part!r}")
        except DocumentError:
            raise
        except ValueError:
            raise DocumentError(f"invariants: bad factor {part!r}") from None
    try:
        return GroupInvariants(free, tuple(torsion))
    except ValueError as err:
        raise DocumentError(f"invariants: {err}") from None
