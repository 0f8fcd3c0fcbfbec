"""The benchmark's traced run looks its targets up by name; they must exist.

``bench/tracing.py`` wraps each ``(owner, attribute)`` of its ``TRACED``
list (``owner.__dict__[attribute]`` for a class), and its count hooks read
``LineSystem._tri_points_cache``.  A rename in the library would break only
the traced benchmark, which the test suite does not run.
"""

import inspect
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402

from ellnmds.curve import short_curve  # noqa: E402
from ellnmds.gf import field_make  # noqa: E402
from ellnmds.secants import LineSystem  # noqa: E402


def test_every_traced_target_exists():
    missing = []
    for owner, attr, name, _, _ in tracing.TRACED:
        if inspect.isclass(owner):
            found = attr in owner.__dict__
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(name)
    assert missing == []


def test_triple_points_cache_is_counted_by_its_hooks():
    system = LineSystem(short_curve(field_make(7), 0, 5, 1))
    line_id = int((system.kind == 2).argmax())
    before = tracing._tri_before((system, line_id), {})
    system.triple_points(line_id)
    assert tracing._tri_counts((system, line_id), {}, None, before) == {"hits": 0}
    before = tracing._tri_before((system, line_id), {})
    system.triple_points(line_id)
    assert tracing._tri_counts((system, line_id), {}, None, before) == {"hits": 1}
