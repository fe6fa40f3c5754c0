"""Malformed text into the parsers and the ``bij`` commands.

Derandomized hypothesis runs: the text is drawn from the characters the
grammars use (digits, commas, parentheses, spaces, path steps, the
hypermap keys), sometimes with a run of more digits than ``int()``
reads.  Each parser must return or raise a ``PermapsError``, and each
``bij`` command must exit 0, 1 or 2, with ``error: `` in front of a
domain error.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permaps.cli import dispatch
from permaps.dyck import DELTA, RV, parse_labeled_path
from permaps.errors import PermapsError
from permaps.hypermap import hypermap_from_text
from permaps.perm import parse_permutation

fuzzed = settings(max_examples=300, deadline=None, derandomize=True, database=None)

_PIECES = ["1", "2", "3", "0", "12", ",", "(", ")", " ", "a", "b", "b0", "b1",
           "sigma=", "alpha=", ";", "9" * 4301]
texts = st.lists(st.sampled_from(_PIECES), max_size=12).map("".join)

_PARSERS = [
    lambda t: parse_permutation(t),
    lambda t: parse_permutation(t, notation="cycle"),
    lambda t: parse_labeled_path(t, DELTA),
    lambda t: parse_labeled_path(t, RV),
    hypermap_from_text,
]


@fuzzed
@given(text=texts)
def test_parsers_raise_only_declared_errors(text):
    for parse in _PARSERS:
        with contextlib.suppress(PermapsError):
            parse(text)


_BIJ = [
    ("omr", "--perm"),
    ("omr-inv", "--sigma", "--alpha"),
    ("fft", "--perm"),
    ("fft-inv", "--perm"),
    ("delta", "--perm"),
    ("delta-inv", "--path"),
    ("phi", "--perm"),
    ("psi-prime", "--perm"),
]


@pytest.mark.parametrize("command", _BIJ, ids=[c[0] for c in _BIJ])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bij_commands_exit_cleanly(command, data):
    name, *options = command
    argv = ["bij", name]
    for option in options:
        argv += [option, data.draw(texts)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")
