"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from dyboltz.basis import SpectralField

_MODES = st.builds(lambda n, l, j: (n, l, j % (2 * l + 1) - l),
                   st.integers(0, 20), st.integers(0, 20), st.integers(0, 40))
# float32 parts: times a decay down to e^-50 they stay normal doubles, so the
# evolution keeps its relative accuracy
_PART = st.floats(-1e3, 1e3, width=32)
# finite fields with n, l <= 20, as the s = 2 20x20 test table covers
FIELDS = st.dictionaries(_MODES, st.builds(complex, _PART, _PART), max_size=30).map(SpectralField)
TIMES = st.floats(0.0, 5.0)
