"""Fixtures shared by the test modules."""

from math import comb

import pytest

from crosscap_calc import fpres


class SymbolLog(list):
    """Arguments of every ``GenSymbol`` construction, in call order."""

    def assert_each_once(self, g):
        """No symbol built twice, and no more symbols than the program forms
        at genus g: the slides Y[i, j], the two kinds of pair twist, and the
        squared twists about the 4-subsets containing crosscap 1."""
        assert len(self) == len(set(self)), "a symbol was validated twice"
        assert len(self) <= g * (g - 1) + 2 * comb(g, 2) + comb(g - 1, 3)


@pytest.fixture
def symbol_constructions(monkeypatch):
    """Empty the interned-symbol caches, then log every ``GenSymbol``
    construction; returns the live log."""
    log = SymbolLog()
    new = fpres.GenSymbol.__new__

    def logging_new(cls, kind, indices):
        log.append((kind, indices))
        return new(cls, kind, indices)

    monkeypatch.setattr(fpres.GenSymbol, "__new__", staticmethod(logging_new))
    for make in (fpres.yslide, fpres.twist_sq, fpres.beta_twist, fpres.subset_sq):
        make.cache_clear()
    return log


@pytest.fixture
def break_family_row(monkeypatch):
    """A function giving one family's row of ``fpres._PROP_FAMILIES`` other
    slides, for ``build_presentation`` and the per-class check alike."""

    def breaker(family, shape):
        rows = tuple(
            (name, letters, shape if name == family else slides)
            for name, letters, slides in fpres._PROP_FAMILIES
        )
        monkeypatch.setattr(fpres, "_PROP_FAMILIES", rows)

    return breaker
