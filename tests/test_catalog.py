"""Every self-check of every built-in catalog entry must pass."""

import pytest

from superjet import catalog
from superjet.algebra import UnknownNameError


@pytest.mark.parametrize("entry_id", catalog.ids())
def test_catalog_entry(entry_id):
    e = catalog.get(entry_id)
    failures = []
    for name, fn in e.checks:
        ok, detail = fn()
        if not ok:
            failures.append(f"{name}: {detail}")
    assert not failures, "; ".join(failures)


def test_catalog_lookup():
    assert "skdv" in catalog.ids()
    with pytest.raises(KeyError):
        catalog.get("no-such-entry")
    assert all(catalog.get(cid) is catalog.get(cid) for cid in catalog.ids())


def test_verify_reports_one_row_per_check():
    rows = catalog.verify("pskdv")
    assert all(len(r) == 3 for r in rows)
    names = [r[0] for r in rows]
    assert "homogeneous" in names


def test_verify_row_keeps_the_error_type_and_location():
    def lookup():
        return {}["x"]

    entry = catalog.CatalogEntry("broken", "an entry whose check raises", {})
    entry.add_check("lookup", lookup)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(catalog._BUILDERS, "broken", lambda: entry)
        line = lookup.__code__.co_firstlineno + 1
        assert catalog.verify("broken") == [
            ("lookup", False, f"error: KeyError: 'x' at test_catalog.py:{line}")]
    with pytest.raises(UnknownNameError):  # the memo still holds it, the builders do not
        catalog.get("broken")
