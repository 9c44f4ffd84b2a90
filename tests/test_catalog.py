"""Every self-check of every built-in catalog entry must pass."""

import pytest

from superjet import catalog

from conftest import cached_entry


@pytest.mark.parametrize("entry_id", catalog.ids())
def test_catalog_entry(entry_id):
    e = cached_entry(entry_id)
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


def test_verify_reports_one_row_per_check():
    rows = catalog.verify("pskdv")
    assert all(len(r) == 3 for r in rows)
    names = [r[0] for r in rows]
    assert "homogeneous" in names


def test_verify_row_keeps_the_error_type_and_location(monkeypatch):
    def lookup():
        return {}["x"]

    entry = catalog.CatalogEntry("broken", "an entry whose check raises", {})
    entry.add_check("lookup", lookup)
    monkeypatch.setitem(catalog._BUILDERS, "broken", lambda: entry)
    line = lookup.__code__.co_firstlineno + 1
    assert catalog.verify("broken") == [
        ("lookup", False, f"error: KeyError: 'x' at test_catalog.py:{line}")]
