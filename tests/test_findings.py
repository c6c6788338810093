"""The shared static/dynamic finding-code registry."""

import pytest

from repro.findings import (
    DYNAMIC_CODES,
    FINDING_CODES,
    SEVERITIES,
    STATIC_CODES,
    by_name,
    format_finding,
    get_code,
)


def test_registry_covers_both_origins():
    assert len(STATIC_CODES) == 9
    assert len(DYNAMIC_CODES) == 8
    assert set(STATIC_CODES) | set(DYNAMIC_CODES) == set(FINDING_CODES)
    for code in STATIC_CODES:
        assert code.startswith("SC")
        assert FINDING_CODES[code].origin == "static"
    for code in DYNAMIC_CODES:
        assert code.startswith("DYN")
        assert FINDING_CODES[code].origin == "dynamic"


def test_every_entry_is_well_formed():
    for code, meta in FINDING_CODES.items():
        assert meta.code == code
        assert meta.severity in SEVERITIES
        assert meta.paper_ref.startswith("§")
        assert meta.summary and meta.remedy and meta.name


def test_related_links_resolve_and_cross_origins():
    for meta in FINDING_CODES.values():
        for other in meta.related:
            assert other in FINDING_CODES, f"{meta.code} links unknown {other}"
            assert FINDING_CODES[other].origin != meta.origin


def test_every_static_rule_links_a_dynamic_class():
    """Each SC bug rule must name the dynamic bug class it pre-empts.

    Advice-severity codes flag performance hazards, not bugs — there is
    no dynamic counterpart to link (the sanitizer only reports bugs).
    """
    for code in STATIC_CODES:
        meta = FINDING_CODES[code]
        if meta.severity == "advice":
            assert not meta.related, f"{code} is advice but links {meta.related}"
            continue
        assert meta.related, f"{code} has no dynamic link"


def test_lookup_helpers():
    assert get_code("SC001").name == "barrier-divergence"
    assert by_name("premature-release").code == "DYN004"
    # Name collisions resolve to the dynamic entry (sanitizer kinds are
    # looked up by name far more often).
    assert by_name("barrier-divergence").origin == "dynamic"
    with pytest.raises(KeyError):
        get_code("SC999")
    with pytest.raises(KeyError):
        by_name("no-such-finding")


def test_format_finding_shape():
    meta = get_code("SC002")
    line = format_finding(meta, "grid too big", suffix="in demo")
    assert line == (
        "[SC002 error] static-occupancy-violation: grid too big "
        "(paper §5; in demo)"
    )


def test_sanitizer_taxonomy_is_registry_backed():
    from repro.sanitize.report import BUG_CLASSES

    assert set(BUG_CLASSES) == {
        FINDING_CODES[c].name for c in DYNAMIC_CODES
    }
