import octogroup


def test_public_names_resolve():
    """Every name in __all__ is an attribute of the package, so a deleted
    export cannot linger in the public list."""
    assert len(set(octogroup.__all__)) == len(octogroup.__all__)
    missing = [name for name in octogroup.__all__ if not hasattr(octogroup, name)]
    assert missing == []
