"""The public API surface: what `import repro` promises.

A downstream user should be able to drive everything through the names
re-exported at package level, and every promised name must exist, be
documented, and round-trip through its advertised behaviour.
"""

from __future__ import annotations

import inspect

import pytest

import repro


class TestSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_public_classes_are_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_docstring_example_runs(self):
        """The package docstring's quickstart must stay true."""
        design = repro.planar_difference_set(9)
        assert design.v == 91
        tree = repro.EncipheredBTree(
            repro.OvalSubstitution(design, t=2), block_size=512
        )
        tree.insert(41, b"records stay encrypted at rest")
        assert tree.search(41) == b"records stay encrypted at rest"

    def test_readme_quickstart_runs(self):
        design = repro.planar_difference_set(13)
        tree = repro.EncipheredBTree(repro.OvalSubstitution(design, t=5))
        tree.insert(45, b"employee record #45")
        assert tree.search(45).startswith(b"employee")
        assert tree.range_search(20, 80) == [(45, b"employee record #45")]
        tree.reset_costs()
        tree.search(45)
        assert tree.cost_snapshot().decryptions >= 1

    def test_exceptions_form_one_hierarchy(self):
        from repro import exceptions

        leaf_classes = [
            obj
            for _, obj in inspect.getmembers(exceptions, inspect.isclass)
            if issubclass(obj, Exception) and obj.__module__ == "repro.exceptions"
        ]
        assert len(leaf_classes) > 10
        for cls in leaf_classes:
            assert issubclass(cls, exceptions.ReproError), cls

    def test_exceptions_pickle_round_trip(self):
        """Worker processes ship failures back over a pipe as pickles.

        An exception whose ``__init__`` takes extra positional
        arguments breaks the default exception reduce protocol unless
        it defines ``__reduce__`` -- the unpickle then raises
        ``TypeError`` *instead of* delivering the real error, wedging
        the caller with a meaningless failure.
        """
        import pickle

        from repro import exceptions

        for _, cls in inspect.getmembers(exceptions, inspect.isclass):
            if not (
                issubclass(cls, Exception)
                and cls.__module__ == "repro.exceptions"
            ):
                continue
            params = [
                p
                for p in list(
                    inspect.signature(cls.__init__).parameters.values()
                )[1:]
                if p.default is p.empty
                and p.kind
                in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            ]
            original = cls(*(7 for _ in params)) if params else cls("boom")
            clone = pickle.loads(pickle.dumps(original))
            assert type(clone) is cls
            assert str(clone) == str(original), cls

    def test_every_submodule_has_a_docstring(self):
        import importlib
        import pkgutil

        packages = ["repro"]
        seen = []
        while packages:
            pkg = importlib.import_module(packages.pop())
            seen.append(pkg)
            for info in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + "."):
                try:
                    module = importlib.import_module(info.name)
                except ImportError:
                    # a module gated on an optional dependency is
                    # allowed to refuse import; its docstring is checked
                    # on hosts that have the dependency (no module is
                    # gated today: the openssl DES kernel falls back to
                    # fast inside repro.crypto.des)
                    continue
                assert module.__doc__, f"{info.name} lacks a module docstring"
                if info.ispkg:
                    packages.append(info.name)
        assert len(seen) >= 8  # repro + its subpackages
