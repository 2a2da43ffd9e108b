"""Layering rules: backends stay substrates, diagnostics stay logged.

Two invariants that used to live as ``grep`` gates in CI and are now
real AST rules with fixture tests:

* **layering** -- only ``repro.dispatch`` may drive schedulers.  The
  execution and simulation packages provide substrates (clock +
  transport + compute host) and must never import ``core.base`` or
  touch ``next_dispatch``; the day a backend grows its own drive loop
  is the day the three substrates stop making identical decisions.

* **bare-print** -- library code reports through the ``repro.obs``
  logging bridge so ``-v``/``-q`` apply uniformly.  ``print`` is
  reserved for the renderers whose stdout *is* the product (exempted by
  path below) and for the socket worker's wire-protocol announce lines,
  which carry per-line pragmas.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .base import ImportMap, Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import FileContext, Violation

#: Packages that must not reach into the scheduler-driving layer.
LAYERED_PREFIXES: tuple[str, ...] = ("execution/", "simulation/")

#: The identifier only repro.dispatch may touch.
_DRIVER_ATTR = "next_dispatch"

#: The persistence layer sits *below* scheduling: it records job specs
#: and state transitions and must stay importable without dragging in
#: the dispatch core or a simulation substrate.
STORE_PREFIX = "store/"
_STORE_FORBIDDEN: tuple[str, ...] = ("dispatch", "simulation")

#: Renderers whose stdout is the product; print() is their output channel.
PRINT_EXEMPT: frozenset[str] = frozenset(
    {
        "cli.py",
        "apst/console.py",
        "analysis/lint/cli.py",
        "workloads/video_callback.py",
    }
)


class LayeringRule(Rule):
    name = "layering"
    description = (
        "execution/ and simulation/ must not import core.base or call "
        "next_dispatch; store/ must not import dispatch or simulation; "
        "only repro.dispatch drives schedulers"
    )

    def check_file(self, ctx: "FileContext") -> Iterator["Violation"]:
        if ctx.rel.startswith(STORE_PREFIX):
            yield from self._check_store(ctx)
            return
        if not ctx.rel.startswith(LAYERED_PREFIXES):
            return
        yield from self._check_substrate(ctx)

    def _check_store(self, ctx: "FileContext") -> Iterator["Violation"]:
        from ..engine import Violation

        imports = ImportMap(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                base = imports.resolve_from(node, list(ctx.package_parts))
                if base is None:
                    continue
                names = {alias.name for alias in node.names}
                hit = next(
                    (
                        pkg
                        for pkg in _STORE_FORBIDDEN
                        if base == pkg
                        or base.startswith(f"{pkg}.")
                        or (base == "" and pkg in names)
                    ),
                    None,
                )
                if hit is not None:
                    yield Violation(
                        rule=self.name,
                        path=ctx.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"store imports {hit}; the persistence layer "
                            "sits below scheduling and must not depend on "
                            "the dispatch core or simulation substrate"
                        ),
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    hit = next(
                        (
                            pkg
                            for pkg in _STORE_FORBIDDEN
                            if alias.name == f"repro.{pkg}"
                            or alias.name.startswith(f"repro.{pkg}.")
                        ),
                        None,
                    )
                    if hit is not None:
                        yield Violation(
                            rule=self.name,
                            path=ctx.rel,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"store imports {hit}; the persistence "
                                "layer sits below scheduling and must not "
                                "depend on the dispatch core or simulation "
                                "substrate"
                            ),
                        )

    def _check_substrate(self, ctx: "FileContext") -> Iterator["Violation"]:
        from ..engine import Violation

        imports = ImportMap(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                base = imports.resolve_from(node, list(ctx.package_parts))
                names = {alias.name for alias in node.names}
                if base is not None and (
                    base.startswith("core.base")
                    or (base == "core" and "base" in names)
                ):
                    yield Violation(
                        rule=self.name,
                        path=ctx.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            "backend imports core.base; substrates must not "
                            "see the scheduler layer (drive through "
                            "repro.dispatch.DispatchCore)"
                        ),
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if "core.base" in alias.name:
                        yield Violation(
                            rule=self.name,
                            path=ctx.rel,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                "backend imports core.base; substrates must "
                                "not see the scheduler layer"
                            ),
                        )
            elif isinstance(node, ast.Attribute) and node.attr == _DRIVER_ATTR:
                yield Violation(
                    rule=self.name,
                    path=ctx.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "backend touches next_dispatch; scheduler driving "
                        "belongs to repro.dispatch.DispatchCore only"
                    ),
                )
            elif isinstance(node, ast.Name) and node.id == _DRIVER_ATTR:
                yield Violation(
                    rule=self.name,
                    path=ctx.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "backend references next_dispatch; scheduler driving "
                        "belongs to repro.dispatch.DispatchCore only"
                    ),
                )


class BarePrintRule(Rule):
    name = "bare-print"
    description = (
        "no bare print in library code (use the repro.obs logging bridge); "
        "renderers are exempt by path, wire-protocol lines by pragma"
    )

    def __init__(self, exempt: frozenset[str] = PRINT_EXEMPT) -> None:
        self.exempt = exempt

    def check_file(self, ctx: "FileContext") -> Iterator["Violation"]:
        from ..engine import Violation

        if ctx.rel in self.exempt:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield Violation(
                    rule=self.name,
                    path=ctx.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "bare print in library code; report through the "
                        "repro.obs logging bridge (get_logger) or return a "
                        "string for a renderer"
                    ),
                )
