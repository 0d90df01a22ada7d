"""Wire-compat rule: the framed format only ever grows.

``repro/service/wire.py`` frames cross-process payloads *and* the
persistent schedule store's segment files, so its ``KIND_*`` codes and
version tuple are an on-disk contract: a store directory written last
month must still replay today.  The frozen registry below is the
contract as of the last deliberate revision; against it the rule fails
when a kind is

* **removed** — old segment frames would stop decoding;
* **renumbered** — old frames would silently decode as the wrong kind;
* **reused** — two kinds sharing a value makes frames ambiguous;

and when version handling regresses:

* a version in the frozen support set drops out of
  ``SUPPORTED_WIRE_VERSIONS`` (old frames rejected), or
* ``WIRE_VERSION`` itself is not in ``SUPPORTED_WIRE_VERSIONS`` (the
  build could not decode its own frames).

It also requires every ``KIND_*`` constant to appear in the
``_KIND_NAMES`` map so error messages keep naming kinds.

*Adding* a kind or a version is always fine — that is the one evolution
the format promises.  After a deliberate, migration-reviewed revision,
update :data:`FROZEN_KINDS` / :data:`FROZEN_SUPPORTED_VERSIONS` in the
same commit; there is intentionally no suppression comment for this
rule (per-line escapes make no sense for a file-level contract).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.core import Finding, Project, Rule

__all__ = ["WireCompatRule"]

#: The frozen wire contract: kinds 1-5 came with the decode workers,
#: kinds 6-7 with the persistent store; version 2 added trace fields and
#: version 3 made decode requests carry encoder tensors.  Every version
#: still opens; only the in-flight decode request refuses frames older
#: than v3.
FROZEN_KINDS: Dict[str, int] = {
    "KIND_GRAPH": 1,
    "KIND_DECODE_REQUEST": 2,
    "KIND_DECODE_RESPONSE": 3,
    "KIND_SCHEDULE": 4,
    "KIND_OPTIONS": 5,
    "KIND_STORE_ENTRY": 6,
    "KIND_STORE_TOMBSTONE": 7,
}

FROZEN_SUPPORTED_VERSIONS: Tuple[int, ...] = (1, 2, 3)

DEFAULT_WIRE_PATH = "src/repro/service/wire.py"


class WireCompatRule(Rule):
    id = "wire-compat"
    description = (
        "wire-format kind codes and supported versions may only be "
        "added, never reused, renumbered, or removed"
    )

    def __init__(
        self,
        wire_path: str = DEFAULT_WIRE_PATH,
        frozen_kinds: Optional[Dict[str, int]] = None,
        frozen_versions: Optional[Tuple[int, ...]] = None,
    ):
        self.wire_path = wire_path
        self.frozen_kinds = dict(
            FROZEN_KINDS if frozen_kinds is None else frozen_kinds
        )
        self.frozen_versions = tuple(
            FROZEN_SUPPORTED_VERSIONS
            if frozen_versions is None
            else frozen_versions
        )

    def check_project(self, project: Project) -> Iterable[Finding]:
        source = project.get(self.wire_path)
        if source is None:
            return [
                Finding(
                    rule=self.id,
                    path=self.wire_path,
                    line=1,
                    message=(
                        "wire module is missing from the project — the "
                        "on-disk format contract cannot be checked"
                    ),
                )
            ]
        if source.tree is None:
            return ()  # parse-error finding already emitted

        kinds: Dict[str, Tuple[int, int]] = {}  # name -> (value, line)
        wire_version: Optional[Tuple[int, int]] = None
        supported: Optional[Tuple[Tuple[int, ...], int]] = None
        kind_name_keys: List[str] = []
        for node in source.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if target.id.startswith("KIND_"):
                value = _int_constant(node.value)
                if value is None:
                    kinds[target.id] = (-1, node.lineno)
                else:
                    kinds[target.id] = (value, node.lineno)
            elif target.id == "WIRE_VERSION":
                value = _int_constant(node.value)
                if value is not None:
                    wire_version = (value, node.lineno)
            elif target.id == "SUPPORTED_WIRE_VERSIONS":
                versions = _int_tuple(node.value)
                if versions is not None:
                    supported = (versions, node.lineno)
            elif target.id == "_KIND_NAMES" and isinstance(
                node.value, ast.Dict
            ):
                for key in node.value.keys:
                    if isinstance(key, ast.Name):
                        kind_name_keys.append(key.id)

        findings: List[Finding] = []

        def fail(line: int, symbol: str, message: str) -> None:
            findings.append(
                Finding(
                    rule=self.id,
                    path=self.wire_path,
                    line=line,
                    symbol=symbol,
                    message=message,
                )
            )

        for name, frozen_value in sorted(self.frozen_kinds.items()):
            if name not in kinds:
                fail(
                    1,
                    name,
                    f"frozen wire kind {name} (= {frozen_value}) was "
                    "removed; frames already on disk reference it",
                )
            elif kinds[name][0] != frozen_value:
                fail(
                    kinds[name][1],
                    name,
                    f"frozen wire kind {name} was renumbered "
                    f"{frozen_value} -> {kinds[name][0]}; frames already "
                    "on disk would decode as the wrong kind",
                )

        by_value: Dict[int, List[str]] = {}
        for name, (value, _) in kinds.items():
            if not isinstance(value, int) or value < 0:
                fail(
                    kinds[name][1],
                    name,
                    f"{name} must be a literal non-negative int",
                )
                continue
            by_value.setdefault(value, []).append(name)
        for value, names in sorted(by_value.items()):
            if len(names) > 1:
                fail(
                    min(kinds[name][1] for name in names),
                    names[0],
                    f"wire kind value {value} is reused by "
                    f"{sorted(names)}; frames would be ambiguous",
                )

        for name in sorted(kinds):
            if name not in kind_name_keys:
                fail(
                    kinds[name][1],
                    name,
                    f"{name} is missing from _KIND_NAMES; decode errors "
                    "would stop naming the kind",
                )

        if supported is None:
            fail(
                1,
                "SUPPORTED_WIRE_VERSIONS",
                "SUPPORTED_WIRE_VERSIONS must be a literal tuple of ints",
            )
        else:
            versions, line = supported
            for frozen in self.frozen_versions:
                if frozen not in versions:
                    fail(
                        line,
                        "SUPPORTED_WIRE_VERSIONS",
                        f"wire version {frozen} was dropped from "
                        "SUPPORTED_WIRE_VERSIONS; frames already on disk "
                        "would be rejected",
                    )
            if wire_version is not None and wire_version[0] not in versions:
                fail(
                    wire_version[1],
                    "WIRE_VERSION",
                    f"WIRE_VERSION {wire_version[0]} is not in "
                    "SUPPORTED_WIRE_VERSIONS; the build could not decode "
                    "its own frames",
                )
        if wire_version is None:
            fail(
                1,
                "WIRE_VERSION",
                "WIRE_VERSION must be a literal int",
            )
        return findings


def _int_constant(node: ast.expr) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool):
        return node.value
    return None


def _int_tuple(node: ast.expr) -> Optional[Tuple[int, ...]]:
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values = []
    for element in node.elts:
        value = _int_constant(element)
        if value is None:
            return None
        values.append(value)
    return tuple(values)
