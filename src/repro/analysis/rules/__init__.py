"""Rule registry for the repro static-analysis framework.

Adding a rule is three steps (see README "Static analysis"): write a
:class:`~repro.analysis.walker.Rule` subclass in a module here, import
it below, and append an instance to :data:`ALL_RULES`.  The corpus
tests enforce that every registered rule has a known-bad snippet that
triggers it.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.rules.codec import HandRolledParserRule
from repro.analysis.rules.concurrency import (
    BlockingUnderLockRule,
    LockOrderCycleRule,
    SharedStateRaceRule,
)
from repro.analysis.rules.contract import (
    BatchUpdateVectorisedRule,
    RegistryMembershipRule,
    SketchInterfaceRule,
    UpdateObservesRule,
)
from repro.analysis.rules.durability import DirectWriteOpenRule
from repro.analysis.rules.exceptions import (
    BareExceptRule,
    SilentSwallowRule,
)
from repro.analysis.rules.float_equality import FloatEqualityRule
from repro.analysis.rules.lock_discipline import LockDisciplineRule
from repro.analysis.rules.obs import DirectClockReadRule
from repro.analysis.rules.rng_discipline import (
    LegacyGlobalNumpyRandomRule,
    StdlibRandomRule,
    UnseededDefaultRngRule,
)
from repro.analysis.walker import Rule
from repro.errors import AnalysisError

ALL_RULES: tuple[Rule, ...] = (
    UnseededDefaultRngRule(),
    LegacyGlobalNumpyRandomRule(),
    StdlibRandomRule(),
    FloatEqualityRule(),
    SketchInterfaceRule(),
    UpdateObservesRule(),
    RegistryMembershipRule(),
    BatchUpdateVectorisedRule(),
    LockDisciplineRule(),
    LockOrderCycleRule(),
    BlockingUnderLockRule(),
    SharedStateRaceRule(),
    BareExceptRule(),
    SilentSwallowRule(),
    DirectClockReadRule(),
    DirectWriteOpenRule(),
    HandRolledParserRule(),
)

RULES_BY_CODE: dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}

if len(RULES_BY_CODE) != len(ALL_RULES):  # pragma: no cover
    raise AnalysisError("duplicate rule codes in ALL_RULES")


def _expand_codes(tokens: Sequence[str]) -> list[str]:
    """Expand exact codes and family prefixes (``LCK`` → LCK001-3).

    A token matches either one registered code exactly or, when it is
    a bare letter prefix, every code in that family — so the CI gate
    can say ``--select LCK,RACE`` without hard-coding rule numbers.
    """
    expanded: list[str] = []
    unknown: list[str] = []
    for token in tokens:
        if token in RULES_BY_CODE:
            expanded.append(token)
            continue
        family = [
            code for code in RULES_BY_CODE
            if token and not token[-1].isdigit()
            and code.startswith(token)
        ]
        if family:
            expanded.extend(family)
        else:
            unknown.append(token)
    if unknown:
        raise AnalysisError(
            f"unknown rule code(s) {unknown}; known: "
            f"{sorted(RULES_BY_CODE)}"
        )
    return expanded


def select_rules(
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> tuple[Rule, ...]:
    """Resolve ``--select`` / ``--ignore`` code lists to rule objects.

    Both lists accept exact codes and family prefixes (``LCK``,
    ``RACE``); selection order follows the registry so output stays
    stable regardless of how the codes were spelled.
    """
    codes = (
        list(RULES_BY_CODE)
        if not select
        else _expand_codes(list(select))
    )
    ignored = set(_expand_codes(list(ignore))) if ignore else set()
    picked = {code for code in codes if code not in ignored}
    return tuple(
        RULES_BY_CODE[code]
        for code in RULES_BY_CODE
        if code in picked
    )
