# module: repro.core.registry
"""Known-bad: a registry table SK003 cannot read.

Wrapped in a call, the table is no longer a dict literal; the rule
must say so on the registry instead of checking nothing.
"""

SKETCHES = dict(**{  # expect: SK003
    "good": SketchSpec(GoodSketch, "paper", {}),  # noqa: F821 - AST-only stub, never imported
})
