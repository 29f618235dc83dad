# module: repro.core.registry
"""Synthetic registry joined to corpus projects for SK003 checks."""

SKETCHES = {
    "good": SketchSpec(GoodSketch, "paper", {}),  # noqa: F821 - AST-only stub, never imported
    "delegating": SketchSpec(DelegatingSketch, "baseline", {}),  # noqa: F821
}
