"""Markdown step-summary rendering for CI bench jobs.

``repro bench summary CURRENT.json [--baseline BASELINE.json]`` turns a
report into two GitHub-flavoured markdown tables — correctness/agreement
claims and timing/throughput — so the exactness claims and the
cold-start/throughput deltas read straight off the workflow page
instead of downloading artifacts.  CI appends the output
to ``$GITHUB_STEP_SUMMARY``; locally it is plain printable markdown.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["render_markdown_summary"]

#: Name fragments marking a 0/1 metric as a correctness claim.
_CLAIM_FRAGMENTS = ("_ok", "exact", "matches", "monotone", "agree",
                    "recommended")

#: Name fragments selecting agreement-quality metrics for the claims
#: table even though they are continuous-valued.
_AGREEMENT_FRAGMENTS = ("agreement", "overlap", "score_delta")


def _is_claim(name: str, value: Any) -> bool:
    """Whether a metric is a pass/fail claim recorded as 0/1.

    ``*_ok`` names are always claims.  Otherwise continuous agreement
    metrics win over the claim fragments — ``refit_top10_agreement``
    happens to contain ``agree`` and can legitimately be exactly 1.0,
    but it is a measurement, not a flag.
    """
    if value not in (0, 1, 0.0, 1.0):
        return False
    if name.endswith("_ok"):
        return True
    if any(fragment in name for fragment in _AGREEMENT_FRAGMENTS):
        return False
    return any(fragment in name for fragment in _CLAIM_FRAGMENTS)


def _fmt(value: Any) -> str:
    """Compact numeric rendering for table cells."""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _delta_cell(current: float, baseline: "float | None") -> str:
    """``baseline → current`` percentage-change cell (or ``–``)."""
    if baseline is None:
        return "–"
    if baseline == 0:
        return _fmt(baseline)
    change = 100.0 * (current - baseline) / abs(baseline)
    return f"{_fmt(baseline)} ({change:+.1f}%)"


def _baseline_metrics(baseline: "Mapping[str, Any] | None",
                      benchmark_id: str) -> dict:
    """The baseline's metric dict for one variant id (may be empty)."""
    if baseline is None:
        return {}
    for entry in baseline.get("results", []):
        if entry.get("benchmark") == benchmark_id:
            return dict(entry.get("metrics") or {})
    return {}


def render_markdown_summary(
        current: Mapping[str, Any],
        baseline: "Mapping[str, Any] | None" = None) -> str:
    """Render a report (plus optional baseline) as markdown tables."""
    claim_rows = []
    timing_rows = []
    broken = []
    for entry in current.get("results", []):
        benchmark_id = entry["benchmark"]
        if entry.get("status") != "ok":
            broken.append((benchmark_id,
                           entry.get("error") or entry.get("status")))
            continue
        metrics = entry.get("metrics") or {}
        time_names = set(entry.get("time_metrics") or ())
        base = _baseline_metrics(baseline, benchmark_id)
        for name in sorted(metrics):
            value = metrics[name]
            if _is_claim(name, value):
                claim_rows.append(
                    (benchmark_id, name,
                     "✅" if value else "❌"))
            elif any(fragment in name
                     for fragment in _AGREEMENT_FRAGMENTS):
                claim_rows.append(
                    (benchmark_id, name, _fmt(value)))
            elif name in time_names:
                timing_rows.append(
                    (benchmark_id, name, _fmt(value),
                     _delta_cell(value, base.get(name))))

    lines = ["## Bench summary", ""]
    if claim_rows:
        lines += ["### Claims & agreement", "",
                  "| benchmark | metric | value |",
                  "| --- | --- | --- |"]
        lines += [f"| {b} | {m} | {v} |" for b, m, v in claim_rows]
        lines.append("")
    if timing_rows:
        lines += ["### Timing & throughput (not gated)", "",
                  "| benchmark | metric | current | baseline (Δ) |",
                  "| --- | --- | --- | --- |"]
        lines += [f"| {b} | {m} | {v} | {d} |"
                  for b, m, v, d in timing_rows]
        lines.append("")
    if broken:
        lines += ["### Broken", ""]
        lines += [f"- `{b}`: {err}" for b, err in broken]
        lines.append("")
    if not claim_rows and not timing_rows and not broken:
        lines += ["_no results to summarise_", ""]
    return "\n".join(lines)
