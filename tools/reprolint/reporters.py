"""Reporters: render a :class:`LintResult` as text, JSON, SARIF, or
GitHub workflow annotations."""

from __future__ import annotations

import json

__all__ = ["render_github", "render_json", "render_sarif",
           "render_text"]

#: SARIF severity per rule family: correctness families error, style
#: families warning (SARIF "level" values).
_SARIF_LEVELS = {
    "R001": "error", "R002": "warning", "R003": "warning",
    "R004": "error", "R005": "warning", "R006": "warning",
    "R007": "error", "R111": "warning", "R112": "error",
    "R113": "error", "R120": "warning",
    "E999": "error",
}


def render_text(result) -> str:
    """Compiler-style ``path:line:col: CODE message`` lines + summary."""
    lines = [violation.render() for violation in result.violations]
    count = len(result.violations)
    if count:
        noun = "violation" if count == 1 else "violations"
        lines.append(f"{count} {noun} in {result.files_checked} "
                     "file(s) checked")
    else:
        lines.append(f"clean: {result.files_checked} file(s) checked")
    return "\n".join(lines)


def render_json(result) -> str:
    """A stable JSON document: violations, counts, per-rule totals."""
    by_rule: dict = {}
    for violation in result.violations:
        by_rule[violation.rule] = by_rule.get(violation.rule, 0) + 1
    document = {
        "files_checked": result.files_checked,
        "violation_count": len(result.violations),
        "violations_by_rule": dict(sorted(by_rule.items())),
        "violations": [violation.as_dict()
                       for violation in result.violations],
    }
    return json.dumps(document, indent=2, sort_keys=False)


def render_sarif(result) -> str:
    """A SARIF 2.1.0 document for code-scanning upload.

    One run, one ``reprolint`` tool entry; each violation becomes a
    result with a physical location.  Rule metadata is included for
    every rule that actually fired so the document stays small.
    """
    from tools.reprolint.registry import CATALOGUE, RULES

    fired = sorted({violation.rule
                    for violation in result.violations})
    rules = []
    for code in fired:
        entry = {
            "id": code,
            "shortDescription": {
                "text": RULES.get(code, "file cannot be linted")},
            "defaultConfiguration": {
                "level": _SARIF_LEVELS.get(code, "warning")},
        }
        catalogue = CATALOGUE.get(code)
        if catalogue is not None:
            entry["fullDescription"] = {
                "text": catalogue["description"]}
            entry["help"] = {"text": catalogue["fix"]}
        rules.append(entry)
    results = [{
        "ruleId": violation.rule,
        "level": _SARIF_LEVELS.get(violation.rule, "warning"),
        "message": {"text": violation.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": violation.path,
                    "uriBaseId": "SRCROOT",
                },
                "region": {
                    "startLine": violation.line,
                    "startColumn": violation.col + 1,
                },
            },
        }],
    } for violation in result.violations]
    document = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0"
                    ".json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "reprolint",
                    "informationUri": "docs/STATIC_ANALYSIS.md",
                    "rules": rules,
                },
            },
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }
    return json.dumps(document, indent=2)


def render_github(result) -> str:
    """GitHub Actions workflow commands: inline PR annotations.

    ``::error file=...,line=...,col=...::message`` lines the runner
    turns into annotations on the diff, plus a trailing notice with
    the run summary.
    """
    lines = []
    for violation in result.violations:
        level = "error" if _SARIF_LEVELS.get(violation.rule,
                                             "warning") == "error" \
            else "warning"
        message = f"{violation.rule} {violation.message}" \
            .replace("%", "%25").replace("\r", "%0D") \
            .replace("\n", "%0A")
        lines.append(
            f"::{level} file={violation.path},line={violation.line},"
            f"col={violation.col + 1}::{message}")
    count = len(result.violations)
    noun = "violation" if count == 1 else "violations"
    lines.append(f"::notice::reprolint: {count} {noun} in "
                 f"{result.files_checked} file(s) checked")
    return "\n".join(lines)
