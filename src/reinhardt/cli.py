"""Batch command-line front-end.

Subcommands
-----------
moments     table of log c_gamma^2 over the simplex |gamma| <= n_max
salpha      partial sums, shell bounds and certificate bounds for one alpha
certify     certified linear lower bound on a profile domain
wiegerinck  diagonal series on Omega_0 (or the structural Omega_k report)
dbar        Hilbert-Schmidt test of the canonical dbar solution operator
report      run any of the above from a JSON config file

TASKS names the keys each task reads (domain, alpha, n_max, n_step, k,
tol), and every task reads output; a subcommand has a flag --key for each
of its keys, and report has them all.  A config key the task does not read,
and an unknown or repeated domain parameter, is invalid input.

Reports are written as CSV or JSON with fixed field order, 12
significant digits and LF line endings, so identical configurations
produce byte-identical files.  Exit codes: 0 success, 1 invalid input,
2 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .certificate import certificate_ladder
from .domains import DomainSpec, MultiIndex, builtin_domain
from .errors import InvalidInputError, NumericalFailureError, check_index
from .hankel import (
    Inconclusive,
    SYMBOL_NOT_IN_SPACE,
    classify_growth,
    dbar_canonical_report,
    s_alpha_partials,
    sample_ladder,
    shell_bound,
)
from .moments import check_fits, log_c_gamma_sq, log_c_shells
from .quadrature import REL_TOL, check_rel_tol
from .wiegerinck import S11_LIMIT, s11_tail_bound

# Peak bytes a wiegerinck --k report holds per row j: 1,078 measured by
# ru_maxrss of fresh processes writing the JSON report at k = 10^5 and 10^6.
_BYTES_PER_OMEGA_K_ROW = 1280

BASIS_NOTE = (
    "assumes the monomials of the basis lattice form a complete "
    "orthogonal system of the Bergman space"
)


# ---------------------------------------------------------------------------
# Formatting: fixed 12 significant digits everywhere.
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _jsonable(obj):
    """Round floats to 12 significant digits so JSON output is stable."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_text(path: str | None, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write the report: {exc}") from exc


def _classification_dict(classification) -> dict:
    return {"kind": classification.label, **dataclasses.asdict(classification)}


def _classification_label(classification) -> str:
    if isinstance(classification, Inconclusive):
        return classification.label
    first = dataclasses.fields(classification)[0].name
    return f"{classification.label}({first}={_fmt(getattr(classification, first))})"


# ---------------------------------------------------------------------------
# Argument and config parsing.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInputError(message)


def parse_domain(value) -> DomainSpec:
    """A domain from its string form (polydisc:2, profile:inv_one_minus_pow:p=1)
    or its object form ({"kind": "profile", "family": ..., "params": {...}});
    both become the (name, value) pairs that domains.builtin_domain checks."""
    if isinstance(value, str):
        kind, *tokens = value.strip().split(":")
        pairs = [("family", tokens.pop(0))] if kind == "profile" and tokens else []
        bare = {"polydisc": "radius", "omega_k": "k"}.get(kind)
        for token in tokens:
            name, eq, text = token.partition("=")
            if not eq:
                if bare is None:
                    raise InvalidInputError(f"cannot interpret domain parameter {token!r}")
                name, text = bare, token
            pairs.append((name, _number(text, f"domain parameter {name}")))
    elif isinstance(value, dict) and isinstance(value.get("kind"), str):
        fields = dict(value)
        kind, nested = fields.pop("kind"), fields.pop("params", {})
        if not isinstance(nested, dict):
            raise InvalidInputError(f"domain params must be an object, got {nested!r}")
        pairs = [*fields.items(), *nested.items()]
    else:
        raise InvalidInputError(f"domain must be a string or an object with a 'kind', got {value!r}")
    return builtin_domain(kind, pairs)


def _number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InvalidInputError(f"{what} must be a finite number, got {text!r}")
    return value


def parse_alpha(value) -> MultiIndex:
    """A symbol index from 'a1,a2' or a list [a1, a2]."""
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)) or len(parts) != 2:
        raise InvalidInputError(f"alpha must be 'a1,a2' or [a1, a2], got {value!r}")
    return MultiIndex(*(_integer(part, "an alpha component") for part in parts))


def _integer(value, key: str) -> int:
    """An int, an integral float or the text of an int; booleans are not integers."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidInputError(f"{key} must be an integer, got {value!r}")


def _tol(value) -> float:
    """A relative tolerance, from a number or the text of --tol."""
    return check_rel_tol(_number(value, "tol") if isinstance(value, str) else value)


def _output(value) -> tuple:
    """(path, format) from an output object; either may be None."""
    if not isinstance(value, dict) or not set(value) <= {"path", "format"}:
        raise InvalidInputError(f"output must be an object with path and format, got {value!r}")
    path, fmt = value.get("path"), value.get("format")
    if not isinstance(path, (str, type(None))):
        raise InvalidInputError(f"output path must be a string, got {path!r}")
    if fmt not in (None, "csv", "json"):
        raise InvalidInputError(f"format must be csv or json, got {fmt!r}")
    return path, fmt


# Every key a task may read: its reader and the help of its flag --key.  A
# reader takes a flag's text or a config value and returns the typed value.
_KEYS = {
    "domain": (parse_domain, "domain, e.g. polydisc:1 or profile:zero"),
    "alpha": (parse_alpha, "symbol index, e.g. 1,0"),
    "n_max": (lambda value: _integer(value, "n_max"), "largest truncation index"),
    "n_step": (lambda value: _integer(value, "n_step"), "ladder stride (default n_max // 8)"),
    "k": (lambda value: _integer(value, "k"), "truncated Wiegerinck index"),
    "tol": (_tol, "quadrature relative tolerance (default 1e-10)"),
}


# ---------------------------------------------------------------------------
# Tasks.  A builder takes the typed value of each key the task reads, as
# keyword arguments named after the keys, and returns (summary line, CSV
# header, CSV rows, JSON payload); run() formats the one the config asks for.
# The payload comes as a function, so a CSV run never builds it.
# ---------------------------------------------------------------------------


def _moments(domain, n_max, tol=REL_TOL):
    if n_max < 0:
        raise InvalidInputError(f"n_max must be >= 0, got {n_max}")
    check_fits((n_max + 1) * (n_max + 2) // 2, f"a table to order {n_max}")
    rows = []
    # One request computes every shell.  Off-lattice monomials are divergent;
    # each nonempty shell is also read at its first lattice point through
    # log_c_gamma_sq, the per-moment entry point perfbench's tracer counts.
    for order, shell in enumerate(log_c_shells(domain, range(n_max + 1), tol)):
        g1s, logs = domain.shell(order), {}
        if g1s:
            log_c_gamma_sq(domain, MultiIndex(g1s[0], order - g1s[0]), tol)
            logs = dict(zip(g1s, shell.tolist()))
        for g1 in range(order + 1):
            rows.append((g1, order - g1, "ok" if g1 in logs else "divergent", logs.get(g1)))
    divergent = sum(status == "divergent" for _, _, status, _ in rows)
    summary = (
        f"moments {domain.describe()}: {len(rows)} monomials up to order {n_max}, "
        f"{divergent} divergent"
    )
    return summary, ("g1", "g2", "status", "log_c_sq"), rows, lambda: {
        "task": "moments",
        "domain": domain.describe(),
        "n_max": n_max,
        "note": BASIS_NOTE,
        "moments": [
            {"g1": g1, "g2": g2, "status": status, "log_c_sq": log}
            for g1, g2, status, log in rows
        ],
    }


def _salpha(domain, alpha, n_max, n_step=None, tol=REL_TOL):
    ns = sample_ladder(n_max, n_step)
    partials = s_alpha_partials(domain, alpha, ns, tol)
    shells = [shell_bound(domain, alpha, n, tol) for n in ns]
    bounds = {}
    if domain.kind == "profile":
        try:
            bounds = dict(certificate_ladder(domain.profile, alpha, ns, tol).bounds)
        except InvalidInputError:
            pass  # the profile has no certificate window: the column stays empty
    classification = classify_growth(partials)
    rows = [(n, value, shell, bounds.get(n)) for (n, value), shell in zip(partials, shells)]
    summary = (
        f"salpha {domain.describe()} alpha={alpha}: S_alpha({ns[-1]})="
        f"{_fmt(partials[-1][1])}, {_classification_label(classification)}"
    )
    return summary, ("N", "S_alpha", "shell_bound", "cert_bound"), rows, lambda: {
        "task": "salpha",
        "domain": domain.describe(),
        "alpha": [alpha.g1, alpha.g2],
        "note": BASIS_NOTE,
        "classification": _classification_dict(classification),
        "rows": [
            {"N": n, "S_alpha": s, "shell_bound": sh, "cert_bound": cb}
            for n, s, sh, cb in rows
        ],
    }


def _certify(domain, alpha, n_max, n_step=None, tol=REL_TOL):
    if domain.kind != "profile":
        raise InvalidInputError("certificates are only defined on profile domains")
    ns = sample_ladder(n_max, n_step)
    partials = s_alpha_partials(domain, alpha, ns, tol)
    certificate = certificate_ladder(domain.profile, alpha, ns, tol)
    classification = classify_growth(partials)
    entries = []
    for entry, (_, s_value) in zip(certificate.entries, partials):
        entries.append({
            "N": entry.n,
            "count": entry.count,
            "cert_bound": entry.bound,
            "min_mass": min((m for _, m in entry.mass_checks), default=1.0),
            "prefactor_min": entry.prefactor_min,
            "S_alpha": s_value,
            "mass_checks": [
                {"x": x, "y": y, "mass": mass} for (x, y), mass in entry.mass_checks
            ],
        })
    all_masses_ok = all(e["min_mass"] >= 0.5 for e in entries)
    verdict = _classification_label(classification)
    summary = (
        f"certify {domain.describe()} alpha={alpha}: bound({ns[-1]})="
        f"{_fmt(certificate.entries[-1].bound)}, masses>=1/2: {_fmt(all_masses_ok)}, "
        f"verdict {verdict}"
    )
    header = ("N", "count", "cert_bound", "min_mass", "S_alpha")
    rows = [tuple(e[key] for key in header) for e in entries]
    window = certificate.window
    return summary, header, rows, lambda: {
        "task": "certify",
        "domain": domain.describe(),
        "alpha": [alpha.g1, alpha.g2],
        "note": BASIS_NOTE,
        "window": {"a": window.a, "b": window.b, "A": window.A, "B": window.B},
        "lambda": certificate.lam,
        "entries": entries,
        "classification": _classification_dict(classification),
        "verdict": verdict,
    }


def _wiegerinck(n_max=None, n_step=None, k=None):
    if k is not None:
        if n_max is not None or n_step is not None:
            raise InvalidInputError("wiegerinck reads either k or n_max and n_step, not both")
        # Omega_k's Bergman space is spanned by (z1 z2)^j, j = 0..k, so a series with
        # symbol index (j, j) has at most k - j + 1 nonzero summands; no moment is computed.
        k = check_index(k, "index must be an integer >= 1, got {!r}", 1)
        check_fits(k, f"the omega_k report for k={k}", "rows", _BYTES_PER_OMEGA_K_ROW)
        term_counts = [(j, k - j + 1) for j in range(1, k + 1)]
        summary = f"wiegerinck omega_k k={k}: dimension {k + 1}"
        return summary, ("j", "structural_terms"), term_counts, lambda: {
            "task": "wiegerinck",
            "domain": f"omega_k(k={k})",
            "dimension": k + 1,
            "basis_indices": list(range(k + 1)),
            "term_counts": [{"j": j, "terms": c} for j, c in term_counts],
            "statement": "finite-dimensional Bergman space: Hankel operators with any nonconstant "
                         "symbol from the space are Hilbert-Schmidt on the subspace where they are bounded",
        }
    if n_max is None:
        raise InvalidInputError("wiegerinck requires k or n_max")
    # The Omega_0 moments are closed forms, so no quadrature setting applies.
    ms = sample_ladder(n_max, n_step)
    partials = s_alpha_partials(DomainSpec.wiegerinck_omega0(), MultiIndex(1, 1), ms)
    classification = classify_growth(partials)
    m, last = partials[-1]
    summary = (
        f"wiegerinck omega0 M={m}: S_11={_fmt(last)}, "
        f"limit_estimate={_fmt(S11_LIMIT)}, {_classification_label(classification)}"
    )
    rows = [(m, s, s11_tail_bound(m)) for m, s in partials]
    return summary, ("M", "S_11", "tail_bound"), rows, lambda: {
        "task": "wiegerinck",
        "domain": "omega0",
        "m_max": m,
        "partials": [{"M": m, "S_11": s} for m, s in partials],
        "limit_estimate": S11_LIMIT,
        "tail_bound": s11_tail_bound(m),
        "classification": _classification_dict(classification),
    }


def _dbar(domain, n_max, tol=REL_TOL):
    report = dbar_canonical_report(domain, n_max, tol)
    rows = [
        (f"({c.alpha.g1};{c.alpha.g2})", n, value)
        for c in report.coordinates if c.status != SYMBOL_NOT_IN_SPACE
        for n, value in c.partials
    ]
    summary = f"dbar {domain.describe()}: {report.verdict}"
    return summary, ("alpha", "N", "S_alpha"), rows, lambda: {
        "task": "dbar",
        "domain": domain.describe(),
        "coordinates": [
            {
                "alpha": [c.alpha.g1, c.alpha.g2],
                "status": c.status,
                "partials": [{"N": n, "S_alpha": v} for n, v in c.partials],
                "classification": (
                    _classification_dict(c.classification) if c.classification else None
                ),
            }
            for c in report.coordinates
        ],
        "verdict": report.verdict,
    }


# task: (keys it requires, in the order they are read; keys it may take;
# default format; builder).  Every task also reads "output".  Builders look
# up the library functions when they run, so a name patched on this module
# is the one they call.
TASKS = {
    "moments": (("domain", "n_max"), ("tol",), "csv", _moments),
    "salpha": (("domain", "alpha", "n_max"), ("n_step", "tol"), "csv", _salpha),
    "certify": (("domain", "alpha", "n_max"), ("n_step", "tol"), "json", _certify),
    "wiegerinck": ((), ("n_max", "n_step", "k"), "json", _wiegerinck),
    "dbar": (("domain", "n_max"), ("tol",), "json", _dbar),
}


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="reinhardt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="task", required=True)
    for task, (required, optional, _, _) in TASKS.items():
        _add_flags(sub.add_parser(task), (*required, *optional))
    report = sub.add_parser("report")
    report.add_argument("--config", required=True, help="JSON config file")
    _add_flags(report, _KEYS)
    return parser


def _add_flags(parser, keys):
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=_KEYS[key][1])
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt")


def _unique_members(pairs) -> dict:
    """A JSON object as a dict; a repeated key is an error, not a silent overwrite."""
    members = {}
    for key, value in pairs:
        if key in members:
            raise InvalidInputError(f"config repeats the key {key!r}")
        members[key] = value
    return members


def _merged_config(args) -> dict:
    """The config of `report --config`, or {"task": task}, with the flags on top."""
    config = {"task": args.task}
    if args.task == "report":
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                config = json.load(handle, object_pairs_hook=_unique_members)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInputError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise InvalidInputError("config must be a JSON object")
    config.update((key, getattr(args, key)) for key in _KEYS if getattr(args, key, None) is not None)
    output = config.get("output", {})
    if isinstance(output, dict):  # anything else is for run() to reject
        flags = (("path", args.out), ("format", args.fmt))
        config["output"] = {**output, **{name: value for name, value in flags if value is not None}}
    return config


def run(config: dict) -> tuple:
    """Execute a config; returns (report text, summary line, path).

    A key the task does not read is an error.  Each value it reads is read
    once, by its key's reader; a null domain, alpha, n_max, n_step, k or tol
    counts as absent.
    """
    task = config.get("task")
    if not isinstance(task, str) or task not in TASKS:
        raise InvalidInputError(f"task must be one of {tuple(TASKS)}, got {task!r}")
    required, optional, default_fmt, build = TASKS[task]
    unread = sorted(set(config) - {"task", "output", *required, *optional})
    if unread:
        raise InvalidInputError(f"task {task} does not read {', '.join(unread)}")
    path, fmt = _output(config.get("output", {}))
    values = {}
    for key in (*required, *optional):
        if config.get(key) is not None:
            values[key] = _KEYS[key][0](config[key])
        elif key in required:
            raise InvalidInputError(f"task {task} requires {key!r}")
    summary, header, rows, payload = build(**values)
    if (fmt or default_fmt) == "csv":
        lines = [",".join(header)]
        lines += [",".join("" if cell is None else _fmt(cell) for cell in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        try:
            text = json.dumps(_jsonable(payload()), indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            raise NumericalFailureError(f"the JSON report holds a non-finite number: {exc}") from exc
    return text, summary, path


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _merged_config(args)
        text, summary, path = run(config)
        _write_text(path, text)
        # A report on stdout must stay parseable, so the summary goes aside.
        print(summary, file=sys.stderr if path in (None, "-") else sys.stdout)
        return 0
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        details = ", ".join(
            f"{name}={_fmt(value)}"
            for name, value in (("best_estimate", exc.best_estimate),
                                ("achieved_error", exc.achieved_error))
            if value is not None
        )
        print(f"numerical failure: {exc}" + (f" ({details})" if details else ""), file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; a smaller n_max may fit", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
