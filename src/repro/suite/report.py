"""Canonical, deterministic suite reports.

A suite report is the JSON artifact the golden-regression harness pins:
re-running the same suite configuration on the same code must produce a
byte-identical file, and any cost-model change must show up as a
field-level difference.  Three properties make that work:

* **stable key ordering** — every mapping is serialised with sorted keys;
* **no wall-clock fields** — per-variant ``estimation_seconds`` is
  stripped (the engine's ``canonical_report_dict``), and the suite adds
  no timestamps;
* **float normalisation** — floats are rounded to 9 significant digits,
  which is far finer than any genuine model change yet coarse enough to
  absorb cross-platform BLAS/libm jitter in the calibration fits.

Every report is stamped with a schema version so the ``diff`` machinery
can refuse to compare incompatible layouts instead of reporting noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

__all__ = [
    "SCHEMA",
    "VALIDATION_SCHEMA",
    "FLOW_SCHEMA",
    "DSE_SCHEMA",
    "KNOWN_SCHEMAS",
    "FLOAT_SIGNIFICANT_DIGITS",
    "canonicalize",
    "canonical_json",
    "canonical_json_line",
    "SuiteReport",
    "load_report",
]

#: schema stamp of the suite-report JSON layout
SCHEMA = "repro-suite-report/1"

#: schema stamp of the cross-validation report layout (see :mod:`repro.validate`)
VALIDATION_SCHEMA = "repro-validation-report/1"

#: schema stamp of the RTL flow report layout (see :mod:`repro.flows`)
FLOW_SCHEMA = "repro-flow-report/1"

#: schema stamp of the optimizer-driven DSE report layout (per-round
#: provenance + each optimizer's own result summary; see
#: :func:`repro.suite.runner.run_dse`)
DSE_SCHEMA = "repro-dse-report/1"

#: every canonical-report layout this codebase knows how to load and diff
KNOWN_SCHEMAS = (SCHEMA, VALIDATION_SCHEMA, FLOW_SCHEMA, DSE_SCHEMA)

#: significant digits kept for floats in canonical payloads
FLOAT_SIGNIFICANT_DIGITS = 9


def _round_float(value, digits: int = FLOAT_SIGNIFICANT_DIGITS) -> float:
    """``value`` rounded to ``digits`` significant digits, as a plain float."""
    return float(f"{value:.{digits}g}")


def _unsupported(value) -> TypeError:
    return TypeError(f"cannot canonicalise {type(value).__name__!r} value {value!r}")


def canonicalize(value, float_digits: int = FLOAT_SIGNIFICANT_DIGITS):
    """Normalise a JSON-ish payload for deterministic serialisation.

    Floats are rounded to ``float_digits`` significant digits (integral
    floats stay floats, so the JSON type of a field never flips), tuples
    become lists, and mappings are rebuilt with sorted keys.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return _round_float(value, float_digits)
    if isinstance(value, dict):
        return {str(k): canonicalize(v, float_digits) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v, float_digits) for v in value]
    raise _unsupported(value)


#: JSON spellings of the non-finite floats, keyed by their ``repr``
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_json(value) -> str:
    """The JSON text of ``value`` once rounded, as :mod:`json` spells it."""
    text = repr(_round_float(value))
    return _NONFINITE.get(text, text)


def _write(payload, unit: str, colon: str) -> str:
    """``payload`` as canonical JSON text, in one walk.

    The bytes equal ``json.dumps(canonicalize(payload), sort_keys=True,
    ...)`` with ``indent=len(unit)`` (or compact separators when ``unit``
    is empty), without building the canonical copy: keys are sorted, floats
    rounded and indentation written as the walk goes.  Reports repeat few
    distinct floats, strings and keys, so their encodings are memoised per
    call.  The tables are keyed by value and hold one exact type each,
    because ``1 == 1.0 == True`` and ``0.0 == -0.0`` hash alike.
    """
    parts: list[str] = []
    append = parts.append
    floats: dict[float, str] = {}
    strings: dict[str, str] = {}
    keys: dict[str, str] = {}

    def float_text(value: float) -> str:
        text = _float_json(value)
        if value:  # zeros are never memoised: -0.0 would find 0.0
            floats[value] = text
        return text

    def emit(value, newline: str) -> None:
        # exact types first, as they are the common case; then
        # canonicalize's checks, so subclasses encode as their base type
        t = type(value)
        if t is float:
            text = floats.get(value) or float_text(value)
        elif t is str:
            text = strings.get(value)
            if text is None:
                text = strings[value] = _quote(value)
        elif t is int:
            text = int.__repr__(value)
        elif value is None:
            text = "null"
        elif value is True:
            text = "true"
        elif value is False:
            text = "false"
        elif isinstance(value, int):
            text = int.__repr__(value)
        elif isinstance(value, str):
            text = _quote(value)
        elif isinstance(value, float):
            text = _float_json(value)
        elif isinstance(value, dict):
            emit_dict(value if t is dict else dict(value.items()), newline)
            return
        elif isinstance(value, (list, tuple)):
            emit_list(value, newline)
            return
        else:
            raise _unsupported(value)
        append(text)

    def emit_dict(value: dict, newline: str) -> None:
        if not value:
            append("{}")
            return
        inner = newline + unit
        sep = "{" + inner
        comma = "," + inner
        order = sorted(value)
        for key in order:
            if type(key) is not str:
                # canonicalize stringifies keys after sorting them, and the
                # encoder then sorts the strings: "10" comes before "9"
                value = {str(k): value[k] for k in order}
                order = sorted(value)
                break
        for key in order:
            text = keys.get(key)
            if text is None:
                text = keys[key] = _quote(key) + colon
            append(sep + text)
            sep = comma
            # the common leaves inline: a call per leaf is most of the cost
            item = value[key]
            t = type(item)
            if t is float:
                text = floats.get(item) or float_text(item)
            elif t is str:
                text = strings.get(item)
                if text is None:
                    text = strings[item] = _quote(item)
            elif t is int:
                text = int.__repr__(item)
            elif t is dict:
                emit_dict(item, inner)
                continue
            else:
                emit(item, inner)
                continue
            append(text)
        append(newline + "}")

    def emit_list(value, newline: str) -> None:
        if not value:
            append("[]")
            return
        inner = newline + unit
        sep = "[" + inner
        comma = "," + inner
        for item in value:
            append(sep)
            sep = comma
            emit(item, inner)
        append(newline + "]")

    emit(payload, "\n" if unit else "")
    return "".join(parts)


def canonical_json(payload) -> str:
    """The canonical serialisation: sorted keys, 2-space indent, newline."""
    return _write(payload, "  ", ": ") + "\n"


def canonical_json_line(payload) -> str:
    """One canonical NDJSON line: same normalisation, no indentation.

    This is the streaming sibling of :func:`canonical_json` — the
    exploration service emits one line per event (progress entries, then
    the final report), and clients that concatenate the ``report`` event's
    payload back through :func:`canonical_json` recover the byte-identical
    file a batch run would have written.
    """
    return _write(payload, "", ":") + "\n"


@dataclass
class SuiteReport:
    """A version-stamped suite report, ready to serialise or diff."""

    payload: dict

    @property
    def schema(self) -> str:
        return self.payload.get("schema", "")

    @property
    def kernels(self) -> dict:
        return self.payload.get("kernels", {})

    @property
    def totals(self) -> dict:
        return self.payload.get("totals", {})

    def kernel_payload(self, name: str) -> dict:
        """The standalone single-kernel payload (used for per-kernel goldens).

        Only the *shared sweep axes* of the config are embedded — the
        whole-suite fields (``kernels``, ``grids``, ``iterations``) are
        dropped, because the kernel's own workload is already pinned
        under ``kernels[name]["workload"]``.  This keeps a per-kernel
        golden independent of which *other* kernels are registered or
        selected: recording a subset and recording the full suite produce
        byte-identical files, and adding a seventh kernel to the registry
        does not invalidate the six existing goldens.
        """
        if name not in self.kernels:
            raise KeyError(f"suite report has no kernel {name!r}; "
                           f"available: {sorted(self.kernels)}")
        config = {k: v for k, v in self.payload["config"].items()
                  if k not in ("kernels", "grids", "iterations")}
        return {
            "schema": self.payload["schema"],
            "config": config,
            "kernels": {name: self.kernels[name]},
        }

    def canonical_dict(self) -> dict:
        return canonicalize(self.payload)

    def to_json(self) -> str:
        return canonical_json(self.payload)

    def write(self, path: Path | str) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path


def load_report(path: Path | str, expected_schema: str | None = None) -> dict:
    """Load a canonical-report payload, checking the schema stamp.

    ``expected_schema`` pins one layout (e.g. the golden harnesses, which
    know exactly what they recorded); by default any known layout loads,
    which is what ``suite diff`` wants — it compares two reports of the
    *same* layout, whichever that is.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ValueError(f"{path}: not a suite report (no schema stamp)")
    accepted = KNOWN_SCHEMAS if expected_schema is None else (expected_schema,)
    if payload["schema"] not in accepted:
        raise ValueError(
            f"{path}: schema {payload['schema']!r} is not one of the "
            f"supported {', '.join(repr(s) for s in accepted)}"
        )
    return payload
