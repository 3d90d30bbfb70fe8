"""The `key = value` text format shared by config files and object files.

`#` starts a comment anywhere on a line; blank lines are skipped.  A
`[section]` line opens a section, and keys before the first one belong to
the top-level section, named None.  Every error names the line it was
found at, when there is one.
"""

from __future__ import annotations

import math
from typing import Collection

__all__ = ["LineError", "KeyValues"]


class LineError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line


class KeyValues:
    """The entries of one file, each key checked against its section's keys.

    sections maps each section name to the keys it allows; a key may occur
    in one section only.  Every problem raises `error`, a LineError subclass.
    """

    def __init__(self, text: str, sections: dict[str | None, Collection[str]],
                 error: type[LineError]):
        self.error = error
        self.entries: dict[str, tuple[str, int]] = {}
        section = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in sections:
                    raise error(f"unknown section [{section}]", lineno)
                continue
            if "=" not in line:
                raise error(f"expected key = value, got {line!r}", lineno)
            if section not in sections:
                raise error("key outside of any [section]", lineno)
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in sections[section]:
                where = f" in [{section}]" if section is not None else ""
                raise error(f"unknown key {key!r}{where}", lineno)
            if key in self.entries:
                raise error(f"duplicate key {key!r}", lineno)
            self.entries[key] = (value.strip(), lineno)

    def line(self, key: str | None) -> int | None:
        return self.entries[key][1] if key in self.entries else None

    def value(self, key: str, default: str | None = None,
              required: bool = False) -> str | None:
        """The text after `key =`; default when the key is absent."""
        if key in self.entries:
            return self.entries[key][0]
        if required:
            raise self.error(f"missing required key {key!r}")
        return default

    def number(self, key: str, domain: str | None = None,
               default: float | None = None, required: bool = False) -> float | None:
        """The finite number at key, which must also be in domain when one
        is given ("positive" or "non-negative"); default when absent."""
        value = self.value(key, required=required)
        if value is None:
            return default
        try:
            number = float(value)
        except ValueError:
            raise self.error(f"non-numeric value for {key}: {value!r}",
                             self.line(key)) from None
        if not math.isfinite(number):
            raise self.error(f"non-finite value for {key}: {value!r}", self.line(key))
        if domain == "positive" and number <= 0 or domain == "non-negative" and number < 0:
            raise self.error(f"{key} must be {domain}, got {value!r}", self.line(key))
        return number

    def build(self, cls, key: str | None, **kwargs):
        """Construct cls; a failed check of its own is reported at key's line."""
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise self.error(str(exc), self.line(key)) from exc
