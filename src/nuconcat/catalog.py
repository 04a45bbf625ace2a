"""Code catalog: the shipped codes, their transversal declarations, and a
bit-exact text serialisation.

Declarations here are claims, not facts: the gadget library re-verifies
every one against an oracle before first use and refuses to hand out
unverified gadgets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import codes as codelib
from . import gates
from .circuits import TransversalRule
from .codes import StabilizerCode
from .pauli import Pauli


@dataclass
class Catalog:
    codes: dict[str, StabilizerCode] = field(default_factory=dict)
    rules: dict[str, dict[str, TransversalRule]] = field(default_factory=dict)
    derivations: dict[str, str] = field(default_factory=dict)

    def code(self, name: str) -> StabilizerCode:
        try:
            return self.codes[name]
        except KeyError:
            raise ValueError(f"unknown code {name!r}; catalog has {sorted(self.codes)}") from None

    def add(self, code: StabilizerCode, rules: dict[str, TransversalRule],
            derivation: str = "") -> None:
        self.codes[code.name] = code
        self.rules[code.name] = rules
        if derivation:
            self.derivations[code.name] = derivation

    def fingerprint(self) -> str:
        return hashlib.sha256(dump_catalog(self).encode()).hexdigest()[:16]


_PAULI_RULES = {
    "X": TransversalRule(),
    "Y": TransversalRule(),
    "Z": TransversalRule(),
}


def default_catalog() -> Catalog:
    """The four shipped codes with their claimed transversal sets.

    Dagger conventions matter: on both the Steane and Reed-Muller codes the
    logical S is the bitwise S_dagger, and on the Reed-Muller code the
    logical T is the bitwise T_dagger (the X-coset weights are 0 and 8 mod
    16, so bitwise phase gates act with the opposite sign on the odd coset).
    """
    cat = Catalog()
    cat.add(codelib.steane(), {
        **_PAULI_RULES,
        gates.H: TransversalRule(gates.H),
        gates.S: TransversalRule(gates.S_DAG),
        gates.CNOT: TransversalRule(gates.CNOT),
        gates.CZ: TransversalRule(gates.CZ),
    })
    cat.add(codelib.reed_muller_15(), {
        **_PAULI_RULES,
        gates.T: TransversalRule(gates.T_DAG),
        gates.S: TransversalRule(gates.S_DAG),
        gates.CNOT: TransversalRule(gates.CNOT),
        gates.CZ: TransversalRule(gates.CZ),
        gates.CCZ: TransversalRule(gates.CCZ),
    })
    cat.add(codelib.five_qubit(), dict(_PAULI_RULES))
    cat.add(codelib.five_prime(), {
        **_PAULI_RULES,
        gates.K: TransversalRule(gates.K, fixups=((gates.Z, 2),)),
    }, derivation="five_qubit + " + " ".join(
        f"{g.kind}@{g.qubits[0]}" for g in codelib.FIVE_PRIME_TRANSFORM))
    return cat


# -- text format ---------------------------------------------------------------

def dump_catalog(cat: Catalog) -> str:
    lines = ["catalog-version 1", ""]
    for name in cat.codes:
        code = cat.codes[name]
        lines.append(f"code {name}")
        lines.append(f"n {code.n}")
        lines.append(f"css {'true' if code.css else 'false'}")
        if name in cat.derivations:
            lines.append(f"derivation {cat.derivations[name]}")
        for g in code.generators:
            lines.append(f"stabilizer {g}")
        lines.append(f"logical-x {code.logical_x}")
        lines.append(f"logical-z {code.logical_z}")
        for kind, rule in cat.rules.get(name, {}).items():
            if rule.phys_kind is None:
                lines.append(f"transversal {kind} rep")
            else:
                entry = f"transversal {kind} bitwise {rule.phys_kind}"
                for fk, fq in rule.fixups:
                    entry += f" fixup {fk}@{fq}"
                lines.append(entry)
        lines.append("end")
        lines.append("")
    return "\n".join(lines)


def _gate_kind(kind: str, line: str) -> str:
    """``kind``, if a catalog line can name it: a gate kind with no free angle."""
    if kind not in gates.ARITY:
        raise ValueError(f"bad catalog line {line!r}: {kind!r} is not one of "
                         f"{', '.join(gates.ARITY)}")
    return kind


def parse_catalog(text: str) -> Catalog:
    cat = Catalog()
    lines = iter(text.splitlines())
    header = next(lines, "").strip()
    if header != "catalog-version 1":
        raise ValueError(f"unsupported catalog header {header!r}")
    current: dict | None = None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if current is not None and key not in ("code", "stabilizer", "end"):
            once = " ".join([key, *rest.split()[:1]]) if key == "transversal" else key
            if once in current["lines"]:
                raise ValueError(f"bad catalog line {line!r}: repeats "
                                 f"{current['lines'][once]!r}")
            current["lines"][once] = line
        if key == "code":
            name = rest.strip()
            if current is not None:
                raise ValueError(f"bad catalog line {line!r}: code {current['name']!r} "
                                 f"lacks its 'end' line")
            if name in cat.codes:
                raise ValueError(f"bad catalog line {line!r}: code {name!r} already read")
            current = {"name": name, "stabilizers": [], "rules": {}, "lines": {},
                       "derivation": ""}
        elif current is None:
            raise ValueError(f"directive outside code block: {line!r}")
        elif key == "n":
            current["n"] = gates.parse_index(rest.strip(), "catalog", line, "'n N'")
        elif key == "css":
            if rest.strip() not in ("true", "false"):
                raise ValueError(f"bad catalog line {line!r}: expected 'css true' or 'css false'")
            current["css"] = rest.strip() == "true"
        elif key == "derivation":
            current["derivation"] = rest.strip()
        elif key in ("stabilizer", "logical-x", "logical-z"):
            try:
                p = Pauli.from_string(rest.strip())
            except ValueError as exc:
                raise ValueError(f"bad catalog line {line!r}: {exc}") from None
            if key == "stabilizer":
                current["stabilizers"].append(p)
            else:
                current[key] = p
        elif key == "transversal":
            parts = rest.split()
            if len(parts) == 2 and parts[1] == "rep":
                if parts[0] not in codelib.LOGICAL_CLASSES:
                    raise ValueError(f"bad catalog line {line!r}: expected 'transversal KIND "
                                     f"rep' with KIND one of {', '.join(codelib.LOGICAL_CLASSES)}")
                rule = TransversalRule()
            elif len(parts) % 2 and parts[1:2] == ["bitwise"] and set(parts[3::2]) <= {"fixup"}:
                # KIND bitwise PHYS, then 'fixup KIND@QUBIT' pairs
                fixups = []
                for tok in parts[4::2]:
                    fk, _, fq = tok.partition("@")
                    qubit = gates.parse_index(fq, "catalog", line, "'fixup KIND@QUBIT'")
                    fixups.append((_gate_kind(fk, line), qubit))
                rule = TransversalRule(_gate_kind(parts[2], line), tuple(fixups))
            else:
                raise ValueError(f"bad transversal declaration {line!r}; expected "
                                 f"'transversal KIND rep' or 'transversal KIND bitwise PHYS [fixup KIND@QUBIT ...]'")
            current["rules"][_gate_kind(parts[0], line)] = rule
        elif key == "end":
            missing = [d for d in ("n", "logical-x", "logical-z") if d not in current]
            if missing:
                raise ValueError(f"code {current['name']!r} lacks {', '.join(missing)}")
            code = StabilizerCode(current["name"], tuple(current["stabilizers"]),
                                  current["logical-x"], current["logical-z"])
            if current["n"] != code.n:
                raise ValueError(f"bad catalog line {current['lines']['n']!r}: the operators of "
                                 f"{code.name!r} act on {code.n} qubits")
            for kind, rule in current["rules"].items():
                for _, q in rule.fixups:
                    if q >= code.n:
                        raise ValueError(f"bad catalog line "
                                         f"{current['lines']['transversal ' + kind]!r}: fixup "
                                         f"qubit {q} outside the {code.n} qubits of "
                                         f"{code.name!r}")
            if current.get("css", code.css) != code.css:
                raise ValueError(f"bad catalog line {current['lines']['css']!r}: the operators of "
                                 f"{code.name!r} make it {'' if code.css else 'not '}CSS")
            cat.add(code, current["rules"], current["derivation"])
            current = None
        else:
            raise ValueError(f"unknown catalog directive {key!r}")
    if current is not None:
        raise ValueError("unterminated code block")
    return cat
