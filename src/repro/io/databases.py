"""Parsing and formatting incomplete databases.

Format, one declaration or fact per line::

    # comments and blank lines are ignored
    domain a b c 1 2        # uniform domain (at most one such line)
    null n1: a b            # per-null domain (non-uniform databases)
    null n2: b c
    R(a, ?n1)
    S(?n1, 'hello world', 42)

Terms inside facts: ``?name`` is a null; ``'quoted'`` is a string constant
(spaces allowed); a bare integer is an int constant; any other bare token
is a string constant.  A file must declare either a ``domain`` line
(uniform) or a ``null`` line for every null used (non-uniform), not both.
"""

from __future__ import annotations

import re

from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term, is_null

_FACT_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$")
_TERM_SPLIT_RE = re.compile(r",(?=(?:[^']*'[^']*')*[^']*$)")


class DatabaseSyntaxError(ValueError):
    """Raised on malformed database text."""


def _parse_value(token: str) -> Term:
    token = token.strip()
    if token.startswith("'") and token.endswith("'") and len(token) >= 2:
        return token[1:-1]
    if re.fullmatch(r"-?\d+", token):
        return int(token)
    if not token:
        raise DatabaseSyntaxError("empty value")
    return token


def _parse_fact_term(token: str) -> Term:
    token = token.strip()
    if token.startswith("?"):
        name = token[1:].strip()
        if not name:
            raise DatabaseSyntaxError("null marker '?' without a name")
        return Null(name)
    return _parse_value(token)


def parse_fact(text: str) -> Fact:
    """Parse one ``R(t1, ..., tn)`` fact line (the file format's syntax)."""
    match = _FACT_RE.match(text)
    if not match:
        raise DatabaseSyntaxError("cannot parse fact %r" % text)
    relation, body = match.group(1), match.group(2)
    return Fact(
        relation,
        [_parse_fact_term(part) for part in _TERM_SPLIT_RE.split(body)],
    )


def parse_delta(kind: str, text: str):
    """Parse one update-delta argument (the ``repro-count update`` flags).

    * ``resolve``:  ``n1=a`` — pin null ``n1`` to constant ``a``;
    * ``restrict``: ``n1=a,b`` — shrink ``n1``'s domain to ``{a, b}``;
    * ``insert``:   ``R(a, ?n3); S(b)`` — add facts (``;``-separated);
      new nulls declare domains with ``where n3: a b`` at the end;
    * ``delete``:   ``R(a, b)`` — remove facts (``;``-separated).
    """
    from repro.db.deltas import (
        DeleteFacts,
        InsertFacts,
        ResolveNull,
        RestrictDomain,
    )

    def null_of(token: str) -> Null:
        token = token.strip()
        if token.startswith("?"):
            token = token[1:]
        if not token:
            raise DatabaseSyntaxError("empty null name in delta %r" % text)
        return Null(token)

    if kind in ("resolve", "restrict"):
        if "=" not in text:
            raise DatabaseSyntaxError(
                "expected 'null=value%s', got %r"
                % (",..." if kind == "restrict" else "", text)
            )
        name, values = text.split("=", 1)
        if kind == "resolve":
            return ResolveNull(null_of(name), _parse_value(values))
        return RestrictDomain(
            null_of(name),
            frozenset(_parse_value(tok) for tok in values.split(",")),
        )
    if kind in ("insert", "delete"):
        body, _, declarations = text.partition(" where ")
        facts = frozenset(
            parse_fact(part) for part in body.split(";") if part.strip()
        )
        if not facts:
            raise DatabaseSyntaxError("no facts in delta %r" % text)
        if kind == "delete":
            if declarations:
                raise DatabaseSyntaxError(
                    "delete deltas take no 'where' domains: %r" % text
                )
            return DeleteFacts(facts)
        dom: dict[Null, frozenset] = {}
        for declaration in declarations.split(";"):
            declaration = declaration.strip()
            if not declaration:
                continue
            if ":" not in declaration:
                raise DatabaseSyntaxError(
                    "expected 'name: values' in %r" % declaration
                )
            name, values = declaration.split(":", 1)
            dom[null_of(name)] = frozenset(
                _parse_value(tok) for tok in values.split()
            )
        return InsertFacts(facts, dom=dom or None)
    raise DatabaseSyntaxError("unknown delta kind %r" % kind)


def parse_database(text: str) -> IncompleteDatabase:
    """Parse the text format into an :class:`IncompleteDatabase`."""
    uniform_domain: list[Term] | None = None
    null_domains: dict[Null, list[Term]] = {}
    facts: list[Fact] = []

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("domain"):
            if uniform_domain is not None:
                raise DatabaseSyntaxError(
                    "line %d: duplicate domain declaration" % line_number
                )
            uniform_domain = [
                _parse_value(tok) for tok in line[len("domain") :].split()
            ]
            continue
        if line.startswith("null"):
            body = line[len("null") :]
            if ":" not in body:
                raise DatabaseSyntaxError(
                    "line %d: expected 'null name: values'" % line_number
                )
            name, values = body.split(":", 1)
            null = Null(name.strip())
            if null in null_domains:
                raise DatabaseSyntaxError(
                    "line %d: duplicate domain for %r" % (line_number, null)
                )
            null_domains[null] = [_parse_value(tok) for tok in values.split()]
            continue
        match = _FACT_RE.match(line)
        if not match:
            raise DatabaseSyntaxError(
                "line %d: cannot parse %r" % (line_number, line)
            )
        relation, body = match.group(1), match.group(2)
        terms = [
            _parse_fact_term(part) for part in _TERM_SPLIT_RE.split(body)
        ]
        facts.append(Fact(relation, terms))

    if uniform_domain is not None and null_domains:
        raise DatabaseSyntaxError(
            "declare either a uniform domain or per-null domains, not both"
        )
    if uniform_domain is not None:
        return IncompleteDatabase.uniform(facts, uniform_domain)
    return IncompleteDatabase(facts, dom=null_domains)


def _format_value(value: Term) -> str:
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text):
        return text
    return "'%s'" % text


def _format_fact_term(term: Term) -> str:
    if is_null(term):
        return "?%s" % term.label
    return _format_value(term)


def format_database(db: IncompleteDatabase) -> str:
    """Round-trippable text form (header lines then sorted facts)."""
    lines: list[str] = []
    if db.is_uniform:
        lines.append(
            "domain %s"
            % " ".join(_format_value(v) for v in sorted(db.uniform_domain, key=repr))
        )
    else:
        for null in db.nulls:
            lines.append(
                "null %s: %s"
                % (
                    null.label,
                    " ".join(
                        _format_value(v)
                        for v in sorted(db.domain_of(null), key=repr)
                    ),
                )
            )
    for fact in sorted(db.facts, key=Fact.sort_key):
        lines.append(
            "%s(%s)"
            % (
                fact.relation,
                ", ".join(_format_fact_term(t) for t in fact.terms),
            )
        )
    return "\n".join(lines) + "\n"
