"""One handler module per command but ``simulate``, loaded only when it runs.

Each module's ``run(args)`` returns ``(params, results, exactness,
exit_code)`` for ``cli`` to wrap in the result envelope.  A handler never
imports ``runlength.cli``: under ``python -m runlength.cli`` that module
runs as ``__main__``, and importing it would compile it a second time.
"""

from __future__ import annotations

from ..errors import DomainError, SizeCapError, VerificationError
from ..params import Params


def run_routes(routes: dict, method: str, params: Params, results: dict, skip_note) -> dict:
    """Each route's value by name, for the route ``method`` names or else for all.

    A route run alone raises its refusal; among all, one that refuses is noted by skip_note(it).
    """
    if method in routes:
        return {method: routes[method](params)}
    values = {}
    for name, route in routes.items():
        try:
            values[name] = route(params)
        except (DomainError, SizeCapError) as refusal:
            results["note"] = skip_note(refusal)
    return values


def agree(subject: str, values: dict):
    """The value every named route gave; VerificationError naming two that differ."""
    (first, shared), *others = values.items()
    for name, value in others:
        if value != shared:
            raise VerificationError(
                f"{subject}: the {first} and {name} routes disagree: {shared} vs {value}"
            )
    return shared
