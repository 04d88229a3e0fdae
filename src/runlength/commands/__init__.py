"""One handler module per command but ``simulate``, loaded only when it runs.

Each module's ``run(args)`` returns ``(params, results, exactness,
exit_code)`` for ``cli`` to wrap in the result envelope.  A handler never
imports ``runlength.cli``: under ``python -m runlength.cli`` that module
runs as ``__main__``, and importing it would compile it a second time.
"""

from __future__ import annotations

from ..errors import DomainError, SizeCapError, VerificationError
from ..params import Params


def run_routes(routes: dict, method: str, params: Params) -> tuple:
    """Each route's value by name, for the route ``method`` names or else for all, and
    the refusal of a route skipped among all, or None; a route run alone raises its refusal."""
    if method in routes:
        return {method: routes[method](params)}, None
    values, skipped = {}, None
    for name, route in routes.items():
        try:
            values[name] = route(params)
        except (DomainError, SizeCapError) as refusal:
            skipped = refusal
    return values, skipped


def agree(subject: str, values: dict):
    """The value every named route gave; VerificationError naming two that differ."""
    (first, shared), *others = values.items()
    for name, value in others:
        if value != shared:
            raise VerificationError(
                f"{subject}: the {first} and {name} routes disagree: {shared} vs {value}"
            )
    return shared
