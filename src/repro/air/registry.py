"""Scheme registry: the pluggable entry point to the air-index schemes.

Every scheme registers itself with :func:`register_scheme`, declaring its
canonical short name (the paper's abbreviation), a typed parameter dataclass
describing its tunable knobs, and how those knobs map onto the fields of an
:class:`~repro.experiments.config.ExperimentConfig`.  Everything else in the
system -- the :class:`~repro.engine.system.AirSystem` facade, the CLI, the
benchmarks -- constructs schemes through the registry instead of hard-coding
class names::

    from repro import air

    air.available_schemes()                  # ['DJ', 'NR', 'EB', ...]
    scheme = air.create("NR", network, num_regions=16)

Registration happens at import time of each scheme module;
``import repro.air`` pulls in all of them, so the registry is always fully
populated once the package is imported.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Type, TypeVar

__all__ = [
    "SchemeInfo",
    "register_scheme",
    "available_schemes",
    "comparison_schemes",
    "canonical_name",
    "get_scheme",
    "scheme_defaults",
    "params_from_config",
    "create",
]

#: Canonical name -> registration record, in registration order.
_REGISTRY: Dict[str, "SchemeInfo"] = {}
#: Lowercased alias -> canonical name (case-insensitive lookup).
_ALIASES: Dict[str, str] = {}


@dataclass(frozen=True)
class SchemeInfo:
    """One registered scheme: its class, parameters, and metadata."""

    #: Canonical short name, as the paper spells it (``"NR"``, ``"HiTi"``...).
    name: str
    #: The :class:`~repro.air.base.AirIndexScheme` subclass.
    cls: type
    #: Frozen dataclass describing the scheme's tunable parameters.
    params: type
    #: One-line description shown by ``python -m repro schemes``.
    description: str = ""
    #: Whether the scheme takes part in the paper's device comparisons
    #: (Figures 10-14); SPQ and HiTi only appear in the Table 1/2 studies.
    comparison: bool = True
    #: Parameter field -> ``ExperimentConfig`` attribute carrying its value.
    config_map: Mapping[str, str] = dataclasses.field(default_factory=dict)

    def default_params(self) -> Dict[str, Any]:
        """Parameter names and default values, straight from the dataclass."""
        return {f.name: f.default for f in dataclasses.fields(self.params)}

    def make_params(self, **overrides: Any) -> Any:
        """Instantiate the parameter dataclass, validating the keywords."""
        known = {f.name for f in dataclasses.fields(self.params)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            accepted = ", ".join(sorted(known)) or "(no parameters)"
            raise ValueError(
                f"scheme {self.name!r} got unknown parameter(s) {unknown}; "
                f"accepted: {accepted}"
            )
        return self.params(**overrides)


_SchemeT = TypeVar("_SchemeT", bound=type)


def register_scheme(
    name: str,
    params: Optional[type] = None,
    description: str = "",
    comparison: bool = True,
    config_map: Optional[Mapping[str, str]] = None,
) -> Callable[[_SchemeT], _SchemeT]:
    """Class decorator adding an air-index scheme to the registry.

    ``params`` must be a (preferably frozen) dataclass whose fields all have
    defaults and match keyword arguments of the scheme's constructor.  When
    omitted, the scheme is registered as parameterless.  The class's
    ``short_name`` becomes ``name``.
    """

    if params is None:

        @dataclass(frozen=True)
        class _NoParams:
            pass

        _NoParams.__qualname__ = f"{name}Params"
        params = _NoParams

    if not dataclasses.is_dataclass(params):
        raise TypeError(f"params for scheme {name!r} must be a dataclass")

    def decorate(cls: _SchemeT) -> _SchemeT:
        existing = _REGISTRY.get(name)
        if existing is not None:
            if existing.cls is cls:
                # Re-registering the very same class is a no-op that keeps
                # the original metadata.
                return cls
            same_definition = (
                existing.cls.__module__ == cls.__module__
                and existing.cls.__qualname__ == cls.__qualname__
            )
            if not same_definition:
                raise ValueError(f"scheme {name!r} is already registered")
            # A module reload re-runs the decorator with a fresh class
            # object; fall through so the new definition replaces the old.
        info = SchemeInfo(
            name=name,
            cls=cls,
            params=params,
            description=description,
            comparison=comparison,
            config_map=dict(config_map or {}),
        )
        _REGISTRY[name] = info
        _ALIASES[name.lower()] = name
        cls.short_name = name
        return cls

    return decorate


def available_schemes() -> List[str]:
    """Canonical names of every registered scheme, in registration order."""
    return list(_REGISTRY)


def comparison_schemes() -> List[str]:
    """Schemes taking part in the paper's device comparisons (Figs. 10-14)."""
    return [name for name, info in _REGISTRY.items() if info.comparison]


def canonical_name(name: str) -> str:
    """Resolve a case-insensitive scheme name; raises ``ValueError`` if unknown."""
    try:
        return _ALIASES[name.lower()]
    except KeyError:
        known = ", ".join(available_schemes())
        raise ValueError(f"unknown scheme {name!r}; available: {known}") from None


def get_scheme(name: str) -> SchemeInfo:
    """The :class:`SchemeInfo` for a (case-insensitive) scheme name."""
    return _REGISTRY[canonical_name(name)]


def scheme_defaults(name: str) -> Dict[str, Any]:
    """Parameter names and defaults for a scheme (for CLIs and docs)."""
    return get_scheme(name).default_params()


def params_from_config(name: str, config: Any) -> Dict[str, Any]:
    """Parameter values a configuration object implies for a scheme.

    Uses the scheme's registered ``config_map``; ``config`` only needs the
    mapped attributes (duck-typed so the air layer never imports the
    experiment harness).
    """
    info = get_scheme(name)
    return {field: getattr(config, attr) for field, attr in info.config_map.items()}


def create(name: str, network: Any, *, layout: Any = None, **params: Any):
    """Construct a scheme by name over ``network``.

    Extra keyword arguments are validated against the scheme's parameter
    dataclass, so a typo fails fast with the accepted names::

        air.create("NR", network, num_regions=16)
        air.create("LD", network, num_landmarks=4)
    """
    if layout is not None:
        params["layout"] = layout
    return get_scheme(name).cls(network, **params)
