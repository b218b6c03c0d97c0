"""Tests for the backend registry: the single validation point."""

import pytest

from repro.backends import (
    EQUIVALENCE_CONTRACTS,
    AnalyticBackend,
    Backend,
    OperationalBackend,
    TensorAnalyticBackend,
    VectorizedAnalyticBackend,
    make_backend,
    register,
    registered_backends,
    resolve,
    validate_options,
)
from repro.errors import EnvironmentError_


class TestResolve:
    def test_builtin_backends_registered(self):
        assert registered_backends() == (
            "analytic", "operational", "tensor", "vectorized"
        )

    def test_resolve_returns_classes(self):
        assert resolve("analytic") is AnalyticBackend
        assert resolve("operational") is OperationalBackend
        assert resolve("tensor") is TensorAnalyticBackend
        assert resolve("vectorized") is VectorizedAnalyticBackend

    def test_vectorized_is_an_analytic_alias(self):
        # Name and version enter every store digest and the contract
        # every journal header, so the alias keeps all three.
        alias = resolve("vectorized")
        assert issubclass(alias, AnalyticBackend)
        assert alias.name == "vectorized"
        assert alias.version == 1
        assert alias.equivalence == "bitwise"
        assert alias.option_names == frozenset()

    def test_unknown_name_canonical_error(self):
        # The one error message Runner and CampaignSpec both surface.
        with pytest.raises(
            EnvironmentError_,
            match=r"unknown backend 'quantum'; registered backends: "
            r"analytic, operational, tensor, vectorized",
        ):
            resolve("quantum")

    def test_register_rejects_duplicates(self):
        class Impostor(Backend):
            name = "analytic"

            def run(self, device, test, environment, iterations, rng):
                raise NotImplementedError

        with pytest.raises(EnvironmentError_, match="already registered"):
            register(Impostor)

    def test_register_rejects_unnamed(self):
        class Nameless(Backend):
            def run(self, device, test, environment, iterations, rng):
                raise NotImplementedError

        with pytest.raises(EnvironmentError_, match="name"):
            register(Nameless)


class TestEquivalenceContracts:
    def test_every_backend_declares_a_known_contract(self):
        for name in registered_backends():
            assert resolve(name).equivalence in EQUIVALENCE_CONTRACTS

    def test_declared_contracts(self):
        assert AnalyticBackend.equivalence == "bitwise"
        assert VectorizedAnalyticBackend.equivalence == "bitwise"
        assert TensorAnalyticBackend.equivalence == "statistical"
        assert OperationalBackend.equivalence == "directional"

    def test_register_rejects_unknown_contract(self):
        class Vibes(Backend):
            name = "vibes"
            equivalence = "close-enough"

            def run(self, device, test, environment, iterations, rng):
                raise NotImplementedError

        with pytest.raises(
            EnvironmentError_,
            match=r"unknown equivalence contract 'close-enough'",
        ):
            register(Vibes)


class TestOptions:
    def test_make_backend_defaults_analytic_options_empty(self):
        backend = make_backend("analytic")
        assert backend.name == "analytic"

    def test_make_backend_passes_accepted_option(self):
        backend = make_backend("operational", max_operational_instances=5)
        assert backend.max_operational_instances == 5

    def test_make_backend_drops_none_options(self):
        # None means "not provided": analytic accepts no options but a
        # None-valued cap must not trip validation.
        backend = make_backend("analytic", max_operational_instances=None)
        assert backend.name == "analytic"

    def test_unaccepted_option_rejected(self):
        with pytest.raises(
            EnvironmentError_,
            match=r"backend 'analytic' does not accept option\(s\) "
            r"'max_operational_instances'",
        ):
            make_backend("analytic", max_operational_instances=8)

    def test_vectorized_rejects_operational_cap(self):
        with pytest.raises(EnvironmentError_, match="does not accept"):
            make_backend("vectorized", max_operational_instances=8)

    def test_validate_options_lists_accepted(self):
        with pytest.raises(EnvironmentError_, match="accepted: none"):
            validate_options(AnalyticBackend, {"bogus": 1})

    def test_operational_cap_must_be_positive(self):
        with pytest.raises(EnvironmentError_, match=">= 1"):
            make_backend("operational", max_operational_instances=0)
