"""Modular arithmetic helpers and the pluggable backend registry."""

import pytest

from repro.common.errors import ParameterError
from repro.crypto import modmath
from repro.crypto.modmath import (
    MODMATH_ENV,
    ProductTree,
    crt_pair,
    is_quadratic_residue,
    mod_inverse,
    product,
    product_mod,
)

HAVE_GMPY2 = "gmpy2" in modmath.available_backends()


class TestModInverse:
    def test_basic(self):
        assert (3 * mod_inverse(3, 7)) % 7 == 1

    def test_large(self):
        n = 2**127 - 1
        a = 123456789
        assert (a * mod_inverse(a, n)) % n == 1

    def test_non_invertible(self):
        with pytest.raises(ParameterError):
            mod_inverse(6, 9)

    def test_bad_modulus(self):
        with pytest.raises(ParameterError):
            mod_inverse(3, 0)


class TestCrt:
    def test_reconstruction(self):
        p, q = 11, 13
        x = 100
        assert crt_pair(x % p, p, x % q, q) == x

    def test_rsa_style(self):
        p, q = 10007, 10009
        x = 12345678
        assert crt_pair(x % p, p, x % q, q) == x % (p * q)

    def test_non_coprime_rejected(self):
        with pytest.raises(ParameterError):
            crt_pair(1, 6, 1, 9)


class TestQuadraticResidue:
    def test_squares_are_residues(self):
        p = 23
        for a in range(1, p):
            assert is_quadratic_residue((a * a) % p, p)

    def test_known_non_residue(self):
        # 5 is not a QR mod 7 (QRs mod 7: 1, 2, 4)
        assert not is_quadratic_residue(5, 7)

    def test_even_modulus_rejected(self):
        with pytest.raises(ParameterError):
            is_quadratic_residue(3, 8)


class TestProducts:
    def test_product_empty(self):
        assert product([]) == 1

    def test_product_matches_math_prod(self):
        import math

        values = [3, 5, 7, 11, 13, 17]
        assert product(values) == math.prod(values)

    def test_product_odd_count(self):
        assert product([2, 3, 5]) == 30

    def test_product_mod(self):
        assert product_mod([10, 20, 30], 7) == (10 * 20 * 30) % 7


class TestProductTree:
    def test_empty_root_is_one(self):
        assert ProductTree().root == 1
        assert len(ProductTree()) == 0

    def test_root_matches_math_prod(self):
        import math

        values = [3, 5, 7, 11, 13, 17, 19]
        tree = ProductTree()
        tree.extend(values)
        assert tree.root == math.prod(values)
        assert len(tree) == len(values)

    def test_incremental_append_tracks_product(self):
        import math

        tree = ProductTree()
        values = []
        for v in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
            values.append(v)
            tree.append(v)
            assert tree.root == math.prod(values)

    def test_append_order_irrelevant_for_root(self):
        a, b = ProductTree(), ProductTree()
        a.extend([3, 5, 7, 11])
        b.extend([11, 7, 5, 3])
        assert a.root == b.root

    def test_forest_stays_logarithmic(self):
        tree = ProductTree()
        tree.extend(range(1, 1001))
        # Binary-counter forest: at most ceil(log2(n)) + 1 subtree roots.
        assert len(tree._forest) <= 11

    def test_forest_state_stays_plain_int(self):
        """Backend types must never leak into the forest: plain ints
        compare and serialise identically on every backend."""
        tree = ProductTree([3, 5, 7, 11, 13])
        assert all(type(prod) is int for _, prod in tree._forest)
        assert type(tree.root) is int


@pytest.fixture()
def clean_backend():
    """Restore env-driven backend resolution after a test that overrides it."""
    yield
    modmath.set_backend(None)


class TestBackendRegistry:
    def test_python_backend_is_default(self, clean_backend, monkeypatch):
        monkeypatch.delenv(MODMATH_ENV, raising=False)
        modmath.set_backend(None)
        assert modmath.active_backend().name == "python"
        info = modmath.backend_info()
        assert info["active"] == "python"
        assert info["fallback_reason"] is None

    def test_available_backends_always_lists_python(self):
        assert "python" in modmath.available_backends()

    def test_set_backend_unknown_name_rejected(self, clean_backend):
        with pytest.raises(ParameterError):
            modmath.set_backend("openssl")

    def test_env_unknown_value_rejected(self, clean_backend, monkeypatch):
        monkeypatch.setenv(MODMATH_ENV, "not-a-backend")
        modmath.set_backend(None)
        with pytest.raises(ParameterError):
            modmath.active_backend()

    @pytest.mark.skipif(HAVE_GMPY2, reason="gmpy2 installed: no fallback to test")
    def test_gmpy2_env_request_falls_back_to_python(self, clean_backend, monkeypatch):
        """REPRO_MODMATH=gmpy2 without gmpy2 must degrade, not crash — the
        repo never requires a native dependency."""
        monkeypatch.setenv(MODMATH_ENV, "gmpy2")
        modmath.set_backend(None)
        backend = modmath.active_backend()
        assert backend.name == "python"
        info = modmath.backend_info()
        assert info["requested"] == "gmpy2"
        assert info["fallback_reason"] == "gmpy2 not installed"

    @pytest.mark.skipif(HAVE_GMPY2, reason="gmpy2 installed: request succeeds")
    def test_set_backend_gmpy2_raises_when_missing(self, clean_backend):
        """Unlike the env path, an explicit set_backend('gmpy2') must raise —
        a test that asks for gmpy2 wants gmpy2, not a silent fallback."""
        with pytest.raises(ParameterError):
            modmath.set_backend("gmpy2")

    def test_operations_match_builtins(self):
        backend = modmath.active_backend()
        assert modmath.powmod(3, 1000, 101) == pow(3, 1000, 101)
        assert modmath.invert(7, 101) == pow(7, -1, 101)
        assert modmath.gcd(84, 126) == 42
        assert backend.mul(1 << 100, 3) == 3 << 100
        assert backend.unwrap(backend.wrap(12345)) == 12345

    def test_invert_non_invertible_raises_valueerror(self):
        """Both backends normalise to ValueError, so mod_inverse's
        ParameterError wrapper works identically everywhere."""
        with pytest.raises(ValueError):
            modmath.invert(6, 9)

    @pytest.mark.skipif(not HAVE_GMPY2, reason="needs gmpy2")
    def test_gmpy2_parity_with_python(self, clean_backend):
        """Every operation returns bit-identical plain ints on both backends."""
        cases = [(3, 10**18 + 9, 2**127 - 1), (2**255 - 19, 65537, (2**61 - 1) ** 2)]
        results = {}
        for name in ("python", "gmpy2"):
            modmath.set_backend(name)
            results[name] = [
                (
                    modmath.powmod(b, e, n),
                    modmath.gcd(b, n),
                    modmath.product([b % 1000 + 2, e % 1000 + 2, 17]),
                    modmath.product_mod([b, e, b + 1], n),
                    modmath.invert(b % n or 2, 2**127 - 1),
                )
                for b, e, n in cases
            ]
            tree = ProductTree([3, 5, 7, 11])
            tree.append(13)
            results[name].append(tree.root)
            assert type(modmath.powmod(b, e, n)) is int
        assert results["python"] == results["gmpy2"]

    def test_env_typo_never_silently_ignored(self, clean_backend, monkeypatch):
        monkeypatch.setenv(MODMATH_ENV, "GMPY2 ")  # case/space-insensitive parse
        modmath.set_backend(None)
        if HAVE_GMPY2:
            assert modmath.active_backend().name == "gmpy2"
        else:
            assert modmath.active_backend().name == "python"
            assert modmath.backend_info()["fallback_reason"] == "gmpy2 not installed"
