"""The two X25519 engines of :mod:`repro.crypto.dh` are one function.

The pure-Python RFC 7748 ladder must return what ``cryptography``
returns, the iterated exchange must give every party the same key
whatever order they raise in, and both engines must refuse the same
values.  The ``engine`` parameter selects the engine the way
``REPRO_NO_HW_DH`` does; only the cross-engine comparison needs
``cryptography``.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import dh
from repro.crypto.dh import U_LIMIT, DiffieHellman, derive_key, x25519

try:
    from cryptography.hazmat.primitives.asymmetric import x25519 as hw
    hw.X25519PublicKey.public_bytes_raw  # the engine needs cryptography 40+
except (ImportError, AttributeError):  # pragma: no cover - depends on environment
    hw = None

needs_cryptography = pytest.mark.skipif(
    hw is None, reason="cryptography's X25519 unavailable")

_P = 2 ** 255 - 19
#: u-coordinates of small order (RFC 7748 §7 and the usual lists):
#: every clamped scalar maps them to 0.
SMALL_ORDER = (
    1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    _P - 1, _P, _P + 1,
)
OUT_OF_RANGE = (0, U_LIMIT, U_LIMIT + 9, 2 ** 256 - 1)

scalars = st.binary(min_size=32, max_size=32)
u_coords = st.integers(min_value=1, max_value=U_LIMIT - 1)
seeds = st.binary(min_size=1, max_size=16)
fixture_ok = settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
                      deadline=None)


@pytest.fixture(params=["ladder", "cryptography"])
def engine(request, monkeypatch):
    """Run the test on one engine: the ladder, or ``cryptography``'s."""
    if request.param == "ladder":
        monkeypatch.setattr(dh, "_X25519PrivateKey", None)
        monkeypatch.setattr(dh, "_X25519PublicKey", None)
    elif hw is None:
        pytest.skip("cryptography's X25519 unavailable")
    else:
        monkeypatch.setattr(dh, "_X25519PrivateKey", hw.X25519PrivateKey)
        monkeypatch.setattr(dh, "_X25519PublicKey", hw.X25519PublicKey)
    return request.param


def _hw_x25519(scalar: bytes, u: int) -> int:
    private = hw.X25519PrivateKey.from_private_bytes(scalar)
    peer = hw.X25519PublicKey.from_public_bytes(u.to_bytes(32, "little"))
    try:
        return int.from_bytes(private.exchange(peer), "little")
    except ValueError:  # cryptography refuses the all-zero result
        return 0


def test_ladder_matches_rfc7748_vector():
    """RFC 7748 §5.2, first vector (the u-coordinate's top bit is set
    in the RFC's encoding and masked by decoding; here it arrives clear)."""
    scalar = bytes.fromhex(
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
    u = int.from_bytes(bytes.fromhex(
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"),
        "little") % U_LIMIT
    assert x25519(scalar, u).to_bytes(32, "little").hex() == (
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552")


@needs_cryptography
@given(scalar=scalars, u=u_coords)
@settings(max_examples=40, deadline=None)
def test_ladder_matches_cryptography(scalar, u):
    assert x25519(scalar, u) == _hw_x25519(scalar, u)


@needs_cryptography
@given(scalar=scalars, u=st.integers(min_value=_P, max_value=U_LIMIT - 1))
@settings(max_examples=10, deadline=None)
def test_ladder_matches_cryptography_on_unreduced_u(scalar, u):
    assert x25519(scalar, u) == _hw_x25519(scalar, u)


@given(seeds=st.lists(seeds, min_size=3, max_size=3, unique=True))
@fixture_ok
def test_three_parties_agree_in_any_order(engine, seeds):
    parties = [DiffieHellman(seed=seed) for seed in seeds]
    keys = {derive_key(c.raise_value(b.raise_value(a.public_value)))
            for a, b, c in itertools.permutations(parties)}
    assert len(keys) == 1


@given(seed=seeds, u=u_coords)
@fixture_ok
def test_engine_raises_like_the_ladder(engine, seed, u):
    party = DiffieHellman(seed=seed)
    expected = x25519(party._scalar, u)  # noqa: SLF001
    if expected == 0:
        with pytest.raises(ValueError):
            party.raise_value(u)
    else:
        assert party.raise_value(u) == expected


def test_public_value_is_the_base_point_raised(engine):
    party = DiffieHellman(seed=b"public")
    assert party.public_value == x25519(party._scalar, 9)  # noqa: SLF001


@pytest.mark.parametrize("u", OUT_OF_RANGE + SMALL_ORDER)
def test_degenerate_values_refused(engine, u):
    party = DiffieHellman(seed=b"x")
    with pytest.raises(ValueError):
        party.raise_value(u)
    with pytest.raises(ValueError):
        party.shared_secret(u)
