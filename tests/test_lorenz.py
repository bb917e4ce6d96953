import math

import numpy as np
import pytest

from lorenzdct.errors import (
    IntegrationDivergedError,
    InvalidKeyError,
    NoRealEquilibriaError,
)
from lorenzdct.lorenz import (
    LorenzParams,
    SecretKey,
    State3,
    _rotl48,
    derive_initial_conditions,
    equilibria,
    integrate,
    is_chaotic_regime,
    lorenz_derivative,
)

# round14(0.1 + 0.8 * 0x202020202020 / 2**48), hand-evaluated with 64-bit
# arithmetic before the module was written
SPACES_IC = 0.20039215686274


class TestSecretKey:
    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidKeyError):
            SecretKey("short")
        with pytest.raises(InvalidKeyError):
            SecretKey("toolong")

    def test_rejects_nonprintable(self):
        with pytest.raises(InvalidKeyError):
            SecretKey("ab\tcde")
        with pytest.raises(InvalidKeyError):
            SecretKey("ab\x7fcd!")

    def test_rejects_bad_rotations(self):
        with pytest.raises(InvalidKeyError):
            SecretKey("abcdef", (0, 1, 48))
        with pytest.raises(InvalidKeyError):
            SecretKey("abcdef", (0, 1))
        with pytest.raises(InvalidKeyError):  # a bool is not a rotation count
            SecretKey("abcdef", (0, True, 2))

    def test_rotations_stored_as_a_tuple(self):
        # a list would make the key unhashable, and the cipher caches by key
        key = SecretKey("abcdef", [1, 2, 3])
        assert key.rotations == (1, 2, 3)
        assert hash(key) == hash(SecretKey("abcdef", (1, 2, 3)))

    def test_bits_big_endian_first_char(self):
        assert SecretKey("A     ").bits() >> 40 == 65
        assert SecretKey("     A").bits() & 0xFF == 65


class TestDeriveInitialConditions:
    def test_spaces_key_frozen_value(self):
        s = derive_initial_conditions(SecretKey("      ", (0, 0, 0)))
        assert s.x == SPACES_IC and s.y == SPACES_IC and s.z == SPACES_IC

    def test_full_cycle_rotation_identity(self, rng):
        for _ in range(20):
            u = int(rng.integers(0, 1 << 48))
            assert _rotl48(u, 48) == _rotl48(u, 0) == u

    def test_byte_periodic_key_invariant_under_multiples_of_8(self):
        s = derive_initial_conditions(SecretKey("AAAAAA", (0, 8, 16)))
        assert s.x == s.y == s.z

    def test_pure_and_in_range(self, rng):
        for _ in range(25):
            chars = "".join(chr(rng.integers(32, 127)) for _ in range(6))
            rot = tuple(int(r) for r in rng.integers(0, 48, 3))
            key = SecretKey(chars, rot)
            a = derive_initial_conditions(key)
            b = derive_initial_conditions(key)
            assert a == b
            for v in a.as_tuple():
                assert 0.1 <= v <= 0.9
                # at most 14 decimal digits: re-rounding is a no-op
                assert round(v * 1e14) / 1e14 == v


class TestDerivative:
    def test_origin_is_fixed_point(self):
        d = lorenz_derivative(State3(0.0, 0.0, 0.0), LorenzParams(rho=3, sigma=7, beta=1))
        assert d == State3(0.0, 0.0, 0.0)

    def test_unit_state_hand_value(self):
        d = lorenz_derivative(State3(1.0, 1.0, 1.0), LorenzParams())
        assert d.x == 0.0
        assert d.y == 26.0
        assert d.z == 1.0 - 8.0 / 3.0

    def test_vanishes_at_equilibria(self):
        p = LorenzParams()
        for eq in equilibria(p):
            d = lorenz_derivative(eq, p)
            assert max(abs(d.x), abs(d.y), abs(d.z)) < 1e-12


class TestEquilibria:
    def test_rho_one_collapses_to_origin(self):
        a, b = equilibria(LorenzParams(rho=1.0))
        assert a == State3(0.0, 0.0, 0.0) and b == State3(0.0, 0.0, 0.0)

    def test_default_values(self):
        a, b = equilibria(LorenzParams())
        q = math.sqrt(72.0)
        assert abs(a.x - q) < 1e-12 and abs(a.y - q) < 1e-12 and a.z == 27.0
        assert abs(b.x + q) < 1e-12 and abs(b.y + q) < 1e-12 and b.z == 27.0

    def test_below_pitchfork_raises(self):
        with pytest.raises(NoRealEquilibriaError):
            equilibria(LorenzParams(rho=0.5))


class TestChaoticRegime:
    def test_defaults_are_chaotic(self):
        # threshold sigma*(sigma+beta+3)/(sigma-beta-1) = 470/19 ~ 24.74 < 28
        assert is_chaotic_regime(LorenzParams())

    def test_small_rho_not_chaotic(self):
        assert not is_chaotic_regime(LorenzParams(rho=0.5))

    def test_sigma_below_beta_plus_one(self):
        beta = 8.0 / 3.0
        assert not is_chaotic_regime(LorenzParams(sigma=beta + 0.5, beta=beta))

    def test_boundary_sigma_equals_beta_plus_one(self):
        beta = 2.0
        assert not is_chaotic_regime(LorenzParams(sigma=beta + 1.0, beta=beta))


class TestParams:
    @pytest.mark.parametrize("kwargs", [{"rho": 0.0}, {"sigma": -1.0}, {"beta": 0.0}])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            LorenzParams(**kwargs)


class TestIntegrate:
    def test_sample_count(self):
        traj = integrate(LorenzParams(), State3(1.0, 1.0, 1.0), 1.0, 0.001)
        assert len(traj) == 1001
        assert traj.t[0] == 0.0
        assert abs(traj.t[-1] - 1.0) < 1e-12
        assert np.all(np.diff(traj.t) > 0)

    def test_full_window_sample_count(self):
        traj = integrate(LorenzParams(), State3(2.0, 1.0, 1.05), 50.0, 0.001)
        assert len(traj) == 50001

    def test_origin_stays_at_origin(self):
        traj = integrate(LorenzParams(), State3(0.0, 0.0, 0.0), 2.0, 0.01)
        assert np.all(traj.x == 0.0) and np.all(traj.y == 0.0) and np.all(traj.z == 0.0)

    def test_attractor_bounds(self):
        # reference RK4 at dt=1e-4 gave max|x|=19.53, max|z|=47.75 on [0,50]
        traj = integrate(LorenzParams(), State3(2.0, 1.0, 1.05), 50.0, 0.001)
        assert np.max(np.abs(traj.x)) <= 25.0
        assert np.max(np.abs(traj.z)) <= 55.0
        # never settles to a constant
        assert np.std(traj.x[-5000:]) > 1.0

    def test_stays_near_equilibrium(self):
        p = LorenzParams()
        for eq in equilibria(p):
            traj = integrate(p, eq, 1.0, 0.001)
            drift = max(
                np.max(np.abs(traj.x - eq.x)),
                np.max(np.abs(traj.y - eq.y)),
                np.max(np.abs(traj.z - eq.z)),
            )
            assert drift < 1e-6

    def test_bit_reproducible(self):
        s0 = State3(0.3, 0.5, 0.7)
        a = integrate(LorenzParams(), s0, 5.0, 0.001)
        b = integrate(LorenzParams(), s0, 5.0, 0.001)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y) and np.array_equal(a.z, b.z)

    def test_divergence_detected(self):
        with pytest.raises(IntegrationDivergedError):
            integrate(LorenzParams(), State3(1e3, 1e3, 1e3), 50.0, 0.5)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            integrate(LorenzParams(), State3(1, 1, 1), 0.0, 0.001)
        with pytest.raises(ValueError):
            integrate(LorenzParams(), State3(1, 1, 1), 1.0, 0.0)

    def test_trajectory_immutable(self):
        traj = integrate(LorenzParams(), State3(1, 1, 1), 0.1, 0.01)
        with pytest.raises(ValueError):
            traj.x[0] = 5.0


class TestKeySensitivity:
    def test_one_bit_flip_diverges_by_t50(self):
        """Single flipped key bit: trajectories differ by > 1.0 at t = 50.

        20 random printable keys with a random bit flipped each (fixed seed;
        the pipeline is deterministic so this stays stable).
        """
        rng = np.random.default_rng(2024)
        p = LorenzParams()
        for _ in range(20):
            chars = "".join(chr(rng.integers(33, 126)) for _ in range(6))
            bit = int(rng.integers(0, 48))
            byte_i, bit_i = divmod(bit, 8)
            raw = bytearray(chars.encode())
            flipped = raw[5 - byte_i] ^ (1 << bit_i)
            if not 32 <= flipped <= 126:
                flipped = raw[5 - byte_i] ^ 1
            raw[5 - byte_i] = flipped
            t1 = integrate(p, derive_initial_conditions(SecretKey(chars)))
            t2 = integrate(p, derive_initial_conditions(SecretKey(raw.decode())))
            gap = max(
                abs(t1.x[-1] - t2.x[-1]),
                abs(t1.y[-1] - t2.y[-1]),
                abs(t1.z[-1] - t2.z[-1]),
            )
            assert gap > 1.0
