"""The columnar campaign engine: rows equal the public checkers bit for bit,
chunking moves no byte, errors come in per-sample order, and every stacked
stage gives each row the bits of its own 2-D call."""

import math
import re

import numpy as np
import pytest

import spdfinsler.experiments as experiments
from spdfinsler import (
    ENSEMBLES,
    GeodesicCurve,
    MatrixFunctionDomainError,
    SampleConfig,
    check_clarkson_mccarthy,
    check_conde_2uc,
    check_distance_lower_bound,
    check_hanner_matrix,
    check_log_majorization_lemma,
    check_p_convexity_high,
    check_p_convexity_low,
    check_sphere_2uc,
    check_sphere_high,
    check_sphere_low,
    check_two_uniform_convexity_norm,
    commutator_defect,
    delta_p_to_identity,
    gamma_commute,
    mat_pow,
    project_to_unit_sphere,
)
from spdfinsler.experiments import (
    CHECKERS,
    _campaign_chunks,
    _candidate,
    _draw,
    _draws,
    _gap_study,
    _generator,
    _joined,
    _sample_stacks,
    mix_seed,
    render_csv,
    run_campaign,
    sample_bundle,
)
from spdfinsler.geodesic import (
    _descending_logs,
    _gamma_defects,
    _project,
    _radii,
)
from spdfinsler.matcore import (
    _assemble,
    _eigh_array,
    _frobenius,
    _function_values,
    _gated_exp_stack,
    _Stack,
)
from spdfinsler.schatten import _lp, _lp_rows

from conftest import make_rng, random_unitary

P_GRID = [1.1, 1.5, 2.0, 3.0, 4.0]


def _public_reports(name, bundle, p):
    """The public check behind one (checker, order) of a campaign, on the
    sample's matrices, with the pair its commutator defect measures."""
    a, b, c = bundle.a, bundle.b, bundle.c
    logs = (bundle.log_a, bundle.log_b)
    if name.startswith("sphere"):
        a, b = project_to_unit_sphere(a, p), project_to_unit_sphere(b, p)
        check = {"sphere_2uc": check_sphere_2uc, "sphere_high": check_sphere_high,
                 "sphere_low": check_sphere_low}[name]
        return (check(a, b, p),), (a, b)
    if name in ("conde_2uc", "p_convexity_high", "p_convexity_low"):
        check = {"conde_2uc": check_conde_2uc, "p_convexity_high": check_p_convexity_high,
                 "p_convexity_low": check_p_convexity_low}[name]
        return (check(a, b, c, p),), (a, b)
    if name == "distance_lower_bound":
        return (check_distance_lower_bound(a, b, p),), (a, b)
    if name == "clarkson_mccarthy":
        return check_clarkson_mccarthy(*logs, p), logs
    if name == "two_uniform_convexity":
        return (check_two_uniform_convexity_norm(*logs, p),), logs
    assert name == "hanner"
    return (check_hanner_matrix(*logs, p),), logs


CONFIGS = [SampleConfig(dim=dim, ensemble=ensemble, seed=dim)
           for dim in (2, 3, 5, 16) for ensemble in ENSEMBLES]
CONFIGS.append(SampleConfig(dim=32, ensemble="near_commuting", seed=32, epsilon=0.3))


class TestBitOracle:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.ensemble}-d{c.dim}")
    def test_rows_equal_public_checkers(self, config):
        count = 2
        table = run_campaign(config, sorted(CHECKERS), P_GRID, count)
        rows = {(r.index, r.inequality, r.p if not math.isnan(r.p) else None): r for r in table}
        assert len(rows) == len(table)
        seen = 0
        for index in range(count):
            bundle = sample_bundle(config, index)
            gamma = gamma_commute(bundle.a, bundle.b, bundle.c)
            for row in (r for r in table if r.index == index):
                assert (row.gamma_defect_product, row.gamma_defect_bracket) == (
                    gamma.defect_product, gamma.defect_bracket)
            verdict = check_log_majorization_lemma(bundle.log_a, bundle.log_b)
            trace = float(np.trace(bundle.log_a.array + bundle.log_b.array).real)
            row = rows[(index, "log_majorization", None)]
            assert (row.lhs, row.rhs, row.gap, row.satisfied) == (
                trace, trace + float(verdict.slack[-1]), float(verdict.slack.min()),
                verdict.holds)
            assert row.commutator_defect == commutator_defect(bundle.log_a, bundle.log_b)
            seen += 1
            for name in sorted(set(CHECKERS) - {"log_majorization"}):
                for p in CHECKERS[name].orders(P_GRID):
                    reports, pair = _public_reports(name, bundle, p)
                    for report in reports:
                        row = rows[(index, report.name, p)]
                        assert (row.lhs, row.rhs, row.gap, row.satisfied) == (
                            report.lhs, report.rhs, report.gap, report.satisfied)
                        assert row.commutator_defect == commutator_defect(*pair)
                        seen += 1
        assert seen == len(table)


class TestChunking:
    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    def test_chunk_size_moves_no_byte(self, ensemble, monkeypatch):
        config = SampleConfig(dim=3, ensemble=ensemble, seed=5, epsilon=0.2)
        whole = run_campaign(config, sorted(CHECKERS), P_GRID, 7)
        width = len(whole) // 7
        # Bounded by work, then by rows: 3, 1, 2 and 1 samples a chunk.
        for bound, value, chunks in (("CHUNK_WORK", 3 * config.dim**3, 3),
                                     ("CHUNK_WORK", config.dim**3, 7),
                                     ("CHUNK_ROWS", 2 * width + 1, 4),
                                     ("CHUNK_ROWS", 1, 7)):
            with monkeypatch.context() as patch:
                patch.setattr(experiments, bound, value)
                stream = list(_campaign_chunks(config, sorted(CHECKERS), P_GRID, 7))
                assert len(stream) == chunks
                assert render_csv(_joined(stream)) == render_csv(whole)

    def test_default_chunk_holds_a_default_campaign(self):
        # The default 39-row plan at d = 2 is bounded by rows: a 200-sample
        # campaign takes two chunks, of 105 and 95 samples.  At d = 5 the
        # rows bound it too; d = 32 takes four samples a chunk.
        config = SampleConfig(dim=2)
        names = [name for name in sorted(CHECKERS) if CHECKERS[name].orders(P_GRID)]
        stream = list(_campaign_chunks(config, names, P_GRID, 200))
        assert [len(chunk) for chunk in stream] == [105 * 39, 95 * 39]
        assert experiments.CHUNK_ROWS // 39 == 105
        assert experiments.CHUNK_WORK // 5**3 > 105
        config = SampleConfig(dim=32, ensemble="near_commuting", epsilon=0.5)
        stream = list(_campaign_chunks(config, ["distance_lower_bound"], [2.0], 6))
        assert [len(chunk) for chunk in stream] == [4, 2]

    @pytest.mark.parametrize("dim, pairs", [(2, 372), (3, 110), (5, 23)])
    def test_gap_study_chunks_on_the_default_grid(self, dim, pairs):
        # 11 points a ray, each weighing four campaign samples.
        grid = [k / 10 for k in range(11)]
        stream = list(_gap_study(SampleConfig(dim=dim), pairs + 1, grid, [2.0]))
        assert [len(chunk) for chunk in stream] == [pairs * 11, 11]

    def test_d32_stacking_moves_no_byte(self, monkeypatch):
        # Four d = 32 samples a chunk give each row the bits of its sample
        # run alone: 5 samples make chunks of 4 and 1.
        config = SampleConfig(dim=32, ensemble="near_commuting", epsilon=0.5)
        names = [name for name in sorted(CHECKERS) if CHECKERS[name].orders(P_GRID)]
        stacked = list(_campaign_chunks(config, names, P_GRID, 5))
        assert [len(chunk) // len(stacked[-1]) for chunk in stacked] == [4, 1]
        monkeypatch.setattr(experiments, "CHUNK_WORK", 32**3)
        alone = list(_campaign_chunks(config, names, P_GRID, 5))
        assert len(alone) == 5
        assert render_csv(_joined(stacked)) == render_csv(_joined(alone))

    def test_kernel_calls_do_not_grow_with_samples(self, kernel_calls):
        config = SampleConfig(dim=3, seed=6)
        counts = []
        for count in (2, 40):
            kernel_calls.update(dict.fromkeys(kernel_calls, 0))
            run_campaign(config, sorted(CHECKERS), P_GRID, count)
            counts.append({k: v for k, v in kernel_calls.items() if "_" not in k})
        assert counts[0] == counts[1]


LOGS = {"ok": [0.0, 0.1, -0.2], "overflow": [800.0, 0.0, 0.0], "gate": [0.0, 0.0, -30.0]}


def _crafted(monkeypatch, rows):
    """commuting_triple samples whose C has the given log-spectrum kinds,
    drawn with the normals (I, 0) that give the identity basis."""
    basis = np.array([np.eye(3), np.zeros((3, 3))])

    def draw(config, index):
        if rows[index] == "draw":
            raise RuntimeError("planted draw failure")
        return basis, np.array([LOGS["ok"], LOGS["ok"], LOGS[rows[index]]])

    monkeypatch.setattr(experiments, "_draw", draw)
    return SampleConfig(dim=3, ensemble="commuting_triple")


class TestErrorOrder:
    @pytest.mark.parametrize("rows, error, match", [
        (["gate", "overflow"], ValueError, "not safely positive definite"),
        (["overflow", "gate"], MatrixFunctionDomainError, "non-finite"),
        (["ok", "ok", "overflow", "gate"], MatrixFunctionDomainError, "non-finite"),
        (["gate", "draw"], ValueError, "not safely positive definite"),
        (["ok", "draw", "gate"], RuntimeError, "planted draw failure"),
    ])
    def test_first_failing_sample_raises(self, monkeypatch, rows, error, match):
        config = _crafted(monkeypatch, rows)
        with pytest.raises(error, match=match) as raised:
            run_campaign(config, sorted(CHECKERS), P_GRID, len(rows))
        assert type(raised.value) is error

    @pytest.mark.parametrize("chunk_rows", [None, 1])
    def test_stream_holds_every_earlier_sample(self, monkeypatch, chunk_rows):
        # Before a gate error, as before a draw error, the stream holds the
        # rows of every earlier sample, whatever the chunk size.
        config = _crafted(monkeypatch, ["ok", "ok", "gate"])
        if chunk_rows is not None:
            monkeypatch.setattr(experiments, "CHUNK_ROWS", chunk_rows)
        streamed = []
        with pytest.raises(ValueError, match="not safely positive definite"):
            for chunk in _campaign_chunks(config, ["distance_lower_bound"], [2.0], 3):
                streamed.extend(row.index for row in chunk)
        assert streamed == [0, 1]

    def test_failure_in_a_later_chunk(self, monkeypatch):
        config = _crafted(monkeypatch, ["ok"] * 5 + ["gate"])
        monkeypatch.setattr(experiments, "CHUNK_WORK", 2 * 27)
        with pytest.raises(ValueError, match="not safely positive definite"):
            run_campaign(config, ["distance_lower_bound"], [2.0], 6)
        assert len(run_campaign(config, ["distance_lower_bound"], [2.0], 5)) == 5

    def test_derived_failure_of_an_earlier_sample_wins(self, monkeypatch):
        # Sample 0 passes the gate but its sphere projection fails (a = I
        # has no direction); sample 1 fails the gate.  The loop order
        # raises sample 0's error.
        basis = np.array([np.eye(2), np.zeros((2, 2))])  # normals of the identity basis
        spectra = [np.array([[0.0, 0.0], [0.3, -0.1], [0.2, 0.1]]),
                   np.array([[0.1, 0.0], [0.3, -0.1], [0.0, -30.0]])]
        monkeypatch.setattr(experiments, "_draw", lambda config, index: (basis, spectra[index]))
        config = SampleConfig(dim=2, ensemble="commuting_triple")
        with pytest.raises(ValueError, match="cannot project the identity"):
            run_campaign(config, ["sphere_2uc"], [1.5], 2)


class TestOverflowAtLargeOrders:
    @pytest.mark.parametrize("p", [1000.0, 1e300])
    def test_lp_takes_the_scaled_form(self, p):
        values = np.array([3.0, -2.5, 0.5, 1e-3])
        m = 3.0
        assert _lp(values, p) == m * float(((np.abs(values) / m) ** p).sum()) ** (1.0 / p)
        assert _lp(values * 1e-3, p) == _lp_rows((values * 1e-3)[None], p)[0] > 0.0

    def test_finite_sums_keep_the_direct_form(self):
        rng = make_rng(3)
        values = rng.standard_normal((50, 6)) * 3.0
        for p in (1.1, 1.5, 2.0, 3.0, 4.0, 17.0):
            for row, norm in zip(values, _lp_rows(values, p)):
                assert norm == float((np.abs(row) ** p).sum() ** (1.0 / p))


def _stack_of(matrices):
    return _Stack(np.array([m.array for m in matrices]))


class TestStackedStages:
    """Each stacked stage against the 2-D call it replaces, row by row."""

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32])
    def test_spectral_functions_and_logs(self, dim):
        rng = make_rng(dim)
        eigs = np.sort(rng.uniform(0.01, 50.0, (400, dim)), axis=1)
        for f in (np.exp, np.log, lambda x: x**0.5, lambda x: x**-1.0, lambda x: x**0.37):
            stacked = _function_values(eigs, f)
            for row, values in zip(eigs, stacked):
                assert np.array_equal(values, _function_values(row, f))
        logs = _descending_logs(eigs)
        for row, values in zip(eigs, logs):
            assert np.array_equal(values, np.log(row[::-1]))

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32])
    def test_frobenius_and_lp_rows(self, dim):
        rng = make_rng(dim + 1)
        stack = rng.standard_normal((30, dim, dim)) + 1j * rng.standard_normal((30, dim, dim))
        for m, norm in zip(stack, _frobenius(stack)):
            assert norm == float(np.linalg.norm(m))
        values = rng.standard_normal((30, dim))
        for p in (1.0, 1.1, 2.0, 3.0, math.inf):
            norms = _lp_rows(values, p)
            for row, norm in zip(values, norms):
                assert norm == _lp_rows(row[None], p)[0]

    @pytest.mark.parametrize("dim", [2, 3, 5, 16])
    def test_means_projections_and_gamma(self, dim):
        bundles = [sample_bundle(SampleConfig(dim=dim, seed=dim), i) for i in range(4)]
        a = _stack_of(b.a for b in bundles)
        b = _stack_of(b.b for b in bundles)
        means, _ = GeodesicCurve._of(a, b)._points(0.5)
        for k, bundle in enumerate(bundles):
            assert np.array_equal(means[k], GeodesicCurve(bundle.a, bundle.b).eval(0.5).array)
        for p in [1.1, 2.0, 4.0]:
            projected, values = _project(a, p)
            for k, bundle in enumerate(bundles):
                radius = delta_p_to_identity(bundle.a, p)
                assert np.array_equal(projected[k], mat_pow(bundle.a, 1.0 / radius).array)
                assert np.array_equal(values[k], bundle.a.eig().eigenvalues ** (1.0 / radius))
        for bundle in bundles:
            # gamma_commute, as the per-matrix formula with 2-D norms.
            A, B, C = (m.array for m in (bundle.a, bundle.b, bundle.c))
            b_inv = mat_pow(bundle.b, -1.0).array
            product = A @ b_inv @ C
            S = mat_pow(bundle.a, -0.5).array
            X, Y = S @ B @ S, S @ C @ S
            norm = np.linalg.norm
            report = gamma_commute(bundle.a, bundle.b, bundle.c)
            assert report.defect_product == float(norm(product - product.conj().T)) / (
                float(norm(A)) * float(norm(b_inv)) * float(norm(C)))
            assert report.defect_bracket == float(norm(X @ Y - Y @ X)) / (
                float(norm(X)) * float(norm(Y)))

    @pytest.mark.parametrize("dim", [2, 3, 5, 32])
    def test_projection_powers_match_per_row_powers(self, dim):
        # One broadcast exponent column against each row's own scalar power,
        # on random spectra and on rows whose exponent is exactly 0.5 or 2,
        # which numpy takes to sqrt and square for a scalar exponent.
        rng = make_rng(dim + 3)
        logs = rng.standard_normal((1200, dim)) * rng.uniform(0.05, 3.0, (1200, 1))
        exact = []
        for radius in (2.0, 0.5):
            rows = rng.uniform(-0.95 * radius, 0.95 * radius, (100, dim))
            rows[:, 0] = np.log(np.exp(radius))
            assert (np.abs(rows).max(axis=1) == radius).all()
            exact.append(rows)
        for p in (1.1, 2.0, 3.5, math.inf):
            stack = _Stack(np.array([np.diag(np.exp(row)).astype(complex)
                                     for row in np.vstack([logs, *exact])]))
            radii = _radii(stack, p)
            eigs = stack.eig().eigenvalues
            arrays, values = _project(stack, p)
            if p == math.inf:
                assert radii.count(2.0) == radii.count(0.5) == 100
            for k, radius in enumerate(radii):
                assert np.array_equal(values[k], eigs[k] ** (1.0 / radius))
            assert np.array_equal(arrays, _assemble(stack.eig().unitary, values))

    @pytest.mark.parametrize("dim", [2, 3, 5, 16])
    def test_svd_and_trace_stacks(self, dim):
        rng = make_rng(dim + 2)
        raw = rng.standard_normal((20, dim, dim)) + 1j * rng.standard_normal((20, dim, dim))
        sing = np.linalg.svd(raw, compute_uv=False)
        traces = np.trace(raw, axis1=-2, axis2=-1)
        for k, m in enumerate(raw):
            assert np.array_equal(sing[k], np.linalg.svd(m, compute_uv=False))
            assert traces[k] == np.trace(m)


    @pytest.mark.parametrize("dim", [2, 3, 5, 16, 32])
    def test_frobenius_of_defect_stacks(self, dim):
        # The stacked norm on the commutator and Gamma-defect stacks of a
        # chunk, and both defects, against np.linalg.norm one matrix at a time.
        config = SampleConfig(dim=dim, ensemble="near_commuting", epsilon=0.3, seed=dim)
        samples = _sample_stacks(config, [_draw(config, i) for i in range(6)])
        A, B, C = (m.array for m in (samples.a, samples.b, samples.c))
        b_inv, S = samples.b.power(-1.0), samples.a.power(-0.5)
        product = A @ b_inv @ C
        X, Y = S @ B @ S, S @ C @ S
        asymmetry, bracket = product - product.conj().mT, X @ Y - Y @ X
        for stack in (A @ B - B @ A, asymmetry, bracket, A, b_inv, C, X, Y):
            for m, norm in zip(stack, _frobenius(stack)):
                assert norm == float(np.linalg.norm(m))
        norm = np.linalg.norm
        products, brackets = _gamma_defects(samples.a, samples.b, samples.c)
        for k in range(len(A)):
            assert products[k] == float(norm(asymmetry[k])) / (
                float(norm(A[k])) * float(norm(b_inv[k])) * float(norm(C[k])))
            assert brackets[k] == float(norm(bracket[k])) / (
                float(norm(X[k])) * float(norm(Y[k])))


class TestConditionGuard:
    """The Gamma triple's condition guard tests a chunk's first candidate
    bases in one cond call; a failing sample draws on from its own stream."""

    CONFIG = SampleConfig(dim=3, ensemble="gamma_commuting_triple", seed=9)

    def _alone(self, index):
        """One sample's draw by the per-sample loop: candidates from its own
        generator until one passes the guard, then its log-spectra."""
        rng = _generator(mix_seed(self.CONFIG.seed, index))
        for _ in range(experiments.CONDITION_GUARD_ATTEMPTS):
            basis = _candidate(rng, 3)
            if np.linalg.cond(basis) <= experiments.CONDITION_GUARD:
                return basis, rng.standard_normal((3, 3))
        return None

    def _first_fails(self, count):
        """Whether each sample's first candidate fails the guard."""
        return [np.linalg.cond(_candidate(_generator(mix_seed(self.CONFIG.seed, index)), 3))
                > experiments.CONDITION_GUARD for index in range(count)]

    @pytest.mark.parametrize("guard", [1e3, 6.0])
    def test_chunk_draws_equal_each_sample_draw(self, monkeypatch, guard):
        monkeypatch.setattr(experiments, "CONDITION_GUARD", guard)
        if guard < 1e3:
            assert 0 < sum(self._first_fails(40)) < 40
        items = _draws(self.CONFIG, range(40))
        assert [index for index, _ in items] == list(range(40))
        for index, draw in items:
            for alone in (_draw(self.CONFIG, index), self._alone(index)):
                assert all(np.array_equal(x, y) for x, y in zip(draw, alone, strict=True))

    def test_exhausted_guard_raises_after_earlier_rows(self, monkeypatch):
        monkeypatch.setattr(experiments, "CONDITION_GUARD", 20.0)
        monkeypatch.setattr(experiments, "CONDITION_GUARD_ATTEMPTS", 1)
        failing = self._first_fails(40).index(True)
        assert failing > 0 and self._alone(failing) is None
        with pytest.raises(RuntimeError, match="in 1 attempts"):
            _draw(self.CONFIG, failing)
        with pytest.raises(RuntimeError, match="in 1 attempts"):
            _draws(self.CONFIG, range(40))
        items = _draws(self.CONFIG, range(failing))
        assert [index for index, _ in items] == list(range(failing))
        # A campaign streams the rows of every earlier sample, then raises.
        rows = []
        with pytest.raises(RuntimeError, match="no conjugating matrix"):
            for chunk in _campaign_chunks(self.CONFIG, ["distance_lower_bound"], [2.0], 40):
                rows.extend(chunk)
        assert [row.index for row in rows] == list(range(failing))

    def test_one_cond_call_per_chunk(self, monkeypatch):
        stacks = []
        cond = np.linalg.cond

        def counted(x, *args):
            stacks.append(np.ndim(x) == 3)
            return cond(x, *args)

        assert not any(self._first_fails(30))
        monkeypatch.setattr(np.linalg, "cond", counted)
        monkeypatch.setattr(experiments, "CHUNK_ROWS", 10)
        chunks = list(_campaign_chunks(self.CONFIG, ["distance_lower_bound"], [2.0], 30))
        assert len(chunks) == 3 and stacks == [True] * 3


def _per_sample_logs(config, index):
    """The Hermitian logs of one sample's a, b and c (None where c is not
    a log's exp), by the per-sample steps: one qr, one Hermitian part and
    one unit direction per draw, from the sample's own generator."""
    rng = np.random.default_rng(mix_seed(config.seed, index))
    dim, sigma = config.dim, config.spread

    def hermitian(scale):
        g = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        return 0.5 * (g + g.conj().T)

    if config.ensemble == "generic":
        return hermitian(sigma), hermitian(sigma), hermitian(sigma)
    basis = random_unitary(rng, dim)
    roles = 3 if config.ensemble == "commuting_triple" else 2
    spectra = [sigma * rng.standard_normal(dim) for _ in range(roles)]
    logs = [_assemble(basis, values) for values in spectra]
    if config.ensemble == "commuting_triple":
        return logs[0], logs[1], None
    if config.ensemble == "near_commuting":
        direction = hermitian(1.0)
        logs[1] = logs[1] + config.epsilon * (direction / float(np.linalg.norm(direction)))
    return logs[0], logs[1], hermitian(sigma)


SAMPLER_CONFIGS = [SampleConfig(dim=dim, ensemble=ensemble, seed=dim, epsilon=epsilon)
                   for dim in (2, 3, 5, 16) for ensemble in ENSEMBLES
                   for epsilon in ((0.0, 0.3) if ensemble == "near_commuting" else (0.0,))]
SAMPLER_CONFIGS.append(SampleConfig(dim=32, ensemble="near_commuting", seed=32, epsilon=0.3))


class TestBatchedSampler:
    """The sampler draws per sample and finishes per chunk: the bases' qr,
    the Hermitian parts and the unit directions are one batched call each."""

    @pytest.mark.parametrize("config", SAMPLER_CONFIGS,
                             ids=lambda c: f"{c.ensemble}-d{c.dim}-eps{c.epsilon}")
    def test_chunk_equals_each_sample_bundle(self, config):
        samples = _sample_stacks(config, [_draw(config, index) for index in range(7)])
        for index in range(7):
            bundle = sample_bundle(config, index)
            for stack, matrix in zip(samples[:3], (bundle.a, bundle.b, bundle.c)):
                dec = matrix.eig()
                assert np.array_equal(stack.array[index], matrix.array)
                assert np.array_equal(stack.eig().eigenvalues[index], dec.eigenvalues)
                assert np.array_equal(stack.eig().unitary[index], dec.unitary)
            assert np.array_equal(samples.log_a[index], bundle.log_a.array)
            assert np.array_equal(samples.log_b[index], bundle.log_b.array)

    @pytest.mark.parametrize("config", [c for c in SAMPLER_CONFIGS
                                        if c.ensemble != "gamma_commuting_triple"],
                             ids=lambda c: f"{c.ensemble}-d{c.dim}-eps{c.epsilon}")
    def test_chunk_equals_per_sample_steps(self, config):
        samples = _sample_stacks(config, [_draw(config, index) for index in range(7)])
        for index in range(7):
            log_a, log_b, log_c = _per_sample_logs(config, index)
            assert np.array_equal(samples.log_a[index], log_a)
            assert np.array_equal(samples.log_b[index], log_b)
            if log_c is not None:
                dec = _eigh_array(log_c[None])
                assert np.array_equal(samples.c.array[index],
                                      _gated_exp_stack(dec.unitary, dec.eigenvalues)[0][0])


def test_large_order_error_names_checker_and_order():
    config = SampleConfig(dim=2, seed=1)
    with pytest.raises(ValueError, match=re.escape("clarkson_mccarthy: a side of the "
                                                   "inequality overflows a float at p = 1e+300")):
        run_campaign(config, ["clarkson_mccarthy"], [1e300], 1)
