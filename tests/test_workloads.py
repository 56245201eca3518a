"""Workload-suite tests: registry, functional validation of every kernel,
trace properties, baseline profiles and RVV lowerings."""

import re

import numpy as np
import pytest

from repro.isa import InstructionCategory, ScalarBlock
from repro.workloads import (
    LIBRARY_DOMAINS,
    SELECTED_KERNELS,
    create_kernel,
    get_kernel_class,
    kernel_names,
    kernels_in_library,
    library_names,
    rvv_kernel_names,
)

#: small dataset scale so the whole suite validates quickly
SCALE = 0.1

ALL_KERNELS = kernel_names()

#: RVV lowerings whose output differs from the reference: the emitter never
#: packs a multi-dimensional access's segments into one register (ROADMAP
#: item 3).  Fixing it turns these into strict XPASS failures; the marks go
#: with that fix.
RVV_WRONG_OUTPUT = ("dct", "gemm", "idct", "intra", "satd", "spmm")


class TestRegistry:
    def test_twelve_libraries(self):
        assert len(library_names()) == 12
        assert set(LIBRARY_DOMAINS) == set(library_names())

    def test_every_library_has_kernels(self):
        for library in library_names():
            assert kernels_in_library(library), f"no kernels registered for {library}"

    def test_suite_size(self):
        assert len(ALL_KERNELS) >= 30

    def test_selected_kernels_exist(self):
        for name in SELECTED_KERNELS:
            assert name in ALL_KERNELS

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            get_kernel_class("not_a_kernel")

    @pytest.mark.parametrize("scale", [0, -1, float("nan"), float("inf")], ids=repr)
    def test_invalid_scale_rejected(self, scale):
        message = f"scale must be a number > 0 (got {scale!r})"
        with pytest.raises(ValueError, match=re.escape(message)):
            create_kernel("gemm", scale=scale)

    def test_unknown_kind_rejected(self):
        kernel = create_kernel("csum", scale=SCALE)
        message = "unknown kind 'avx' (choose from mve, rvv)"
        with pytest.raises(ValueError, match=re.escape(message)):
            kernel.capture("avx")

    def test_kernel_metadata(self):
        for name in ALL_KERNELS:
            cls = get_kernel_class(name)
            assert cls.library in LIBRARY_DOMAINS
            assert cls.dims
            assert cls.description


class TestFunctionalValidation:
    """Every kernel's MVE implementation must match its numpy reference."""

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_kernel_validates(self, name):
        kernel = create_kernel(name, scale=SCALE)
        assert kernel.validate(), f"{name} output does not match its reference"

    @pytest.mark.parametrize("name", ["gemm", "csum", "intra", "h2v2_upsample"])
    def test_validation_is_deterministic_across_seeds(self, name):
        assert create_kernel(name, scale=SCALE, seed=1).validate()
        assert create_kernel(name, scale=SCALE, seed=2).validate()


class TestTraces:
    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_trace_is_nonempty_and_typed(self, name):
        kernel = create_kernel(name, scale=SCALE)
        trace = kernel.capture("mve")
        assert trace, f"{name} produced an empty trace"
        categories = {
            entry.category
            for entry in trace
            if not isinstance(entry, ScalarBlock)
        }
        assert InstructionCategory.MEMORY in categories

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_profile_is_consistent(self, name):
        kernel = create_kernel(name, scale=SCALE)
        kernel.setup()
        profile = kernel.profile()
        assert profile.elements > 0
        assert profile.total_bytes > 0
        assert profile.element_bits in (8, 16, 32, 64)
        assert profile.dimensions >= 1

    def test_scale_grows_work(self):
        small = create_kernel("memcpy", scale=0.05)
        large = create_kernel("memcpy", scale=0.5)
        small.setup(), large.setup()
        assert large.profile().elements > small.profile().elements


class TestRvvLowerings:
    def test_selected_kernels_support_rvv(self):
        assert set(SELECTED_KERNELS) <= set(rvv_kernel_names())

    def test_unsupported_kernel_raises(self):
        kernel = create_kernel("memcpy", scale=SCALE)
        assert "memcpy" not in rvv_kernel_names()
        with pytest.raises(NotImplementedError):
            kernel.capture("rvv")

    @pytest.mark.parametrize("name", ["gemm", "spmm", "intra", "fir_v"])
    def test_rvv_needs_more_vector_instructions_for_multidim(self, name):
        kernel = create_kernel(name, scale=SCALE)
        mve_vector = sum(
            1 for e in kernel.capture("mve") if not isinstance(e, ScalarBlock)
        )
        rvv_vector = sum(
            1 for e in kernel.capture("rvv") if not isinstance(e, ScalarBlock)
        )
        assert rvv_vector > mve_vector

    @pytest.mark.parametrize(
        "name",
        [
            pytest.param(
                name,
                marks=pytest.mark.xfail(
                    strict=True, reason="ROADMAP item 3: the RVV emitter never packs segments"
                )
                if name in RVV_WRONG_OUTPUT
                else (),
            )
            for name in rvv_kernel_names()
        ],
    )
    def test_rvv_lowering_computes_reference(self, name):
        """The RVV lowering's output matches the numpy reference, compared
        the way ``Kernel.validate`` compares the MVE lowering's."""
        kernel = create_kernel(name, scale=0.25)
        kernel.capture("rvv", record_values=True)
        expected = np.asarray(kernel.reference())
        actual = np.asarray(kernel.output())
        assert actual.shape == expected.shape
        if kernel.dtype.is_float or expected.dtype.kind == "f":
            np.testing.assert_allclose(actual, expected, rtol=1e-3, atol=1e-4)
        else:
            np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("name", ["csum", "lpack"])
    def test_rvv_similar_for_1d_kernels(self, name):
        kernel = create_kernel(name, scale=SCALE)
        mve_vector = sum(1 for e in kernel.capture("mve") if not isinstance(e, ScalarBlock))
        rvv_vector = sum(1 for e in kernel.capture("rvv") if not isinstance(e, ScalarBlock))
        assert rvv_vector <= mve_vector * 2


class TestSpecificKernels:
    def test_gemm_respects_shape_overrides(self):
        kernel = get_kernel_class("gemm")(scale=1.0, n=16, k=8, m=8)
        kernel.setup()
        assert (kernel.n, kernel.k, kernel.m) == (16, 8, 8)
        assert kernel.validate()

    def test_spmm_respects_overrides(self):
        kernel = get_kernel_class("spmm")(scale=1.0, n=16, k=32, m=16, nnz=4)
        kernel.setup()
        assert kernel.nnz == 4
        assert kernel.validate()

    def test_transpose_output_is_transpose(self):
        kernel = create_kernel("transpose", scale=0.1)
        assert kernel.validate()
        out = kernel.output().reshape(kernel.cols, kernel.rows)
        np.testing.assert_array_equal(out, kernel._input_ref.T)

    def test_upsample_replicates_pixels(self):
        kernel = create_kernel("h2v2_upsample", scale=0.1)
        assert kernel.validate()
        out = kernel.output().reshape(kernel.rows, kernel.cols * 2)
        np.testing.assert_array_equal(out[:, 0], out[:, 1])

    def test_checksum_matches_direct_sum(self):
        kernel = create_kernel("csum", scale=0.1)
        kernel.capture("mve", record_values=True)
        assert int(kernel.output()[0]) == int(kernel._data_ref.astype(np.int64).sum())

    def test_dct_is_invertible_shape(self):
        dct = create_kernel("dct", scale=0.02)
        idct = create_kernel("idct", scale=0.02)
        assert dct.validate() and idct.validate()

    def test_adler32_outputs_two_sums(self):
        kernel = create_kernel("adler32", scale=0.1)
        assert kernel.validate()
        assert kernel.output().shape == (2,)
