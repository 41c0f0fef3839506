#ifndef PPN_TENSOR_VEC_KERNELS_IMPL_H_
#define PPN_TENSOR_VEC_KERNELS_IMPL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/vec/kernels.h"
#include "tensor/vec/vec.h"

/// \file
/// Kernel bodies, templated on the `Vectorized<float>` implementation.
/// kernels_scalar.cc instantiates them with `VecScalar`; kernels_avx2.cc
/// (the only TU built with -mavx2) instantiates them with `VecAvx2`.
/// Nothing here may depend on the ISA except through the Vec type.
///
/// Bit-identity rules (DESIGN.md §2.8):
///  - Reductions (matmul, sum_rows, col2im) keep ONE accumulator per
///    output element, summed in the reference order. SIMD lanes only
///    ever hold DISTINCT output elements, so widening the vector cannot
///    reorder any element's sum.
///  - Elementwise kernels replicate the scalar expression tree per lane
///    (a select stays a select, a multiply-by-mask stays a multiply).
///  - Tails run the same lane ops under a partial mask (vmaskmovps
///    semantics), never a different formula.

namespace ppn::vec::detail {

// ---------------------------------------------------------------------------
// Elementwise drivers: full vectors, then one masked tail step.
// ---------------------------------------------------------------------------

template <class Vec, class Fn>
inline void ApplyUnary(Fn fn, const float* a, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + Vec::kWidth <= n; i += Vec::kWidth) {
    fn(Vec::LoadU(a + i)).StoreU(out + i);
  }
  const int64_t rest = n - i;
  if (rest > 0) {
    fn(Vec::LoadPartial(a + i, rest)).StorePartial(out + i, rest);
  }
}

template <class Vec, class Fn>
inline void ApplyBinary(Fn fn, const float* a, const float* b, float* out,
                        int64_t n) {
  int64_t i = 0;
  for (; i + Vec::kWidth <= n; i += Vec::kWidth) {
    fn(Vec::LoadU(a + i), Vec::LoadU(b + i)).StoreU(out + i);
  }
  const int64_t rest = n - i;
  if (rest > 0) {
    fn(Vec::LoadPartial(a + i, rest), Vec::LoadPartial(b + i, rest))
        .StorePartial(out + i, rest);
  }
}

template <class Vec>
void UnaryKernel(UnaryOp op, const float* a, float* out, int64_t n, float p0,
                 float p1) {
  const Vec zero = Vec::Zero();
  switch (op) {
    case UnaryOp::kAddScalar: {
      const Vec s = Vec::Broadcast(p0);
      ApplyUnary<Vec>([s](Vec x) { return x + s; }, a, out, n);
      return;
    }
    case UnaryOp::kMulScalar: {
      const Vec s = Vec::Broadcast(p0);
      ApplyUnary<Vec>([s](Vec x) { return x * s; }, a, out, n);
      return;
    }
    case UnaryOp::kReluFwd:
      // x > 0 ? x : 0 — a true select (not a max: NaN must fall through
      // to the zero branch exactly like the scalar ternary).
      ApplyUnary<Vec>(
          [zero](Vec x) { return Vec::Blend(Vec::Gt(x, zero), x, zero); }, a,
          out, n);
      return;
    case UnaryOp::kAbsFwd:
      ApplyUnary<Vec>([](Vec x) { return Vec::Abs(x); }, a, out, n);
      return;
    case UnaryOp::kClampFwd: {
      // x < lo ? lo : (x > hi ? hi : x). Applying the hi-clamp first and
      // letting the lo-clamp override gives the same value for every
      // input (lo <= hi), including NaN (both compares false -> x).
      const Vec lo = Vec::Broadcast(p0);
      const Vec hi = Vec::Broadcast(p1);
      ApplyUnary<Vec>(
          [lo, hi](Vec x) {
            const Vec capped = Vec::Blend(Vec::Gt(x, hi), hi, x);
            return Vec::Blend(Vec::Lt(x, lo), lo, capped);
          },
          a, out, n);
      return;
    }
  }
}

template <class Vec>
void BinaryKernel(BinaryOp op, const float* a, const float* b, float* out,
                  int64_t n, float p0, float p1) {
  const Vec zero = Vec::Zero();
  const Vec one = Vec::Broadcast(1.0f);
  switch (op) {
    case BinaryOp::kAdd:
      ApplyBinary<Vec>([](Vec x, Vec y) { return x + y; }, a, b, out, n);
      return;
    case BinaryOp::kSub:
      ApplyBinary<Vec>([](Vec x, Vec y) { return x - y; }, a, b, out, n);
      return;
    case BinaryOp::kMul:
      ApplyBinary<Vec>([](Vec x, Vec y) { return x * y; }, a, b, out, n);
      return;
    case BinaryOp::kDiv:
      ApplyBinary<Vec>([](Vec x, Vec y) { return x / y; }, a, b, out, n);
      return;
    case BinaryOp::kTanhBwd:
      ApplyBinary<Vec>([one](Vec g, Vec y) { return g * (one - y * y); }, a, b,
                       out, n);
      return;
    case BinaryOp::kSigmoidBwd:
      ApplyBinary<Vec>([one](Vec g, Vec y) { return g * (y * (one - y)); }, a,
                       b, out, n);
      return;
    case BinaryOp::kReluBwd:
      // g * (x > 0 ? 1 : 0): the scalar code MULTIPLIES by the mask
      // (Inf * 0 => NaN), so the vector path must too.
      ApplyBinary<Vec>(
          [zero, one](Vec g, Vec x) {
            return g * Vec::Blend(Vec::Gt(x, zero), one, zero);
          },
          a, b, out, n);
      return;
    case BinaryOp::kAbsBwd: {
      const Vec neg_one = Vec::Broadcast(-1.0f);
      ApplyBinary<Vec>(
          [zero, one, neg_one](Vec g, Vec x) {
            const Vec negative = Vec::Blend(Vec::Lt(x, zero), neg_one, zero);
            return g * Vec::Blend(Vec::Gt(x, zero), one, negative);
          },
          a, b, out, n);
      return;
    }
    case BinaryOp::kSqrtBwd: {
      const Vec eps = Vec::Broadcast(1e-12f);
      const Vec half = Vec::Broadcast(0.5f);
      ApplyBinary<Vec>(
          [eps, half](Vec g, Vec y) {
            const Vec floored = Vec::Blend(Vec::Gt(y, eps), y, eps);
            return g * (half / floored);
          },
          a, b, out, n);
      return;
    }
    case BinaryOp::kClampBwd: {
      const Vec lo = Vec::Broadcast(p0);
      const Vec hi = Vec::Broadcast(p1);
      ApplyBinary<Vec>(
          [zero, one, lo, hi](Vec g, Vec x) {
            const Vec inside = Vec::And(Vec::Gt(x, lo), Vec::Lt(x, hi));
            return g * Vec::Blend(inside, one, zero);
          },
          a, b, out, n);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked matmul. Same structure as the pre-SIMD kernel (8-row register
// blocks, j vectorized, ascending-k single accumulators); the interior
// microkernel now holds its 8 j-lane accumulators in Vec registers.
// ---------------------------------------------------------------------------

constexpr int64_t kIB = 8;

template <class Vec, bool kATransposed>
inline void MicroKernel(const float* a, int64_t lda, const float* b,
                        int64_t ldb, float* out, int64_t ldo, int64_t k) {
  Vec acc[kIB];
  for (int64_t i = 0; i < kIB; ++i) acc[i] = Vec::Zero();
  for (int64_t p = 0; p < k; ++p) {
    const Vec b_row = Vec::LoadU(b + p * ldb);
    for (int64_t i = 0; i < kIB; ++i) {
      const float av = kATransposed ? a[p * lda + i] : a[i * lda + p];
      acc[i] = Vec::MulAdd(Vec::Broadcast(av), b_row, acc[i]);
    }
  }
  for (int64_t i = 0; i < kIB; ++i) acc[i].StoreU(out + i * ldo);
}

// Variable-size remainder block (right/bottom edges): scalar loops with
// the same accumulator discipline. Edge work is O(edge * k); keeping it
// scalar costs little and stays trivially bit-identical.
template <class Vec, bool kATransposed>
inline void EdgeBlock(const float* a, int64_t lda, const float* b, int64_t ldb,
                      float* out, int64_t ldo, int64_t k, int64_t ib,
                      int64_t jb) {
  float acc[kIB][Vec::kWidth] = {};
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = b + p * ldb;
    for (int64_t i = 0; i < ib; ++i) {
      const float av = kATransposed ? a[p * lda + i] : a[i * lda + p];
      for (int64_t j = 0; j < jb; ++j) acc[i][j] += av * b_row[j];
    }
  }
  for (int64_t i = 0; i < ib; ++i) {
    for (int64_t j = 0; j < jb; ++j) out[i * ldo + j] = acc[i][j];
  }
}

template <class Vec, bool kATransposed>
void BlockedMatMul(const float* a, int64_t lda, const float* b, int64_t ldb,
                   float* out, int64_t m, int64_t n, int64_t k,
                   bool parallel_ok) {
  constexpr int64_t kJB = Vec::kWidth;
  const auto row_block = [&](int64_t i0) {
    const int64_t ib = m - i0 < kIB ? m - i0 : kIB;
    // A's row-block origin: row i0 in the row-major layout, column i0 in
    // the transposed layout.
    const float* a_block = kATransposed ? a + i0 : a + i0 * lda;
    float* out_block = out + i0 * n;
    int64_t j0 = 0;
    if (ib == kIB) {
      for (; j0 + kJB <= n; j0 += kJB) {
        MicroKernel<Vec, kATransposed>(a_block, lda, b + j0, ldb,
                                       out_block + j0, n, k);
      }
    }
    for (; j0 < n; j0 += kJB) {
      const int64_t jb = n - j0 < kJB ? n - j0 : kJB;
      EdgeBlock<Vec, kATransposed>(a_block, lda, b + j0, ldb, out_block + j0, n,
                                   k, ib, jb);
    }
  };
  // OpenMP splits row blocks; every output element is computed wholly by
  // one thread with the same per-element order, so any thread count gives
  // bit-identical results. A serial call stays out of the OpenMP runtime:
  // even a one-thread region costs ~0.4 us, more than a small product.
#ifdef _OPENMP
  if (parallel_ok && m * n * k > 65536) {
#pragma omp parallel for schedule(static)
    for (int64_t i0 = 0; i0 < m; i0 += kIB) row_block(i0);
    return;
  }
#else
  (void)parallel_ok;
#endif
  for (int64_t i0 = 0; i0 < m; i0 += kIB) row_block(i0);
}

// ---------------------------------------------------------------------------
// im2col / col2im.
// ---------------------------------------------------------------------------

// For output pixels whose every tap is in bounds, the patch is a fixed
// gather pattern: tap (ch, ky, kx) reads base + ch*h*w + ky*dil_h*w +
// kx*dil_w where base is the pixel's top-left input element. The
// interior fast path precomputes those offsets once and gathers; only
// boundary pixels (and inputs too large for int32 offsets) take the
// bounds-checked scalar loop. Pure data movement: bit-identity is free.
template <class Vec>
void Im2Col(const float* pi, float* pc, const Im2ColArgs& g, bool parallel_ok) {
  const int64_t plane = g.h * g.w;
  const bool gatherable = g.c * plane <= INT32_MAX;
  std::vector<int32_t> rel;
  if (gatherable) {
    rel.reserve(static_cast<size_t>(g.patch));
    for (int64_t ch = 0; ch < g.c; ++ch) {
      for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
        for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
          rel.push_back(static_cast<int32_t>(ch * plane + ky * g.dilation_h * g.w +
                                             kx * g.dilation_w));
        }
      }
    }
  }
  const int32_t* rel_data = rel.data();
  // Tap extents: pixel (oy, ox) is interior iff its first and last taps
  // are in bounds on both axes.
  const int64_t span_y = g.dilation_h * (g.kernel_h - 1);
  const int64_t span_x = g.dilation_w * (g.kernel_w - 1);
#ifdef _OPENMP
#pragma omp parallel for \
    if (parallel_ok && g.n * g.out_h * g.out_w * g.patch > 65536) \
    schedule(static)
#else
  (void)parallel_ok;
#endif
  for (int64_t b = 0; b < g.n; ++b) {
    const float* batch = pi + b * g.c * plane;
    for (int64_t oy = 0; oy < g.out_h; ++oy) {
      const int64_t y0 = oy - g.pad_top;
      const bool y_interior = y0 >= 0 && y0 + span_y < g.h;
      for (int64_t ox = 0; ox < g.out_w; ++ox) {
        float* col = pc + ((b * g.out_h + oy) * g.out_w + ox) * g.patch;
        const int64_t x0 = ox - g.pad_left;
        if (gatherable && y_interior && x0 >= 0 && x0 + span_x < g.w) {
          const float* base = batch + y0 * g.w + x0;
          int64_t ci = 0;
          for (; ci + Vec::kWidth <= g.patch; ci += Vec::kWidth) {
            Vec::Gather(base, rel_data + ci).StoreU(col + ci);
          }
          for (; ci < g.patch; ++ci) col[ci] = base[rel_data[ci]];
          continue;
        }
        int64_t col_index = 0;
        for (int64_t ch = 0; ch < g.c; ++ch) {
          for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
            const int64_t in_y = y0 + ky * g.dilation_h;
            for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
              const int64_t in_x = x0 + kx * g.dilation_w;
              float value = 0.0f;
              if (in_y >= 0 && in_y < g.h && in_x >= 0 && in_x < g.w) {
                value = batch[(ch * g.h + in_y) * g.w + in_x];
              }
              col[col_index++] = value;
            }
          }
        }
      }
    }
  }
}

// Adjoint scatter-add. Overlapping patches accumulate into shared
// pixels, so vector lanes could not hold distinct output elements along
// the patch axis in general; the kernel stays scalar (its cost is small
// next to the conv matmuls) and identical in both tables.
template <class Vec>
void Col2Im(const float* pc, float* pi, const Im2ColArgs& g, bool parallel_ok) {
  // Parallel over the batch only: overlapping patches of one image
  // accumulate into shared pixels, but images never alias each other, and
  // the within-image accumulation order is untouched (bit-identical).
#ifdef _OPENMP
#pragma omp parallel for \
    if (parallel_ok && g.n * g.out_h * g.out_w * g.patch > 65536) \
    schedule(static)
#else
  (void)parallel_ok;
#endif
  for (int64_t b = 0; b < g.n; ++b) {
    for (int64_t oy = 0; oy < g.out_h; ++oy) {
      for (int64_t ox = 0; ox < g.out_w; ++ox) {
        const float* col = pc + ((b * g.out_h + oy) * g.out_w + ox) * g.patch;
        int64_t col_index = 0;
        for (int64_t ch = 0; ch < g.c; ++ch) {
          for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
            const int64_t in_y = oy - g.pad_top + ky * g.dilation_h;
            for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
              const int64_t in_x = ox - g.pad_left + kx * g.dilation_w;
              const float value = col[col_index++];
              if (in_y >= 0 && in_y < g.h && in_x >= 0 && in_x < g.w) {
                pi[((b * g.c + ch) * g.h + in_y) * g.w + in_x] += value;
              }
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row reductions / broadcasts. Lanes are distinct output columns; each
// out[j] sums its m terms in ascending row order, exactly the reference
// loop.
// ---------------------------------------------------------------------------

template <class Vec>
void SumRows(const float* a, float* out, int64_t m, int64_t n) {
  int64_t j = 0;
  for (; j + Vec::kWidth <= n; j += Vec::kWidth) {
    Vec acc = Vec::Zero();
    for (int64_t i = 0; i < m; ++i) {
      acc = acc + Vec::LoadU(a + i * n + j);
    }
    acc.StoreU(out + j);
  }
  const int64_t rest = n - j;
  if (rest > 0) {
    Vec acc = Vec::Zero();
    for (int64_t i = 0; i < m; ++i) {
      acc = acc + Vec::LoadPartial(a + i * n + j, rest);
    }
    acc.StorePartial(out + j, rest);
  }
}

template <class Vec>
void AddRowVector(const float* a, const float* b, float* out, int64_t m,
                  int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* row = a + i * n;
    float* out_row = out + i * n;
    int64_t j = 0;
    for (; j + Vec::kWidth <= n; j += Vec::kWidth) {
      (Vec::LoadU(row + j) + Vec::LoadU(b + j)).StoreU(out_row + j);
    }
    const int64_t rest = n - j;
    if (rest > 0) {
      (Vec::LoadPartial(row + j, rest) + Vec::LoadPartial(b + j, rest))
          .StorePartial(out_row + j, rest);
    }
  }
}

template <class Vec>
KernelTable MakeTable() {
  KernelTable table;
  table.matmul = &BlockedMatMul<Vec, /*kATransposed=*/false>;
  table.matmul_ta = &BlockedMatMul<Vec, /*kATransposed=*/true>;
  table.im2col = &Im2Col<Vec>;
  table.col2im = &Col2Im<Vec>;
  table.sum_rows = &SumRows<Vec>;
  table.add_row_vector = &AddRowVector<Vec>;
  table.unary = &UnaryKernel<Vec>;
  table.binary = &BinaryKernel<Vec>;
  return table;
}

}  // namespace ppn::vec::detail

#endif  // PPN_TENSOR_VEC_KERNELS_IMPL_H_
