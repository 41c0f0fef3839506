#ifndef PPN_TENSOR_VEC_KERNELS_IMPL_H_
#define PPN_TENSOR_VEC_KERNELS_IMPL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/parallel.h"
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
///    output element, summed in the reference order (matmul parks it in
///    the output between k-chunks; a float store and reload is exact). SIMD lanes only
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
// Blocked matmul: 8-row x Vec::kWidth-column output tiles, j vectorized,
// one ascending-k accumulator per output element.
// ---------------------------------------------------------------------------

constexpr int64_t kIB = 8;
// k terms per chunk. Between chunks a tile's accumulators are parked in
// `out` and reloaded; a float store and reload is exact, so each element
// still sums its k terms in ascending order in one accumulator. Chunking
// keeps a chunk's rows of B in cache while every tile sweeps them, and
// gives OpenMP tiles (not just row blocks) to split when m is small.
constexpr int64_t kKChunk = 256;

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// One ib x jb output tile over k terms. `resume` continues from the
// accumulators parked in `out` by the previous chunk instead of +0. Full
// tiles hold their accumulators in Vec registers: the unroll pragmas keep
// GCC from leaving acc[] on the stack, which measured about 2x slower.
// Edge tiles (m % 8, n % kWidth remainders) run scalar loops with the
// same discipline.
template <class Vec, bool kATransposed>
inline void Tile(const float* a, int64_t lda, const float* b, int64_t ldb,
                 float* out, int64_t ldo, int64_t k, int64_t ib, int64_t jb,
                 bool resume) {
  if (ib == kIB && jb == Vec::kWidth) {
    Vec acc[kIB];
#pragma GCC unroll 8
    for (int64_t i = 0; i < kIB; ++i) {
      acc[i] = resume ? Vec::LoadU(out + i * ldo) : Vec::Zero();
    }
    for (int64_t p = 0; p < k; ++p) {
      const Vec b_row = Vec::LoadU(b + p * ldb);
#pragma GCC unroll 8
      for (int64_t i = 0; i < kIB; ++i) {
        const float av = kATransposed ? a[p * lda + i] : a[i * lda + p];
        acc[i] = Vec::MulAdd(Vec::Broadcast(av), b_row, acc[i]);
      }
    }
#pragma GCC unroll 8
    for (int64_t i = 0; i < kIB; ++i) acc[i].StoreU(out + i * ldo);
    return;
  }
  float acc[kIB][Vec::kWidth];
  for (int64_t i = 0; i < ib; ++i) {
    for (int64_t j = 0; j < jb; ++j) acc[i][j] = resume ? out[i * ldo + j] : 0.0f;
  }
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
  // k = 0 still runs one chunk, which writes the zeros.
  const int64_t chunks = k > 0 ? CeilDiv(k, kKChunk) : 1;
  const auto tile = [&](int64_t i0, int64_t j0, int64_t chunk) {
    const int64_t p0 = chunk * kKChunk;
    // A's tile origin: row i0, column p0 of the row-major layout; row p0,
    // column i0 of the transposed layout.
    const float* a_tile = kATransposed ? a + p0 * lda + i0 : a + i0 * lda + p0;
    Tile<Vec, kATransposed>(a_tile, lda, b + p0 * ldb + j0, ldb,
                            out + i0 * n + j0, n, std::min(kKChunk, k - p0),
                            std::min(kIB, m - i0), std::min(kJB, n - j0),
                            /*resume=*/chunk > 0);
  };
  // OpenMP splits tiles; every output element is computed wholly by one
  // thread with the same per-element order, so any team size gives the
  // same bits. Each chunk's loop is `nowait`: the OpenMP spec assigns the
  // same iterations to the same threads in static loops with the same
  // iteration count and schedule bound to one parallel region, so a
  // tile's next chunk always runs on the thread that parked it. A serial
  // call stays out of the OpenMP runtime: even a one-thread region costs
  // ~0.4 us, more than a small product.
#ifdef _OPENMP
  if (parallel_ok && m * n * k > 65536) {
    const int64_t col_blocks = CeilDiv(n, kJB);
    const int64_t tiles = CeilDiv(m, kIB) * col_blocks;
#pragma omp parallel
    for (int64_t chunk = 0; chunk < chunks; ++chunk) {
#pragma omp for schedule(static) nowait
      for (int64_t t = 0; t < tiles; ++t) {
        tile(t / col_blocks * kIB, t % col_blocks * kJB, chunk);
      }
    }
    return;
  }
#else
  (void)parallel_ok;
#endif
  // The same tiles in the same order, without a division per tile.
  for (int64_t chunk = 0; chunk < chunks; ++chunk) {
    for (int64_t i0 = 0; i0 < m; i0 += kIB) {
      for (int64_t j0 = 0; j0 < n; j0 += kJB) tile(i0, j0, chunk);
    }
  }
}

// ---------------------------------------------------------------------------
// im2col / col2im. Pure data movement and single adds per tap, so the
// bits only depend on which taps are in bounds and on the scatter order.
// ---------------------------------------------------------------------------

// The taps [lo, hi) of one axis whose input index origin + tap * dilation
// lies in [0, size). Empty ranges come back as lo == hi.
struct TapRange {
  int64_t lo, hi;
};

inline TapRange ClampTaps(int64_t origin, int64_t dilation, int64_t taps,
                          int64_t size) {
  // Interior first: most pixels of a wide axis, and no division.
  if (origin >= 0 && origin + dilation * (taps - 1) < size) return {0, taps};
  const int64_t lo = origin < 0 ? CeilDiv(-origin, dilation) : 0;
  const int64_t hi =
      origin < size ? std::min(taps, (size - 1 - origin) / dilation + 1) : 0;
  return {lo, std::max(lo, hi)};
}

// For output pixels whose every tap is in bounds, the patch is a fixed
// gather pattern: tap (ch, ky, kx) reads base + ch*h*w + ky*dil_h*w +
// kx*dil_w where base is the pixel's top-left input element. The
// interior fast path precomputes those offsets once and gathers.
// Boundary pixels (and inputs too large for int32 offsets) zero their
// patch row, then copy only each pixel's in-bounds tap ranges.
template <class Vec>
void Im2Col(const float* pi, float* pc, const Im2ColArgs& args,
            bool parallel_ok) {
  const int64_t plane = args.h * args.w;
  const bool gatherable = args.c * plane <= INT32_MAX;
  std::vector<int32_t> rel;
  if (gatherable) {
    rel.reserve(static_cast<size_t>(args.patch));
    for (int64_t ch = 0; ch < args.c; ++ch) {
      for (int64_t ky = 0; ky < args.kernel_h; ++ky) {
        for (int64_t kx = 0; kx < args.kernel_w; ++kx) {
          rel.push_back(static_cast<int32_t>(
              ch * plane + ky * args.dilation_h * args.w + kx * args.dilation_w));
        }
      }
    }
  }
  const int32_t* rel_data = rel.data();
  ParallelFor(args.n,
              parallel_ok && args.n * args.out_h * args.out_w * args.patch > 65536,
              [&](int64_t b) {
    // A local copy: vector stores may alias any memory, so fields read
    // through the reference would be reloaded after every store.
    const Im2ColArgs g = args;
    const float* batch = pi + b * g.c * plane;
    for (int64_t oy = 0; oy < g.out_h; ++oy) {
      const int64_t y0 = oy - g.pad_top;
      const TapRange ys = ClampTaps(y0, g.dilation_h, g.kernel_h, g.h);
      for (int64_t ox = 0; ox < g.out_w; ++ox) {
        float* col = pc + ((b * g.out_h + oy) * g.out_w + ox) * g.patch;
        const int64_t x0 = ox - g.pad_left;
        const TapRange xs = ClampTaps(x0, g.dilation_w, g.kernel_w, g.w);
        if (gatherable && ys.hi - ys.lo == g.kernel_h &&
            xs.hi - xs.lo == g.kernel_w) {
          const float* base = batch + y0 * g.w + x0;
          int64_t ci = 0;
          for (; ci + Vec::kWidth <= g.patch; ci += Vec::kWidth) {
            Vec::Gather(base, rel_data + ci).StoreU(col + ci);
          }
          for (; ci < g.patch; ++ci) col[ci] = base[rel_data[ci]];
          continue;
        }
        std::memset(col, 0, static_cast<size_t>(g.patch) * sizeof(float));
        for (int64_t ch = 0; ch < g.c; ++ch) {
          for (int64_t ky = ys.lo; ky < ys.hi; ++ky) {
            // Input offset of tap (ch, ky, 0); it may lie outside the
            // image, but every tap the kx loop reads is inside.
            const int64_t src = ch * plane + (y0 + ky * g.dilation_h) * g.w + x0;
            float* dst = col + (ch * g.kernel_h + ky) * g.kernel_w;
            for (int64_t kx = xs.lo; kx < xs.hi; ++kx) {
              dst[kx] = batch[src + kx * g.dilation_w];
            }
          }
        }
      }
    }
  });
}

// Adjoint scatter-add, in the reference order: output pixels in raster
// order, then taps (ch, ky, kx), skipping out-of-bounds taps. Each
// pixel's in-bounds tap ranges are computed once, so no tap is
// bounds-checked and every input pixel receives the same adds in the
// same order. Overlapping patches accumulate into shared pixels, so
// lanes could not hold distinct outputs along the patch axis; the kernel
// stays scalar and identical in both tables. It is not cheap: on the
// PPN convs it costs about twice the input-gradient matmul.
template <class Vec>
void Col2Im(const float* pc, float* pi, const Im2ColArgs& g, bool parallel_ok) {
  const int64_t plane = g.h * g.w;
  // Parallel over the batch only: images never alias each other.
  ParallelFor(g.n, parallel_ok && g.n * g.out_h * g.out_w * g.patch > 65536,
              [&](int64_t b) {
    float* image = pi + b * g.c * plane;
    for (int64_t oy = 0; oy < g.out_h; ++oy) {
      const int64_t y0 = oy - g.pad_top;
      const TapRange ys = ClampTaps(y0, g.dilation_h, g.kernel_h, g.h);
      for (int64_t ox = 0; ox < g.out_w; ++ox) {
        const float* col = pc + ((b * g.out_h + oy) * g.out_w + ox) * g.patch;
        const int64_t x0 = ox - g.pad_left;
        const TapRange xs = ClampTaps(x0, g.dilation_w, g.kernel_w, g.w);
        for (int64_t ch = 0; ch < g.c; ++ch) {
          for (int64_t ky = ys.lo; ky < ys.hi; ++ky) {
            const float* src = col + (ch * g.kernel_h + ky) * g.kernel_w;
            // As in Im2Col: only the in-bounds taps are ever indexed.
            const int64_t dst = ch * plane + (y0 + ky * g.dilation_h) * g.w + x0;
            for (int64_t kx = xs.lo; kx < xs.hi; ++kx) {
              image[dst + kx * g.dilation_w] += src[kx];
            }
          }
        }
      }
    }
  });
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
