#include "mlmd/la/gemm.hpp"

#include <stdexcept>
#include <type_traits>

#include "mlmd/common/bf16.hpp"
#include "mlmd/common/flops.hpp"
#include "mlmd/common/workspace.hpp"
#include "mlmd/obs/trace.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/simd/simd.hpp"

namespace mlmd::la {
namespace {

template <class T>
inline constexpr bool is_cplx_v = !std::is_arithmetic_v<T>;

template <class T>
struct scalar_of {
  using type = T;
};
template <class R>
struct scalar_of<std::complex<R>> {
  using type = R;
};

template <class T>
T conj_if(T v, bool do_conj) {
  if constexpr (std::is_arithmetic_v<T>) {
    (void)do_conj;
    return v;
  } else {
    return do_conj ? std::conj(v) : v;
  }
}

/// Fetch op(A)(i, j) from a raw row-major array with leading dimension ld.
template <class T>
T op_at_raw(const T* a, std::size_t ld, Trans t, std::size_t i, std::size_t j) {
  switch (t) {
    case Trans::kN: return a[i * ld + j];
    case Trans::kT: return a[j * ld + i];
    case Trans::kC: return conj_if(a[j * ld + i], true);
  }
  return T{};
}

template <class T>
std::size_t op_rows(const Matrix<T>& a, Trans t) {
  return t == Trans::kN ? a.rows() : a.cols();
}
template <class T>
std::size_t op_cols(const Matrix<T>& a, Trans t) {
  return t == Trans::kN ? a.cols() : a.rows();
}

// ---- blocking parameters (DESIGN.md §8, §12) ------------------------------
//
// Macro blocking: row-panels of kMC C rows (one parallel work unit), with
// the reduction split into kKC-deep passes so one packed B micro-panel
// (kKC x NR) plus one packed A micro-panel (kMC x kKC) stay cache-resident.
// Register blocking: an MR x NR accumulator tile held in registers across
// the whole k-pass. The micro-kernels and their MR/NR shapes come from the
// mlmd::simd dispatch table — retuned per ISA (scalar 4x16/4x8/2x8/2x8,
// AVX2 6x16/6x8/4x8/4x4, AVX-512 8x32/8x16/8x16/8x8) — and every target
// reduces each C element in strictly ascending p order with a single
// accumulator, so tile shape never changes results: any target is
// bit-identical to a scalar ascending-k dot product.
//
// Panel alignment contract (asserted by the aligned loads inside the
// intrinsic kernels): Workspace allocations are 64-byte aligned, and for
// every dispatchable tile shape the per-p packed-B stride NR*rpc*sizeof(R)
// is a multiple of 64, so each packed micro-panel row — and the NR-real /
// NR-imag half-rows of the complex layout — stays 64-byte aligned.

constexpr std::size_t kMC = 64;  // rows of C per macro-tile (work unit)
constexpr std::size_t kKC = 256; // reduction depth per pass

// ---- packing --------------------------------------------------------------

/// Pack one op(B) column micro-panel: columns [j0, j0+NR) (zero-padded),
/// reduction rows [p0, p0+kc). Real layout: dst[p*NR + jj]. Complex
/// layout: dst[p*2NR + jj] = re, dst[p*2NR + NR + jj] = im. NR is the
/// active dispatch target's tile width.
template <class T>
void pack_b_panel(const T* b, std::size_t ldb, Trans tb, std::size_t p0,
                  std::size_t kc, std::size_t j0, std::size_t nr,
                  std::size_t NR, typename scalar_of<T>::type* dst) {
  using R = typename scalar_of<T>::type;
  if constexpr (std::is_arithmetic_v<T>) {
    if (tb == Trans::kN) {
      // Contiguous copy case: dispatch the vectorized packer (zero-pad
      // semantics identical to the loop below, alpha==1 is a plain copy).
      if (const auto fn = simd::pack_fn<T>(); fn != nullptr) {
        fn(b + p0 * ldb + j0, ldb, kc, T{1}, nr, NR, dst);
        return;
      }
      for (std::size_t p = 0; p < kc; ++p) {
        const T* src = b + (p0 + p) * ldb + j0;
        T* d = dst + p * NR;
        for (std::size_t jj = 0; jj < nr; ++jj) d[jj] = src[jj];
        for (std::size_t jj = nr; jj < NR; ++jj) d[jj] = T{};
      }
    } else { // kT (== kC for real): column jj of op(B) is row j0+jj of B
      for (std::size_t jj = 0; jj < nr; ++jj) {
        const T* src = b + (j0 + jj) * ldb + p0;
        for (std::size_t p = 0; p < kc; ++p) dst[p * NR + jj] = src[p];
      }
      for (std::size_t jj = nr; jj < NR; ++jj)
        for (std::size_t p = 0; p < kc; ++p) dst[p * NR + jj] = T{};
    }
  } else {
    const R* braw = reinterpret_cast<const R*>(b);
    if (tb == Trans::kN) {
      for (std::size_t p = 0; p < kc; ++p) {
        const R* src = braw + 2 * ((p0 + p) * ldb + j0);
        R* dre = dst + p * 2 * NR;
        R* dim = dre + NR;
        for (std::size_t jj = 0; jj < nr; ++jj) {
          dre[jj] = src[2 * jj];
          dim[jj] = src[2 * jj + 1];
        }
        for (std::size_t jj = nr; jj < NR; ++jj) dre[jj] = dim[jj] = R{};
      }
    } else {
      const R sign = tb == Trans::kC ? R{-1} : R{1};
      for (std::size_t jj = 0; jj < nr; ++jj) {
        const R* src = braw + 2 * ((j0 + jj) * ldb + p0);
        for (std::size_t p = 0; p < kc; ++p) {
          dst[p * 2 * NR + jj] = src[2 * p];
          dst[p * 2 * NR + NR + jj] = sign * src[2 * p + 1];
        }
      }
      for (std::size_t jj = nr; jj < NR; ++jj)
        for (std::size_t p = 0; p < kc; ++p)
          dst[p * 2 * NR + jj] = dst[p * 2 * NR + NR + jj] = R{};
    }
  }
}

/// Pack alpha*op(A) rows [i0, i0+mc) x [p0, p0+kc) into MR-row micro-panels
/// (zero-padded): panel ib holds rows i0+ib*MR..+MR with layout
/// dst[ib*kc*MR + p*MR + r] (complex: interleaved re/im, stride 2*MR).
/// MR is the active dispatch target's tile height.
template <class T>
void pack_a_panel(const T* a, std::size_t lda, Trans ta, T alpha,
                  std::size_t i0, std::size_t mc, std::size_t p0,
                  std::size_t kc, std::size_t MR,
                  typename scalar_of<T>::type* dst) {
  using R = typename scalar_of<T>::type;
  constexpr std::size_t rpc = is_cplx_v<T> ? 2 : 1;
  const std::size_t nib = (mc + MR - 1) / MR;
  if constexpr (std::is_arithmetic_v<T>) {
    // Real kT/kC (kC == kT for real): op(A)(i, p) = a[p*lda + i], so each
    // packed row p is a contiguous mr-run scaled by alpha — dispatch the
    // vectorized packer per micro-panel (same scale/zero-pad semantics as
    // the generic loop below; alpha*v is one elementwise IEEE multiply).
    if (ta != Trans::kN) {
      if (const auto fn = simd::pack_fn<T>(); fn != nullptr) {
        for (std::size_t ib = 0; ib < nib; ++ib) {
          const std::size_t mr = std::min(MR, mc - ib * MR);
          fn(a + p0 * lda + i0 + ib * MR, lda, kc, alpha, mr, MR,
             dst + ib * kc * MR);
        }
        return;
      }
    }
  }
  for (std::size_t ib = 0; ib < nib; ++ib) {
    R* panel = dst + ib * kc * MR * rpc;
    const std::size_t mr = std::min(MR, mc - ib * MR);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t r = 0; r < mr; ++r) {
        const T v =
            alpha * op_at_raw(a, lda, ta, i0 + ib * MR + r, p0 + p);
        if constexpr (std::is_arithmetic_v<T>) {
          panel[p * MR + r] = v;
        } else {
          panel[p * 2 * MR + 2 * r] = v.real();
          panel[p * 2 * MR + 2 * r + 1] = v.imag();
        }
      }
      for (std::size_t r = mr; r < MR; ++r) {
        if constexpr (std::is_arithmetic_v<T>) {
          panel[p * MR + r] = T{};
        } else {
          panel[p * 2 * MR + 2 * r] = R{};
          panel[p * 2 * MR + 2 * r + 1] = R{};
        }
      }
    }
  }
}

/// C <- beta * C (parallel, row blocks). Used only on the degenerate
/// k == 0 / alpha == 0 paths; the main engine folds beta into the first
/// k-pass of each register tile instead.
template <class T>
void scale_c(T beta, T* c, std::size_t m, std::size_t n, std::size_t ldc) {
  if (beta == T{1}) return;
  par::parallel_for(0, m, 16, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      T* row = c + i * ldc;
      if (beta == T{}) {
        for (std::size_t j = 0; j < n; ++j) row[j] = T{};
      } else {
        for (std::size_t j = 0; j < n; ++j) row[j] *= beta;
      }
    }
  });
}

/// The packed engine. Assumes shapes are already validated; counts no
/// FLOPs (callers own the analytic count).
template <class T>
void gemm_engine(Trans ta, Trans tb, std::size_t m, std::size_t n,
                 std::size_t k, T alpha, const T* a, std::size_t lda,
                 const T* b, std::size_t ldb, T beta, T* c, std::size_t ldc) {
  using R = typename scalar_of<T>::type;
  constexpr std::size_t rpc = is_cplx_v<T> ? 2 : 1;

  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == T{}) {
    scale_c(beta, c, m, n, ldc);
    return;
  }

  // Resolve the active dispatch target's micro-kernel once per call; the
  // tile shape (MR x NR) drives packing and blocking below.
  [[maybe_unused]] simd::GemmUkern<T> ukr{};
  [[maybe_unused]] simd::CplxUkern<R> ukc{};
  std::size_t MR, NR;
  if constexpr (std::is_arithmetic_v<T>) {
    ukr = simd::gemm_ukern<T>();
    MR = ukr.mr;
    NR = ukr.nr;
  } else {
    ukc = simd::cplx_ukern<R>();
    MR = ukc.mr;
    NR = ukc.nr;
  }

  const std::size_t njb = (n + NR - 1) / NR;
  const std::size_t ntiles = (m + kMC - 1) / kMC;
  const std::size_t kc0 = std::min(kKC, k);

  // All scratch comes from the caller's arena, sized by the call's shape
  // and the pool size alone: the packed B slice plus one packed-A slot per
  // pool participant (rounded to 64 bytes so every slot stays aligned).
  // Which worker claims which tile then never decides which arena grows,
  // so one warm-up call makes every later call with these shapes
  // heap-free.
  const std::size_t nslots = static_cast<std::size_t>(par::num_threads());
  constexpr std::size_t kAlignElems = 64 / sizeof(R);
  const std::size_t aslot =
      ((std::min(kMC, m) + MR - 1) / MR * kc0 * MR * rpc + kAlignElems - 1) /
      kAlignElems * kAlignElems;
  common::Workspace& ws = common::Workspace::local();
  common::Workspace::Frame frame(ws);
  R* bpanel = ws.get<R>(njb * kc0 * NR * rpc);
  R* apanels = ws.get<R>(nslots * aslot);

  for (std::size_t p0 = 0; p0 < k; p0 += kKC) {
    const std::size_t kc = std::min(kKC, k - p0);
    const bool first = p0 == 0;

    // Pack op(B)'s k-slice into column micro-panels once per pass; every
    // row-panel below then streams it from cache. Disjoint writes, fixed
    // grain: deterministic at any thread count.
    par::parallel_for(0, njb, 8, [&](std::size_t jb0, std::size_t jb1) {
      for (std::size_t jb = jb0; jb < jb1; ++jb)
        pack_b_panel(b, ldb, tb, p0, kc, jb * NR, std::min(NR, n - jb * NR),
                     NR, bpanel + jb * kc * NR * rpc);
    });

    // Macro-tiles of C rows are independent: the pool hands each worker
    // whole kMC row blocks (grain = 1 tile), so writes never overlap and
    // the result is bit-identical at any thread count.
    par::parallel_for(0, ntiles, 1, [&](std::size_t t0, std::size_t t1) {
      R* apanel =
          apanels + static_cast<std::size_t>(par::ThreadPool::participant()) *
                        aslot;
      for (std::size_t ti = t0; ti < t1; ++ti) {
        const std::size_t i0 = ti * kMC;
        const std::size_t mc = std::min(kMC, m - i0);
        const std::size_t nib = (mc + MR - 1) / MR;
        pack_a_panel(a, lda, ta, alpha, i0, mc, p0, kc, MR, apanel);

        for (std::size_t ib = 0; ib < nib; ++ib) {
          const std::size_t i = i0 + ib * MR;
          // Clamp to this row block's extent (mc), not the whole matrix:
          // when MR does not divide kMC the block's last tile must not
          // overhang into rows owned by the next macro-tile (another
          // worker's rows — and beta would be applied to them twice).
          const std::size_t mr = std::min(MR, mc - ib * MR);
          const R* ap = apanel + ib * kc * MR * rpc;
          for (std::size_t jb = 0; jb < njb; ++jb) {
            const std::size_t j = jb * NR;
            const std::size_t nr = std::min(NR, n - j);
            const R* bp = bpanel + jb * kc * NR * rpc;

            // Stack accumulator tiles sized for the widest dispatch
            // target and 64-byte aligned: the intrinsic kernels use
            // aligned vector loads on their rows (every tile shape keeps
            // NR*sizeof(R) a multiple of 32, and the engine zero-fills
            // the full MR x NR so padded rows never feed garbage into
            // the kernel's vector lanes).
            if constexpr (std::is_arithmetic_v<T>) {
              alignas(64) T acc[simd::kMaxAccElems];
              for (std::size_t e = 0; e < MR * NR; ++e) acc[e] = T{};
              if (first) {
                // beta folded into the first k-pass: C is read and
                // beta-scaled here, inside the parallel tile, never in a
                // serial prologue.
                if (beta != T{})
                  for (std::size_t ii = 0; ii < mr; ++ii)
                    for (std::size_t jj = 0; jj < nr; ++jj)
                      acc[ii * NR + jj] = beta * c[(i + ii) * ldc + j + jj];
              } else {
                for (std::size_t ii = 0; ii < mr; ++ii)
                  for (std::size_t jj = 0; jj < nr; ++jj)
                    acc[ii * NR + jj] = c[(i + ii) * ldc + j + jj];
              }
              ukr.fn(kc, ap, bp, acc);
              for (std::size_t ii = 0; ii < mr; ++ii)
                for (std::size_t jj = 0; jj < nr; ++jj)
                  c[(i + ii) * ldc + j + jj] = acc[ii * NR + jj];
            } else {
              alignas(64) R accr[simd::kMaxAccElems];
              alignas(64) R acci[simd::kMaxAccElems];
              for (std::size_t e = 0; e < MR * NR; ++e) accr[e] = acci[e] = R{};
              if (first) {
                if (beta != T{})
                  for (std::size_t ii = 0; ii < mr; ++ii)
                    for (std::size_t jj = 0; jj < nr; ++jj) {
                      const T v = beta * c[(i + ii) * ldc + j + jj];
                      accr[ii * NR + jj] = v.real();
                      acci[ii * NR + jj] = v.imag();
                    }
              } else {
                for (std::size_t ii = 0; ii < mr; ++ii)
                  for (std::size_t jj = 0; jj < nr; ++jj) {
                    const T v = c[(i + ii) * ldc + j + jj];
                    accr[ii * NR + jj] = v.real();
                    acci[ii * NR + jj] = v.imag();
                  }
              }
              ukc.fn(kc, ap, bp, accr, acci);
              for (std::size_t ii = 0; ii < mr; ++ii)
                for (std::size_t jj = 0; jj < nr; ++jj)
                  c[(i + ii) * ldc + j + jj] =
                      T(accr[ii * NR + jj], acci[ii * NR + jj]);
            }
          }
        }
      }
    });
  }
}

} // namespace

namespace {

// Per-precision span names (obs tracing, DESIGN.md Sec. 9). The shared
// "gemm." prefix lets Tracer::summed_seconds("gemm") aggregate total GEMM
// time for the bench cross-checks.
template <class T>
struct span_name {
  static constexpr const char* gemm = "gemm";
};
template <>
struct span_name<float> {
  static constexpr const char* gemm = "gemm.s";
};
template <>
struct span_name<double> {
  static constexpr const char* gemm = "gemm.d";
};
template <>
struct span_name<std::complex<float>> {
  static constexpr const char* gemm = "gemm.c";
};
template <>
struct span_name<std::complex<double>> {
  static constexpr const char* gemm = "gemm.z";
};

} // namespace

template <class T>
void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          T alpha, const T* a, std::size_t lda, const T* b, std::size_t ldb,
          T beta, T* c, std::size_t ldc) {
  obs::ObsScope span(span_name<T>::gemm, obs::Cat::kKernel);
  flops::add((is_cplx_v<T> ? 8ull : 2ull) * m * n * k);
  gemm_engine(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

template void gemm<float>(Trans, Trans, std::size_t, std::size_t, std::size_t,
                          float, const float*, std::size_t, const float*,
                          std::size_t, float, float*, std::size_t);
template void gemm<double>(Trans, Trans, std::size_t, std::size_t, std::size_t,
                           double, const double*, std::size_t, const double*,
                           std::size_t, double, double*, std::size_t);
template void gemm<std::complex<float>>(Trans, Trans, std::size_t, std::size_t,
                                        std::size_t, std::complex<float>,
                                        const std::complex<float>*, std::size_t,
                                        const std::complex<float>*, std::size_t,
                                        std::complex<float>,
                                        std::complex<float>*, std::size_t);
template void gemm<std::complex<double>>(
    Trans, Trans, std::size_t, std::size_t, std::size_t, std::complex<double>,
    const std::complex<double>*, std::size_t, const std::complex<double>*,
    std::size_t, std::complex<double>, std::complex<double>*, std::size_t);

template <class T>
void gemm(Trans ta, Trans tb, T alpha, const Matrix<T>& a, const Matrix<T>& b,
          T beta, Matrix<T>& c) {
  const std::size_t m = op_rows(a, ta);
  const std::size_t k = op_cols(a, ta);
  const std::size_t n = op_cols(b, tb);
  if (op_rows(b, tb) != k || c.rows() != m || c.cols() != n)
    throw std::invalid_argument("gemm: shape mismatch");
  gemm(ta, tb, m, n, k, alpha, a.data(), a.cols(), b.data(), b.cols(), beta,
       c.data(), c.cols());
}

template void gemm<float>(Trans, Trans, float, const Matrix<float>&,
                          const Matrix<float>&, float, Matrix<float>&);
template void gemm<double>(Trans, Trans, double, const Matrix<double>&,
                           const Matrix<double>&, double, Matrix<double>&);
template void gemm<std::complex<float>>(Trans, Trans, std::complex<float>,
                                        const Matrix<std::complex<float>>&,
                                        const Matrix<std::complex<float>>&,
                                        std::complex<float>,
                                        Matrix<std::complex<float>>&);
template void gemm<std::complex<double>>(Trans, Trans, std::complex<double>,
                                         const Matrix<std::complex<double>>&,
                                         const Matrix<std::complex<double>>&,
                                         std::complex<double>,
                                         Matrix<std::complex<double>>&);

void gemm_mixed(ComputeMode mode, Trans ta, Trans tb, std::complex<float> alpha,
                const Matrix<std::complex<float>>& a,
                const Matrix<std::complex<float>>& b, std::complex<float> beta,
                Matrix<std::complex<float>>& c) {
  using cf = std::complex<float>;
  if (mode == ComputeMode::kNative) {
    gemm(ta, tb, alpha, a, b, beta, c);
    return;
  }
  const int nc = mode == ComputeMode::kBF16 ? 1 : (mode == ComputeMode::kBF16x2 ? 2 : 3);
  // The plane-split path drives gemm_engine directly, bypassing the
  // instrumented gemm() entry; the shared "gemm." prefix keeps it inside
  // Tracer::summed_seconds("gemm") roll-ups.
  obs::ObsScope span("gemm.mixed", obs::Cat::kKernel);

  const std::size_t m = op_rows(a, ta);
  const std::size_t k = op_cols(a, ta);
  const std::size_t n = op_cols(b, tb);
  if (op_rows(b, tb) != k || c.rows() != m || c.cols() != n)
    throw std::invalid_argument("gemm_mixed: shape mismatch");
  flops::add(8ull * m * n * k * static_cast<std::size_t>(nc) * nc);

  // Materialize op(A) and op(B) with every scalar replaced by the FP32
  // value of the sum of its BF16 components. Component products are
  // accumulated in FP32, exactly what BF16 systolic hardware does.
  // Components are kept in separate planes (workspace-backed; no per-call
  // heap traffic) so each (component-of-A x component-of-B) pass is itself
  // a uniform-precision product running through the packed engine.
  common::Workspace& ws = common::Workspace::local();
  common::Workspace::Frame frame(ws);
  cf* a_planes = ws.get<cf>(static_cast<std::size_t>(nc) * m * k);
  cf* b_planes = ws.get<cf>(static_cast<std::size_t>(nc) * k * n);

  auto split_planes = [nc](cf* planes, std::size_t rows, std::size_t cols,
                           auto fetch) {
    bf16 parts_re[3], parts_im[3];
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j) {
        const cf v = fetch(i, j);
        bf16_split(v.real(), parts_re, nc);
        bf16_split(v.imag(), parts_im, nc);
        for (int q = 0; q < nc; ++q)
          planes[static_cast<std::size_t>(q) * rows * cols + i * cols + j] =
              {parts_re[q].to_float(), parts_im[q].to_float()};
      }
  };
  split_planes(a_planes, m, k, [&](std::size_t i, std::size_t j) {
    return op_at_raw(a.data(), a.cols(), ta, i, j);
  });
  split_planes(b_planes, k, n, [&](std::size_t i, std::size_t j) {
    return op_at_raw(b.data(), b.cols(), tb, i, j);
  });

  // One packed-engine pass per component pair, in fixed (qa, qb) order;
  // the first pass folds the caller's beta, later passes accumulate. Per
  // C element this reproduces the qa-major, qb-minor, ascending-k
  // summation order of a systolic accumulation loop.
  for (int qa = 0; qa < nc; ++qa)
    for (int qb = 0; qb < nc; ++qb)
      gemm_engine(Trans::kN, Trans::kN, m, n, k, alpha,
                  a_planes + static_cast<std::size_t>(qa) * m * k, k,
                  b_planes + static_cast<std::size_t>(qb) * k * n, n,
                  qa == 0 && qb == 0 ? beta : cf{1.0f, 0.0f}, c.data(),
                  c.cols());
}

template <class T>
void gemv(Trans ta, T alpha, const Matrix<T>& a, const T* x, T beta, T* y) {
  using R = typename scalar_of<T>::type;
  obs::ObsScope span("gemv", obs::Cat::kKernel);
  const std::size_t m = op_rows(a, ta);
  const std::size_t k = op_cols(a, ta);
  // Analytic count: one multiply-add per op(A) element — 2 real FLOPs for
  // real data, 8 for complex (4 mul + 4 add) — identical for kN and the
  // packed kT/kC path. Verified by a unit check in test_la.
  flops::add((is_cplx_v<T> ? 8ull : 2ull) * m * k);
  if (m == 0) return;

  if (ta == Trans::kN) {
    // Row-major dot products; rows are independent.
    par::parallel_for(0, m, 32, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        const T* row = a.row(i);
        if constexpr (std::is_arithmetic_v<T>) {
          T acc{};
#pragma omp simd reduction(+ : acc)
          for (std::size_t p = 0; p < k; ++p) acc += row[p] * x[p];
          y[i] = beta == T{} ? alpha * acc : alpha * acc + beta * y[i];
        } else {
          const R* rr = reinterpret_cast<const R*>(row);
          const R* xr = reinterpret_cast<const R*>(x);
          R sr{}, si{};
#pragma omp simd reduction(+ : sr, si)
          for (std::size_t p = 0; p < k; ++p) {
            const R ar = rr[2 * p], ai = rr[2 * p + 1];
            const R vr = xr[2 * p], vi = xr[2 * p + 1];
            sr += ar * vr - ai * vi;
            si += ar * vi + ai * vr;
          }
          const T acc(sr, si);
          y[i] = beta == T{} ? alpha * acc : alpha * acc + beta * y[i];
        }
      }
    });
    return;
  }

  // kT / kC: op(A)(i, p) = conj?(A(p, i)) — walking op rows would stride
  // down columns of A. Instead stream A row by row (cache order) into a
  // packed accumulator slab for a chunk of outputs: acc[j] accumulates
  // column j in ascending p order, so the summation order per output is
  // fixed and thread-count independent (chunks own disjoint outputs).
  const bool conj = ta == Trans::kC;
  par::parallel_for(0, m, 256, [&](std::size_t j0, std::size_t j1) {
    const std::size_t w = j1 - j0;
    common::Workspace& ws = common::Workspace::local();
    common::Workspace::Frame f(ws);
    if constexpr (std::is_arithmetic_v<T>) {
      T* acc = ws.get<T>(w);
      for (std::size_t j = 0; j < w; ++j) acc[j] = T{};
      for (std::size_t p = 0; p < k; ++p) {
        const T* row = a.row(p) + j0;
        const T xv = x[p];
#pragma omp simd
        for (std::size_t j = 0; j < w; ++j) acc[j] += row[j] * xv;
      }
      for (std::size_t j = 0; j < w; ++j)
        y[j0 + j] = beta == T{} ? alpha * acc[j] : alpha * acc[j] + beta * y[j0 + j];
    } else {
      R* accr = ws.get<R>(w);
      R* acci = ws.get<R>(w);
      for (std::size_t j = 0; j < w; ++j) accr[j] = acci[j] = R{};
      const R sign = conj ? R{-1} : R{1};
      const R* xr = reinterpret_cast<const R*>(x);
      for (std::size_t p = 0; p < k; ++p) {
        const R* row = reinterpret_cast<const R*>(a.row(p) + j0);
        const R vr = xr[2 * p], vi = xr[2 * p + 1];
#pragma omp simd
        for (std::size_t j = 0; j < w; ++j) {
          const R ar = row[2 * j], ai = sign * row[2 * j + 1];
          accr[j] += ar * vr - ai * vi;
          acci[j] += ar * vi + ai * vr;
        }
      }
      for (std::size_t j = 0; j < w; ++j) {
        const T acc(accr[j], acci[j]);
        y[j0 + j] = beta == T{} ? alpha * acc : alpha * acc + beta * y[j0 + j];
      }
    }
  });
}

template void gemv<double>(Trans, double, const Matrix<double>&, const double*, double,
                           double*);
template void gemv<std::complex<double>>(Trans, std::complex<double>,
                                         const Matrix<std::complex<double>>&,
                                         const std::complex<double>*,
                                         std::complex<double>, std::complex<double>*);

} // namespace mlmd::la
