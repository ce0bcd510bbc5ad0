#include <ddc/linalg/simd.hpp>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>

#include <ddc/common/error.hpp>

#include "simd_kernels.hpp"

namespace ddc::linalg::simd {

namespace {

/// Scalar reference: dispatch the fixed-d kernel on the model dimension.
void score_batch_scalar(const kernels::ScorerData& s, const double* means,
                        const double* covs, std::size_t count, double* out,
                        double* scratch) {
  kernels::dispatch_dim(s.d, [&](auto d) {
    kernels::score_batch<d()>(s, means, covs, count, out, scratch, s.d);
  });
}

/// Scalar reference: dispatch the fixed-d distance kernel on `d`.
void distance_batch_scalar(const double* a, const double* bs,
                           std::size_t count, double* out, std::size_t d) {
  kernels::dispatch_dim(d, [&](auto dd) {
    kernels::distance2_batch<dd()>(a, bs, count, out, d);
  });
}

std::atomic<Tier> g_tier{Tier::scalar};
std::atomic<bool> g_fast_math{false};
std::once_flag g_env_default_once;

bool avx2_available() noexcept {
  return compiled_with_avx2() && cpu_supports_avx2();
}

/// Applies a mode that is already known to be satisfiable.
void apply(Mode mode) noexcept {
  switch (mode) {
    case Mode::scalar:
      g_tier.store(Tier::scalar, std::memory_order_relaxed);
      g_fast_math.store(false, std::memory_order_relaxed);
      break;
    case Mode::avx2:
      g_tier.store(Tier::avx2, std::memory_order_relaxed);
      g_fast_math.store(true, std::memory_order_relaxed);
      break;
    case Mode::auto_detect:
      g_tier.store(avx2_available() ? Tier::avx2 : Tier::scalar,
                   std::memory_order_relaxed);
      g_fast_math.store(false, std::memory_order_relaxed);
      break;
  }
}

/// The DDC_SIMD environment variable is a soft default: read once,
/// unrecognized values mean auto, and an avx2 request on a host without
/// AVX2 degrades to auto instead of erroring (only configure(), i.e.
/// the --simd flag, is strict).
void apply_env_default() noexcept {
  Mode mode = Mode::auto_detect;
  if (const char* env = std::getenv("DDC_SIMD")) {
    if (const auto parsed = parse_mode(env)) mode = *parsed;
  }
  if (mode == Mode::avx2 && !avx2_available()) mode = Mode::auto_detect;
  apply(mode);
}

void ensure_default() noexcept {
  std::call_once(g_env_default_once, apply_env_default);
}

}  // namespace

bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool compiled_with_avx2() noexcept {
#if defined(DDC_LINALG_HAVE_AVX2_TU)
  return true;
#else
  return false;
#endif
}

void configure(Mode mode) {
  ensure_default();
  if (mode == Mode::avx2 && !avx2_available()) {
    throw ConfigError(compiled_with_avx2()
                          ? "simd: avx2 requested but this CPU does not "
                            "report AVX2 (use --simd=auto or --simd=scalar)"
                          : "simd: avx2 requested but this binary was built "
                            "without the AVX2 kernels (use --simd=auto or "
                            "--simd=scalar)");
  }
  apply(mode);
}

Tier dispatch() noexcept {
  ensure_default();
  return g_tier.load(std::memory_order_relaxed);
}

bool fast_math_enabled() noexcept {
  ensure_default();
  return g_fast_math.load(std::memory_order_relaxed);
}

std::optional<Mode> parse_mode(std::string_view text) noexcept {
  if (text == "auto") return Mode::auto_detect;
  if (text == "scalar") return Mode::scalar;
  if (text == "avx2") return Mode::avx2;
  return std::nullopt;
}

const char* mode_name(Mode mode) noexcept {
  switch (mode) {
    case Mode::auto_detect:
      return "auto";
    case Mode::scalar:
      return "scalar";
    case Mode::avx2:
      return "avx2";
  }
  return "auto";
}

const char* tier_name(Tier tier) noexcept {
  return tier == Tier::avx2 ? "avx2" : "scalar";
}

ScoreBatchFn batch_score_kernel() noexcept {
  if (dispatch() == Tier::avx2) {
#if defined(DDC_LINALG_HAVE_AVX2_TU)
    if (g_fast_math.load(std::memory_order_relaxed)) {
      return &detail::score_batch_avx2_fastmath;  // ddcverify: allow(float-reorder) explicit fast-math tier selection; only reachable via Mode::avx2 opt-in
    }
    return &detail::score_batch_avx2_lanewise;
#endif
  }
  return &score_batch_scalar;
}

ScoreBatchFn scalar_score_kernel() noexcept { return &score_batch_scalar; }

ScoreBatchFn avx2_lanewise_score_kernel() noexcept {
#if defined(DDC_LINALG_HAVE_AVX2_TU)
  return &detail::score_batch_avx2_lanewise;
#else
  return nullptr;
#endif
}

ScoreBatchFn fast_math_score_kernel() noexcept {
#if defined(DDC_LINALG_HAVE_AVX2_TU)
  return &detail::score_batch_avx2_fastmath;  // ddcverify: allow(float-reorder) accessor for the error-bound tests; off the default path
#else
  return nullptr;
#endif
}

DistanceBatchFn batch_distance_kernel() noexcept {
  if (dispatch() == Tier::avx2) {
#if defined(DDC_LINALG_HAVE_AVX2_TU)
    // No fast-math variant: distances feed the centroid goldens, so the
    // lanewise (bit-exact) kernel is the only vector tier.
    return &detail::distance_batch_avx2_lanewise;
#endif
  }
  return &distance_batch_scalar;
}

DistanceBatchFn scalar_distance_kernel() noexcept {
  return &distance_batch_scalar;
}

DistanceBatchFn avx2_lanewise_distance_kernel() noexcept {
#if defined(DDC_LINALG_HAVE_AVX2_TU)
  return &detail::distance_batch_avx2_lanewise;
#else
  return nullptr;
#endif
}

}  // namespace ddc::linalg::simd
