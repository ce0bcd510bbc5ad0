// Process-wide allocation counters, defined by alloc_counter.cpp. Only
// the traced program links that file; the untraced program never calls
// alloc_counts() (its call sites sit in discarded `if constexpr`
// branches), so it needs no definition.
#pragma once

#include <cstdint>

namespace ddc_tte {

struct AllocCounts {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

/// Calls to any operator new form since process start, and bytes asked.
[[nodiscard]] AllocCounts alloc_counts() noexcept;

}  // namespace ddc_tte
