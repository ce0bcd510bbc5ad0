// Counting replacement of the global allocation functions, linked into
// the traced program only (see CMakeLists.txt). Every operator new form
// funnels into one malloc-backed allocator that bumps per-thread
// counters; the matching operator delete forms release with free.
#include "alloc_counter.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

// One counter slot per thread, each on its own cache line and written
// only by its owner, so counting costs two uncontended stores per
// allocation. Threads beyond kSlots share the last slot through atomic
// adds. Slots outlive their threads, so no count is ever lost.
constexpr std::size_t kSlots = 256;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> allocations{0};
  std::atomic<std::uint64_t> bytes{0};
};

Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
thread_local std::size_t t_slot = kSlots;  // kSlots = not claimed yet

void count(std::size_t size) noexcept {
  if (t_slot == kSlots) {
    t_slot = std::min(g_next_slot.fetch_add(1, std::memory_order_relaxed),
                      kSlots - 1);
  }
  Slot& slot = g_slots[t_slot];
  if (t_slot == kSlots - 1) {
    slot.allocations.fetch_add(1, std::memory_order_relaxed);
    slot.bytes.fetch_add(size, std::memory_order_relaxed);
    return;
  }
  slot.allocations.store(
      slot.allocations.load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  slot.bytes.store(slot.bytes.load(std::memory_order_relaxed) + size,
                   std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size, std::size_t alignment) noexcept {
  count(size);
  if (size == 0) size = 1;
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
}

void* counted_alloc_or_throw(std::size_t size, std::size_t alignment) {
  void* p = counted_alloc(size, alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace ddc_tte {

AllocCounts alloc_counts() noexcept {
  AllocCounts total;
  for (const Slot& slot : g_slots) {
    total.allocations += slot.allocations.load(std::memory_order_relaxed);
    total.bytes += slot.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace ddc_tte

void* operator new(std::size_t size) {
  return counted_alloc_or_throw(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc_or_throw(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
