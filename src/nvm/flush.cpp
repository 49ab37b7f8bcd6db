#include "nvm/flush.hpp"

#include <atomic>
#include <cstdint>

#include "common/align.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define ADCC_X86 1
#else
#define ADCC_X86 0
#endif

namespace adcc::nvm {

bool native_flush_available() { return ADCC_X86 != 0; }

namespace {

#if ADCC_X86
struct FlushSupport {
  bool clwb;
  bool clflushopt;
};

// Probed on first use, not at namespace scope: a static initializer in this
// translation unit could run before libgcc has filled in its CPU model.
const FlushSupport& flush_support() {
  static const FlushSupport s = [] {
    __builtin_cpu_init();
    return FlushSupport{__builtin_cpu_supports("clwb") != 0,
                        __builtin_cpu_supports("clflushopt") != 0};
  }();
  return s;
}

// One loop per instruction over the line addresses [first, last]; the target
// attribute lets the intrinsic compile without raising the build's -march.
void clflush_lines(std::uintptr_t first, std::uintptr_t last) {
  for (std::uintptr_t line = first; line <= last; line += kCacheLine) {
    _mm_clflush(reinterpret_cast<const void*>(line));
  }
}

__attribute__((target("clflushopt"))) void clflushopt_lines(std::uintptr_t first,
                                                             std::uintptr_t last) {
  for (std::uintptr_t line = first; line <= last; line += kCacheLine) {
    _mm_clflushopt(reinterpret_cast<void*>(line));
  }
}

__attribute__((target("clwb"))) void clwb_lines(std::uintptr_t first, std::uintptr_t last) {
  for (std::uintptr_t line = first; line <= last; line += kCacheLine) {
    _mm_clwb(reinterpret_cast<void*>(line));
  }
}
#endif

}  // namespace

FlushInstruction effective_flush_instruction(FlushInstruction ins) {
#if ADCC_X86
  const FlushSupport& s = flush_support();
  if (ins == FlushInstruction::kClwb && s.clwb) return FlushInstruction::kClwb;
  if (ins != FlushInstruction::kClflush && s.clflushopt) return FlushInstruction::kClflushopt;
#else
  (void)ins;
#endif
  return FlushInstruction::kClflush;
}

void flush_range(const void* p, std::size_t bytes, FlushInstruction ins) {
  if (bytes == 0) return;
#if ADCC_X86
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = addr & ~static_cast<std::uintptr_t>(kCacheLine - 1);
  const std::uintptr_t last = (addr + bytes - 1) & ~static_cast<std::uintptr_t>(kCacheLine - 1);
  switch (effective_flush_instruction(ins)) {
    case FlushInstruction::kClflush:
      clflush_lines(first, last);
      break;
    case FlushInstruction::kClflushopt:
      clflushopt_lines(first, last);
      break;
    case FlushInstruction::kClwb:
      clwb_lines(first, last);
      break;
  }
#else
  (void)p;
  (void)ins;
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

void store_fence() {
#if ADCC_X86
  _mm_sfence();
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

std::size_t flush_line_count(const void* p, std::size_t bytes) {
  return lines_spanned(p, bytes);
}

}  // namespace adcc::nvm
