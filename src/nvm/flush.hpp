// Native cache-flush and fence primitives (the persistence ISA extensions).
//
// The paper uses CLFLUSH, the most widely available flush instruction, and
// notes that CLFLUSHOPT/CLWB "should further improve performance". On x86-64
// flush_range emits the instruction it is asked for when the CPU has it and
// otherwise falls back CLWB → CLFLUSHOPT → CLFLUSH (support is probed once,
// on first use); effective_flush_instruction() reports what actually runs.
// Elsewhere a portable compiler-barrier fallback keeps the code path
// exercised (costs are then modelled purely by nvm::PerfModel).
#pragma once

#include <cstddef>

namespace adcc::nvm {

enum class FlushInstruction {
  kClflush,     ///< Serializing flush; the paper's instruction, runs everywhere.
  kClflushopt,  ///< Weakly-ordered flush: needs store_fence() to order it.
  kClwb,        ///< Weakly-ordered write-back that may keep the line cached.
};

/// True if this build can execute real flush instructions.
bool native_flush_available();

/// The instruction flush_range(…, `ins`) executes on this CPU after the
/// CLWB → CLFLUSHOPT → CLFLUSH fallback. kClflush always maps to itself, and
/// so does everything on a CPU without the CLWB/CLFLUSHOPT flags (or a
/// non-x86 build, which executes no flush at all).
FlushInstruction effective_flush_instruction(FlushInstruction ins);

/// Flushes every cache line overlapping [p, p+bytes) with
/// effective_flush_instruction(`ins`). The default is the serializing CLFLUSH;
/// callers requesting a weakly-ordered instruction must store_fence() before
/// any store that has to be ordered after the flushed data.
void flush_range(const void* p, std::size_t bytes, FlushInstruction ins = FlushInstruction::kClflush);

/// Store fence ordering flushed lines before subsequent stores.
void store_fence();

/// Number of cache lines flush_range would touch for [p, p+bytes).
std::size_t flush_line_count(const void* p, std::size_t bytes);

}  // namespace adcc::nvm
