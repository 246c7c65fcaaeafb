// Process-wide heap allocation counter for tests that pin allocation
// counts. Linking alloc_counter.cpp into a test binary replaces the global
// operator new with a counting hook (the bench binaries' harness, reduced
// to what a test needs), so such a test gets its own executable.
#pragma once

#include <cstdint>

namespace netfail::testing_support {

/// Allocations so far, every thread. Take deltas around sections where
/// the other threads are idle.
std::uint64_t alloc_count();

}  // namespace netfail::testing_support
