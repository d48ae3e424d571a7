// Structural validation of allocations (post-conditions of the
// allocator, also used directly by tests and failure-injection checks).
#pragma once

#include <cstddef>
#include <vector>

#include "core/path.hpp"
#include "ir/access_sequence.hpp"

namespace dspaddr::core {

class SuffixBounds;

/// Checks that `paths` is a partition of the access sequence into
/// order-preserving subsequences with at most `register_limit` parts:
///  * every access index in [0, seq.size()) appears in exactly one path,
///  * indices inside each path are strictly increasing,
///  * no path is empty and paths.size() <= register_limit.
/// Throws InvariantViolation on the first violation.
void validate_allocation(const ir::AccessSequence& seq,
                         const std::vector<Path>& paths,
                         std::size_t register_limit);

/// Checks that `cover` partitions the table's sequence (as
/// validate_allocation does, with no register limit) into paths whose
/// consecutive accesses are all free intra edges. Throws
/// InvariantViolation on the first violation.
void validate_path_cover(const SuffixBounds& costs,
                         const std::vector<Path>& cover);

}  // namespace dspaddr::core
