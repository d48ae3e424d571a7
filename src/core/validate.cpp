#include "core/validate.hpp"

#include <algorithm>

#include "core/bounds.hpp"
#include "support/check.hpp"

namespace dspaddr::core {

void validate_allocation(const ir::AccessSequence& seq,
                         const std::vector<Path>& paths,
                         std::size_t register_limit) {
  check_invariant(paths.size() <= register_limit,
                  "allocation: register limit exceeded");
  std::vector<std::size_t> appearances(seq.size(), 0);
  for (const Path& path : paths) {
    check_invariant(!path.empty(), "allocation: empty path");
    for (std::size_t i = 0; i < path.size(); ++i) {
      check_invariant(path[i] < seq.size(),
                      "allocation: access index out of range");
      ++appearances[path[i]];
      if (i + 1 < path.size()) {
        check_invariant(path[i] < path[i + 1],
                        "allocation: path order violated");
      }
    }
  }
  check_invariant(
      std::all_of(appearances.begin(), appearances.end(),
                  [](std::size_t c) { return c == 1; }),
      "allocation: every access must be covered exactly once");
}

void validate_path_cover(const SuffixBounds& costs,
                         const std::vector<Path>& cover) {
  validate_allocation(costs.sequence(), cover, cover.size());
  for (const Path& path : cover) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      check_invariant(costs.intra_cost(path[i], path[i + 1]) == 0,
                      "path cover: consecutive pair is not a free edge");
    }
  }
}

}  // namespace dspaddr::core
