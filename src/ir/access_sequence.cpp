#include "ir/access_sequence.hpp"

namespace dspaddr::ir {

AccessSequence::AccessSequence(std::vector<Access> accesses)
    : accesses_(std::move(accesses)) {}

AccessSequence AccessSequence::from_offsets(
    const std::vector<std::int64_t>& offsets, std::int64_t stride) {
  std::vector<Access> accesses;
  accesses.reserve(offsets.size());
  for (std::int64_t offset : offsets) {
    accesses.push_back(Access{offset, stride});
  }
  return AccessSequence(std::move(accesses));
}

}  // namespace dspaddr::ir
