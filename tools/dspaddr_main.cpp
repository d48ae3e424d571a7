// Entry point of the dspaddr command-line tool.
#include <iostream>
#include <string>
#include <vector>

#include "cli/app.hpp"

int main(int argc, char** argv) {
  // The standard streams bypass C stdio (nothing here writes through
  // it), so a line read or written costs a buffer copy rather than a
  // locked stdio call. Unsynced, they lose the standard's guarantee
  // against data races, so cin must not be tied to cout either: serve
  // reads cin on one thread while another writes cout, and a tied cin
  // would flush cout from the reading thread.
  std::ios::sync_with_stdio(false);
  std::cin.tie(nullptr);
  const std::vector<std::string> args(argv + 1, argv + argc);
  return dspaddr::cli::run_cli(args, std::cout, std::cerr);
}
