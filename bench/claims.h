// The check half of an experiment binary.  Each E/A binary prints its
// tables and the paper's prediction for them, and checks that
// prediction on the values it tabulated (never on the printed text).  A
// failed check names its row on stderr and makes main() return 1, so
// `ctest -L claims` fails on any broken prediction.
#pragma once

#include <iostream>
#include <string>

namespace ds::bench {

class Claims {
 public:
  /// One prediction; `row` names the table row and what should hold.
  void expect(bool holds, const std::string& row) {
    if (holds) return;
    std::cerr << "claim failed: " << row << '\n';
    failed_ = true;
  }

  /// main()'s exit status: 0 iff every prediction held.
  [[nodiscard]] int exit_code() const noexcept { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

}  // namespace ds::bench
