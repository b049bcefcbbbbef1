// "Special Apps" detection (§IV-C.2).
//
// Special apps are the apps "used at least once along with network
// activities" in the training history — the small set whose foreground
// appearance reliably signals a user-driven network need. The real-time
// adjustment layer powers the radio on when one of them comes to the
// foreground outside predicted slots. Newly-installed (never-seen) apps
// default to special, matching the paper's conservative rule.
#pragma once

#include <vector>

#include "trace/trace.hpp"

namespace netmaster::mining {

class SpecialApps {
 public:
  /// Detects special apps from a training trace.
  static SpecialApps detect(const UserTrace& history);

  /// The special apps of per-app evidence (equal sizes, one flag per
  /// app): app i is special when it was both used and networked. The
  /// tail of detect(), shared with mining::mine_habits, which gathers
  /// the evidence in its own pass over the trace.
  static SpecialApps from_evidence(const std::vector<bool>& used,
                                   const std::vector<bool>& networked);

  /// True for special apps; also true for app ids beyond the training
  /// population (newly installed apps are special until observed).
  bool is_special(AppId app) const;

  /// Number of detected special apps (the paper's "8 out of 23").
  std::size_t count() const;

  const std::vector<bool>& flags() const { return special_; }

 private:
  std::vector<bool> special_;
};

}  // namespace netmaster::mining
