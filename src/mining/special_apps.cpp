#include "mining/special_apps.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace netmaster::mining {

SpecialApps SpecialApps::detect(const UserTrace& history) {
  const std::size_t n = history.app_names.size();
  std::vector<bool> used(n, false);
  std::vector<bool> networked(n, false);
  // Tolerate corrupt ids (negative / past the app table): such records
  // simply contribute no evidence. Callers feeding raw monitoring data
  // must not crash the miner.
  for (const AppUsage& u : history.usages) {
    if (u.app >= 0 && static_cast<std::size_t>(u.app) < n) {
      used[static_cast<std::size_t>(u.app)] = true;
    }
  }
  for (const NetworkActivity& a : history.activities) {
    if (a.app >= 0 && static_cast<std::size_t>(a.app) < n) {
      networked[static_cast<std::size_t>(a.app)] = true;
    }
  }
  return from_evidence(used, networked);
}

SpecialApps SpecialApps::from_evidence(const std::vector<bool>& used,
                                       const std::vector<bool>& networked) {
  NM_REQUIRE(used.size() == networked.size(),
             "special-app evidence needs one flag per app");
  SpecialApps result;
  result.special_.resize(used.size());
  for (std::size_t i = 0; i < used.size(); ++i) {
    result.special_[i] = used[i] && networked[i];
  }
  return result;
}

bool SpecialApps::is_special(AppId app) const {
  if (app < 0) return false;
  const auto idx = static_cast<std::size_t>(app);
  if (idx >= special_.size()) return true;  // unseen app: conservative
  return special_[idx];
}

std::size_t SpecialApps::count() const {
  return static_cast<std::size_t>(
      std::count(special_.begin(), special_.end(), true));
}

}  // namespace netmaster::mining
