#include "sim/fault_injector.hpp"

#include <algorithm>

namespace rvcap::sim {

namespace fault_sites {

const std::vector<std::string_view>& all() {
  // Lexicographically sorted so fire_report() order matches.
  static const std::vector<std::string_view> kAll = {
      kDmaMm2sEarlyIoc, kDmaMm2sSlvErr,    kDmaMm2sStall,
      kIcapCrcCorrupt,  kIcapSyncLoss,     kJournalCorrupt,
      kNetCorrupt,      kNetDrop,          kNetDup,
      kNetReorder,      kNetServerStall,   kPowerLoss,
      kSdReadCrc,       kSdReadToken,      kSdWriteTorn,
      kSeuUpset,        kSlotCaptureTorn,  kSlotRestoreStale,
      kSlotSwapStall,   kStageBitFlip,
  };
  return kAll;
}

bool is_canonical(std::string_view name) {
  const auto& reg = all();
  return std::binary_search(reg.begin(), reg.end(), name);
}

}  // namespace fault_sites

FaultInjector::Site& FaultInjector::site(std::string_view name) {
  auto it = sites_.find(name);
  if (it == sites_.end()) {
    Site s;
    // Independent decision/parameter streams per site, derived from the
    // global seed and the site name so cross-site query interleaving
    // cannot perturb a site's sequence.
    const u64 h = fnv1a(name);
    s.decide = SplitMix64(seed_ ^ h);
    s.aux = SplitMix64(seed_ ^ (h * 0x9E3779B97F4A7C15ULL + 1));
    it = sites_.emplace(std::string(name), s).first;
    ++epoch_;
  }
  return it->second;
}

Status FaultInjector::arm(std::string_view name, const Plan& plan) {
  if (!known(name)) return Status::kNotFound;
  Site& s = site(name);
  s.plan = plan;
  s.armed = true;
  s.fired = 0;
  s.skipped = 0;
  return Status::kOk;
}

void FaultInjector::disarm(std::string_view name) {
  auto it = sites_.find(name);
  if (it != sites_.end()) it->second.armed = false;
}

void FaultInjector::disarm_all() {
  for (auto& [name, s] : sites_) s.armed = false;
}

bool FaultInjector::should_fire(std::string_view name) {
  auto it = sites_.find(name);
  if (it == sites_.end()) return false;  // never queried while armed
  return fire(it->second);
}

bool FaultInjector::should_fire(SiteRef& ref) {
  if (ref.owner != this || ref.epoch != epoch_) {
    const auto it = sites_.find(ref.name);
    ref.site = it == sites_.end() ? nullptr : &it->second;
    ref.owner = this;
    ref.epoch = epoch_;
  }
  return ref.site != nullptr && fire(*ref.site);
}

bool FaultInjector::fire(Site& s) {
  s.queries++;
  if (!s.armed) return false;
  if (s.plan.count != 0 && s.fired >= s.plan.count) return false;
  if (s.skipped < s.plan.skip) {
    s.skipped++;
    return false;
  }
  bool fire = true;
  if (s.plan.probability < 1.0) fire = s.decide.next_double() < s.plan.probability;
  if (fire) {
    s.fired++;
    s.fires++;
  }
  return fire;
}

u64 FaultInjector::value(std::string_view name, u64 bound) {
  if (bound == 0) return 0;
  return site(name).aux.next_below(bound);
}

u64 FaultInjector::fires(std::string_view name) const {
  auto it = sites_.find(name);
  return it == sites_.end() ? 0 : it->second.fires;
}

u64 FaultInjector::queries(std::string_view name) const {
  auto it = sites_.find(name);
  return it == sites_.end() ? 0 : it->second.queries;
}

u64 FaultInjector::total_fires() const {
  u64 n = 0;
  for (const auto& [name, s] : sites_) n += s.fires;
  return n;
}

std::vector<std::pair<std::string, u64>> FaultInjector::fire_report() const {
  std::vector<std::pair<std::string, u64>> out;
  out.reserve(sites_.size());
  for (const auto& [name, s] : sites_) out.emplace_back(name, s.fires);
  return out;
}

}  // namespace rvcap::sim
