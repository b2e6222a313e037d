#include "auction/resource.hpp"

#include <algorithm>
#include <cmath>

#include "common/ensure.hpp"

namespace decloud::auction {

ResourceSchema::ResourceSchema() {
  const ResourceId cpu = interner_.intern("cpu");
  const ResourceId mem = interner_.intern("memory");
  const ResourceId disk = interner_.intern("disk");
  DECLOUD_ENSURES(cpu == kCpu && mem == kMemory && disk == kDisk);
}

ResourceId ResourceSchema::intern(std::string_view name) { return interner_.intern(name); }

std::optional<ResourceId> ResourceSchema::find(std::string_view name) const {
  const auto idx = interner_.find(name);
  if (idx == Interner::npos) return std::nullopt;
  return idx;
}

const std::string& ResourceSchema::name(ResourceId id) const { return interner_.name(id); }

ResourceVector::ResourceVector(std::vector<ResourceAmount> entries) : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const ResourceAmount& a, const ResourceAmount& b) { return a.type < b.type; });
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    DECLOUD_EXPECTS_MSG(std::isfinite(entries_[i].amount) && entries_[i].amount >= 0.0,
                        "resource amounts must be finite and non-negative");
    if (i > 0) DECLOUD_EXPECTS_MSG(entries_[i].type != entries_[i - 1].type, "duplicate resource type");
  }
}

void ResourceVector::set(ResourceId type, double amount) {
  DECLOUD_EXPECTS_MSG(std::isfinite(amount) && amount >= 0.0,
                      "resource amounts must be finite and non-negative");
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), type,
      [](const ResourceAmount& e, ResourceId t) { return e.type < t; });
  if (it != entries_.end() && it->type == type) {
    it->amount = amount;
  } else {
    entries_.insert(it, {type, amount});
  }
}

double ResourceVector::get(ResourceId type) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), type,
      [](const ResourceAmount& e, ResourceId t) { return e.type < t; });
  return (it != entries_.end() && it->type == type) ? it->amount : 0.0;
}

bool ResourceVector::has(ResourceId type) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), type,
      [](const ResourceAmount& e, ResourceId t) { return e.type < t; });
  return it != entries_.end() && it->type == type;
}

double ResourceVector::norm2() const {
  double sum = 0.0;
  for (const auto& e : entries_) sum += e.amount * e.amount;
  return std::sqrt(sum);
}

std::vector<ResourceId> ResourceVector::types() const {
  std::vector<ResourceId> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.type);
  return out;
}

std::vector<ResourceId> common_types(const ResourceVector& a, const ResourceVector& b) {
  const auto ta = a.types();
  const auto tb = b.types();
  return intersect_types(ta, tb);
}

std::vector<ResourceId> union_types(std::span<const ResourceId> a, std::span<const ResourceId> b) {
  std::vector<ResourceId> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

std::vector<ResourceId> intersect_types(std::span<const ResourceId> a,
                                        std::span<const ResourceId> b) {
  std::vector<ResourceId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

}  // namespace decloud::auction
