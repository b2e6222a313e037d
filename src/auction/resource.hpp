// Resource types and resource vectors — the vocabulary of the bidding
// language (Section IV-B of the paper).
//
// A resource type k ∈ K can be anything: CPU cores, RAM, disk, but also
// generic edge properties such as network latency, reputation, or the
// presence of SGX.  Types are interned strings; a ResourceVector is a
// sparse, sorted list of (type, amount) pairs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.hpp"

namespace decloud::auction {

/// Dense handle for a resource type.
using ResourceId = std::uint32_t;

/// Registry of resource types for one market.  The three *critical*
/// resources of the paper (CPU, memory, disk — the ones that gate co-located
/// containers) are pre-registered at fixed indices.
class ResourceSchema {
 public:
  ResourceSchema();

  /// Well-known critical resources (Section IV-C, K_CR definition).
  static constexpr ResourceId kCpu = 0;
  static constexpr ResourceId kMemory = 1;
  static constexpr ResourceId kDisk = 2;

  /// Interns (or looks up) a resource type by name.
  ResourceId intern(std::string_view name);

  /// Looks up an existing type; returns nullopt if unknown.
  [[nodiscard]] std::optional<ResourceId> find(std::string_view name) const;

  [[nodiscard]] const std::string& name(ResourceId id) const;
  [[nodiscard]] std::size_t size() const { return interner_.size(); }

 private:
  Interner interner_;
};

/// One (type, amount) entry of a resource vector.
struct ResourceAmount {
  ResourceId type = 0;
  double amount = 0.0;

  friend bool operator==(const ResourceAmount&, const ResourceAmount&) = default;
};

/// A sparse resource vector ρ, sorted by type id.  Amounts are finite and
/// non-negative; a zero amount is allowed (it still declares the type).
class ResourceVector {
 public:
  ResourceVector() = default;
  /// Builds from entries; sorts and rejects duplicate types.
  explicit ResourceVector(std::vector<ResourceAmount> entries);

  /// Sets (or overwrites) the amount for a type.
  void set(ResourceId type, double amount);

  /// Amount for a type, or 0 if the type is absent.
  [[nodiscard]] double get(ResourceId type) const;

  /// True if the vector declares the type (even with amount 0).
  [[nodiscard]] bool has(ResourceId type) const;

  [[nodiscard]] const std::vector<ResourceAmount>& entries() const { return entries_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Euclidean norm ‖ρ‖₂ over all declared amounts.
  [[nodiscard]] double norm2() const;

  /// The set of declared types, sorted.
  [[nodiscard]] std::vector<ResourceId> types() const;

  friend bool operator==(const ResourceVector&, const ResourceVector&) = default;

 private:
  std::vector<ResourceAmount> entries_;
};

/// Sorted intersection of the type sets of two vectors: K_(r,o) = K_r ∩ K_o.
[[nodiscard]] std::vector<ResourceId> common_types(const ResourceVector& a,
                                                   const ResourceVector& b);

/// Sorted union of two sorted type-id sets.
[[nodiscard]] std::vector<ResourceId> union_types(std::span<const ResourceId> a,
                                                  std::span<const ResourceId> b);

/// Sorted intersection of two sorted type-id sets.
[[nodiscard]] std::vector<ResourceId> intersect_types(std::span<const ResourceId> a,
                                                      std::span<const ResourceId> b);

}  // namespace decloud::auction
