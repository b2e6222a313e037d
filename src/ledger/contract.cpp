#include "ledger/contract.hpp"

#include <algorithm>
#include <vector>

#include "auction/resource.hpp"

namespace decloud::ledger {

namespace {

// The reputation system's factors (Section III-B).  Every miner stamps
// requests from the registry, so these are consensus constants.
constexpr double kInitialScore = 1.0;
constexpr double kMaxScore = 1.0;
constexpr double kDenialFactor = 0.8;
constexpr double kRecovery = 0.05;
constexpr double kWithholdFactor = 0.5;

}  // namespace

void ReputationRegistry::record_accept(ClientId client) {
  auto& e = entries_.try_emplace(client, Entry{kInitialScore}).first->second;
  e.denial_streak = 0;
  e.score = std::min(kMaxScore, e.score + kRecovery);
}

void ReputationRegistry::record_deny(ClientId client) {
  auto& e = entries_.try_emplace(client, Entry{kInitialScore}).first->second;
  ++e.denial_streak;
  // Successive rejections bite harder: the factor applies once per streak
  // step, so two denials in a row cost factor², three cost factor³, …
  for (std::size_t i = 0; i < e.denial_streak; ++i) e.score *= kDenialFactor;
}

void ReputationRegistry::record_withhold(ClientId client) {
  auto& e = entries_.try_emplace(client, Entry{kInitialScore}).first->second;
  e.score *= kWithholdFactor;
}

double ReputationRegistry::score(ClientId client) const {
  const auto it = entries_.find(client);
  return it == entries_.end() ? kInitialScore : it->second.score;
}

std::size_t ReputationRegistry::consecutive_denials(ClientId client) const {
  const auto it = entries_.find(client);
  return it == entries_.end() ? 0 : it->second.denial_streak;
}

std::vector<ContractId> AgreementContract::register_allocation(
    std::uint64_t block_height, const auction::MarketSnapshot& snapshot,
    const auction::RoundResult& result, std::optional<auction::ResourceId> tee_resource) {
  std::vector<ContractId> ids;
  ids.reserve(result.matches.size());
  for (std::size_t i = 0; i < result.matches.size(); ++i) {
    const auction::Match& m = result.matches[i];
    const auction::Request& r = snapshot.requests[m.request];
    Agreement a;
    a.id = ContractId(next_id_++);
    a.block_height = block_height;
    a.match_index = i;
    a.client = r.client;
    a.provider = snapshot.offers[m.offer].provider;
    a.payment = m.payment;
    a.requires_tee =
        tee_resource.has_value() && r.resources.get(*tee_resource) > 0.0;
    agreements_.emplace(a.id, a);
    ids.push_back(a.id);
  }
  return ids;
}

Agreement* AgreementContract::lookup(ContractId id) {
  const auto it = agreements_.find(id);
  return it == agreements_.end() ? nullptr : &it->second;
}

bool AgreementContract::accept(ContractId id, ClientId caller) {
  Agreement* a = lookup(id);
  if (a == nullptr || a->client != caller || a->state != AgreementState::kProposed) return false;
  a->state = AgreementState::kActive;
  reputation_.record_accept(caller);
  return true;
}

bool AgreementContract::deny(ContractId id, ClientId caller) {
  Agreement* a = lookup(id);
  if (a == nullptr || a->client != caller || a->state != AgreementState::kProposed) return false;
  a->state = AgreementState::kDenied;
  reputation_.record_deny(caller);
  return true;
}

bool AgreementContract::complete(ContractId id, ProviderId caller) {
  Agreement* a = lookup(id);
  if (a == nullptr || a->provider != caller || a->state != AgreementState::kActive) return false;
  a->state = AgreementState::kCompleted;
  return true;
}

std::optional<Agreement> AgreementContract::find(ContractId id) const {
  const auto it = agreements_.find(id);
  if (it == agreements_.end()) return std::nullopt;
  return it->second;
}

}  // namespace decloud::ledger
