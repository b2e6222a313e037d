#include "ledger/contract.hpp"

#include <algorithm>
#include <vector>

#include "auction/resource.hpp"
#include "common/map_util.hpp"

namespace decloud::ledger {

void ReputationRegistry::record_accept(ClientId client) {
  auto& e = entries_.try_emplace(client, Entry{config_.initial}).first->second;
  e.denial_streak = 0;
  e.score = std::min(config_.max_score, e.score + config_.recovery);
}

void ReputationRegistry::record_deny(ClientId client) {
  auto& e = entries_.try_emplace(client, Entry{config_.initial}).first->second;
  ++e.denial_streak;
  // Successive rejections bite harder: the factor applies once per streak
  // step, so two denials in a row cost factor², three cost factor³, …
  for (std::size_t i = 0; i < e.denial_streak; ++i) e.score *= config_.denial_factor;
  if (e.score < 0.0) e.score = 0.0;
}

void ReputationRegistry::record_withhold(ClientId client) {
  auto& e = entries_.try_emplace(client, Entry{config_.initial}).first->second;
  e.score *= config_.withhold_factor;
  if (e.score < 0.0) e.score = 0.0;
}

double ReputationRegistry::score(ClientId client) const {
  const auto it = entries_.find(client);
  return it == entries_.end() ? config_.initial : it->second.score;
}

std::size_t ReputationRegistry::consecutive_denials(ClientId client) const {
  const auto it = entries_.find(client);
  return it == entries_.end() ? 0 : it->second.denial_streak;
}

void stamp_reputation(auction::MarketSnapshot& snapshot, const ReputationRegistry& registry) {
  for (auto& r : snapshot.requests) r.reputation = registry.score(r.client);
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

void ReputationRegistry::encode_state(ByteWriter& w) const {
  const std::vector<ClientId> keys =
      sorted_keys(entries_, [](ClientId a, ClientId b) { return a.value() < b.value(); });
  w.write_u64(keys.size());
  for (const ClientId client : keys) {
    const Entry& e = entries_.at(client);
    w.write_u64(client.value());
    w.write_double(e.score);
    w.write_u64(e.denial_streak);
  }
}

void ReputationRegistry::restore_state(ByteReader& r) {
  entries_.clear();
  const std::uint64_t count = r.read_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const ClientId client(r.read_u64());
    Entry e{.score = r.read_double(),
            .denial_streak = static_cast<std::size_t>(r.read_u64())};
    entries_.emplace(client, e);
  }
}

void AgreementContract::encode_state(ByteWriter& w) const {
  const std::vector<ContractId> ids =
      sorted_keys(agreements_, [](ContractId a, ContractId b) { return a.value() < b.value(); });
  w.write_u64(ids.size());
  for (const ContractId id : ids) {
    const Agreement& a = agreements_.at(id);
    w.write_u64(a.id.value());
    w.write_u64(a.block_height);
    w.write_u64(a.match_index);
    w.write_u64(a.client.value());
    w.write_u64(a.provider.value());
    w.write_double(a.payment);
    w.write_u8(a.requires_tee ? 1 : 0);
    w.write_u8(static_cast<std::uint8_t>(a.state));
  }
  w.write_u64(next_id_);
  reputation_.encode_state(w);
}

void AgreementContract::restore_state(ByteReader& r) {
  agreements_.clear();
  const std::uint64_t num_agreements = r.read_u64();
  for (std::uint64_t i = 0; i < num_agreements; ++i) {
    Agreement a;
    a.id = ContractId(r.read_u64());
    a.block_height = r.read_u64();
    a.match_index = static_cast<std::size_t>(r.read_u64());
    a.client = ClientId(r.read_u64());
    a.provider = ProviderId(r.read_u64());
    a.payment = r.read_double();
    a.requires_tee = r.read_u8() != 0;
    a.state = static_cast<AgreementState>(r.read_u8());
    agreements_.emplace(a.id, a);
  }
  next_id_ = r.read_u64();
  reputation_.restore_state(r);
}

}  // namespace decloud::ledger
