// Smart-contract agreements and the reputation system — Section III-B.
//
// After a block's allocation is accepted by the miners, clients enter
// agreements by calling the contract's `accept` method (or `deny` to
// refuse the suggested match, which costs the client reputation: "There
// is a reputational penalty for successive rejections of matches").  The
// provider's resubmission is the offer refund in
// MarketOrchestrator::deny_agreement.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "auction/allocation.hpp"
#include "common/types.hpp"

namespace decloud::ledger {

/// Lifecycle of one client↔provider agreement.
enum class AgreementState : std::uint8_t {
  kProposed,   ///< allocation suggested, awaiting the client's decision
  kActive,     ///< client accepted; container is to be executed
  kDenied,     ///< client denied; provider must resubmit its offer
  kCompleted,  ///< execution finished and payment settled
};

/// One agreement instance managed by the contract.
struct Agreement {
  ContractId id;
  std::uint64_t block_height = 0;  ///< block the allocation came from
  std::size_t match_index = 0;     ///< match row within that allocation
  ClientId client;
  ProviderId provider;
  Money payment = 0.0;
  /// The client demanded TEE-protected execution (Section II-D); recorded
  /// so the provider's runtime can be audited against it.
  bool requires_tee = false;
  AgreementState state = AgreementState::kProposed;
};

/// Tracks client reputation.  Scores start at 1.0; each denial multiplies
/// the score by 0.8 *per consecutive denial streak length* (successive
/// rejections hurt progressively), an accepted agreement resets the streak
/// and recovers 0.05 additively up to 1.0, and a withheld key reveal
/// halves the score.  The factors are constants of the deployment
/// (contract.cpp): every miner stamps requests from this registry, so the
/// factors are consensus state like ConsensusParams.
class ReputationRegistry {
 public:
  void record_accept(ClientId client);
  void record_deny(ClientId client);
  /// Withholding penalty: one multiplicative hit, no streak escalation
  /// (each round charges at most once per sender).  Harsher than one
  /// denial: withholding sabotages the whole round.
  void record_withhold(ClientId client);

  [[nodiscard]] double score(ClientId client) const;
  [[nodiscard]] std::size_t consecutive_denials(ClientId client) const;


 private:
  struct Entry {
    double score;
    std::size_t denial_streak = 0;
  };

  std::unordered_map<ClientId, Entry> entries_;
};

/// The DeCloud agreement contract.  One instance per deployment; holds the
/// agreements of all settled blocks.  Methods mirror the smart-contract
/// interface of the paper (`accept`, `deny`), including the on-chain checks
/// "that the allocation was generated, it is contained in the block that
/// the client references, and the client's ID is associated with the
/// particular provider".
class AgreementContract {
 public:
  /// Registers the allocation of a freshly accepted block, creating one
  /// Proposed agreement per match.  Returns the new contract ids, aligned
  /// with the matches.  `tee_resource` names the market's "sgx"/TEE
  /// resource type (if any): requests demanding it get requires_tee set on
  /// their agreement.
  std::vector<ContractId> register_allocation(
      std::uint64_t block_height, const auction::MarketSnapshot& snapshot,
      const auction::RoundResult& result,
      std::optional<auction::ResourceId> tee_resource = std::nullopt);

  /// The `accept` method.  Verifies the caller is the client of the
  /// referenced agreement and the agreement is still Proposed; activates
  /// it and records the acceptance in the reputation system.  Returns
  /// false (no state change) when any check fails.
  bool accept(ContractId id, ClientId caller);

  /// The `deny` method.  Same checks as accept; marks the agreement Denied
  /// and applies the reputational penalty.
  bool deny(ContractId id, ClientId caller);

  /// Marks an Active agreement Completed (called at the end of execution).
  bool complete(ContractId id, ProviderId caller);

  /// Debits `address` for withholding a key reveal (LedgerProtocol calls
  /// this with the sealed bid's ledger address — the plaintext identity of
  /// an unopened bid is unknowable by construction).
  void penalize_withhold(ClientId address) { reputation_.record_withhold(address); }

  [[nodiscard]] std::optional<Agreement> find(ContractId id) const;
  [[nodiscard]] const ReputationRegistry& reputation() const { return reputation_; }


 private:
  Agreement* lookup(ContractId id);

  std::unordered_map<ContractId, Agreement> agreements_;
  ReputationRegistry reputation_;
  std::uint64_t next_id_ = 1;
};

}  // namespace decloud::ledger
