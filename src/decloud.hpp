// Umbrella header: the full DeCloud public API in one include.
//
//   #include "decloud.hpp"
//
// Fine-grained headers remain the preferred include style inside the
// library itself (SF.10/SF.11); the umbrella exists for application code
// and quick experiments.
#pragma once

// Foundations
#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

// The auction mechanism (the paper's contribution)
#include "auction/allocation.hpp"
#include "auction/bid.hpp"
#include "auction/config.hpp"
#include "auction/feasibility.hpp"
#include "auction/mcafee.hpp"
#include "auction/mechanism.hpp"
#include "auction/qom.hpp"
#include "auction/resource.hpp"
#include "auction/verify.hpp"

// Workload generation and trace handling
#include "trace/ec2_catalog.hpp"
#include "trace/google_csv.hpp"
#include "trace/google_trace.hpp"
#include "trace/kl_shaper.hpp"
#include "trace/workload.hpp"

// The distributed ledger and the two-phase bid exposure protocol
#include "ledger/block.hpp"
#include "ledger/codec.hpp"
#include "ledger/contract.hpp"
#include "ledger/market.hpp"
#include "ledger/miner.hpp"
#include "ledger/participant.hpp"
#include "ledger/protocol.hpp"
#include "ledger/sealed_bid.hpp"

// Network simulation
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/simulation.hpp"
