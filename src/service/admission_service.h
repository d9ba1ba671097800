// Copyright 2026 The streambid Authors
// The admission service: a request/response facade over the auction
// mechanisms. Instead of looking up a Mechanism, seeding an Rng, and
// assembling metrics by hand, callers submit an AdmissionRequest and get
// back an AdmissionResponse carrying the allocation (which names its
// mechanism and capacity), the §VI metrics and the mechanism's wall
// clock. The service owns the mechanism registry and derives a
// deterministic, independent RNG stream per request from
// (seed, request_index), so any request is replayable in isolation —
// the property that makes batch sweeps, sharding, and async
// submission (see ROADMAP) safe to add behind this API.

#ifndef STREAMBID_SERVICE_ADMISSION_SERVICE_H_
#define STREAMBID_SERVICE_ADMISSION_SERVICE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "auction/allocation.h"
#include "auction/context.h"
#include "auction/instance.h"
#include "auction/mechanism.h"
#include "auction/metrics.h"
#include "common/status.h"

namespace streambid::telemetry {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace streambid::telemetry

namespace streambid::service {

/// Per-request knobs.
struct AdmissionOptions {
  /// Compute the §VI AllocationMetrics for the response. Turn off on
  /// hot paths that only need the allocation (e.g. the gametheory
  /// deviation sweeps, which run thousands of auctions per report).
  bool compute_metrics = true;
  /// Re-verify feasibility of the returned allocation (used capacity
  /// within bounds, rejected queries pay zero). A violation is a
  /// mechanism bug and fails the request with kInternal.
  bool check_feasibility = false;
};

/// One admission auction to run. The instance is borrowed and must
/// outlive the call; instances are immutable, so one instance may back
/// many concurrent requests.
struct AdmissionRequest {
  const auction::AuctionInstance* instance = nullptr;
  double capacity = 0.0;
  std::string mechanism;        ///< Registry name, e.g. "cat", "two-price".
  uint64_t seed = 0;            ///< Base seed for randomized mechanisms.
  uint32_t request_index = 0;   ///< Distinguishes replicas under one seed
                                ///< (e.g. trial number in a sweep).
  AdmissionOptions options;
};

/// The outcome of one admission auction.
struct AdmissionResponse {
  auction::Allocation allocation;
  /// Zero-initialized unless options.compute_metrics.
  auction::AllocationMetrics metrics;
  double elapsed_ms = 0.0;  ///< Mechanism wall clock.
};

/// Request/response admission endpoint. Owns one instance of every
/// registered mechanism and a reusable AuctionContext (scratch arena),
/// so steady-state requests run allocation-free in the greedy paths.
/// Not thread-safe: shard one service per thread.
class AdmissionService {
 public:
  AdmissionService();

  /// Runs one admission auction. Errors:
  /// - kInvalidArgument: null instance, or negative or non-finite
  ///   capacity;
  /// - kNotFound: unknown mechanism name;
  /// - kInternal: feasibility check requested and failed.
  Result<AdmissionResponse> Admit(const AdmissionRequest& request);

  /// Runs a batch of requests — the sweep shape of the benches
  /// (mechanisms x capacities x trials in one call). All requests are
  /// validated up front, so a bad request fails the batch before any
  /// auction runs; responses are positionally aligned with requests.
  /// Each request still gets its own (seed, request_index) RNG stream,
  /// so AdmitBatch({r}) and Admit(r) are byte-identical — the
  /// determinism contract that will let this loop go parallel without
  /// changing results.
  Result<std::vector<AdmissionResponse>> AdmitBatch(
      const std::vector<AdmissionRequest>& requests);

  /// Convenience: one auction per registered mechanism (registry
  /// order), all at the same capacity and seed.
  Result<std::vector<AdmissionResponse>> AdmitAll(
      const auction::AuctionInstance& instance, double capacity,
      uint64_t seed = 0, const AdmissionOptions& options = {});

  /// Registered mechanism names, in the paper's presentation order.
  const std::vector<std::string>& MechanismNames() const {
    return names_;
  }

  bool HasMechanism(std::string_view name) const;

  /// Checks a request without running it: kInvalidArgument for a null
  /// instance or a negative or non-finite capacity, kNotFound for an
  /// unknown mechanism.
  /// Admit/AdmitBatch validate internally; this is exposed so callers
  /// that queue requests for later can fail fast at enqueue time with
  /// the same errors the serial path would produce.
  Status Validate(const AdmissionRequest& request) const;

  /// Claimed Table-I properties of a registered mechanism; kNotFound
  /// for unknown names.
  Result<auction::MechanismProperties> Properties(
      std::string_view name) const;

  /// The deterministic RNG stream id used for (seed, request_index) —
  /// exposed so tests and replay tooling can reproduce a request's
  /// stream without a service instance.
  static uint64_t DeriveStreamSeed(uint64_t seed, uint32_t request_index);

  /// Wires the service to a telemetry registry: every executed request
  /// increments service_admissions and records its mechanism wall clock
  /// into service_admit_latency. Null (the default) disables both at
  /// zero cost. Many services may share one registry — the instruments
  /// are sharded internally. The registry must outlive the service.
  void set_metrics(telemetry::MetricsRegistry* metrics);

 private:
  /// Transparent hashing so name lookups take string_view without a
  /// temporary std::string — Admit sits on harness hot paths.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  const auction::Mechanism* Find(std::string_view name) const;
  /// Runs a validated request against its resolved mechanism,
  /// including the optional feasibility re-check.
  Result<AdmissionResponse> Execute(const AdmissionRequest& request,
                                    const auction::Mechanism& mechanism);

  std::vector<auction::MechanismPtr> mechanisms_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, const auction::Mechanism*, StringHash,
                     std::equal_to<>>
      index_;
  auction::AuctionContext context_;  ///< Reseeded per request.
  /// Telemetry instruments; null unless set_metrics wired a registry.
  telemetry::Counter* admissions_metric_ = nullptr;
  telemetry::Histogram* admit_latency_metric_ = nullptr;
};

}  // namespace streambid::service

#endif  // STREAMBID_SERVICE_ADMISSION_SERVICE_H_
