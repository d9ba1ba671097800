// Copyright 2026 The streambid Authors
// StreamIngress contract tests: granted submissions buffer and drain
// into real cluster periods, ticket-starved offers shed with the typed
// retry-after status, classes are isolated, tickets recycle across
// periods, drain-time cluster refusals are accounted as drops, and the
// throughput probe's decisions resize the pools. Also the backpressure
// contract: the gate's kResourceExhausted is the status the caller sees,
// distinguishable from a ticket pool's Acquire timeout, with the
// shedding accounted in the period report.

#include "gate/stream_ingress.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "service/gate_status.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"

namespace streambid::gate {
namespace {

using stream::QuerySubmission;

Status RegisterQuotes(stream::Engine& engine) {
  return engine.RegisterSource(stream::MakeStockQuoteSource(
      "quotes", {"IBM", "AAPL", "MSFT"}, 100.0, 11));
}

QuerySubmission MakeSubmission(int id, auction::UserId user, double bid,
                               double threshold) {
  stream::QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", stream::CompareOp::kGt,
                           stream::Value(threshold));
  QuerySubmission sub;
  sub.query_id = id;
  sub.user = user;
  sub.bid = bid;
  sub.plan = b.Build(sel);
  return sub;
}

/// A plan over a source no engine registered: routing succeeds but the
/// cluster's load estimate refuses it at drain time.
QuerySubmission MakeUnroutableSubmission(int id, auction::UserId user) {
  stream::QueryBuilder b;
  const int src = b.Source("no-such-source");
  QuerySubmission sub;
  sub.query_id = id;
  sub.user = user;
  sub.bid = 10.0;
  sub.plan = b.Build(src);
  return sub;
}

cluster::ClusterOptions BaseClusterOptions() {
  cluster::ClusterOptions options;
  options.num_shards = 2;
  options.total_capacity = 4.0;
  options.routing = cluster::RoutingPolicy::kHashUser;
  options.mechanism = "cat";
  options.period_length = 5.0;
  options.seed = 21;
  options.engine_options.tick = 1.0;
  options.engine_options.sink_history = 8;
  options.executor_threads = 2;
  return options;
}

TEST(StreamIngressTest, GrantsBufferAndDrainIntoClusterPeriod) {
  cluster::ClusterCenter center(BaseClusterOptions(), RegisterQuotes);
  IngressOptions options;
  options.tenant_classes = 1;
  options.tickets_per_class = 16;
  StreamIngress gate(&center, options);

  for (int id = 1; id <= 8; ++id) {
    ASSERT_TRUE(gate.Offer(MakeSubmission(id, id, 60.0 - 5.0 * id,
                                          100.0 + 5.0 * (id % 3)))
                    .ok());
  }
  EXPECT_EQ(gate.buffered(), 8);
  EXPECT_EQ(gate.pool(0).used(), 8);

  const auto gated = gate.ClosePeriod();
  ASSERT_TRUE(gated.ok());
  EXPECT_EQ(gated->report.submissions, 8);
  EXPECT_GT(gated->report.admitted, 0);
  EXPECT_EQ(gated->gate.offered, 8);
  EXPECT_EQ(gated->gate.admitted, 8);
  EXPECT_EQ(gated->gate.shed, 0);
  EXPECT_EQ(gated->gate.dropped, 0);
  EXPECT_FALSE(gated->probe.has_value());  // Probing off by default.
  ASSERT_EQ(gated->gate.pools.size(), 1u);
  EXPECT_EQ(gated->gate.pools[0].name, "cat/class0");
  EXPECT_EQ(gate.buffered(), 0);
  EXPECT_EQ(gate.pool(0).used(), 0);  // Tickets recycled at the drain.
}

TEST(StreamIngressTest, ShedsTicketStarvedOffersWithRetryAfterHint) {
  cluster::ClusterCenter center(BaseClusterOptions(), RegisterQuotes);
  IngressOptions options;
  options.tenant_classes = 1;
  options.tickets_per_class = 2;
  options.retry_after_periods = 2.5;
  StreamIngress gate(&center, options);

  int granted = 0;
  std::vector<Status> sheds;
  for (int id = 1; id <= 5; ++id) {
    const Status status =
        gate.Offer(MakeSubmission(id, id, 50.0, 102.0));
    if (status.ok()) {
      ++granted;
    } else {
      sheds.push_back(status);
    }
  }
  EXPECT_EQ(granted, 2);
  ASSERT_EQ(sheds.size(), 3u);
  for (const Status& shed : sheds) {
    EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(service::IsShed(shed));
    ASSERT_TRUE(service::RetryAfterPeriods(shed).has_value());
    EXPECT_DOUBLE_EQ(*service::RetryAfterPeriods(shed), 2.5);
    EXPECT_EQ(service::ShedPool(shed), "cat/class0");
  }

  const auto gated = gate.ClosePeriod();
  ASSERT_TRUE(gated.ok());
  EXPECT_EQ(gated->gate.offered, 5);
  EXPECT_EQ(gated->gate.admitted, 2);
  EXPECT_EQ(gated->gate.shed, 3);
  EXPECT_EQ(gated->report.submissions, 2);  // Sheds never cost a slot.
  EXPECT_EQ(gate.total_offered(), 5);
  EXPECT_EQ(gate.total_admitted(), 2);
  EXPECT_EQ(gate.total_shed(), 3);
}

TEST(StreamIngressTest, ShedIsDistinguishableFromTicketTimeout) {
  // Both a ticket pool's Acquire timeout and the gate's shed speak
  // kResourceExhausted, but only the shed carries the marker — a caller
  // can retry-later on sheds and treat any other exhaustion as its own.
  TicketHolder pool("cat/class0", 1);
  ASSERT_TRUE(pool.TryAcquire());
  const Status timed_out = pool.Acquire(/*timeout_ms=*/1.0);
  EXPECT_EQ(timed_out.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(service::IsShed(timed_out));
  EXPECT_EQ(pool.Stats().timed_out, 1);

  const Status shed = service::ShedRejection(pool.name(), 1.0);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(service::IsShed(shed));
}

TEST(StreamIngressTest, TenantClassesShedIndependently) {
  cluster::ClusterCenter center(BaseClusterOptions(), RegisterQuotes);
  IngressOptions options;
  options.tenant_classes = 2;
  options.tickets_per_class = 2;
  StreamIngress gate(&center, options);

  // Four even users saturate class 0 (user % 2 == 0)...
  int class0_granted = 0;
  for (int id = 1; id <= 4; ++id) {
    if (gate.Offer(MakeSubmission(id, 2 * id, 50.0, 102.0)).ok()) {
      ++class0_granted;
    }
  }
  EXPECT_EQ(class0_granted, 2);
  // ...while class 1 still grants.
  EXPECT_TRUE(gate.Offer(MakeSubmission(9, 9, 50.0, 102.0)).ok());
  EXPECT_EQ(gate.pool(0).used(), 2);
  EXPECT_EQ(gate.pool(1).used(), 1);

  const auto gated = gate.ClosePeriod();
  ASSERT_TRUE(gated.ok());
  EXPECT_EQ(gated->gate.shed, 2);
  EXPECT_EQ(gated->gate.admitted, 3);
}

TEST(StreamIngressTest, TicketsRecycleAcrossPeriods) {
  cluster::ClusterCenter center(BaseClusterOptions(), RegisterQuotes);
  IngressOptions options;
  options.tenant_classes = 1;
  options.tickets_per_class = 2;
  StreamIngress gate(&center, options);

  for (int period = 0; period < 3; ++period) {
    ASSERT_TRUE(
        gate.Offer(MakeSubmission(2 * period + 1, 1, 50.0, 102.0)).ok());
    ASSERT_TRUE(
        gate.Offer(MakeSubmission(2 * period + 2, 2, 45.0, 104.0)).ok());
    EXPECT_FALSE(
        gate.Offer(MakeSubmission(100 + period, 3, 40.0, 103.0)).ok());
    const auto gated = gate.ClosePeriod();
    ASSERT_TRUE(gated.ok());
    EXPECT_EQ(gated->report.period, period);
    EXPECT_EQ(gated->gate.admitted, 2);
    EXPECT_EQ(gated->gate.shed, 1);
  }
  EXPECT_EQ(gate.buffered_high_water(), 2);  // Bounded by the pool.
}

TEST(StreamIngressTest, ClusterRefusalsAtDrainCountAsDropped) {
  cluster::ClusterCenter center(BaseClusterOptions(), RegisterQuotes);
  IngressOptions options;
  options.tenant_classes = 1;
  options.tickets_per_class = 8;
  StreamIngress gate(&center, options);

  ASSERT_TRUE(gate.Offer(MakeSubmission(1, 1, 50.0, 102.0)).ok());
  ASSERT_TRUE(gate.Offer(MakeUnroutableSubmission(2, 2)).ok());
  ASSERT_TRUE(gate.Offer(MakeSubmission(3, 3, 45.0, 104.0)).ok());

  const auto gated = gate.ClosePeriod();
  ASSERT_TRUE(gated.ok());
  EXPECT_EQ(gated->gate.admitted, 2);
  EXPECT_EQ(gated->gate.dropped, 1);
  EXPECT_EQ(gated->report.submissions, 2);  // The drop never landed.
  EXPECT_EQ(gate.pool(0).used(), 0);  // Its ticket still recycled.
}

TEST(StreamIngressTest, ProbeResizesPools) {
  cluster::ClusterCenter center(BaseClusterOptions(), RegisterQuotes);
  IngressOptions options;
  options.tenant_classes = 2;
  options.tickets_per_class = 8;
  options.probe.enabled = true;
  options.probe.initial_concurrency = 16;
  options.probe.min_concurrency = 4;
  options.probe.max_concurrency = 32;
  StreamIngress gate(&center, options);

  for (int period = 0; period < 6; ++period) {
    for (int id = 1; id <= 6; ++id) {
      (void)gate.Offer(MakeSubmission(100 * period + id, id,
                                      60.0 - 5.0 * id,
                                      100.0 + 5.0 * (id % 3)));
    }
    const auto gated = gate.ClosePeriod();
    ASSERT_TRUE(gated.ok());
    ASSERT_TRUE(gated->probe.has_value());
    const ProbeDecision& decision = *gated->probe;
    EXPECT_GE(decision.concurrency, options.probe.min_concurrency);
    EXPECT_LE(decision.concurrency, options.probe.max_concurrency);
    // The decision lands on the pools.
    const int per_class = std::max(1, decision.concurrency / 2);
    EXPECT_EQ(gate.pool(0).capacity(), per_class);
    EXPECT_EQ(gate.pool(1).capacity(), per_class);
  }
}

}  // namespace
}  // namespace streambid::gate
