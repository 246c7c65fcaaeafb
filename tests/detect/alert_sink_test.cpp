// AlertSink unit + concurrency tests. The concurrency suites run under
// TSan in check.sh: the gateway's consumer thread appends alerts while a
// display thread snapshots, so emit/snapshot/size must be data-race-free.
#include "src/detect/alert.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

namespace netfail::detect {
namespace {

LinkAlert alert_at(std::uint32_t link, std::int64_t ms) {
  LinkAlert a;
  a.link = LinkId(link);
  a.time = TimePoint::from_unix_millis(ms);
  a.kind = AlertKind::kHardDown;
  return a;
}

TEST(AlertSink, EmitAppendsInOrder) {
  AlertSink sink;
  EXPECT_EQ(sink.size(), 0u);
  sink.emit(alert_at(1, 100));
  sink.emit(alert_at(2, 200));
  const std::vector<LinkAlert> got = sink.snapshot();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].link, LinkId(1));
  EXPECT_EQ(got[1].link, LinkId(2));
  EXPECT_EQ(sink.size(), 2u);
}

TEST(AlertSink, OnAlertCallbackFiresAfterRecording) {
  AlertSink sink;
  std::vector<std::uint64_t> sizes_at_callback;
  sink.on_alert = [&](const LinkAlert&) {
    sizes_at_callback.push_back(sink.size());
  };
  sink.emit(alert_at(1, 100));
  sink.emit(alert_at(2, 200));
  EXPECT_EQ(sizes_at_callback, (std::vector<std::uint64_t>{1, 2}));
}

TEST(AlertSink, CopiesAreIndependent) {
  AlertSink sink;
  sink.emit(alert_at(1, 100));
  AlertSink copy = sink;
  copy.emit(alert_at(2, 200));
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);

  AlertSink assigned;
  assigned = copy;
  EXPECT_EQ(assigned.size(), 2u);
}

TEST(AlertSink, CopyCarriesCallback) {
  AlertSink sink;
  std::atomic<int> fired{0};
  sink.on_alert = [&](const LinkAlert&) { fired.fetch_add(1); };
  AlertSink copy = sink;
  copy.emit(alert_at(1, 100));
  EXPECT_EQ(fired.load(), 1);
}

/// Per-link counts as for_each_link_counts reports them.
std::vector<std::pair<LinkId, AlertCounts>> counts_of(const AlertSink& sink) {
  std::vector<std::pair<LinkId, AlertCounts>> out;
  sink.for_each_link_counts([&out](LinkId link, const AlertCounts& c) {
    out.emplace_back(link, c);
  });
  return out;
}

TEST(AlertSink, PerLinkCountsFollowEveryEmit) {
  AlertSink sink;
  EXPECT_TRUE(counts_of(sink).empty());
  LinkAlert a = alert_at(7, 100);
  sink.emit(a);
  a.kind = AlertKind::kFlapCusum;
  sink.emit(a);
  sink.emit(a);
  a = alert_at(2, 300);
  a.kind = AlertKind::kTemplateDrift;
  sink.emit(a);
  // Alerts on no link are logged but belong to no row.
  sink.emit(alert_at(LinkId::kInvalid, 400));
  EXPECT_EQ(sink.size(), 5u);

  const auto counts = counts_of(sink);
  ASSERT_EQ(counts.size(), 2u);  // ascending link order, active links only
  EXPECT_EQ(counts[0].first, LinkId(2));
  EXPECT_EQ(counts[0].second, (AlertCounts{0, 0, 1}));
  EXPECT_EQ(counts[1].first, LinkId(7));
  EXPECT_EQ(counts[1].second, (AlertCounts{1, 2, 0}));

  // Copies (the checkpoint path) carry the counts with the log.
  const AlertSink copy = sink;
  EXPECT_EQ(counts_of(copy), counts);
  AlertSink assigned;
  assigned.emit(alert_at(9, 1));
  assigned = sink;
  EXPECT_EQ(counts_of(assigned), counts);
}

TEST(AlertSinkConcurrency, ParallelEmittersAndSnapshotters) {
  AlertSink sink;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<bool> stop{false};

  // A reader thread snapshots continuously while writers append; every
  // snapshot must be a consistent prefix (sizes only ever grow).
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<LinkAlert> snap = sink.snapshot();
      EXPECT_GE(snap.size(), last);
      last = snap.size();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sink.emit(alert_at(static_cast<std::uint32_t>(t + 1), i));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(sink.size(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(AlertSinkConcurrency, SnapshotOfCopyWhileOriginalGrows) {
  AlertSink sink;
  for (int i = 0; i < 100; ++i) sink.emit(alert_at(1, i));
  std::thread writer([&] {
    for (int i = 0; i < 5000; ++i) sink.emit(alert_at(2, i));
  });
  // Checkpointing concurrently with the feed thread: the copy constructor
  // locks the source, so every copy observes a consistent prefix.
  for (int i = 0; i < 50; ++i) {
    const AlertSink copy = sink;
    EXPECT_GE(copy.size(), 100u);
  }
  writer.join();
  EXPECT_EQ(sink.size(), 5100u);
}

}  // namespace
}  // namespace netfail::detect
