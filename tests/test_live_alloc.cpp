// The live datapath allocates nothing per datagram. This binary replaces
// the global operator new and delete with counting versions (so it is a
// test binary of its own) and runs live::run_virtual twice after a
// warm-up, at 4,000 and 40,000 units: what a run allocates once (the
// daemon, the machines, the report) cancels in the difference, and what
// is left grows with the slots. A datagram that allocated would add at
// least one allocation per slot (four datagrams cross the wire per
// slot); the packet queues' deque chunks, one per 16 queued packets,
// are what legitimately remains. Counts, not timings, so the test holds
// under the sanitizers too.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "live/virtual_net.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace asyncmac::live {
namespace {

analysis::RunSpec spec_for(const std::string& protocol, Tick horizon_units) {
  analysis::RunSpec spec;
  spec.protocol = protocol;
  spec.n = 8;
  spec.bound_r = 4;
  spec.slot_policy = "perstation";
  spec.has_injector = true;
  spec.injector.kind = "saturating";
  spec.injector.rho = util::Ratio(7, 10);
  spec.injector.pattern = "roundrobin";
  spec.seed = 1;
  spec.horizon_units = horizon_units;
  return spec;
}

struct Counted {
  std::uint64_t allocations = 0;
  std::uint64_t slots = 0;
};

Counted counted_run(const std::string& protocol, Tick horizon_units) {
  const analysis::RunSpec spec = spec_for(protocol, horizon_units);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const VirtualRunReport report = run_virtual(spec);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.daemon_failed) << report.reason;
  return {after - before, report.stats.total_slots};
}

TEST(LiveAlloc, NoAllocationPerDatagram) {
  for (const char* protocol : {"ao-arrow", "ca-arrow", "aloha"}) {
    SCOPED_TRACE(protocol);
    (void)counted_run(protocol, 4000);  // warm-up: one-time statics
    const Counted small = counted_run(protocol, 4000);
    const Counted large = counted_run(protocol, 40000);
    ASSERT_GT(large.slots, small.slots);
    const std::uint64_t extra_slots = large.slots - small.slots;
    const std::uint64_t extra_allocations =
        large.allocations > small.allocations
            ? large.allocations - small.allocations
            : 0;
    std::printf("%s: %llu allocations at 4,000 units, %llu at 40,000 "
                "(%llu more over %llu more slots)\n",
                protocol, static_cast<unsigned long long>(small.allocations),
                static_cast<unsigned long long>(large.allocations),
                static_cast<unsigned long long>(extra_allocations),
                static_cast<unsigned long long>(extra_slots));
    EXPECT_LE(extra_allocations * 20, extra_slots)
        << extra_allocations << " more allocations over " << extra_slots
        << " more slots (" << small.allocations << " at 4,000 units, "
        << large.allocations << " at 40,000)";
  }
}

}  // namespace
}  // namespace asyncmac::live
