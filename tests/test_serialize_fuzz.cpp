// Round-trip and robustness fuzzing of trace/serialize: every trace the
// engine can produce must survive serialize -> parse -> serialize
// byte-identically, and NO byte-level corruption of a trace file may
// crash the parser — malformed input fails with std::invalid_argument,
// nothing else, ever (repro files come back in from disk). The JSON
// readers (util/json and the repro and telemetry schemas over it) are
// held to the same contract.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/summary.h"
#include "trace/serialize.h"
#include "util/json.h"
#include "util/rng.h"
#include "verify/repro.h"
#include "verify/scenario.h"

namespace asyncmac {
namespace {

std::string serialized_trace_of(std::uint64_t case_seed) {
  const verify::Scenario s = verify::scenario_from_seed(case_seed);
  auto engine = verify::run_scenario(s);
  return trace::serialize_trace({s.n, s.bound_r}, engine->trace().slots());
}

TEST(SerializeFuzz, EngineTracesRoundTripByteIdentically) {
  for (std::uint64_t case_seed = 101; case_seed < 113; ++case_seed) {
    const std::string text = serialized_trace_of(case_seed);
    ASSERT_FALSE(text.empty());
    const trace::ParsedTrace parsed = trace::parse_trace(text);
    const std::string again =
        trace::serialize_trace(parsed.header, parsed.slots);
    EXPECT_EQ(text, again) << "case seed " << case_seed;
  }
}

TEST(SerializeFuzz, MalformedInputsThrowInvalidArgument) {
  const std::vector<std::string> bad = {
      "",
      "\n",
      "asyncmac-trace v2 n=2 r=1\n",
      "wrong-magic v1 n=2 r=1\n",
      "asyncmac-trace v1 n=2\n",
      "asyncmac-trace v1 n=2 r=1 extra\n",
      "asyncmac-trace v1 n=x r=1\n",
      "asyncmac-trace v1 n=99999999999999999999 r=1\n",
      "asyncmac-trace v1 n=2 r=1\nslot\n",
      "asyncmac-trace v1 n=2 r=1\nslot 1 1 0 720720\n",
      "asyncmac-trace v1 n=2 r=1\nslot 1 1 0 720720 listen silence x\n",
      "asyncmac-trace v1 n=2 r=1\nslot 1 0 0 720720 listen silence\n",
      "asyncmac-trace v1 n=2 r=1\nslot 1 1 -5 720720 listen silence\n",
      "asyncmac-trace v1 n=2 r=1\nslot 1 1 720720 720720 listen silence\n",
      "asyncmac-trace v1 n=2 r=1\nslot 1 1 0 720720 dance silence\n",
      "asyncmac-trace v1 n=2 r=1\nslot 1 1 0 720720 listen loud\n",
      "asyncmac-trace v1 n=2 r=1\nslot 0 1 0 720720 listen silence\n",
      "asyncmac-trace v1 n=2 r=1\nslot 1x 1 0 720720 listen silence\n",
      "asyncmac-trace v1 n=2 r=1\ngarbage line\n",
  };
  for (const std::string& text : bad) {
    EXPECT_THROW(trace::parse_trace(text), std::invalid_argument)
        << "accepted: " << text;
  }
}

TEST(SerializeFuzz, RandomMutationsNeverCrashTheParser) {
  const std::string base = serialized_trace_of(4242);
  ASSERT_FALSE(base.empty());
  util::Rng rng(0x5E71A112EULL);
  const std::string alphabet =
      "slot 0123456789-\nabcdefghijklmnopqrstuvwxyz=.";
  int parsed_ok = 0;
  for (int i = 0; i < 400; ++i) {
    std::string text = base;
    const int edits = static_cast<int>(rng.range(1, 6));
    for (int e = 0; e < edits; ++e) {
      if (text.empty()) break;
      const std::size_t pos = rng.below(text.size());
      switch (rng.below(4)) {
        case 0:  // substitute
          text[pos] = alphabet[rng.below(alphabet.size())];
          break;
        case 1:  // delete
          text.erase(pos, 1);
          break;
        case 2:  // insert
          text.insert(pos, 1, alphabet[rng.below(alphabet.size())]);
          break;
        default:  // truncate
          text.resize(pos);
          break;
      }
    }
    // A mutation may leave the text valid (e.g. it touched only a
    // numeric value); what it must never do is escape with anything but
    // std::invalid_argument.
    try {
      const trace::ParsedTrace parsed = trace::parse_trace(text);
      trace::serialize_trace(parsed.header, parsed.slots);
      ++parsed_ok;
    } catch (const std::invalid_argument&) {
      // expected for most mutations
    }
  }
  // Sanity: the campaign is meaningful — most mutations must actually
  // corrupt the text (if everything still parsed, the oracle is dead).
  EXPECT_LT(parsed_ok, 400);
}

// One seeded edit of a JSON document: structural damage (truncation,
// bit flips, spliced bytes), schema damage (a duplicated member, a raw
// control byte in a string, a number no 64-bit integer or double holds)
// and escape damage (non-ASCII text, a lone surrogate, a short \u).
void mutate_json(std::string& text, util::Rng& rng) {
  if (text.empty()) return;
  const std::size_t pos = rng.below(text.size());
  // A later position holding `c`, or npos.
  auto next_of = [&](char c) { return text.find(c, pos); };
  switch (rng.below(7)) {
    case 0:  // truncate
      text.resize(pos);
      break;
    case 1:  // flip one bit
      text[pos] = static_cast<char>(text[pos] ^ (1 << rng.below(8)));
      break;
    case 2:  // splice 1-4 random bytes
      for (std::uint64_t i = rng.below(4) + 1; i > 0; --i)
        text.insert(pos, 1, static_cast<char>(rng.below(256)));
      break;
    case 3: {  // duplicate the member ending at the next ','
      const std::size_t comma = next_of(',');
      if (comma == std::string::npos || comma == 0) break;
      const std::size_t open = text.find_last_of(",{", comma - 1);
      if (open == std::string::npos) break;
      text.insert(comma, "," + text.substr(open + 1, comma - open - 1));
      break;
    }
    case 4: {  // a raw control byte after the next '"'
      const std::size_t quote = next_of('"');
      if (quote != std::string::npos)
        text.insert(quote + 1, 1, static_cast<char>(rng.below(0x20)));
      break;
    }
    case 5: {  // the next number becomes one out of every 64-bit range
      std::size_t start = pos;
      while (start < text.size() && (text[start] < '0' || text[start] > '9'))
        ++start;
      std::size_t end = start;
      while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
      if (start < end)
        text.replace(start, end - start,
                     rng.below(2) ? "1234567890123456789012345" : "1e999");
      break;
    }
    default: {  // an escape-level edit after the next '"'
      static const char* const kInserts[] = {"\xc3\xa9", "\\ud800", "\\u12"};
      const std::size_t quote = next_of('"');
      if (quote != std::string::npos)
        text.insert(quote + 1, kInserts[rng.below(3)]);
      break;
    }
  }
}

TEST(SerializeFuzz, JsonMutationsFailOnlyAsInvalidArgument) {
  std::vector<std::string> docs;
  for (std::uint64_t k = 1; k <= 3; ++k)
    docs.push_back(verify::to_json(
        verify::make_repro(verify::scenario_from_seed(k), "")));
  // One event and one snapshot line in JsonlExporter's format.
  docs.push_back(
      R"({"type":"event","name":"campaign.chunk","t_ms":12,"fields":)"
      R"({"cases_run":64,"jobs":-1,"cases_per_sec":1234.5,"flag":true,)"
      R"("s":"a\"b\n\u0001"}})");
  docs.push_back(
      R"({"type":"snapshot","seq":3,"t_ms":40,"reason":"periodic",)"
      R"("counters":{"engine.slots":360000,"sweep.leases":0},)"
      R"("gauges":{"live.slot_timer_drift":7},"timers":{"grid.unit":)"
      R"({"count":4,"min_ns":10,"mean_ns":12.5,"p50_ns":11,"p99_ns":20,)"
      R"("max_ns":21}}})");
  for (std::size_t d = 0; d < docs.size(); ++d) {
    std::istringstream in(docs[d]);
    if (d < 3)
      ASSERT_NO_THROW(verify::parse_repro_json(docs[d]));
    else
      ASSERT_NO_THROW(telemetry::summarize_stream(in));
  }

  int parsed = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    util::Rng rng(seed);
    std::string text = docs[rng.below(docs.size())];
    for (std::uint64_t e = rng.below(3) + 1; e > 0; --e) mutate_json(text, rng);
    // Each reader returns or throws std::invalid_argument, nothing else.
    auto accepts = [&](const char* reader, auto read) {
      try {
        read();
        return true;
      } catch (const std::invalid_argument&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << reader << " threw \"" << e.what() << "\" on seed "
                      << seed << ": " << text.substr(0, 200);
      }
      return false;
    };
    parsed += accepts("util::parse_json", [&] { util::parse_json(text); });
    accepts("verify::parse_repro_json",
            [&] { verify::parse_repro_json(text); });
    accepts("telemetry::summarize_stream", [&] {
      std::istringstream in(text);
      telemetry::summarize_stream(in);
    });
  }
  // The campaign is alive: the parser rejects mutants, and not all.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, 600);
}

TEST(SerializeFuzz, VerifyTraceTextAcceptsEngineOutput) {
  const std::string text = serialized_trace_of(777);
  const trace::CheckResult res = trace::verify_trace_text(text);
  EXPECT_TRUE(res.ok) << res.what;
}

}  // namespace
}  // namespace asyncmac
