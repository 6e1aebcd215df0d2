#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flb/util/cli.hpp"
#include "flb/util/digest.hpp"
#include "flb/util/error.hpp"
#include "flb/util/stopwatch.hpp"
#include "flb/util/table.hpp"
#include "flb/util/types.hpp"

namespace flb {
namespace {

// --- Table ------------------------------------------------------------------

TEST(Table, RequiresAtLeastOneColumn) {
  EXPECT_THROW(Table(std::vector<std::string>{}), Error);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, CountsRowsAndCols) {
  Table t({"x", "y", "z"});
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1", "2", "3"});
  t.add_row({"4", "5", "6"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "v"});
  t.add_row({"longer-cell", "1"});
  t.add_row({"s", "22"});
  std::ostringstream os;
  t.print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("longer-cell"), std::string::npos);
  // All rendered lines have equal length (alignment).
  std::istringstream is(out);
  std::string line;
  std::size_t len = 0;
  while (std::getline(is, line)) {
    if (len == 0) len = line.size();
    EXPECT_EQ(line.size(), len);
  }
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.add_row({"plain", "has,comma"});
  t.add_row({"has\"quote", "multi\nline"});
  std::ostringstream os;
  t.print_csv(os);
  std::string out = os.str();
  EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
  EXPECT_NE(out.find("\"multi\nline\""), std::string::npos);
}

TEST(FormatFixed, ProducesExactDecimals) {
  EXPECT_EQ(format_fixed(1.5, 2), "1.50");
  EXPECT_EQ(format_fixed(-0.125, 3), "-0.125");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

TEST(FormatCompact, IntegersStayIntegral) {
  EXPECT_EQ(format_compact(5.0), "5");
  EXPECT_EQ(format_compact(-12.0), "-12");
  EXPECT_EQ(format_compact(0.0), "0");
}

TEST(FormatCompact, TrimsTrailingZeros) {
  EXPECT_EQ(format_compact(1.25), "1.25");
  EXPECT_EQ(format_compact(1.5), "1.5");
  EXPECT_EQ(format_compact(0.1), "0.1");
}

// --- CliArgs ----------------------------------------------------------------

CliArgs parse(std::vector<const char*> argv) {
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesSpaceSeparatedOption) {
  auto args = parse({"prog", "--procs", "8"});
  EXPECT_TRUE(args.has("procs"));
  EXPECT_EQ(args.get_int("procs", 0), 8);
}

TEST(Cli, ParsesEqualsForm) {
  auto args = parse({"prog", "--ccr=5.0"});
  EXPECT_DOUBLE_EQ(args.get_double("ccr", 0.0), 5.0);
}

TEST(Cli, FallbacksWhenAbsent) {
  auto args = parse({"prog"});
  EXPECT_FALSE(args.has("x"));
  EXPECT_EQ(args.get("x", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
}

TEST(Cli, BooleanFlagBeforeAnotherOption) {
  auto args = parse({"prog", "--verbose", "--procs", "4"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose", "missing"), "");
  EXPECT_EQ(args.get_int("procs", 0), 4);
}

TEST(Cli, CollectsPositionals) {
  auto args = parse({"prog", "one", "--k", "v", "two"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"one", "two"}));
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, IntListParsing) {
  auto args = parse({"prog", "--procs", "2,4,8,16"});
  EXPECT_EQ(args.get_int_list("procs", {}),
            (std::vector<std::int64_t>{2, 4, 8, 16}));
}

TEST(Cli, DoubleListParsing) {
  auto args = parse({"prog", "--ccr=0.2,5.0"});
  auto v = args.get_double_list("ccr", {});
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 0.2);
  EXPECT_DOUBLE_EQ(v[1], 5.0);
}

TEST(Cli, ListFallbackWhenAbsent) {
  auto args = parse({"prog"});
  EXPECT_EQ(args.get_int_list("p", {1, 2}),
            (std::vector<std::int64_t>{1, 2}));
}

TEST(Cli, RejectsNonNumeric) {
  auto args = parse({"prog", "--n", "abc"});
  EXPECT_THROW((void)args.get_int("n", 0), Error);
  EXPECT_THROW((void)args.get_double("n", 0.0), Error);
}

TEST(Cli, RejectsMalformedList) {
  auto args = parse({"prog", "--procs", "2,x,8"});
  EXPECT_THROW((void)args.get_int_list("procs", {}), Error);
}

// Count flags (--procs, --tasks, ...) reject what would otherwise crash,
// hang or wrap: negatives, zero, values past the target type and values
// past the 64-bit range. Every error names the flag and the value.
TEST(Cli, CountFlagsRejectOutOfRangeValues) {
  struct Case {
    const char* flag;
    const char* value;
    bool proc_id;            // parse as ProcId, else as std::size_t
    std::uint64_t expected;  // accepted value; unused when `error` is set
    const char* error;       // expected message fragment, or nullptr
  };
  const Case kCases[] = {
      {"procs", "8", true, 8, nullptr},
      {"procs", "4294967295", true, 4294967295u, nullptr},
      {"procs", "-1", true, 0,
       "--procs must be between 1 and 4294967295, got -1"},
      {"procs", "0", true, 0,
       "--procs must be between 1 and 4294967295, got 0"},
      {"procs", "4294967297", true, 0,
       "--procs must be between 1 and 4294967295, got 4294967297"},
      {"procs", "99999999999999999999", true, 0,
       "--procs is outside the 64-bit integer range, got "
       "'99999999999999999999'"},
      {"at-procs", "-8", true, 0,
       "--at-procs must be between 1 and 4294967295, got -8"},
      {"tasks", "2000", false, 2000, nullptr},
      {"tasks", "-5", false, 0,
       "--tasks must be between 1 and 9223372036854775807, got -5"},
      {"threads", "0", false, 0,
       "--threads must be between 1 and 9223372036854775807, got 0"},
      {"seeds", "-99999999999999999999", false, 0,
       "--seeds is outside the 64-bit integer range"},
      {"queue", "4x", false, 0, "--queue expects an integer, got '4x'"},
  };
  for (const Case& c : kCases) {
    const std::string flag = std::string("--") + c.flag;
    auto args = parse({"prog", flag.c_str(), c.value});
    auto get = [&]() -> std::uint64_t {
      if (c.proc_id) return args.get_count<ProcId>(c.flag, 1);
      return args.get_count<std::size_t>(c.flag, 1);
    };
    if (c.error == nullptr) {
      EXPECT_EQ(get(), c.expected) << flag << " " << c.value;
      continue;
    }
    try {
      (void)get();
      ADD_FAILURE() << flag << " " << c.value << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
          << flag << " " << c.value << ": " << e.what();
    }
  }
}

// Index flags (--victim) accept 0 .. limit-1 and nothing else: a value
// past ProcId used to wrap into a valid processor id ("--victim
// 4294967297" ran as processor 1). Every error names the flag and value.
TEST(Cli, IndexFlagsRejectOutOfRangeValues) {
  struct Case {
    const char* value;
    ProcId limit;
    ProcId expected;    // accepted value; unused when `error` is set
    const char* error;  // expected message fragment, or nullptr
  };
  const Case kCases[] = {
      {"0", 4, 0, nullptr},
      {"3", 4, 3, nullptr},
      {"4", 4, 0, "--victim must be between 0 and 3, got 4"},
      {"-1", 4, 0, "--victim must be between 0 and 3, got -1"},
      {"4294967297", 4, 0,
       "--victim must be between 0 and 3, got 4294967297"},
      {"4294967296", 4294967295u, 0,
       "--victim must be between 0 and 4294967294, got 4294967296"},
      {"99999999999999999999", 4, 0,
       "--victim is outside the 64-bit integer range, got "
       "'99999999999999999999'"},
      {"1x", 4, 0, "--victim expects an integer, got '1x'"},
      {"0", 0, 0, "--victim has no valid value, got 0"},
  };
  for (const Case& c : kCases) {
    auto args = parse({"prog", "--victim", c.value});
    if (c.error == nullptr) {
      EXPECT_EQ(args.get_index<ProcId>("victim", 1, c.limit), c.expected)
          << c.value;
      continue;
    }
    try {
      (void)args.get_index<ProcId>("victim", 1, c.limit);
      ADD_FAILURE() << "--victim " << c.value << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
          << "--victim " << c.value << ": " << e.what();
    }
  }
  EXPECT_EQ(parse({"prog"}).get_index<ProcId>("victim", 1, 4), 1u);
  // --quorum is a count: past ProcId it fails instead of wrapping to 0.
  auto quorum = parse({"prog", "--quorum", "4294967296"});
  try {
    (void)quorum.get_count<ProcId>("quorum", 2);
    ADD_FAILURE() << "--quorum 4294967296 was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "--quorum must be between 1 and 4294967295, got "
                  "4294967296"),
              std::string::npos)
        << e.what();
  }
}

TEST(Cli, CountFlagFallbackAndLists) {
  auto absent = parse({"prog"});
  EXPECT_EQ(absent.get_count<ProcId>("procs", 8), 8u);
  EXPECT_EQ(absent.get_count_list<ProcId>("procs", {2, 4}),
            (std::vector<ProcId>{2, 4}));
  auto list = parse({"prog", "--procs", "2,8,32"});
  EXPECT_EQ(list.get_count_list<ProcId>("procs", {}),
            (std::vector<ProcId>{2, 8, 32}));
  auto zero = parse({"prog", "--procs", "2,0,8"});
  EXPECT_THROW((void)zero.get_count_list<ProcId>("procs", {}), Error);
  auto wrap = parse({"prog", "--threads", "1,-4"});
  EXPECT_THROW((void)wrap.get_count_list<std::size_t>("threads", {}), Error);
}

TEST(Cli, IntAccessorsRejectOverflow) {
  auto args = parse({"prog", "--seed", "99999999999999999999", "--sizes",
                     "100,99999999999999999999"});
  EXPECT_THROW((void)args.get_int("seed", 1), Error);
  EXPECT_THROW((void)args.get_int_list("sizes", {}), Error);
  // In range, a negative --seed still parses: --seed keeps its behaviour.
  auto seed = parse({"prog", "--seed", "-3"});
  EXPECT_EQ(seed.get_int("seed", 1), -3);
}

// --- Digest ------------------------------------------------------------------

// The FNV-1a recurrence with the project's offset basis. Every pinned
// digest was captured with 1469598103934665603 -- the published basis
// 14695981039346656037 with its last digit missing -- so the basis stays;
// the expected values below come from an independent implementation.
TEST(Digest, FnvRecurrenceWithTheProjectBasis) {
  EXPECT_EQ(fnv1a_digest(""), 1469598103934665603ull);
  EXPECT_EQ(fnv1a_digest("a"), 0x44bd8ad473cd9906ull);
  EXPECT_EQ(fnv1a_digest("foobar"), 0x88fad7c0a8ff07f2ull);
  Fnv1a h;
  for (const char c : std::string("foobar"))
    h.byte(static_cast<std::uint8_t>(c));
  EXPECT_EQ(h.value(), fnv1a_digest("foobar"));
}

TEST(Digest, WideFeedsAreLittleEndianBytes) {
  Fnv1a wide, bytes;
  wide.u64(0x0102030405060708ull);
  for (std::uint8_t b = 8; b >= 1; --b) bytes.byte(b);
  EXPECT_EQ(wide.value(), bytes.value());
  Fnv1a real, bits;
  real.f64(1.5);
  bits.u64(0x3ff8000000000000ull);
  EXPECT_EQ(real.value(), bits.value());
}

// --- Stopwatch ---------------------------------------------------------------

TEST(Stopwatch, ElapsedIsMonotonic) {
  Stopwatch sw;
  double a = sw.seconds();
  double b = sw.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  // millis and seconds measure the same clock (successive reads, so allow
  // the time between the two calls as slack).
  double ms = sw.millis();
  double s = sw.seconds();
  EXPECT_LE(b * 1e3, ms);
  EXPECT_LE(ms, s * 1e3);
}

TEST(Stopwatch, RestartResets) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1;
  double before = sw.seconds();
  sw.restart();
  EXPECT_LE(sw.seconds(), before + 1.0);  // restarted clock is near zero
}

// --- Error macros -------------------------------------------------------------

TEST(Error, RequireThrowsWithMessage) {
  try {
    FLB_REQUIRE(false, "custom message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom message"),
              std::string::npos);
  }
}

TEST(Error, AssertThrowsLogicError) {
  EXPECT_THROW(FLB_ASSERT(1 == 2), std::logic_error);
}

TEST(Error, PassingChecksAreSilent) {
  EXPECT_NO_THROW(FLB_REQUIRE(true, "unused"));
  EXPECT_NO_THROW(FLB_ASSERT(true));
}

}  // namespace
}  // namespace flb
