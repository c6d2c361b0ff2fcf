#include <gtest/gtest.h>

#include <sstream>

#include "util/bytes.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/table.h"

namespace byzcast::util {
namespace {

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

TEST(Bytes, RoundTripPrimitives) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(3.14159);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, RoundTripStringsAndBytes) {
  ByteWriter w;
  w.str("hello wireless world");
  w.bytes(to_bytes("payload"));
  w.str("");  // empty string round-trips

  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "hello wireless world");
  EXPECT_EQ(to_string(r.bytes()), "payload");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(Bytes, ReaderUnderflowLatchesError) {
  std::vector<std::uint8_t> short_buf{1, 2};
  ByteReader r(short_buf);
  EXPECT_EQ(r.u32(), 0u);  // not enough bytes
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // stays failed
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, ReaderRejectsOversizedLengthPrefix) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8(1);      // only one does
  ByteReader r(w.data());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, DoneRequiresFullConsumption) {
  ByteWriter w;
  w.u16(7);
  w.u16(8);
  ByteReader r(w.data());
  r.u16();
  EXPECT_FALSE(r.done());
  r.u16();
  EXPECT_TRUE(r.done());
}

TEST(Bytes, RawHasNoLengthPrefix) {
  ByteWriter w;
  std::vector<std::uint8_t> raw{9, 8, 7};
  w.raw(raw);
  EXPECT_EQ(w.size(), 3u);
}

// ---------------------------------------------------------------------------
// Buffer (zero-copy pipeline currency)
// ---------------------------------------------------------------------------

TEST(Buffer, CopiesShareStorageWithoutCopyingBytes) {
  BufferStats::reset();
  Buffer a(std::vector<std::uint8_t>{1, 2, 3, 4});
  EXPECT_EQ(BufferStats::allocations, 1u);
  Buffer b = a;           // refcount bump
  Buffer c = a.slice(1, 2);
  EXPECT_EQ(BufferStats::allocations, 1u);
  EXPECT_EQ(BufferStats::bytes_copied, 0u);
  EXPECT_TRUE(b.shares_storage_with(a));
  EXPECT_TRUE(c.shares_storage_with(a));
  EXPECT_EQ(a.use_count(), 3);
}

TEST(Buffer, SliceViewsTheRightBytes) {
  Buffer a({10, 20, 30, 40, 50});
  Buffer mid = a.slice(1, 3);
  EXPECT_EQ(mid, (Buffer{20, 30, 40}));
  EXPECT_EQ(mid.data(), a.data() + 1);
  // Full-range and empty slices are fine.
  EXPECT_EQ(a.slice(0, 5), a);
  EXPECT_TRUE(a.slice(5, 0).empty());
}

TEST(Buffer, CopyOfMaterializesAndCounts) {
  Buffer a({1, 2, 3});
  BufferStats::reset();
  Buffer b = Buffer::copy_of(a.span());
  EXPECT_EQ(BufferStats::allocations, 1u);
  EXPECT_EQ(BufferStats::bytes_copied, 3u);
  EXPECT_EQ(b, a);                          // same bytes...
  EXPECT_FALSE(b.shares_storage_with(a));   // ...different allocation
}

TEST(Buffer, EqualityIsByteWiseNotIdentity) {
  Buffer a({1, 2, 3});
  Buffer b({1, 2, 3});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.shares_storage_with(b));
  EXPECT_NE(a, Buffer({1, 2}));
  EXPECT_EQ(Buffer(), Buffer(std::vector<std::uint8_t>{}));
}

TEST(Buffer, EmptyBufferAllocatesNothing) {
  BufferStats::reset();
  Buffer empty(std::vector<std::uint8_t>{});
  EXPECT_EQ(BufferStats::allocations, 0u);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.use_count(), 0);
}

TEST(Buffer, WriterFreezeIsCopyFree) {
  ByteWriter w;
  w.u32(0xAABBCCDD);
  BufferStats::reset();
  Buffer frozen = w.take_buffer();
  EXPECT_EQ(BufferStats::bytes_copied, 0u);
  EXPECT_EQ(frozen.size(), 4u);
}

TEST(Buffer, ReaderBytesViewAliasesInput) {
  ByteWriter w;
  w.bytes(std::vector<std::uint8_t>{7, 8, 9});
  Buffer wire = w.take_buffer();
  ByteReader r(wire.span());
  std::span<const std::uint8_t> view = r.bytes_view();
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.data(), wire.data() + 4);  // past the u32 length prefix
}

TEST(Buffer, ReaderFailLatches) {
  std::vector<std::uint8_t> bytes{1, 2};
  ByteReader r(bytes);
  EXPECT_TRUE(r.ok());
  r.fail();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, FormatsCells) {
  EXPECT_EQ(format_cell(Cell{std::string("x")}), "x");
  EXPECT_EQ(format_cell(Cell{std::int64_t{42}}), "42");
  EXPECT_EQ(format_cell(Cell{1.5}), "1.5");
  EXPECT_EQ(format_cell(Cell{2.0}), "2.0");
  EXPECT_EQ(format_cell(Cell{0.125}), "0.125");
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({Cell{std::int64_t{1}}}), std::invalid_argument);
}

TEST(Table, PrintsAlignedAndCsv) {
  Table t({"n", "ratio"});
  t.add_row({std::int64_t{100}, 0.5});
  t.add_row({std::int64_t{5}, 1.0});

  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("n"), std::string::npos);
  EXPECT_NE(text.str().find("0.5"), std::string::npos);

  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "n,ratio\n100,0.5\n5,1.0\n");
}

// ---------------------------------------------------------------------------
// CliArgs
// ---------------------------------------------------------------------------

TEST(Cli, ParsesFlagsInBothForms) {
  const char* argv[] = {"prog", "--n=100", "--seed", "42", "--verbose"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_EQ(args.get_int("seed", 0), 42);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

TEST(Cli, ParsesDoublesAndStrings) {
  const char* argv[] = {"prog", "--rate=0.25", "--name=cds"};
  CliArgs args(3, argv);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0), 0.25);
  EXPECT_EQ(args.get_str("name", ""), "cds");
}

TEST(Cli, RejectsMalformedInput) {
  const char* bad[] = {"prog", "notaflag"};
  EXPECT_THROW(CliArgs(2, bad), std::invalid_argument);

  const char* argv[] = {"prog", "--n=abc"};
  CliArgs args(2, argv);
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
}

TEST(Cli, BoundedNumbersRejectOutOfRangeValuesByName) {
  constexpr auto kNonNegative = CliArgs::Bound::kNonNegative;
  constexpr auto kPositive = CliArgs::Bound::kPositive;
  const char* argv[] = {"prog",       "--bcasts=-3", "--cooldown=-1",
                        "--period=0", "--delay=nan", "--warmup=inf",
                        "--n=20",     "--pause=0.5", "--gap=0",
                        "--seed=-7"};
  CliArgs args(10, argv);
  auto error = [](auto&& read) {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(error([&] { (void)args.get_int("bcasts", 1, kNonNegative); }),
            "--bcasts must be >= 0, got: -3");
  EXPECT_EQ(error([&] { (void)args.get_double("cooldown", 1, kNonNegative); }),
            "--cooldown must be >= 0, got: -1");
  EXPECT_EQ(error([&] { (void)args.get_int("period", 1, kPositive); }),
            "--period must be > 0, got: 0");
  EXPECT_EQ(error([&] { (void)args.get_double("delay", 1, kNonNegative); }),
            "--delay must be >= 0, got: nan");
  EXPECT_EQ(error([&] { (void)args.get_double("warmup", 1, kPositive); }),
            "--warmup must be > 0, got: inf");
  EXPECT_EQ(args.get_int("n", 1, kPositive), 20);
  EXPECT_DOUBLE_EQ(args.get_double("pause", 1, kNonNegative), 0.5);
  EXPECT_EQ(args.get_int("gap", 1, kNonNegative), 0);
  EXPECT_EQ(args.get_int("seed", 1), -7);  // unbounded by default
  EXPECT_EQ(args.get_int("absent", 7, kPositive), 7);

  args.add_flag("stats-ms", 500, "a period").add_flag("duration-s", 5.0, "");
  EXPECT_EQ(args.get_int("stats-ms", kPositive), 500);
  EXPECT_DOUBLE_EQ(args.get_double("duration-s", kNonNegative), 5.0);
}

TEST(Cli, RejectUnknownFlagsUnqueriedFlags) {
  const char* argv[] = {"prog", "--typo=1"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.reject_unknown(), std::invalid_argument);
  (void)args.get_int("typo", 0);
  EXPECT_NO_THROW(args.reject_unknown());
}

TEST(Cli, RegistrySuppliesDefaultsAndOverrides) {
  const char* argv[] = {"prog", "--seeds=7", "--csv"};
  CliArgs args(3, argv);
  args.add_flag("seeds", 3, "replicas per point")
      .add_flag("threads", 0, "worker threads")
      .add_flag("csv", false, "CSV output")
      .add_flag("rate", 0.5, "a double")
      .add_flag("name", "cds", "a string");
  EXPECT_EQ(args.get_int("seeds"), 7);    // command line wins
  EXPECT_EQ(args.get_int("threads"), 0);  // registered default
  EXPECT_TRUE(args.get_bool("csv"));
  EXPECT_DOUBLE_EQ(args.get_double("rate"), 0.5);
  EXPECT_EQ(args.get_str("name"), "cds");
  // Registered flags count as queried: no unknown-flag complaints.
  EXPECT_NO_THROW(args.reject_unknown());
}

TEST(Cli, SingleArgGettersRequireRegistration) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_THROW((void)args.get_int("never_declared"), std::logic_error);
}

TEST(Cli, GeneratedHelpListsFlagsAndDefaults) {
  const char* argv[] = {"prog", "--help"};
  CliArgs args(2, argv);
  args.add_flag("seeds", 3, "replicas averaged per sweep point");
  std::ostringstream os;
  EXPECT_TRUE(args.handle_help("prog", os));
  EXPECT_NE(os.str().find("--seeds"), std::string::npos);
  EXPECT_NE(os.str().find("replicas averaged"), std::string::npos);
  EXPECT_NE(os.str().find("3"), std::string::npos);

  const char* quiet[] = {"prog", "--seeds=4"};
  CliArgs no_help(2, quiet);
  no_help.add_flag("seeds", 3, "replicas averaged per sweep point");
  std::ostringstream unused;
  EXPECT_FALSE(no_help.handle_help("prog", unused));
  EXPECT_EQ(unused.str(), "");
}

TEST(Cli, HelpIsUnknownUnlessHandled) {
  const char* argv[] = {"prog", "--help"};
  CliArgs args(2, argv);
  args.add_flag("seeds", 3, "replicas averaged per sweep point");
  // A binary without generated help must not run its default scenario.
  EXPECT_THROW(args.reject_unknown(), std::invalid_argument);
  std::ostringstream os;
  EXPECT_TRUE(args.handle_help("prog", os));
  EXPECT_NO_THROW(args.reject_unknown());
}

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

TEST(Json, EscapeQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(Json, EscapeControlCharacters) {
  // RFC 8259 §7: every control char below 0x20 must be escaped — the
  // common ones as two-char sequences, the rest as \u00XX.
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("\t\r\b\f"), "\\t\\r\\b\\f");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape("high\x7f"), "high\x7f") << "DEL needs no escape";
}

TEST(Json, QuoteWrapsAndEscapes) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("say \"hi\"\n"), "\"say \\\"hi\\\"\\n\"");
  EXPECT_EQ(json_quote(""), "\"\"");
}

TEST(Json, CellFormatsByAlternative) {
  EXPECT_EQ(json_cell(Cell{std::string("f+1")}), "\"f+1\"");
  EXPECT_EQ(json_cell(Cell{std::int64_t{42}}), "42");
  EXPECT_EQ(json_cell(Cell{0.5}), "0.5");
  EXPECT_EQ(json_cell(Cell{std::string("a\"b")}), "\"a\\\"b\"");
}

}  // namespace
}  // namespace byzcast::util
