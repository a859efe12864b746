#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/sales_data.h"
#include "io/grid_format.h"
#include "lang/interpreter.h"
#include "lang/parser.h"

namespace tabular::bench {

namespace {

/// Fig-1 SalesInfo1 `Sales`, the fixture bench_server also serves.
constexpr std::string_view kSalesGrid =
    "!Sales | !Part  | !Region | !Sold\n"
    "#      | nuts   | east    | 50\n"
    "#      | nuts   | west    | 60\n"
    "#      | nuts   | south   | 40\n"
    "#      | screws | west    | 50\n"
    "#      | screws | north   | 60\n"
    "#      | screws | south   | 50\n"
    "#      | bolts  | east    | 70\n"
    "#      | bolts  | north   | 40\n";

struct NamedWorkload {
  Workload workload;
  const char* name;
};

constexpr NamedWorkload kWorkloads[] = {
    {Workload::kReadHot8, "read_hot_8"},
    {Workload::kReadResident1m, "read_resident_1m"},
    {Workload::kWriteMix1m, "write_mix_1m"},
    {Workload::kCompileMiss, "compile_miss"},
    {Workload::kRestructure1m, "restructure_1m"},
};

/// compile_miss pool names: a fixed set, so the process-wide symbol table
/// stops growing after the first few hundred programs.
constexpr size_t kMissPools = 64;

/// A compile_miss program: 1–4 blocks of certifiably redundant statements
/// (transpose pairs, `select Part = Part`, a superset `project`, a rename
/// and its inverse) over pools named from a fixed set of 64, ending with
/// Fig-1's `group by {Region} on {Sold}`; 6–18 statements in all.
std::string MissProgram(std::mt19937_64& rng) {
  auto below = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  // Statements before the final group: 5..17, at least two per block (the
  // copy into the block's pool and one redundant idiom).
  const size_t budget = 5 + below(13);
  const size_t blocks = std::min<size_t>(1 + below(4), budget / 2);
  std::vector<size_t> quota(blocks, 2);
  for (size_t extra = budget - 2 * blocks; extra > 0; --extra) {
    ++quota[below(blocks)];
  }
  std::vector<size_t> pools(kMissPools);
  for (size_t i = 0; i < kMissPools; ++i) pools[i] = i;
  std::shuffle(pools.begin(), pools.end(), rng);

  std::string text;
  std::string source = "Sales";
  for (size_t b = 0; b < blocks; ++b) {
    const std::string p = std::string("T").append(std::to_string(pools[b]));
    text += p + " <- project {Part, Region, Sold} (" + source + ");\n";
    for (size_t left = quota[b] - 1; left > 0;) {
      // Two-statement idioms only when they fit the block's quota.
      switch (left >= 2 ? below(4) : 2 + below(2)) {
        case 0:
          text += p + " <- transpose (" + p + ");\n";
          text += p + " <- transpose (" + p + ");\n";
          left -= 2;
          break;
        case 1:
          text += p + " <- rename Qty / Sold (" + p + ");\n";
          text += p + " <- rename Sold / Qty (" + p + ");\n";
          left -= 2;
          break;
        case 2:
          text += p + " <- select Part = Part (" + p + ");\n";
          left -= 1;
          break;
        default:
          text += p + " <- project {Part, Region, Sold, Qty} (" + p + ");\n";
          left -= 1;
          break;
      }
    }
    source = p;
  }
  text += source + " <- group by {Region} on {Sold} (" + source + ");\n";
  return text;
}

}  // namespace

const char kWriteProgram[] = "W <- project {Part, Sold} (Sales);";

const char kRestructureProgram[] =
    "Flat <- merge on {Sold} by {Region} (Sales);\n"
    "East <- selectconst Region = 'r1' (Flat);\n"
    "Parts <- project {Part, Sold} (Flat);\n";

const std::vector<ExpectedOutput>& RestructureOutputs() {
  // MERGE keeps every (part, region) combination, ⊥ Sold included:
  // 62,500 parts × 16 regions.
  static const std::vector<ExpectedOutput> kOutputs = {
      {"Flat", 1000000}, {"East", 62500}, {"Parts", 1000000}};
  return kOutputs;
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (const NamedWorkload& w : kWorkloads) {
    if (name == w.name) return w.workload;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  for (const NamedWorkload& nw : kWorkloads) {
    if (nw.workload == w) return nw.name;
  }
  return "?";
}

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> all;
    for (const NamedWorkload& w : kWorkloads) all.push_back(w.workload);
    return all;
  }();
  return kAll;
}

size_t Connections(Workload w) { return w == Workload::kReadHot8 ? 2 : 4; }

Result<core::TabularDatabase> ServerDatabase(Workload w) {
  TABULAR_ASSIGN_OR_RETURN(core::TabularDatabase db,
                           io::ParseDatabase(kSalesGrid));
  if (w == Workload::kReadResident1m || w == Workload::kWriteMix1m) {
    core::Table big = fixtures::SyntheticSales(71429, 16);
    big.set_name(core::Symbol::Name("Big"));
    db.Add(std::move(big));
  }
  return db;
}

core::TabularDatabase PivotedDatabase() {
  core::TabularDatabase db;
  db.Add(fixtures::SyntheticPivotedSales(62500, 16));
  return db;
}

const std::vector<std::string>& ReadMix() {
  static const std::vector<std::string> kPrograms = {
      "R1 <- project {Part} (Sales);",
      "R2 <- project {Region} (Sales);",
      "R3 <- project {Part, Sold} (Sales);",
      "R4 <- select Region = Region (Sales);",
      "R5 <- group by {Region} on {Sold} (Sales);",
      "R6 <- transpose (Sales);",
      "R7 <- rename Qty / Sold (Sales);",
      "R8 <- group by {Part} on {Sold} (Sales);",
  };
  return kPrograms;
}

RequestStream::RequestStream(Workload w, uint64_t seed, size_t conn)
    : workload_(w), conn_(conn) {
  std::seed_seq seq{seed, static_cast<uint64_t>(conn)};
  rng_.seed(seq);
}

Request RequestStream::Next() {
  const uint64_t n = sent_++;
  switch (workload_) {
    case Workload::kWriteMix1m:
      if (conn_ == 0 && n % 2 == 1) return Request{kWriteProgram, true};
      [[fallthrough]];
    case Workload::kReadHot8:
    case Workload::kReadResident1m:
      return Request{ReadMix()[rng_() % ReadMix().size()], false};
    case Workload::kCompileMiss:
      return Request{MissProgram(rng_), false};
    case Workload::kRestructure1m:
      break;
  }
  return Request{kRestructureProgram, false};
}

namespace {

uint64_t Mix(uint64_t acc, uint64_t v) {
  return (acc ^ v) * 0x9E3779B97F4A7C15ull;
}

/// Hash of `n` symbol handles. Four independent lanes over 8-byte words
/// keep the multiplies off one dependency chain: restructure_1m hashes
/// ~7M handles after every op.
uint64_t HashSymbols(const core::Symbol* p, size_t n, uint64_t h) {
  static_assert(sizeof(core::Symbol) == 4);
  uint64_t lane[4] = {h, h + 1, h + 2, h + 3};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t k = 0; k < 4; ++k) {
      uint64_t word;
      std::memcpy(&word, p + i + 2 * k, sizeof(word));
      lane[k] = Mix(lane[k], word);
    }
  }
  for (; i < n; ++i) lane[0] = Mix(lane[0], p[i].raw_id());
  return Mix(Mix(Mix(Mix(h, lane[0]), lane[1]), lane[2]), lane[3]);
}

}  // namespace

uint64_t TableHash(const core::Table& t, uint64_t h) {
  static const std::vector<core::Symbol> kNulls(core::Column::kChunkSize);
  h = Mix(h, t.name().raw_id());
  h = Mix(h, t.height());
  h = Mix(h, t.width());
  h = HashSymbols(t.RowAttrs().data(), t.RowAttrs().size(), h);
  for (size_t j = 1; j <= t.width(); ++j) {
    h = Mix(h, t.ColumnAttribute(j).raw_id());
    const core::Column& col = t.DataColumn(j);
    for (size_t c = 0; c < col.num_chunks(); ++c) {
      const core::Symbol* data = col.ChunkData(c);
      if (data == nullptr) data = kNulls.data();  // a lazy all-⊥ chunk
      h = HashSymbols(data, col.ChunkLen(c), h);
    }
  }
  return h;
}

Result<std::string> SingleShotDump(const core::TabularDatabase& db,
                                   const std::string& program) {
  TABULAR_ASSIGN_OR_RETURN(lang::Program parsed, lang::ParseProgram(program));
  core::TabularDatabase work = db;
  lang::Interpreter interpreter;
  TABULAR_RETURN_NOT_OK(interpreter.Run(parsed, &work));
  return io::SerializeDatabase(work);
}

}  // namespace tabular::bench
