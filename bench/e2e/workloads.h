#ifndef TABULAR_BENCH_E2E_WORKLOADS_H_
#define TABULAR_BENCH_E2E_WORKLOADS_H_

// Workload definitions for bench_e2e: the fixture databases, the request
// streams each connection sends, and the reference results the
// correctness oracles compare against. The data fixtures are fixed; the
// seed only drives request order and program generation.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"
#include "core/status.h"

namespace tabular::bench {

enum class Workload {
  kReadHot8,        ///< read-only mix on the 8-row Fig-1 Sales
  kReadResident1m,  ///< same mix, plus an untouched ~1M-row table
  kWriteMix1m,      ///< connection 0 alternates reads and commits
  kCompileMiss,     ///< every request is fresh program text
  kRestructure1m,   ///< single-shot parse + run, no server
};

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload w);
/// The five workloads in the order the README lists them.
const std::vector<Workload>& AllWorkloads();

/// Client connections (and client threads) of a server workload: 4, one
/// per CPU, except 2 on read_hot_8. There the client spends as long per op
/// as the server (~10 us each), so 4 clients and 4 session threads kept 8
/// threads runnable on 4 CPUs and the tail measured run-queue placement:
/// p99 varied by 20-31% (IQR / median) between runs, against ~7% with 2
/// in back-to-back runs.
size_t Connections(Workload w);

/// write_mix_1m: connection 0 alternates a read with this commit; the other
/// connections only read. With two or more writers, commits conflicted and
/// the p99 of all ops fell in the tail of their retries, which varied by
/// 20-25% (IQR / median) between runs; README.md has the measurements.
extern const char kWriteProgram[];

/// The database a server workload starts from: Fig-1 `Sales`, plus a table
/// `Big` of SyntheticSales(71429, 16) (~1M rows) on the _1m workloads.
Result<core::TabularDatabase> ServerDatabase(Workload w);

/// restructure_1m's input: `Sales` = SyntheticPivotedSales(62500, 16).
core::TabularDatabase PivotedDatabase();

/// restructure_1m's program and the row counts of its three outputs.
extern const char kRestructureProgram[];
struct ExpectedOutput {
  const char* table;
  size_t rows;
};
const std::vector<ExpectedOutput>& RestructureOutputs();

/// The eight read-only programs bench_server cycles through.
const std::vector<std::string>& ReadMix();

struct Request {
  std::string program;
  bool commit = false;
};

/// The deterministic request sequence of one connection: a function of
/// (workload, seed, connection) only, so a replay regenerates it exactly.
class RequestStream {
 public:
  RequestStream(Workload w, uint64_t seed, size_t conn);
  Request Next();

 private:
  Workload workload_;
  size_t conn_;
  std::mt19937_64 rng_;
  uint64_t sent_ = 0;
};

/// Hash of a table's name, attributes and cells by symbol handle, so equal
/// for cell-for-cell equal tables within one process.
uint64_t TableHash(const core::Table& t, uint64_t h);

/// The single-shot reference: `program` parsed and run with default
/// interpreter options on a copy of `db`, serialized in grid format.
Result<std::string> SingleShotDump(const core::TabularDatabase& db,
                                   const std::string& program);

}  // namespace tabular::bench

#endif  // TABULAR_BENCH_E2E_WORKLOADS_H_
