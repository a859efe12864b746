// tabulard end to end: the copy-on-write version store, the compiled-
// program cache (keying, negative caching, eviction), and a live server
// exercised through the client library — snapshot isolation under
// concurrent readers and writers, first-committer-wins conflicts, byte
// identity with the single-shot interpreter on every shipped example,
// graceful shutdown, and a hostile-peer fuzz at the protocol boundary.
//
// The concurrency tests are written to run under TSan
// (-DTABULAR_SANITIZE=tsan): real threads, no sleeps-as-synchronization.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/status.h"
#include "io/grid_format.h"
#include "lang/interpreter.h"
#include "lang/parser.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/program_cache.h"
#include "server/server.h"
#include "server/version.h"
#include "server/wire.h"
#include "tests/program_gen.h"
#include "tests/test_util.h"

namespace tabular::server {
namespace {

constexpr std::string_view kSalesFlat =
    "!Sales | !Part  | !Region | !Sold\n"
    "#      | nuts   | east    | 50\n"
    "#      | bolts  | west    | 60\n";

core::TabularDatabase Db(std::string_view grid) {
  auto db = io::ParseDatabase(grid);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

std::string ReadExample(const std::string& name) {
  std::ifstream in(std::string(TABULAR_SOURCE_DIR) + "/examples/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// -- VersionedDatabase -------------------------------------------------------

TEST(VersionedDatabaseTest, InitialVersionIsOne) {
  VersionedDatabase store{Db(kSalesFlat)};
  Snapshot snap = store.Current();
  EXPECT_EQ(snap.version, 1u);
  ASSERT_NE(snap.db, nullptr);
  EXPECT_TRUE(snap.db->HasTableNamed(core::Symbol::Name("Sales")));
  EXPECT_EQ(store.CommitCount(), 0u);
}

TEST(VersionedDatabaseTest, CommitAdvancesTheVersion) {
  VersionedDatabase store{Db(kSalesFlat)};
  auto v2 = store.Commit(1, core::TabularDatabase());
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(*v2, 2u);
  EXPECT_EQ(store.Current().version, 2u);
  EXPECT_EQ(store.Current().db->size(), 0u);
  EXPECT_EQ(store.CommitCount(), 1u);
  EXPECT_EQ(store.ConflictCount(), 0u);
}

TEST(VersionedDatabaseTest, StaleBaseVersionConflicts) {
  VersionedDatabase store{Db(kSalesFlat)};
  ASSERT_TRUE(store.Commit(1, Db(kSalesFlat)).ok());
  auto lost = store.Commit(1, core::TabularDatabase());
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kUndefined);
  EXPECT_NE(lost.status().message().find("commit conflict"),
            std::string::npos);
  // The losing commit left the store untouched.
  EXPECT_EQ(store.Current().version, 2u);
  EXPECT_EQ(store.Current().db->size(), 1u);
  EXPECT_EQ(store.ConflictCount(), 1u);
}

TEST(VersionedDatabaseTest, PinnedSnapshotsOutliveNewerCommits) {
  VersionedDatabase store{Db(kSalesFlat)};
  Snapshot pinned = store.Current();
  const std::string before = io::SerializeDatabase(*pinned.db);
  ASSERT_TRUE(store.Commit(1, core::TabularDatabase()).ok());
  // The old snapshot still reads its full database.
  EXPECT_EQ(io::SerializeDatabase(*pinned.db), before);
  EXPECT_EQ(store.Current().db->size(), 0u);
}

// -- Schema images -----------------------------------------------------------

TEST(SchemaImageTest, OneVersionHasOneImage) {
  VersionedDatabase store{Db(kSalesFlat)};
  const Snapshot a = store.Current();
  const Snapshot b = store.Current();
  EXPECT_EQ(&a.Image(), &b.Image());  // one object, by address
  EXPECT_EQ(a.Image().fingerprint, SchemaFingerprint(*a.db));
}

TEST(SchemaImageTest, ACommitPublishesANewImageAndPinnedSnapshotsKeepTheirs) {
  VersionedDatabase store{Db(kSalesFlat)};
  const Snapshot pinned = store.Current();
  const SchemaImage* pinned_image = &pinned.Image();
  ASSERT_TRUE(store.Commit(1, Db("!Sales | !Part | !Qty\n# | nuts | 5\n"))
                  .ok());
  const Snapshot next = store.Current();
  ASSERT_EQ(next.version, 2u);
  EXPECT_NE(&next.Image(), pinned_image);
  EXPECT_EQ(next.Image().fingerprint, SchemaFingerprint(*next.db));
  // The snapshot pinned before the commit still reads its own image.
  EXPECT_EQ(&pinned.Image(), pinned_image);
  EXPECT_EQ(pinned.Image().fingerprint, SchemaFingerprint(*pinned.db));
  EXPECT_NE(pinned.Image().fingerprint, next.Image().fingerprint);
}

TEST(SchemaImageTest, BuiltOnFirstUseNotOnPublication) {
  const char* builds = "server.schema_image.builds";
  const uint64_t before = obs::CounterValue(builds);
  VersionedDatabase store{Db(kSalesFlat)};
  ASSERT_TRUE(store.Commit(1, Db(kSalesFlat)).ok());
  EXPECT_EQ(obs::CounterValue(builds), before);
  // The first lookup builds the version's image; later ones read it.
  store.Current().Image();
  store.Current().Image();
  EXPECT_EQ(obs::CounterValue(builds), before + 1);
}

TEST(SchemaImageTest, LookupsThroughAVersionImageShareTheEntry) {
  VersionedDatabase store{Db(kSalesFlat)};
  ProgramCache cache;
  bool hit = true;
  auto first =
      cache.Get("T <- transpose (Sales);", store.Current().Image(), &hit);
  EXPECT_FALSE(hit);
  // The one-off image of an equal database keys the same entry.
  auto second = cache.Get("T <- transpose (Sales);", Db(kSalesFlat), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());
}

// -- Cache keying ------------------------------------------------------------

TEST(SchemaFingerprintTest, RowContentDoesNotChangeTheFingerprint) {
  // Same columns, different data rows within one log2 size class (2 and 3
  // rows): one coarsened class, one bucket, one fingerprint.
  const std::string fp2 = SchemaFingerprint(Db(kSalesFlat));
  const std::string fp3 = SchemaFingerprint(
      Db("!Sales | !Part  | !Region | !Sold\n"
         "#      | nuts   | east    | 50\n"
         "#      | bolts  | west    | 60\n"
         "#      | screws | north   | 70\n"));
  EXPECT_EQ(fp2, fp3);
}

TEST(SchemaFingerprintTest, CrossingARowSizeClassRekeys) {
  // 2 rows and 4 rows land in different log2 buckets: the entry's cached
  // cost report is only reused for databases within one doubling of the
  // compiling one, so a much larger database gets a fresh, honest
  // estimate instead of the stale small one.
  const std::string fp2 = SchemaFingerprint(Db(kSalesFlat));
  const std::string fp4 = SchemaFingerprint(
      Db("!Sales | !Part  | !Region | !Sold\n"
         "#      | nuts   | east    | 50\n"
         "#      | bolts  | west    | 60\n"
         "#      | screws | north   | 70\n"
         "#      | nails  | south   | 80\n"));
  EXPECT_NE(fp2, fp4);
}

TEST(SchemaFingerprintTest, EmptyAndNonemptyTablesDiffer) {
  // Zero data rows coarsens to =0, which analysis distinguishes from ≥1
  // (a while guard on the table behaves differently), so it must re-key.
  const std::string nonempty = SchemaFingerprint(Db(kSalesFlat));
  const std::string empty = SchemaFingerprint(
      Db("!Sales | !Part  | !Region | !Sold\n"));
  EXPECT_NE(nonempty, empty);
}

TEST(SchemaFingerprintTest, RenderingIsPinned) {
  // A literal, so that any change to the rendering — and with it to every
  // cache key — shows up here.
  EXPECT_EQ(SchemaFingerprint(Db(kSalesFlat)),
            "Sales=cols={Part, Region, Sold} rows={⊥} "
            "must_cols={Part, Region, Sold} must_rows={⊥} "
            "#rows[1,∞) #cols[1,∞) #tables[1,∞)!#2\n");
}

TEST(SchemaFingerprintTest, DifferentColumnsDiffer) {
  EXPECT_NE(SchemaFingerprint(Db(kSalesFlat)),
            SchemaFingerprint(Db("!Sales | !Part | !Qty\n# | nuts | 5\n")));
}

// -- ProgramCache ------------------------------------------------------------

TEST(ProgramCacheTest, SecondLookupHitsAndSharesTheEntry) {
  ProgramCache cache;
  bool hit = true;
  auto first = cache.Get("T <- transpose (Sales);", Db(kSalesFlat), &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(first->front_end.ok());

  auto second = cache.Get("T <- transpose (Sales);", Db(kSalesFlat), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());  // the same compiled object
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProgramCacheTest, SameShapeAndSizeClassDifferentRowsStillHits) {
  ProgramCache cache;
  cache.Get("T <- project {Part} (Sales);", Db(kSalesFlat));
  bool hit = false;
  cache.Get("T <- project {Part} (Sales);",
            Db("!Sales | !Part  | !Region | !Sold\n"
               "#      | screws | north   | 70\n"
               "#      | nails  | south   | 80\n"
               "#      | bolts  | west    | 90\n"),
            &hit);
  EXPECT_TRUE(hit);
}

TEST(ProgramCacheTest, DifferentSchemaMisses) {
  ProgramCache cache;
  cache.Get("T <- transpose (Sales);", Db(kSalesFlat));
  bool hit = true;
  cache.Get("T <- transpose (Sales);",
            Db("!Sales | !Part | !Qty\n# | nuts | 5\n"), &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProgramCacheTest, AnalysisErrorsAreNegativelyCached) {
  ProgramCache cache;
  bool hit = true;
  auto entry = cache.Get("T <- union (Sales);", Db(kSalesFlat), &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->front_end.ok());
  EXPECT_NE(entry->front_end.message().find("union expects 2 argument(s)"),
            std::string::npos)
      << entry->front_end.ToString();

  // The failure is served from cache — no recompile.
  auto again = cache.Get("T <- union (Sales);", Db(kSalesFlat), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(entry.get(), again.get());
}

TEST(ProgramCacheTest, LruEvictionDropsTheColdestEntry) {
  ProgramCache::Options options;
  options.capacity = 2;
  ProgramCache cache(options);
  const core::TabularDatabase db = Db(kSalesFlat);
  cache.Get("A <- transpose (Sales);", db);
  cache.Get("B <- transpose (Sales);", db);
  cache.Get("A <- transpose (Sales);", db);  // A is now most-recent
  cache.Get("C <- transpose (Sales);", db);  // evicts B
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);

  bool hit = false;
  cache.Get("A <- transpose (Sales);", db, &hit);
  EXPECT_TRUE(hit);
  cache.Get("B <- transpose (Sales);", db, &hit);
  EXPECT_FALSE(hit);  // B was evicted
}

TEST(ProgramCacheTest, AccountingStaysConsistentUnderEvictionPressure) {
  // Every lookup is exactly one hit or one miss — eviction churn and
  // negatively cached entries (front-end failures) must not double-count or
  // drop lookups, and the entry count must respect capacity throughout.
  ProgramCache::Options options;
  options.capacity = 3;
  ProgramCache cache(options);
  const core::TabularDatabase db = Db(kSalesFlat);
  // Cycle of 5 distinct keys (capacity 3) with a negatively cached program
  // (bad arity) interleaved; LCG-scrambled order so re-lookups mix hits
  // (recently used survives) and misses (evicted or first-seen).
  const std::vector<std::string> programs = {
      "A <- transpose (Sales);",   "B <- transpose (Sales);",
      "C <- project {Part} (Sales);", "Bad <- union (Sales);",
      "D <- transpose (Sales); D2 <- transpose (D);",
  };
  uint64_t lookups = 0;
  uint64_t state = 0x5EED;
  for (int round = 0; round < 40; ++round) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::string& text = programs[(state >> 33) % programs.size()];
    bool hit = false;
    auto entry = cache.Get(text, db, &hit);
    ASSERT_NE(entry, nullptr);
    if (text.compare(0, 3, "Bad") == 0) {
      EXPECT_FALSE(entry->front_end.ok());  // negative entry, cached like any
    } else {
      EXPECT_TRUE(entry->front_end.ok());
    }
    ++lookups;
    EXPECT_EQ(cache.hits() + cache.misses(), lookups);
    EXPECT_LE(cache.size(), options.capacity);
    // Cached entries (even misses that just compiled) are live: size equals
    // insertions minus evictions.
    EXPECT_EQ(cache.size(), cache.misses() - cache.evictions());
  }
  EXPECT_GT(cache.evictions(), 0u);  // 5 keys through 3 slots must churn
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), lookups);
}

TEST(ProgramCacheTest, ZeroCapacityCompilesEveryTime) {
  ProgramCache::Options options;
  options.capacity = 0;
  ProgramCache cache(options);
  const core::TabularDatabase db = Db(kSalesFlat);
  bool hit = true;
  auto a = cache.Get("T <- transpose (Sales);", db, &hit);
  EXPECT_FALSE(hit);
  auto b = cache.Get("T <- transpose (Sales);", db, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ProgramCacheTest, CertifiedRewritesLandInTheCachedForm) {
  ProgramCache cache;
  auto entry = cache.Get(ReadExample("optimize_unroll.ta"),
                         Db(std::string(
                             "!Sales | !Part  | !Region | !Sold\n"
                             "#      | nuts   | east    | 50\n")));
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->front_end.ok()) << entry->front_end.ToString();
  EXPECT_GT(entry->optimize_stats.applied, 0u);
  EXPECT_LT(entry->executable().statements.size(),
            entry->parsed.statements.size());
}

// -- The live server ---------------------------------------------------------

struct LiveServer {
  std::unique_ptr<Server> server;

  explicit LiveServer(core::TabularDatabase db = Db(kSalesFlat),
                      ServerOptions options = {}) {
    auto started = Server::Start(std::move(db), std::move(options));
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    server = std::move(*started);
  }

  Client Connect() {
    auto client = Client::ConnectTcp("127.0.0.1", server->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }
};

TEST(ServerTest, PingTablesAndStatsAnswer) {
  LiveServer live;
  Client client = live.Connect();
  EXPECT_TRUE(client.Ping().ok());
  auto tables = client.Tables();
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(*tables, "Sales\n");
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"version\":1"), std::string::npos) << *stats;
}

TEST(ServerTest, CommittedRunsAreVisibleToNewSessions) {
  LiveServer live;
  Client writer = live.Connect();
  auto run = writer.Run("Parts <- project {Part} (Sales);");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->executed_version, 1u);
  EXPECT_EQ(run->committed_version, 2u);

  Client reader = live.Connect();
  auto tables = reader.Tables();
  ASSERT_TRUE(tables.ok());
  EXPECT_NE(tables->find("Parts"), std::string::npos) << *tables;
  auto dump = reader.DumpDatabase();
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->version, 2u);
  EXPECT_NE(dump->database.find("!Parts"), std::string::npos);
}

TEST(ServerTest, UncommittedQueryLeavesTheVersionAlone) {
  LiveServer live;
  Client client = live.Connect();
  auto run = client.Run("Parts <- project {Part} (Sales);",
                        /*commit=*/false, /*want_dump=*/true);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->committed_version, 0u);
  EXPECT_NE(run->dump.find("!Parts"), std::string::npos);
  EXPECT_EQ(live.server->versions().Current().version, 1u);
}

TEST(ServerTest, FailingProgramsNeverCommit) {
  LiveServer live;
  Client client = live.Connect();
  const std::string before =
      io::SerializeDatabase(*live.server->versions().Current().db);
  // Statically an error: union is binary.
  auto run = client.Run("T <- union (Sales);");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(live.server->versions().Current().version, 1u);
  EXPECT_EQ(io::SerializeDatabase(*live.server->versions().Current().db),
            before);
  // The session survives its own failed request.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, RunawayGrowthFailsTheRequestNotTheDaemon) {
  // Generated program 820 of tests/program_gen.h: a product doubles Sales
  // on every loop iteration. The interpreter's stored-handle budget fails
  // the request closed instead of growing until the allocator gives up.
  ServerOptions options;
  options.interp.max_stored_handles = 1 << 16;
  LiveServer live(Db("!Sales | !Part  | !Region | !Sold\n"
                     "#      | nuts   | east    | 50\n"
                     "#      | bolts  | west    | 60\n"
                     "\n"
                     "!Tags | !Tag\n"
                     "#     | hot\n"
                     "#     | cold\n"),
                  std::move(options));
  Client client = live.Connect();
  auto run = client.Run(
      "while Sales do {\n"
      "  A <- project {Tag, Region} (Tags);\n"
      "  Sales <- product (A, Sales);\n"
      "  W <- transpose (W);\n"
      "  W <- transpose (W);\n"
      "}\n");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(run.status().message().find("stored handles"), std::string::npos)
      << run.status().ToString();
  EXPECT_EQ(live.server->versions().Current().version, 1u);
  // The session and the daemon keep serving.
  EXPECT_TRUE(client.Ping().ok());
  Client other = live.Connect();
  auto next = other.Run("Parts <- project {Part} (Sales);");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->committed_version, 2u);
}

TEST(ServerTest, RepeatedProgramsHitTheCompiledProgramCache) {
  LiveServer live;
  Client client = live.Connect();
  auto first = client.Run("Parts <- project {Part} (Sales);",
                          /*commit=*/false);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  auto second = client.Run("Parts <- project {Part} (Sales);",
                           /*commit=*/false);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(live.server->cache().hits(), 1u);
  EXPECT_EQ(live.server->cache().misses(), 1u);
}

// -- Admission control --------------------------------------------------------

constexpr std::string_view kSalesTags =
    "!Sales | !Part  | !Region | !Sold\n"
    "#      | nuts   | east    | 50\n"
    "#      | bolts  | west    | 60\n"
    "\n"
    "!Tags | !Tag\n"
    "#     | hot\n"
    "#     | cold\n";

ServerOptions Admit(uint64_t max_rows, uint64_t max_bytes = 0) {
  ServerOptions options;
  options.max_est_rows = max_rows;
  options.max_est_bytes = max_bytes;
  return options;
}

TEST(ServerAdmissionTest, StaticallyUnboundedProgramsNeverStartExecuting) {
  LiveServer live{Db(kSalesFlat), Admit(1000000)};
  Client client = live.Connect();
  obs::Counter& rejected = obs::GetCounter("server.admission.rejected");
  obs::Counter& unbounded = obs::GetCounter("server.admission.unbounded");
  const uint64_t rejected_before = rejected.Value();
  const uint64_t unbounded_before = unbounded.Value();
  // Sales never changes inside the body, so this loop would spin forever
  // if executed; the cost model proves the trip count unbounded and
  // admission refuses before the interpreter ever sees it.
  auto run = client.Run("while Sales do { T <- union (Sales, Sales); }");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kAdmissionRejected);
  EXPECT_NE(run.status().message().find("statement 1.1"), std::string::npos)
      << run.status().ToString();
  EXPECT_NE(run.status().message().find("statically unbounded"),
            std::string::npos);
  EXPECT_EQ(rejected.Value(), rejected_before + 1);
  EXPECT_EQ(unbounded.Value(), unbounded_before + 1);
  // Nothing committed, and the session survives its refused request.
  EXPECT_EQ(live.server->versions().Current().version, 1u);
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerAdmissionTest, EstimatedRowsOverTheLimitRejectWithThePath) {
  LiveServer live{Db(kSalesTags), Admit(/*max_rows=*/3)};
  Client client = live.Connect();
  obs::Counter& admitted = obs::GetCounter("server.admission.admitted");
  const uint64_t admitted_before = admitted.Value();
  auto run = client.Run("Big <- product (Sales, Tags);");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kAdmissionRejected);
  EXPECT_NE(run.status().message().find("statement 1"), std::string::npos)
      << run.status().ToString();
  EXPECT_NE(run.status().message().find("estimated rows 4 exceed limit 3"),
            std::string::npos)
      << run.status().ToString();
  EXPECT_EQ(live.server->versions().Current().version, 1u);

  // An in-budget program on the same server is admitted and runs.
  auto ok = client.Run("Parts <- project {Part} (Sales);");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(admitted.Value(), admitted_before + 1);
}

TEST(ServerAdmissionTest, EstimatedBytesOverTheLimitReject) {
  LiveServer live{Db(kSalesTags), Admit(/*max_rows=*/0, /*max_bytes=*/8)};
  Client client = live.Connect();
  auto run = client.Run("Big <- product (Sales, Tags);");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kAdmissionRejected);
  EXPECT_NE(run.status().message().find("estimated bytes"), std::string::npos)
      << run.status().ToString();
  EXPECT_NE(run.status().message().find("exceed limit 8"), std::string::npos);
}

TEST(ServerAdmissionTest, RejectionIsServedFromTheCompiledProgramCache) {
  LiveServer live{Db(kSalesTags), Admit(/*max_rows=*/3)};
  Client client = live.Connect();
  const std::string program = "Big <- product (Sales, Tags);";
  ASSERT_FALSE(client.Run(program).ok());
  auto again = client.Run(program);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAdmissionRejected);
  // The second rejection cost one cache lookup, not a recompile: the cost
  // summary lives on the cached entry.
  EXPECT_EQ(live.server->cache().hits(), 1u);
  EXPECT_EQ(live.server->cache().misses(), 1u);
}

TEST(ServerAdmissionTest, ObservedRowsFeedTheNextAdmissionDecision) {
  // Sales (2 rows) × Tags (2 rows), plus a one-row Extra used to grow Tags
  // in place without leaving its fingerprint size class.
  LiveServer live{Db("!Sales | !Part  | !Region | !Sold\n"
                     "#      | nuts   | east    | 50\n"
                     "#      | bolts  | west    | 60\n"
                     "\n"
                     "!Tags | !Tag\n"
                     "#     | hot\n"
                     "#     | cold\n"
                     "\n"
                     "!Extra | !Tag\n"
                     "#      | warm\n"),
                  Admit(/*max_rows=*/5)};
  Client client = live.Connect();
  const std::string program = "Big <- product (Sales, Tags);";
  // Static peak: Big = 2 × 2 = 4 rows ≤ 5 — admitted. The run feeds back
  // Big's observed 4 rows (the pool the program writes — NOT the
  // whole-database total, which would poison admission with resident
  // tables the program never touched).
  auto first = client.Run(program, /*commit=*/false);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Grow Tags to 3 rows. Same log2 size class as 2, so the cached entry —
  // and its now-optimistic static estimate of 4 — is reused as-is.
  auto grow = client.Run("Tags <- union (Tags, Extra);");
  ASSERT_TRUE(grow.ok()) << grow.status().ToString();
  // The stale estimate (4 ≤ 5) admits the bigger product once more...
  auto second = client.Run(program, /*commit=*/false);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->cache_hit);
  // ...but its observed 6-row output overrides the optimistic static
  // bound: the next run is refused without executing.
  auto third = client.Run(program, /*commit=*/false);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kAdmissionRejected);
  EXPECT_NE(third.status().message().find("exceed limit 5"),
            std::string::npos)
      << third.status().ToString();
}

TEST(ServerAdmissionTest, ResidentRowsOutsideTheProgramNeverCountAgainstIt) {
  // The database's total row count (8) already exceeds the limit (5). A
  // program whose own output is small must be admitted run after run:
  // feedback measures the pools the program writes, so the resident
  // Archive rows are invisible to it.
  LiveServer live{Db("!Archive | !K\n"
                     "#        | a\n"
                     "#        | b\n"
                     "#        | c\n"
                     "#        | d\n"
                     "#        | e\n"
                     "#        | f\n"
                     "\n"
                     "!Sales | !Part  | !Region\n"
                     "#      | nuts   | east\n"
                     "#      | bolts  | west\n"),
                  Admit(/*max_rows=*/5)};
  Client client = live.Connect();
  obs::Counter& admitted = obs::GetCounter("server.admission.admitted");
  const uint64_t admitted_before = admitted.Value();
  for (int i = 0; i < 3; ++i) {
    auto run = client.Run("Parts <- project {Part} (Sales);",
                          /*commit=*/false);
    ASSERT_TRUE(run.ok()) << "run " << i << ": " << run.status().ToString();
  }
  EXPECT_EQ(admitted.Value(), admitted_before + 3);
}

TEST(ServerAdmissionTest, PoolsNamedOnlyByUnexecutedStatementsAreNotOutput) {
  // The inner loop's guard names a table that never exists, so its body
  // never runs and no executed statement writes Archive (6 rows, over the
  // limit). The static peak is G's 2 rows. Feedback measures the tables a
  // run created, so Archive's resident rows never count as the program's
  // output, and every run is admitted.
  LiveServer live{Db("!Archive | !K\n"
                     "#        | a\n"
                     "#        | b\n"
                     "#        | c\n"
                     "#        | d\n"
                     "#        | e\n"
                     "#        | f\n"
                     "\n"
                     "!Tags | !Tag\n"
                     "#     | hot\n"
                     "#     | cold\n"),
                  Admit(/*max_rows=*/5)};
  Client client = live.Connect();
  obs::Counter& admitted = obs::GetCounter("server.admission.admitted");
  const uint64_t admitted_before = admitted.Value();
  const std::string program =
      "G <- selectconst Tag = 'hot' (Tags);\n"
      "while G do {\n"
      "  while Nope do { Archive <- project {K} (Archive); }\n"
      "  G <- difference (G, G);\n"
      "}\n";
  for (int i = 0; i < 3; ++i) {
    auto run = client.Run(program, /*commit=*/false);
    ASSERT_TRUE(run.ok()) << "run " << i << ": " << run.status().ToString();
  }
  EXPECT_EQ(admitted.Value(), admitted_before + 3);
}

TEST(ProgramCacheTest, EffectiveRowEstimateBlendsStaticAndObserved) {
  CompiledProgram p;
  p.cost.peak_rows = 1000;
  EXPECT_EQ(p.EffectiveRowEstimate(), 1000u);  // never run: static bound
  p.RecordObservedRows(10);
  EXPECT_EQ(p.EffectiveRowEstimate(), 1000u);  // observed below static
  p.RecordObservedRows(6);                     // smaller runs never regress it
  EXPECT_EQ(p.EffectiveRowEstimate(), 1000u);
  p.RecordObservedRows(600);
  EXPECT_EQ(p.EffectiveRowEstimate(), 1000u);  // capped at the static bound
  p.RecordObservedRows(4000);  // observed above static: trust observation
  EXPECT_EQ(p.EffectiveRowEstimate(), 4000u);

  CompiledProgram unbounded;
  unbounded.cost.peak_rows = analysis::CardInterval::kInf;
  unbounded.RecordObservedRows(10);
  // An unbounded static verdict is never overridden by a finite run.
  EXPECT_EQ(unbounded.EffectiveRowEstimate(), analysis::CardInterval::kInf);
}

TEST(ProgramCacheTest, EffectiveByteEstimateBlendsStaticAndObserved) {
  CompiledProgram p;
  p.cost.peak_bytes = 4000;
  EXPECT_EQ(p.EffectiveByteEstimate(), 4000u);  // never run: static bound
  p.RecordObservedBytes(100);
  EXPECT_EQ(p.EffectiveByteEstimate(), 4000u);  // observed below static
  p.RecordObservedBytes(8000);  // observed above static: trust observation
  EXPECT_EQ(p.EffectiveByteEstimate(), 8000u);
}

TEST(ProgramCacheTest, CreatedTablePeaksCountOnlyTheTablesARunAdded) {
  const core::TabularDatabase before = Db(kSalesTags);
  core::TabularDatabase after = before;
  // Sales (2 rows × 3 columns) stays the snapshot's own table; Tags is
  // replaced by an equal copy, and a new name carries two tables.
  const core::Table tags = after.Named(core::Symbol::Name("Tags"))[0];
  after.RemoveNamed(core::Symbol::Name("Tags"));
  after.Add(tags);
  core::Table wide = after.Named(core::Symbol::Name("Sales"))[0];
  wide.set_name(core::Symbol::Name("Out"));
  after.Add(wide);
  after.Add(wide);
  const OutputPeaks peaks = CreatedTablePeaks(before, after);
  EXPECT_EQ(peaks.rows, 4u);           // Out: 2 + 2 rows
  EXPECT_EQ(peaks.bytes, 4u * 3 * 4);  // 4 rows × 3 columns × 4 B
  EXPECT_EQ(CreatedTablePeaks(before, before).rows, 0u);
}

// -- Byte identity with the single-shot interpreter --------------------------

TEST(ServerTest, ExamplesMatchTheSingleShotInterpreterByteForByte) {
  namespace fs = std::filesystem;
  const core::TabularDatabase initial =
      Db([] {
        std::ifstream in(std::string(TABULAR_SOURCE_DIR) +
                         "/examples/sales.tdb");
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
      }());

  size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(
           std::string(TABULAR_SOURCE_DIR) + "/examples")) {
    if (entry.path().extension() != ".ta") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    std::stringstream src;
    src << in.rdbuf();

    // Single shot: parse + run in process on a private copy.
    core::TabularDatabase local = initial;
    Status single_shot = Status::OK();
    auto program = lang::ParseProgram(src.str());
    if (program.ok()) {
      lang::Interpreter interp;
      single_shot = interp.Run(*program, &local);
    } else {
      single_shot = program.status();
    }

    // Server: a fresh server per example so every program sees the same
    // initial database the single shot did.
    LiveServer live{initial};
    Client client = live.Connect();
    auto run = client.Run(src.str(), /*commit=*/true, /*want_dump=*/true);

    if (single_shot.ok()) {
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->dump, io::SerializeDatabase(local));
      // And the committed version dumps identically too.
      auto dump = client.DumpDatabase();
      ASSERT_TRUE(dump.ok());
      EXPECT_EQ(dump->database, io::SerializeDatabase(local));
    } else {
      EXPECT_FALSE(run.ok())
          << "server accepted a program the single shot rejects";
    }
    ++checked;
  }
  EXPECT_GE(checked, 4u);  // the shipped examples
}

TEST(ServerOracleTest, GeneratedCommitHistoryMatchesTheSingleShotInterpreter) {
  // The generator's 1,000 programs, in order, committed one after another
  // to a server and replayed single-shot on one database. A server run
  // commits all or nothing, so the single-shot replay keeps a program's
  // result only when the run succeeded, and the server's head must then
  // hold the same tables. The history runs in segments: when a program
  // leaves no table, the segment's version count is checked and the next
  // segment starts a fresh server and database from `kGrid`, so every
  // program runs on a non-empty database.
  constexpr size_t kHandleBudget = size_t{1} << 20;  // as optimizer_oracle
  constexpr size_t kPrograms = 1000;
  const core::TabularDatabase initial = Db(testgen::kGrid);
  ServerOptions options;
  options.interp.max_stored_handles = kHandleBudget;
  lang::InterpreterOptions single_options;
  single_options.max_stored_handles = kHandleBudget;

  testgen::ProgramGenerator gen(0x5EED);
  size_t committed = 0;
  size_t on_tables = 0;  // programs that ran on a non-empty database
  size_t segments = 0;
  for (size_t i = 0; i < kPrograms;) {
    ++segments;
    LiveServer live{initial, options};
    Client client = live.Connect();
    core::TabularDatabase single = initial;
    size_t segment_commits = 0;
    for (; i < kPrograms && single.size() > 0; ++i) {
      const std::string text = gen.Program();
      const Snapshot pinned = live.server->versions().Current();
      if (pinned.db->size() > 0) ++on_tables;
      auto run = client.Run(text, /*commit=*/true);

      core::TabularDatabase next = single;
      auto program = lang::ParseProgram(text);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      lang::Interpreter interp(single_options);
      const Status single_shot = interp.Run(*program, &next);
      ASSERT_EQ(run.ok(), single_shot.ok())
          << "program " << i << ": server "
          << (run.ok() ? "OK" : run.status().ToString()) << ", single shot "
          << single_shot.ToString() << "\n" << text;
      // The request ran against the pinned version, through that version's
      // own image: a stale image would key a different schema.
      EXPECT_EQ(pinned.Image().fingerprint, SchemaFingerprint(*pinned.db))
          << "version " << pinned.version;
      if (!single_shot.ok()) continue;
      EXPECT_EQ(run->executed_version, pinned.version) << "program " << i;
      EXPECT_EQ(run->committed_version, pinned.version + 1)
          << "program " << i;
      single = std::move(next);
      ++segment_commits;
      EXPECT_EQ(testing::TablesUpToOrder(*live.server->versions().Current().db),
                testing::TablesUpToOrder(single))
          << "program " << i;
    }
    committed += segment_commits;

    const Snapshot head = live.server->versions().Current();
    EXPECT_EQ(head.version, 1 + segment_commits) << "segment " << segments;
    EXPECT_EQ(head.Image().fingerprint, SchemaFingerprint(*head.db));
  }

  EXPECT_EQ(on_tables, kPrograms);
  EXPECT_GT(segments, 1u);  // the history does empty the database
  // Both outcomes are exercised: most programs commit, some fail.
  EXPECT_GT(committed, 500u);
  EXPECT_LT(committed, 1000u);
}

// -- Table sharing across versions -------------------------------------------

TEST(ServerSharingTest, CommitsShareEveryUntouchedTableWithTheParent) {
  // A second Tags carrier: duplicate names are shared like any table.
  LiveServer live{Db(std::string(kSalesTags) + "\n!Tags | !Tag\n# | warm\n")};
  const Snapshot parent = live.server->versions().Current();
  const std::string parent_bytes = io::SerializeDatabase(*parent.db);

  Client client = live.Connect();
  auto run = client.Run("Sales <- project {Part, Sold} (Sales);\n"
                        "Parts <- project {Part} (Sales);\n");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const Snapshot next = live.server->versions().Current();
  ASSERT_EQ(next.version, 2u);
  ASSERT_EQ(next.db->size(), 4u);  // Tags twice, Sales, Parts

  // Every table the program did not write is the parent's storage, by
  // address; the one it rewrote is not.
  std::set<const core::Table*> next_tables;
  for (const core::Table& t : next.db->tables()) next_tables.insert(&t);
  for (const core::Table& t : parent.db->tables()) {
    const bool written = t.name() == core::Symbol::Name("Sales");
    EXPECT_NE(next_tables.contains(&t), written) << t.name().ToString();
  }
  // The snapshot pinned before the commit reads exactly what it did.
  EXPECT_EQ(io::SerializeDatabase(*parent.db), parent_bytes);
}

TEST(ServerSharingTest, SessionsRacingOnAFreshVersionAgreeOnTheFingerprint) {
  LiveServer live;
  // The commit stores a freshly built Sales whose row-attribute memo
  // nothing has filled yet, and publishes version 2 with an empty image
  // slot; the racing lookups below fill both.
  Client writer = live.Connect();
  ASSERT_TRUE(writer.Run("Sales <- rename Qty / Sold (Sales);").ok());
  const Snapshot fresh = live.server->versions().Current();
  ASSERT_EQ(fresh.version, 2u);
  const uint64_t misses_before = live.server->cache().misses();
  const uint64_t builds_before =
      obs::CounterValue("server.schema_image.builds");

  constexpr int kSessions = 4;
  std::vector<Client> clients;
  for (int i = 0; i < kSessions; ++i) {
    clients.push_back(live.Connect());
    ASSERT_TRUE(clients.back().Negotiate().ok());
  }
  std::atomic<int> ready{0};
  std::vector<std::thread> sessions;
  for (Client& client : clients) {
    sessions.emplace_back([&ready, &client] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kSessions) {
        std::this_thread::yield();
      }
      auto run = client.Run("R <- project {Part} (Sales);", /*commit=*/false);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->executed_version, 2u);
    });
  }
  for (std::thread& t : sessions) t.join();

  // Four lookups, one compile: every session keyed the program by the same
  // fingerprint (racing compiles of one key count as hits).
  EXPECT_EQ(live.server->cache().misses() - misses_before, 1u);
  EXPECT_EQ(SchemaFingerprint(*fresh.db),
            SchemaFingerprint(Db("!Sales | !Part  | !Region | !Qty\n"
                                 "#      | nuts   | east    | 50\n"
                                 "#      | bolts  | west    | 60\n")));
  // The sessions published one image for the version: each built at most
  // one copy, and the version now reads the published one without a
  // further build.
  const uint64_t built = obs::CounterValue("server.schema_image.builds");
  EXPECT_GE(built - builds_before, 1u);
  EXPECT_LE(built - builds_before, static_cast<uint64_t>(kSessions));
  const SchemaImage& published = fresh.Image();
  EXPECT_EQ(obs::CounterValue("server.schema_image.builds"), built);
  EXPECT_EQ(&live.server->versions().Current().Image(), &published);
  EXPECT_EQ(published.fingerprint, SchemaFingerprint(*fresh.db));
}

// -- Snapshot isolation under concurrency ------------------------------------

TEST(ServerTest, ReadersSeeCommitsAtomicallyWhileWritersRun) {
  LiveServer live;

  // The writer's program creates TWO tables in one commit; a reader must
  // observe both or neither — never a half-applied program — and versions
  // must be monotonic within a session.
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    Client client = live.Connect();
    auto run = client.Run(
        "Alpha <- project {Part} (Sales);\n"
        "Beta <- project {Region} (Sales);\n");
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      Client client = live.Connect();
      uint64_t last_version = 0;
      bool saw_both = false;
      // Keep reading until the commit has landed and we observed it.
      while (!saw_both || !writer_done.load(std::memory_order_acquire)) {
        auto dump = client.DumpDatabase();
        ASSERT_TRUE(dump.ok()) << dump.status().ToString();
        EXPECT_GE(dump->version, last_version);
        last_version = dump->version;
        const bool alpha = dump->database.find("!Alpha") != std::string::npos;
        const bool beta = dump->database.find("!Beta") != std::string::npos;
        EXPECT_EQ(alpha, beta) << "half-applied commit visible:\n"
                               << dump->database;
        if (alpha && beta) saw_both = true;
      }
    });
  }

  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(live.server->versions().Current().version, 2u);
}

std::string WriterTable(int writer, int commit) {
  std::string name = "W";
  name += std::to_string(writer);
  name += "C";
  name += std::to_string(commit);
  return name;
}

TEST(ServerTest, ConflictingWritersSerializeWithRetry) {
  LiveServer live;
  constexpr int kWriters = 4;
  constexpr int kCommitsPerWriter = 8;

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&live, w] {
      Client client = live.Connect();
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        const std::string program =
            WriterTable(w, i) + " <- project {Part} (Sales);";
        for (;;) {
          auto run = client.Run(program);
          if (run.ok()) break;
          // The only acceptable failure is a first-committer-wins
          // conflict; re-execute against a fresh snapshot.
          ASSERT_EQ(run.status().code(), StatusCode::kUndefined)
              << run.status().ToString();
        }
      }
    });
  }
  for (auto& t : writers) t.join();

  // Every commit eventually landed, versions form a linear history.
  const Snapshot final_snap = live.server->versions().Current();
  EXPECT_EQ(final_snap.version,
            1u + static_cast<uint64_t>(kWriters * kCommitsPerWriter));
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kCommitsPerWriter; ++i) {
      EXPECT_TRUE(
          final_snap.db->HasTableNamed(core::Symbol::Name(WriterTable(w, i))));
    }
  }
}

// -- Graceful shutdown -------------------------------------------------------

TEST(ServerTest, ShutdownRefusesNewSessionsAndDrains) {
  LiveServer live;
  Client client = live.Connect();
  ASSERT_TRUE(client.Ping().ok());

  live.server->RequestShutdown();

  // New connections are refused: the accept loop closes them, so the
  // first round trip fails cleanly.
  auto late = Client::ConnectTcp("127.0.0.1", live.server->port());
  if (late.ok()) {
    EXPECT_FALSE(late->Ping().ok());
  }

  live.server->Shutdown();
  EXPECT_EQ(live.server->Stats().sessions_active, 0u);
}

TEST(ServerTest, IdleShutdownDoesNotWaitOutTheDrainingPoll) {
  // Directly, and as the daemon does it (RequestShutdown from the signal
  // watcher, Shutdown a moment later, once the accept loop is draining).
  for (bool requested_first : {false, true}) {
    for (int cycle = 0; cycle < 20; ++cycle) {
      SCOPED_TRACE(std::string(requested_first ? "requested, " : "direct, ") +
                   "cycle " + std::to_string(cycle));
      const auto t0 = std::chrono::steady_clock::now();
      LiveServer live;
      if (requested_first) {
        live.server->RequestShutdown();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      live.server->Shutdown();
      EXPECT_LT(std::chrono::steady_clock::now() - t0,
                std::chrono::milliseconds(25));
    }
  }
}

TEST(ServerTest, ClientShutdownRequestDrainsTheServer) {
  LiveServer live;
  Client client = live.Connect();
  EXPECT_TRUE(client.Shutdown().ok());  // the server answers, then drains
  EXPECT_TRUE(live.server->ShutdownRequested());
  live.server->WaitForShutdownRequest();  // must not block
  live.server->Shutdown();
}

// -- Request-scoped observability --------------------------------------------

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Sends one raw HTTP request to localhost `port` and returns the whole
/// response (the metrics responder is HTTP/1.0: it closes after one).
std::string HttpGet(uint16_t port, std::string_view request) {
  const int fd = RawConnect(port);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ServerObsTest, NegotiationGrantsTheFullFeatureSet) {
  LiveServer live;
  Client client = live.Connect();
  EXPECT_EQ(client.features(), 0);  // nothing before negotiation
  auto negotiated = client.Negotiate();
  ASSERT_TRUE(negotiated.ok()) << negotiated.status().ToString();
  EXPECT_EQ(negotiated->features, kServerFeatures);
  EXPECT_EQ(negotiated->protocol_version, kProtocolVersion);
  EXPECT_EQ(client.features(), kServerFeatures);
}

TEST(ServerObsTest, ZeroFeatureMaskServerGrantsNothingButStillServes) {
  // A server configured down to the version-1 feature set: runs work, the
  // version-2 conveniences fail client-side with a clear error instead of
  // sending frames the server would not understand.
  ServerOptions options;
  options.feature_mask = 0;
  LiveServer live{Db(kSalesFlat), std::move(options)};
  Client client = live.Connect();
  auto negotiated = client.Negotiate();
  ASSERT_TRUE(negotiated.ok());
  EXPECT_EQ(negotiated->features, 0);

  auto run = client.Run("Parts <- project {Part} (Sales);", /*commit=*/false);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->has_profile);

  for (Status st : {client.Profile("T <- transpose (Sales);").status(),
                    client.SlowLog().status(),
                    client.MetricsProm().status()}) {
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("feature"), std::string::npos)
        << st.ToString();
  }
}

TEST(ServerObsTest, Version1RawFramesGetByteIdenticalAnswers) {
  // A PR-6-era client speaks version 1: bare pings and two-flag run frames.
  // The new server's answers must be byte-for-byte what a version-1 server
  // sent — no negotiation bytes, no trailing extensions.
  LiveServer live;
  const int fd = RawConnect(live.server->port());

  ASSERT_TRUE(WriteFrame(fd, EncodeBareRequest(MsgType::kPing)).ok());
  auto pong = ReadFrame(fd);
  ASSERT_TRUE(pong.ok());
  ASSERT_TRUE(pong->has_value());
  EXPECT_EQ(**pong, EncodeOkEmpty());

  // Hand-built version-1 run frame: type, flags (commit | want_dump),
  // program string — nothing else.
  std::string run;
  PutU8(&run, static_cast<uint8_t>(MsgType::kRun));
  PutU8(&run, 0x03);
  PutString(&run, "Parts <- project {Part} (Sales);");
  ASSERT_TRUE(WriteFrame(fd, run).ok());
  auto resp = ReadFrame(fd);
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp->has_value());
  RunResponse decoded;
  ASSERT_TRUE(DecodeRunResponse(**resp, &decoded).ok());
  EXPECT_FALSE(decoded.has_profile);
  EXPECT_NE(decoded.dump.find("!Parts"), std::string::npos);
  // Re-encoding the decoded fields reproduces the payload exactly: the
  // response carried only the version-1 bytes.
  EXPECT_EQ(EncodeRunResponse(decoded), **resp);
  ::close(fd);
}

TEST(ServerObsTest, ProfileOverTheWireCarriesTreeAndCounterDeltas) {
  LiveServer live;
  Client client = live.Connect();
  const std::string program = "G <- group by {Region} on {Sold} (Sales);";
  auto profiled = client.Profile(program);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  ASSERT_TRUE(profiled->has_profile);
  // The rendered tree attributes instantiations and shapes per statement.
  EXPECT_NE(profiled->profile_text.find("inst="), std::string::npos)
      << profiled->profile_text;
  EXPECT_NE(profiled->profile_text.find("group by {Region}"),
            std::string::npos);
  // The counter deltas name the operators the run exercised.
  EXPECT_NE(profiled->counters_json.find("\"algebra.group.calls\":1"),
            std::string::npos)
      << profiled->counters_json;
  EXPECT_NE(profiled->counters_json.find("algebra.group.rows_in"),
            std::string::npos);

  // A plain run on the same session stays extension-free.
  auto plain = client.Run(program, /*commit=*/false);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_profile);
  EXPECT_TRUE(plain->profile_text.empty());
}

TEST(ServerObsTest, SlowLogDrainsOverTheWire) {
  ServerOptions options;
  options.slow_query_micros = 0;  // log every request
  LiveServer live{Db(kSalesFlat), std::move(options)};
  Client client = live.Connect();
  const std::string program = "Parts <- project {Part} (Sales);";
  ASSERT_TRUE(client.Run(program, /*commit=*/false).ok());
  ASSERT_TRUE(client.Run(program, /*commit=*/false).ok());

  auto slow = client.SlowLog();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(slow->threshold_micros, 0u);
  ASSERT_EQ(slow->entries.size(), 2u);  // pings and drains are not runs
  const obs::QueryLogEntry& first = slow->entries[0];
  const obs::QueryLogEntry& second = slow->entries[1];
  EXPECT_EQ(first.program_hash, obs::Fnv1a64(program));
  EXPECT_EQ(first.session_id, second.session_id);
  EXPECT_GE(first.session_id, 1u);
  // The client attached consecutive request ids under kFeatureRequestIds.
  EXPECT_GT(first.request_id, 0u);
  EXPECT_EQ(second.request_id, first.request_id + 1);
  EXPECT_EQ(first.rows_in, 2u);  // kSalesFlat data rows
  EXPECT_EQ(first.snapshot_version, 1u);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(first.ok);

  // Drained means drained: a second request sees an empty log.
  auto again = client.SlowLog();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->entries.empty());
}

TEST(ServerObsTest, FailedRunsEnterTheSlowLogAsErrors) {
  ServerOptions options;
  options.slow_query_micros = 0;
  LiveServer live{Db(kSalesFlat), std::move(options)};
  Client client = live.Connect();
  ASSERT_FALSE(client.Run("T <- union (Sales);").ok());
  auto slow = client.SlowLog();
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(slow->entries.size(), 1u);
  EXPECT_FALSE(slow->entries[0].ok);
  EXPECT_EQ(slow->entries[0].program_hash,
            obs::Fnv1a64("T <- union (Sales);"));
}

TEST(ServerObsTest, DisabledSlowLogAnswersWithTheSentinel) {
  ServerOptions options;
  options.slow_query_micros = obs::QueryLog::kDisabled;
  LiveServer live{Db(kSalesFlat), std::move(options)};
  Client client = live.Connect();
  ASSERT_TRUE(client.Run("Parts <- project {Part} (Sales);").ok());
  auto slow = client.SlowLog();
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->threshold_micros, obs::QueryLog::kDisabled);
  EXPECT_TRUE(slow->entries.empty());
}

TEST(ServerObsTest, RequestLatencyHistogramIsTheCanonicalSource) {
  // The bench derives its p50/p99 from server.request.latency; every
  // request a session handles must land exactly one recording there.
  LiveServer live;
  obs::Histogram& latency = obs::GetHistogram("server.request.latency");
  const obs::Histogram::Snapshot before = latency.Snap();
  Client client = live.Connect();
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Run("Parts <- project {Part} (Sales);",
                         /*commit=*/false)
                  .ok());
  ASSERT_TRUE(client.Tables().ok());
  const obs::Histogram::Snapshot delta =
      obs::Histogram::Delta(latency.Snap(), before);
  // Ping (plus the lazy negotiation ping), run, tables: at least 3.
  EXPECT_GE(delta.count, 3u);
  EXPECT_GE(obs::HistogramPercentile(delta, 0.99),
            obs::HistogramPercentile(delta, 0.5));
}

TEST(ServerObsTest, TraceSpansNestInterpreterUnderTaggedRequestRoots) {
  // The TABULAR_TRACE story: concurrent sessions produce one root
  // "server.request" span per request, tagged with session/request ids and
  // snapshot/cache context, with the interpreter's span nested inside on
  // the same thread's track.
  obs::Tracing::Clear();
  obs::Tracing::Enable();
  {
    LiveServer live;
    std::vector<std::thread> workers;
    for (int w = 0; w < 3; ++w) {
      workers.emplace_back([&live, w] {
        Client client = live.Connect();
        const std::string table = "W" + std::to_string(w);
        ASSERT_TRUE(
            client.Run(table + " <- project {Part} (Sales);",
                       /*commit=*/false)
                .ok());
      });
    }
    for (auto& t : workers) t.join();
  }
  obs::Tracing::Disable();
  const std::string json = obs::Tracing::ToJson();
  EXPECT_NE(json.find("\"server.request\""), std::string::npos);
  EXPECT_NE(json.find("\"interpreter.run\""), std::string::npos);
  EXPECT_NE(json.find("\"session\":"), std::string::npos);
  EXPECT_NE(json.find("\"request\":"), std::string::npos);
  EXPECT_NE(json.find("\"snapshot\":1"), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit\":0"), std::string::npos);
  obs::Tracing::Clear();
}

TEST(ServerObsTest, PrometheusExpositionOverWireAndHttpAgree) {
  ServerOptions options;
  options.metrics_port = 0;  // ephemeral HTTP endpoint
  LiveServer live{Db(kSalesFlat), std::move(options)};
  ASSERT_GT(live.server->metrics_port(), 0);
  Client client = live.Connect();
  ASSERT_TRUE(client.Run("Parts <- project {Part} (Sales);",
                         /*commit=*/false)
                  .ok());

  auto wire = client.MetricsProm();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_NE(
      wire->find("# TYPE tabular_server_request_latency histogram"),
      std::string::npos)
      << *wire;
  EXPECT_NE(wire->find("tabular_server_request_latency_bucket{le=\"+Inf\"}"),
            std::string::npos);

  const std::string ok = HttpGet(
      static_cast<uint16_t>(live.server->metrics_port()),
      "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(ok.find("200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(ok.find("tabular_server_request_latency_count"),
            std::string::npos);

  EXPECT_NE(HttpGet(static_cast<uint16_t>(live.server->metrics_port()),
                    "GET /favicon.ico HTTP/1.0\r\n\r\n")
                .find("404"),
            std::string::npos);
  EXPECT_NE(HttpGet(static_cast<uint16_t>(live.server->metrics_port()),
                    "POST /metrics HTTP/1.0\r\n\r\n")
                .find("405"),
            std::string::npos);
}

// -- Hostile peers -----------------------------------------------------------

TEST(ServerFuzzTest, WellFramedGarbageGetsAnErrorAndTheSessionLives) {
  LiveServer live;
  const int fd = RawConnect(live.server->port());

  uint64_t rng = 0xC0FFEE;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (int round = 0; round < 32; ++round) {
    std::string junk;
    const size_t len = 1 + next() % 24;
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(next() & 0xFF));
    }
    // Force a request-range type byte so the frame is "plausible" but the
    // body is garbage (or the type is unknown) — excluding kShutdown,
    // which a server rightly honors by draining.
    uint8_t type_byte = static_cast<uint8_t>(next() % 96);
    if (type_byte == static_cast<uint8_t>(MsgType::kShutdown)) ++type_byte;
    junk[0] = static_cast<char>(type_byte);
    ASSERT_TRUE(WriteFrame(fd, junk).ok());
    auto resp = ReadFrame(fd);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_TRUE(resp->has_value()) << "server dropped a framed request";
    // Every answer is a well-formed kOk or kError payload.
    ASSERT_FALSE((*resp)->empty());
    const uint8_t type = static_cast<uint8_t>((**resp)[0]);
    EXPECT_TRUE(type == static_cast<uint8_t>(MsgType::kOk) ||
                type == static_cast<uint8_t>(MsgType::kError))
        << "type=" << int(type);
  }

  // The session is still usable for real work afterwards.
  ASSERT_TRUE(WriteFrame(fd, EncodeBareRequest(MsgType::kPing)).ok());
  auto pong = ReadFrame(fd);
  ASSERT_TRUE(pong.ok());
  ASSERT_TRUE(pong->has_value());
  EXPECT_EQ(static_cast<uint8_t>((**pong)[0]),
            static_cast<uint8_t>(MsgType::kOk));
  ::close(fd);

  // And the server itself is unharmed.
  Client client = live.Connect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerFuzzTest, BrokenFramingDropsOnlyThatSession) {
  LiveServer live;

  {  // Truncated length prefix, then close.
    const int fd = RawConnect(live.server->port());
    const char two[] = {0x7F, 0x00};
    ASSERT_EQ(::write(fd, two, 2), 2);
    ::close(fd);
  }
  {  // Oversized frame announcement.
    const int fd = RawConnect(live.server->port());
    std::string prefix;
    PutU32(&prefix, kMaxFramePayload + 7);
    ASSERT_EQ(::write(fd, prefix.data(), prefix.size()), 4);
    // The server answers with a parse error (best effort) and drops us.
    auto resp = ReadFrame(fd);
    if (resp.ok() && resp->has_value()) {
      EXPECT_EQ(static_cast<uint8_t>((**resp)[0]),
                static_cast<uint8_t>(MsgType::kError));
    }
    ::close(fd);
  }

  // A well-behaved client is unaffected throughout.
  Client client = live.Connect();
  EXPECT_TRUE(client.Ping().ok());
  auto tables = client.Tables();
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(*tables, "Sales\n");
}

}  // namespace
}  // namespace tabular::server
