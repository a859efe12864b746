#include "server/version.h"

#include <utility>

#include "obs/metrics.h"
#include "server/program_cache.h"

namespace tabular::server {

namespace {

/// One published version: its database and its image slot, in the one
/// allocation every snapshot of the version shares.
struct Published {
  explicit Published(core::TabularDatabase database)
      : db(std::move(database)) {}
  core::TabularDatabase db;
  SchemaImageSlot image_slot;
};

Snapshot Publish(uint64_t version, core::TabularDatabase db) {
  auto published = std::make_shared<const Published>(std::move(db));
  Snapshot snap;
  snap.version = version;
  snap.image_slot = &published->image_slot;
  const core::TabularDatabase* db_in_published = &published->db;
  snap.db = std::shared_ptr<const core::TabularDatabase>(std::move(published),
                                                         db_in_published);
  return snap;
}

}  // namespace

SchemaImageSlot::~SchemaImageSlot() {
  delete image_.load(std::memory_order_acquire);
}

const SchemaImage& SchemaImageSlot::Get(
    const core::TabularDatabase& db) const {
  const SchemaImage* seen = image_.load(std::memory_order_acquire);
  if (seen != nullptr) return *seen;
  // No lock: a session that arrived first on a fresh version must not make
  // the others wait for its build, since a version may be current for only
  // microseconds under steady commits.
  static obs::Counter& builds = obs::GetCounter("server.schema_image.builds");
  builds.Add(1);
  auto built = std::make_unique<const SchemaImage>(db);
  if (image_.compare_exchange_strong(seen, built.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    return *built.release();
  }
  return *seen;  // a racing session published first; ours is dropped
}

VersionedDatabase::VersionedDatabase(core::TabularDatabase initial)
    : current_(Publish(1, std::move(initial))) {}

Snapshot VersionedDatabase::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

Result<uint64_t> VersionedDatabase::Commit(uint64_t base_version,
                                           core::TabularDatabase next) {
  static obs::Counter& commits = obs::GetCounter("server.commits");
  static obs::Counter& conflicts = obs::GetCounter("server.commit_conflicts");
  // The new version is materialized outside the critical section; the lock
  // covers only the compare and the pointer swap. Its image slot starts
  // empty: the first session to run against it fills it.
  Snapshot published = Publish(base_version + 1, std::move(next));
  std::lock_guard<std::mutex> lock(mu_);
  if (current_.version != base_version) {
    ++conflicts_;
    conflicts.Add(1);
    return Status::Undefined(
        "commit conflict: base version " + std::to_string(base_version) +
        " is no longer current (now " + std::to_string(current_.version) +
        ")");
  }
  current_ = std::move(published);
  commits.Add(1);
  return current_.version;
}

uint64_t VersionedDatabase::CommitCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_.version - 1;
}

uint64_t VersionedDatabase::ConflictCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conflicts_;
}

}  // namespace tabular::server
