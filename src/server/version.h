#ifndef TABULAR_SERVER_VERSION_H_
#define TABULAR_SERVER_VERSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/database.h"
#include "core/status.h"

namespace tabular::server {

struct SchemaImage;  // server/program_cache.h

/// The slot for one published version's `SchemaImage`: empty when the
/// version is published, filled by the first lookup that needs it.
class SchemaImageSlot {
 public:
  SchemaImageSlot() = default;
  SchemaImageSlot(const SchemaImageSlot&) = delete;
  SchemaImageSlot& operator=(const SchemaImageSlot&) = delete;
  ~SchemaImageSlot();

  /// `SchemaImage(db)`, for `db` the database this slot was published
  /// with. The first call builds it and publishes it with one
  /// compare-and-swap; no caller ever waits for another. Callers racing on
  /// an empty slot each build a copy, and all but the one that publishes
  /// drop theirs.
  const SchemaImage& Get(const core::TabularDatabase& db) const;

 private:
  mutable std::atomic<const SchemaImage*> image_{nullptr};
};

/// A pinned, immutable database version. Copyable; the underlying
/// `TabularDatabase` is shared and never mutated after publication, so a
/// snapshot may be read from any thread for as long as the holder keeps it
/// alive — long after newer versions have been committed. Its tables are
/// themselves shared, by pointer, with every other version and private copy
/// holding them (see `core::TabularDatabase`): pinning an old snapshot
/// keeps alive only its table list and the tables newer versions replaced.
struct Snapshot {
  uint64_t version = 0;
  std::shared_ptr<const core::TabularDatabase> db;
  /// The version's image slot. It lives in the allocation `db` owns, so it
  /// is valid exactly as long as `db` is.
  const SchemaImageSlot* image_slot = nullptr;

  /// The version's schema image: built by the first call on any snapshot
  /// of the version, then shared by all of them. Requires a snapshot from
  /// `VersionedDatabase`.
  const SchemaImage& Image() const { return image_slot->Get(*db); }
};

/// Copy-on-write version store: the concurrency spine of `tabulard`.
///
/// The paper's model treats a database as a *value* that TA programs map to
/// new values, which makes multi-version concurrency the natural story:
/// every committed state is a complete immutable `TabularDatabase`; the
/// store holds a pointer to the newest one. Readers pin a `Snapshot` and
/// never block — `Current()` is a pointer copy under a mutex held for O(1)
/// work, never across a writer's program execution. Writers execute against
/// their own snapshot's copy and then `Commit` the result with
/// first-committer-wins optimistic concurrency: the swap succeeds only when
/// the base version is still current, so commits serialize into a linear
/// version history and a reader can never observe a half-applied program.
///
/// Copy-on-write is table-granular. The copy shares every table with the
/// snapshot, and programs replace tables rather than edit them, so a copy
/// costs O(#tables) and a committed version shares every table the program
/// did not write with its parent.
///
/// Every published version carries an empty `SchemaImageSlot`, so what the
/// program cache reads of a version is derived once per version, by
/// whichever session first needs it, rather than per request. Neither the
/// constructor nor `Commit` builds it.
class VersionedDatabase {
 public:
  /// Version 1 is the initial database.
  explicit VersionedDatabase(core::TabularDatabase initial);

  /// The newest committed version. Never blocks on writers.
  Snapshot Current() const;

  /// Installs `next` as the new current version iff `base_version` is still
  /// current (the snapshot-isolation write rule). On success returns the
  /// new version number; on a lost race returns `kUndefined` ("commit
  /// conflict") and the store is unchanged — the caller may re-execute
  /// against a fresh snapshot and retry.
  Result<uint64_t> Commit(uint64_t base_version, core::TabularDatabase next);

  /// Total successful commits (== Current().version - 1).
  uint64_t CommitCount() const;
  /// Total commits refused because the base version was stale.
  uint64_t ConflictCount() const;

 private:
  mutable std::mutex mu_;  // guards `current_` pointer swaps only
  Snapshot current_;
  uint64_t conflicts_ = 0;
};

}  // namespace tabular::server

#endif  // TABULAR_SERVER_VERSION_H_
