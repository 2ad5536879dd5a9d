/**
 * @file
 * Simulated durable storage for the write-ahead-log layer.
 *
 * SimulatedStorage models a set of named append/truncate files with
 * the one property that matters for crash recovery: a *durable*
 * prefix (survives a crash) versus a *pending* suffix (written but
 * not yet synced; a crash may lose it, keep a prefix of it, or keep
 * a damaged prefix of it). Readers always see durable+pending — the
 * live file view — while crash() collapses each file back to its
 * durable bytes through a StorageFaultModel.
 *
 * StorageFaultModel extends net::FaultModel's seeded-fault
 * philosophy to storage: every decision (how much of an unsynced
 * tail survives a torn write, which bits flip) is drawn from one
 * seeded core::Rng, so a crash schedule is a pure function of its
 * seed and every recovery experiment replays exactly. Deterministic
 * helpers (truncateTo / corruptByte / appendRaw) let tests place a
 * specific fault at a specific byte instead of sampling one.
 *
 * The whole module is in-memory; nothing here touches the real
 * filesystem. trustlint's `file-io` rule confines blocking file I/O
 * tokens to core/wal/, so durable state can only ever flow through
 * this layer.
 */

#ifndef TRUST_CORE_WAL_STORAGE_HH
#define TRUST_CORE_WAL_STORAGE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/bytes.hh"
#include "core/rng.hh"
#include "core/stats.hh"

namespace trust::core::wal {

/** Storage fault-injection configuration (all off by default). */
struct StorageFaultConfig
{
    std::uint64_t seed = 1;

    /**
     * Probability that a crash *tears* a file's unsynced tail:
     * a uniformly chosen prefix of the pending bytes survives
     * instead of the whole tail being lost. Mirrors a sector-level
     * partial write.
     */
    double tornWriteProbability = 0.0;

    /**
     * Probability that each surviving torn tail additionally has one
     * random bit flipped (media corruption in the torn region).
     */
    double bitFlipProbability = 0.0;
};

/** Per-fault-kind counters, mirroring net::FaultModel::counts(). */
struct StorageFaultCounts
{
    std::uint64_t crashes = 0;
    std::uint64_t tornWrites = 0;
    std::uint64_t bitFlips = 0;
    std::uint64_t droppedTails = 0;
};

/**
 * Seeded storage fault model: decides, at crash time, what happens
 * to each file's unsynced suffix. Deterministic per (seed, call
 * sequence); files are visited in sorted-name order so the decision
 * stream never depends on container iteration order.
 */
class StorageFaultModel
{
  public:
    explicit StorageFaultModel(StorageFaultConfig config = {})
        : config_(config), rng_(config.seed)
    {
    }

    const StorageFaultConfig &config() const { return config_; }
    const StorageFaultCounts &counts() const { return counts_; }

    /**
     * Decide how many of @p pending unsynced bytes survive a crash
     * and whether a bit flips in the survivors. Returns the
     * surviving byte count; flip_offset and flip_mask describe the
     * flip (mask 0 = none).
     */
    std::size_t survivingTail(std::size_t pending,
                              std::size_t *flip_offset,
                              std::uint8_t *flip_mask);

    void noteCrash() { ++counts_.crashes; }

  private:
    StorageFaultConfig config_;
    Rng rng_;
    StorageFaultCounts counts_;
};

/**
 * In-memory crash-faithful storage: named files with sync().
 *
 * Thread-safe: every operation takes an internal leaf mutex (no
 * callbacks run under it), so independent logs — e.g. the per-shard
 * segmented WALs of one TrustStore — may append concurrently from
 * different threads, and parallel recovery may scan/repair disjoint
 * files concurrently. The mutex guards only the name→bytes map
 * bookkeeping; callers needing atomicity across *multiple*
 * operations (check-size-then-append) must bring their own lock, as
 * the store's per-shard mutexes do.
 */
class SimulatedStorage
{
  public:
    SimulatedStorage() = default;

    /** Deep copy (both views). Not atomic w.r.t. concurrent writers
     *  to @p other beyond per-operation consistency. */
    SimulatedStorage(const SimulatedStorage &other);
    SimulatedStorage &operator=(const SimulatedStorage &other);

    /** Append bytes to a file's *pending* (unsynced) region. */
    void append(const std::string &file, const Bytes &data);

    /** Make everything written to @p file so far durable. */
    void sync(const std::string &file);

    /** Make every file durable (global barrier). */
    void syncAll();

    /** Total sync()/syncAll() calls (bench: durability cost proxy). */
    std::uint64_t
    syncCount() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return syncs_;
    }

    /** Live view: durable + pending bytes ("" if absent). */
    Bytes readAll(const std::string &file) const;

    bool exists(const std::string &file) const;
    std::size_t size(const std::string &file) const;
    std::size_t durableSize(const std::string &file) const;
    std::size_t pendingSize(const std::string &file) const;

    /** Sorted file names (deterministic iteration for callers). */
    std::vector<std::string> list() const;

    /**
     * Atomically replace @p to with @p from (rename semantics: the
     * destination is either its old durable content or the complete
     * new content, never a mix). @p from must be fully synced; the
     * rename itself is durable on return. Returns false if @p from
     * does not exist or has unsynced bytes.
     */
    bool rename(const std::string &from, const std::string &to);

    bool remove(const std::string &file);

    /**
     * Simulate a process crash: every file's pending suffix is
     * resolved through @p model (fully lost, torn, or torn +
     * bit-flipped) and the survivors become durable. With a default
     * (all-off) model the pending bytes are simply dropped.
     */
    void crash(StorageFaultModel &model);

    /** crash() with an all-off model: lose every unsynced byte. */
    void crashClean();

    // --- Deterministic fault placement (test/sweep helpers) ----------

    /** Truncate a file (durable view) to @p size bytes. */
    void truncateTo(const std::string &file, std::size_t size);

    /** XOR one durable byte with @p mask (no-op past EOF). */
    void corruptByte(const std::string &file, std::size_t offset,
                     std::uint8_t mask);

    /** Append raw durable bytes (e.g. garbage past a valid tail). */
    void appendRaw(const std::string &file, const Bytes &data);

    /** Deep copy (durable view only), as a crashed disk image. */
    SimulatedStorage durableClone() const;

  private:
    struct File
    {
        Bytes durable;
        Bytes pending;
    };

    /** Leaf lock over files_/syncs_; see class comment. */
    mutable std::mutex mutex_;

    /** Sorted map: crash() visits files in deterministic order. */
    std::map<std::string, File> files_;
    std::uint64_t syncs_ = 0;
};

} // namespace trust::core::wal

#endif // TRUST_CORE_WAL_STORAGE_HH
