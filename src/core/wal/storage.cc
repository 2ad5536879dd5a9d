#include "core/wal/storage.hh"

#include <algorithm>

namespace trust::core::wal {

std::size_t
StorageFaultModel::survivingTail(std::size_t pending,
                                 std::size_t *flip_offset,
                                 std::uint8_t *flip_mask)
{
    *flip_offset = 0;
    *flip_mask = 0;
    if (pending == 0)
        return 0;
    if (!rng_.chance(config_.tornWriteProbability)) {
        ++counts_.droppedTails;
        return 0;
    }
    ++counts_.tornWrites;
    const auto kept = static_cast<std::size_t>(rng_.uniformInt(
        0, static_cast<std::int64_t>(pending)));
    if (kept > 0 && rng_.chance(config_.bitFlipProbability)) {
        ++counts_.bitFlips;
        *flip_offset = static_cast<std::size_t>(rng_.uniformInt(
            0, static_cast<std::int64_t>(kept) - 1));
        *flip_mask = static_cast<std::uint8_t>(
            1u << rng_.uniformInt(0, 7));
    }
    return kept;
}

SimulatedStorage::SimulatedStorage(const SimulatedStorage &other)
{
    std::lock_guard<std::mutex> lock(other.mutex_);
    files_ = other.files_;
    syncs_ = other.syncs_;
}

SimulatedStorage &
SimulatedStorage::operator=(const SimulatedStorage &other)
{
    if (this == &other)
        return *this;
    // Copy under the source lock, install under ours — the two
    // locks are never held together, so no ordering cycle exists.
    std::map<std::string, File> copy;
    std::uint64_t syncs = 0;
    {
        std::lock_guard<std::mutex> lock(other.mutex_);
        copy = other.files_;
        syncs = other.syncs_;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    files_ = std::move(copy);
    syncs_ = syncs;
    return *this;
}

void
SimulatedStorage::append(const std::string &file, const Bytes &data)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Bytes &pending = files_[file].pending;
    pending.insert(pending.end(), data.begin(), data.end());
}

void
SimulatedStorage::sync(const std::string &file)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++syncs_;
    const auto it = files_.find(file);
    if (it == files_.end())
        return;
    Bytes &durable = it->second.durable;
    Bytes &pending = it->second.pending;
    durable.insert(durable.end(), pending.begin(), pending.end());
    pending.clear();
}

void
SimulatedStorage::syncAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++syncs_;
    for (auto &[name, file] : files_) {
        file.durable.insert(file.durable.end(), file.pending.begin(),
                            file.pending.end());
        file.pending.clear();
    }
}

Bytes
SimulatedStorage::readAll(const std::string &file) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = files_.find(file);
    if (it == files_.end())
        return {};
    Bytes out = it->second.durable;
    out.insert(out.end(), it->second.pending.begin(),
               it->second.pending.end());
    return out;
}

bool
SimulatedStorage::exists(const std::string &file) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return files_.count(file) > 0;
}

std::size_t
SimulatedStorage::size(const std::string &file) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = files_.find(file);
    if (it == files_.end())
        return 0;
    return it->second.durable.size() + it->second.pending.size();
}

std::size_t
SimulatedStorage::durableSize(const std::string &file) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = files_.find(file);
    return it == files_.end() ? 0 : it->second.durable.size();
}

std::size_t
SimulatedStorage::pendingSize(const std::string &file) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = files_.find(file);
    return it == files_.end() ? 0 : it->second.pending.size();
}

std::vector<std::string>
SimulatedStorage::list() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(files_.size());
    for (const auto &[name, file] : files_)
        names.push_back(name);
    return names; // std::map: already sorted
}

bool
SimulatedStorage::rename(const std::string &from, const std::string &to)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = files_.find(from);
    if (it == files_.end() || !it->second.pending.empty())
        return false;
    files_[to] = std::move(it->second);
    files_.erase(from);
    return true;
}

bool
SimulatedStorage::remove(const std::string &file)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return files_.erase(file) > 0;
}

void
SimulatedStorage::crash(StorageFaultModel &model)
{
    std::lock_guard<std::mutex> lock(mutex_);
    model.noteCrash();
    for (auto &[name, file] : files_) {
        std::size_t flip_offset = 0;
        std::uint8_t flip_mask = 0;
        const std::size_t kept = model.survivingTail(
            file.pending.size(), &flip_offset, &flip_mask);
        file.pending.resize(std::min(kept, file.pending.size()));
        if (flip_mask != 0 && flip_offset < file.pending.size())
            file.pending[flip_offset] ^= flip_mask;
        file.durable.insert(file.durable.end(), file.pending.begin(),
                            file.pending.end());
        file.pending.clear();
    }
}

void
SimulatedStorage::crashClean()
{
    StorageFaultModel none;
    crash(none);
}

void
SimulatedStorage::truncateTo(const std::string &file, std::size_t size)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = files_.find(file);
    if (it == files_.end())
        return;
    it->second.pending.clear();
    if (it->second.durable.size() > size)
        it->second.durable.resize(size);
}

void
SimulatedStorage::corruptByte(const std::string &file,
                              std::size_t offset, std::uint8_t mask)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = files_.find(file);
    if (it == files_.end() || offset >= it->second.durable.size())
        return;
    it->second.durable[offset] ^= mask;
}

void
SimulatedStorage::appendRaw(const std::string &file, const Bytes &data)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Bytes &durable = files_[file].durable;
    durable.insert(durable.end(), data.begin(), data.end());
}

SimulatedStorage
SimulatedStorage::durableClone() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    SimulatedStorage out;
    for (const auto &[name, file] : files_)
        out.files_[name].durable = file.durable;
    return out;
}

} // namespace trust::core::wal
