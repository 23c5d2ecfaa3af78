#include "service/ckcache.hpp"

#include <sys/stat.h>

#include <sstream>
#include <utility>

#include "service/journal.hpp"
#include "util/hash.hpp"

namespace maps::service {

CheckpointCache::CheckpointCache(std::string indexPath)
    : indexPath_(std::move(indexPath))
{
    load();
}

std::string CheckpointCache::hashBytes(const std::string &bytes)
{
    return Fnv1a().bytes(bytes).hex();
}

bool CheckpointCache::statOf(const std::string &path,
                             std::uint64_t &bytes, std::int64_t &mtimeNs)
{
    struct stat st = {};
    if (::stat(path.c_str(), &st) != 0)
        return false;
    bytes = static_cast<std::uint64_t>(st.st_size);
    mtimeNs = static_cast<std::int64_t>(st.st_mtim.tv_sec) *
                  1000000000ll +
              static_cast<std::int64_t>(st.st_mtim.tv_nsec);
    return true;
}

std::string CheckpointCache::hashFor(const std::string &path)
{
    std::uint64_t bytes = 0;
    std::int64_t mtimeNs = 0;
    if (!statOf(path, bytes, mtimeNs))
        return "";
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(path);
    if (it != entries_.end() && it->second.bytes == bytes &&
        it->second.mtimeNs == mtimeNs)
        return it->second.hash;
    std::string contents;
    std::string err;
    if (!readWholeFile(path, contents, err))
        return "";
    Entry e;
    e.hash = hashBytes(contents);
    e.bytes = bytes;
    e.mtimeNs = mtimeNs;
    entries_[path] = e;
    dirty_ = true;
    return e.hash;
}

void CheckpointCache::noteWritten(const std::string &path,
                                  const std::string &bytes)
{
    std::uint64_t sz = 0;
    std::int64_t mtimeNs = 0;
    if (!statOf(path, sz, mtimeNs))
        return;
    Entry e;
    e.hash = hashBytes(bytes);
    e.bytes = sz;
    e.mtimeNs = mtimeNs;
    std::lock_guard<std::mutex> lock(mu_);
    entries_[path] = e;
    dirty_ = true;
}

bool CheckpointCache::persist(std::string &err)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (indexPath_.empty() || !dirty_)
        return true;
    std::ostringstream out;
    for (const auto &[path, e] : entries_)
        out << e.hash << '\t' << e.bytes << '\t' << e.mtimeNs << '\t'
            << path << '\n';
    if (!atomicWriteFile(indexPath_, out.str(), err))
        return false;
    dirty_ = false;
    return true;
}

std::size_t CheckpointCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

void CheckpointCache::load()
{
    if (indexPath_.empty())
        return;
    std::string text;
    std::string err;
    if (!readWholeFile(indexPath_, text, err))
        return;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::size_t a = line.find('\t');
        std::size_t b = a == std::string::npos
                            ? std::string::npos
                            : line.find('\t', a + 1);
        std::size_t c = b == std::string::npos
                            ? std::string::npos
                            : line.find('\t', b + 1);
        if (c == std::string::npos)
            continue;
        Entry e;
        e.hash = line.substr(0, a);
        try {
            e.bytes = std::stoull(line.substr(a + 1, b - a - 1));
            e.mtimeNs = std::stoll(line.substr(b + 1, c - b - 1));
        } catch (...) {
            continue;
        }
        const std::string path = line.substr(c + 1);
        if (e.hash.size() == 16 && !path.empty())
            entries_[path] = e;
    }
}

} // namespace maps::service
